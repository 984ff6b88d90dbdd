import filecmp
import json
import os

import numpy as np
import pytest

from litrel.cli import main
from litrel.serialize import load_arrays


@pytest.fixture
def dataset(tmp_path):
    people = [f"p{i}" for i in range(4)]
    houses = [f"h{i}" for i in range(4)]
    train, valid, test = [], [], []
    for i in range(4):
        train.append((people[i], "rents", houses[i]))
        train.append((people[i], "knows", people[(i + 1) % 4]))
    valid.append((people[0], "rents", houses[1]))
    test.append((people[1], "rents", houses[2]))
    literals = [(p, "income", 1000.0 + 250 * i) for i, p in enumerate(people)]
    literals += [(h, "rent", 400.0 + 90 * i) for i, h in enumerate(houses)]
    paths = {}
    for name, rows in (("train", train), ("valid", valid), ("test", test)):
        path = tmp_path / f"{name}.tsv"
        path.write_text("".join(f"{h}\t{r}\t{t}\n" for h, r, t in rows))
        paths[name] = str(path)
    lit_path = tmp_path / "literals.tsv"
    lit_path.write_text("".join(f"{e}\t{a}\t{v}\n" for e, a, v in literals))
    paths["literals"] = str(lit_path)
    labels_path = tmp_path / "labels.tsv"
    lines = [f"{p}\tperson\t{'train' if i < 3 else 'test'}\n" for i, p in enumerate(people)]
    lines += [f"{h}\thouse\t{'train' if i < 3 else 'test'}\n" for i, h in enumerate(houses)]
    labels_path.write_text("".join(lines))
    paths["labels"] = str(labels_path)
    return paths


def preprocess(dataset, artifact_dir, extra=()):
    return main([
        "preprocess",
        "--train-path", dataset["train"],
        "--valid-path", dataset["valid"],
        "--test-path", dataset["test"],
        "--literals-path", dataset["literals"],
        "--artifact-dir", artifact_dir,
        *extra,
    ])


def train(artifact_dir, checkpoint_dir, extra=()):
    return main([
        "--seed", "0",
        "train",
        "--artifact-dir", artifact_dir,
        "--checkpoint-dir", checkpoint_dir,
        "--model", "distmult",
        "--dim-entity", "8",
        "--dim-relation", "8",
        "--epochs", "5",
        "--learning-rate", "0.05",
        *extra,
    ])


class TestPreprocess:
    def test_writes_artifact_and_stats(self, dataset, tmp_path, capsys):
        artifact = str(tmp_path / "artifact")
        assert preprocess(dataset, artifact) == 0
        stats = json.loads(open(os.path.join(artifact, "stats.json")).read())
        assert stats["entities"] == 8
        assert stats["relations"] == 2
        assert stats["attributes"] == 2
        assert stats["train_triples"] == 8
        assert stats["literals"] == 8
        assert os.path.isdir(os.path.join(artifact, "profiles"))
        assert os.path.exists(os.path.join(artifact, "config.json"))
        out = capsys.readouterr().out
        assert "entities: 8" in out

    def test_rerun_is_byte_identical(self, dataset, tmp_path):
        a1 = str(tmp_path / "a1")
        a2 = str(tmp_path / "a2")
        assert preprocess(dataset, a1) == 0
        assert preprocess(dataset, a2) == 0
        for root, _, files in os.walk(a1):
            for name in files:
                p1 = os.path.join(root, name)
                p2 = p1.replace(a1, a2, 1)
                if name == "config.json":
                    continue  # embeds the artifact path itself
                assert filecmp.cmp(p1, p2, shallow=False), p1

    def test_missing_train_path_is_validation_error(self, capsys):
        assert main(["preprocess"]) == 1
        assert "train_path" in capsys.readouterr().err

    def test_fusion_without_literals_rejected(self, dataset, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"fusion": "linear", "train_path": dataset["train"]}))
        code = main([
            "--config", str(config),
            "preprocess",
            "--artifact-dir", str(tmp_path / "a"),
        ])
        assert code == 1
        assert "literals_path" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"learning_rte": 0.1}))
        assert main(["--config", str(config), "preprocess"]) == 1
        assert "learning_rte" in capsys.readouterr().err

    def test_garbage_input_is_parse_error(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("only\ttwo\n")
        assert main(["preprocess", "--train-path", str(bad)]) == 1

    def test_empty_label_rejected_without_artifact(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("a\tr\tb\n\tr\tc\n")
        artifact = tmp_path / "artifact"
        code = main(["preprocess", "--train-path", str(bad), "--artifact-dir", str(artifact)])
        assert code == 1
        assert "bad.tsv:2: empty head label" in capsys.readouterr().err
        assert not artifact.exists()


class TestTrainEvaluateClassify:
    @pytest.fixture
    def pipeline(self, dataset, tmp_path):
        artifact = str(tmp_path / "artifact")
        checkpoint = str(tmp_path / "checkpoint")
        assert preprocess(dataset, artifact) == 0
        assert train(artifact, checkpoint, extra=("--fusion", "linear")) == 0
        return {"artifact": artifact, "checkpoint": checkpoint, "tmp": tmp_path}

    def test_train_writes_checkpoint(self, pipeline, capsys):
        assert os.path.exists(os.path.join(pipeline["checkpoint"], "checkpoint.json"))
        assert os.path.isdir(os.path.join(pipeline["checkpoint"], "params"))

    def test_evaluate_writes_report(self, pipeline, capsys):
        out_dir = str(pipeline["tmp"] / "eval")
        code = main([
            "--output-dir", out_dir,
            "evaluate",
            "--artifact-dir", pipeline["artifact"],
            "--checkpoint-dir", pipeline["checkpoint"],
        ])
        assert code == 0
        report = json.loads(open(os.path.join(out_dir, "report.json")).read())
        assert 0 < report["mrr"] <= 1
        assert report["num_triples"] == 1
        assert "all triples" in capsys.readouterr().out

    def test_grouped_evaluate_percentage_threshold(self, pipeline):
        out_dir = str(pipeline["tmp"] / "eval_grouped")
        code = main([
            "--output-dir", out_dir,
            "evaluate",
            "--artifact-dir", pipeline["artifact"],
            "--checkpoint-dir", pipeline["checkpoint"],
            "--group-by", "frequency",
            "--threshold", "2.55%",
        ])
        assert code == 0
        report = json.loads(open(os.path.join(out_dir, "report.json")).read())
        assert report["grouping"] == "frequency"
        assert set(report["groups"]) == {"frequent", "long-tail"}

    def test_correlation_grouping(self, pipeline):
        out_dir = str(pipeline["tmp"] / "eval_corr")
        code = main([
            "--output-dir", out_dir,
            "evaluate",
            "--artifact-dir", pipeline["artifact"],
            "--checkpoint-dir", pipeline["checkpoint"],
            "--group-by", "correlation",
            "--threshold", "0.2",
        ])
        assert code == 0
        report = json.loads(open(os.path.join(out_dir, "report.json")).read())
        assert report["grouping"] == "correlation"

    @pytest.mark.parametrize("classifier", ["knn", "svm"])
    def test_classify(self, pipeline, dataset, classifier, capsys):
        out_dir = str(pipeline["tmp"] / f"cls_{classifier}")
        code = main([
            "--output-dir", out_dir,
            "classify",
            "--artifact-dir", pipeline["artifact"],
            "--checkpoint-dir", pipeline["checkpoint"],
            "--labels-path", dataset["labels"],
            "--classifier", classifier,
        ])
        assert code == 0
        payload = json.loads(open(os.path.join(out_dir, "classification.json")).read())
        assert 0 <= payload["micro_f1"] <= 1
        assert payload["labels"] == ["house", "person"]
        predictions = open(os.path.join(out_dir, "predictions.tsv")).read().splitlines()
        assert len(predictions) == 2

    def test_missing_checkpoint_is_validation_error(self, pipeline, capsys):
        code = main([
            "evaluate",
            "--artifact-dir", pipeline["artifact"],
            "--checkpoint-dir", str(pipeline["tmp"] / "nope"),
        ])
        assert code == 1

    def edit_checkpoint_meta(self, checkpoint, edit):
        path = os.path.join(checkpoint, "checkpoint.json")
        with open(path) as fh:
            meta = json.load(fh)
        edit(meta)
        with open(path, "w") as fh:
            json.dump(meta, fh)

    def evaluate(self, pipeline):
        return main([
            "--output-dir", str(pipeline["tmp"] / "eval"),
            "evaluate",
            "--artifact-dir", pipeline["artifact"],
            "--checkpoint-dir", pipeline["checkpoint"],
        ])

    def test_unknown_checkpoint_version_is_config_error(self, pipeline, capsys):
        self.edit_checkpoint_meta(pipeline["checkpoint"], lambda m: m.update(version=99))
        assert self.evaluate(pipeline) == 1
        assert "version 99" in capsys.readouterr().err

    def test_unknown_checkpoint_config_key_is_config_error(self, pipeline, capsys):
        self.edit_checkpoint_meta(pipeline["checkpoint"], lambda m: m["config"].update(bogus=1))
        assert self.evaluate(pipeline) == 1
        err = capsys.readouterr().err
        assert "bogus" in err
        assert "internal error" not in err

    def test_missing_artifact_is_validation_error(self, tmp_path):
        code = main(["train", "--artifact-dir", str(tmp_path / "nope")])
        assert code == 1


class TestDeterminism:
    def test_same_seed_gives_identical_checkpoints(self, dataset, tmp_path):
        artifact = str(tmp_path / "artifact")
        assert preprocess(dataset, artifact) == 0
        c1 = str(tmp_path / "c1")
        c2 = str(tmp_path / "c2")
        assert train(artifact, c1, extra=("--fusion", "gated")) == 0
        assert train(artifact, c2, extra=("--fusion", "gated")) == 0
        p1 = load_arrays(os.path.join(c1, "params"))
        p2 = load_arrays(os.path.join(c2, "params"))
        assert set(p1) == set(p2)
        for name in p1:
            np.testing.assert_array_equal(p1[name], p2[name])

    def test_different_seed_differs(self, dataset, tmp_path):
        artifact = str(tmp_path / "artifact")
        assert preprocess(dataset, artifact) == 0
        c1 = str(tmp_path / "c1")
        c2 = str(tmp_path / "c2")
        assert train(artifact, c1) == 0
        assert main([
            "--seed", "9",
            "train",
            "--artifact-dir", artifact,
            "--checkpoint-dir", c2,
            "--model", "distmult",
            "--dim-entity", "8",
            "--dim-relation", "8",
            "--epochs", "5",
            "--learning-rate", "0.05",
        ]) == 0
        p1 = load_arrays(os.path.join(c1, "params"))
        p2 = load_arrays(os.path.join(c2, "params"))
        assert not np.array_equal(p1["entity"], p2["entity"])


class TestConfigPrecedence:
    def test_flag_overrides_config_file(self, dataset, tmp_path):
        artifact = str(tmp_path / "artifact")
        assert preprocess(dataset, artifact) == 0
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "artifact_dir": artifact,
            "model": "transe",
            "dim_entity": 8,
            "dim_relation": 8,
            "epochs": 1,
        }))
        checkpoint = str(tmp_path / "ckpt")
        code = main([
            "--config", str(config),
            "train",
            "--model", "distmult",
            "--checkpoint-dir", checkpoint,
        ])
        assert code == 0
        meta = json.loads(open(os.path.join(checkpoint, "checkpoint.json")).read())
        assert meta["config"]["model"] == "distmult"
        echoed = json.loads(open(os.path.join(checkpoint, "config.json")).read())
        assert echoed["model"] == "distmult"
        assert echoed["epochs"] == 1
