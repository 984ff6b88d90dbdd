import filecmp
import json
import os
from pathlib import Path

import numpy as np
import pytest

from litrel.cli import main
from litrel.serialize import load_arrays, save_arrays


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
        stats = json.loads(Path(artifact, "stats.json").read_text())
        assert stats["entities"] == 8
        assert stats["relations"] == 2
        assert stats["attributes"] == 2
        assert stats["train_triples"] == 8
        assert stats["literals"] == 8
        assert os.path.isdir(os.path.join(artifact, "profiles"))
        assert os.path.exists(os.path.join(artifact, "config.json"))
        out = capsys.readouterr().out
        assert "entities: 8" in out

    @pytest.mark.parametrize("options", [
        {"aggregate_over_all_rows": False, "multiset_rows": False},
        {"aggregate_over_all_rows": True, "multiset_rows": True},
    ])
    def test_profile_options_recorded_next_to_profiles(self, dataset, tmp_path, options):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(options))
        artifact = str(tmp_path / "artifact")
        assert main(["--config", str(config), "preprocess",
                     "--train-path", dataset["train"], "--literals-path", dataset["literals"],
                     "--artifact-dir", artifact]) == 0
        with open(os.path.join(artifact, "profiles", "options.json")) as fh:
            assert json.load(fh) == options

    @pytest.mark.parametrize("options, message", [
        ({"multiset_rows": "false"}, "multiset_rows must be true or false, got 'false'"),
        ({"aggregate_over_all_rows": 1}, "aggregate_over_all_rows must be true or false, got 1"),
    ])
    def test_non_bool_profile_option_is_config_error(self, dataset, tmp_path, capsys,
                                                     options, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(options))
        artifact = tmp_path / "artifact"
        assert main(["--config", str(config), "preprocess",
                     "--train-path", dataset["train"], "--literals-path", dataset["literals"],
                     "--artifact-dir", str(artifact)]) == 1
        assert message in capsys.readouterr().err
        assert not artifact.exists()

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
        report = json.loads(Path(out_dir, "report.json").read_text())
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
        report = json.loads(Path(out_dir, "report.json").read_text())
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
        report = json.loads(Path(out_dir, "report.json").read_text())
        assert report["grouping"] == "correlation"

    @pytest.mark.parametrize("group_by, threshold", [
        ("correlation", "abc"),
        ("correlation", "5x%"),
        ("frequency", "abc%"),
        ("frequency", "nan"),
    ])
    def test_malformed_threshold_is_config_error(self, pipeline, capsys, group_by, threshold):
        code = main([
            "--output-dir", str(pipeline["tmp"] / "eval_bad"),
            "evaluate",
            "--artifact-dir", pipeline["artifact"],
            "--checkpoint-dir", pipeline["checkpoint"],
            "--group-by", group_by,
            "--threshold", threshold,
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert f"threshold {threshold!r} is not a finite number" in err
        assert "internal error" not in err

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
        payload = json.loads(Path(out_dir, "classification.json").read_text())
        assert 0 <= payload["micro_f1"] <= 1
        assert payload["labels"] == ["house", "person"]
        predictions = Path(out_dir, "predictions.tsv").read_text().splitlines()
        assert len(predictions) == 2

    @pytest.mark.parametrize("command, keys, message", [
        ("classify", {"knn_k": "x"}, "knn_k must be an integer, got 'x'"),
        ("classify", {"knn_k": 2.5}, "knn_k must be an integer, got 2.5"),
        ("classify", {"classifier": "svm", "svm_epochs": True},
         "svm_epochs must be an integer, got True"),
        ("classify", {"classifier": "svm", "svm_lr": "0.1"},
         "svm_lr must be a finite number, got '0.1'"),
        ("classify", {"classifier": "svm", "svm_reg": float("nan")},
         "svm_reg must be a finite number, got nan"),
        ("evaluate", {"group_by": "correlation", "threshold": 0.2, "min_corr_samples": "3"},
         "min_corr_samples must be an integer, got '3'"),
        ("classify", {"classifier": "svm", "svm_epochs": -5},
         "SVM epochs must be non-negative, got -5"),
        ("classify", {"classifier": "svm", "svm_lr": -1.0},
         "SVM learning rate must be positive, got -1.0"),
        ("classify", {"classifier": "svm", "svm_lr": 0.0},
         "SVM learning rate must be positive, got 0.0"),
        ("classify", {"classifier": "svm", "svm_reg": -3.0},
         "SVM regularization must be non-negative, got -3.0"),
    ])
    def test_wrongly_typed_command_key_is_config_error(self, pipeline, dataset, capsys,
                                                       command, keys, message):
        config = pipeline["tmp"] / "run.json"
        config.write_text(json.dumps({
            "artifact_dir": pipeline["artifact"],
            "checkpoint_dir": pipeline["checkpoint"],
            "labels_path": dataset["labels"],
            **keys,
        }))
        code = main(["--config", str(config), "--output-dir", str(pipeline["tmp"] / "out"), command])
        assert code == 1
        err = capsys.readouterr().err
        assert message in err
        assert "internal error" not in err

    @pytest.mark.parametrize("command", ["evaluate", "classify"])
    def test_checkpoint_from_another_artifact_is_config_error(self, pipeline, dataset, capsys, command):
        # the same entities and one relation more: relation index 1 ("rents") now means "q"
        tmp = pipeline["tmp"]
        train_path = tmp / "train_q.tsv"
        train_path.write_text(Path(dataset["train"]).read_text() + "p0\tq\th0\n")
        other = str(tmp / "other")
        assert preprocess(dict(dataset, train=str(train_path)), other) == 0
        args = ["--output-dir", str(tmp / "out"), command,
                "--artifact-dir", other, "--checkpoint-dir", pipeline["checkpoint"]]
        if command == "classify":
            args += ["--labels-path", dataset["labels"]]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert f"checkpoint {pipeline['checkpoint']} was not trained on artifact {other}" in err
        assert "relations.txt differ" in err
        assert "internal error" not in err

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

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda m: m.pop("config"), id="missing"),
        pytest.param(lambda m: m.update(config=["model"]), id="not-an-object"),
    ])
    def test_checkpoint_without_config_object_is_config_error(self, pipeline, capsys, edit):
        self.edit_checkpoint_meta(pipeline["checkpoint"], edit)
        assert self.evaluate(pipeline) == 1
        err = capsys.readouterr().err
        assert pipeline["checkpoint"] in err
        assert "internal error" not in err

    def test_checkpoint_config_of_wrong_type_is_config_error(self, pipeline, capsys):
        self.edit_checkpoint_meta(pipeline["checkpoint"], lambda m: m["config"].update(epochs="2"))
        assert self.evaluate(pipeline) == 1
        err = capsys.readouterr().err
        assert "epochs must be an integer, got '2'" in err
        assert "internal error" not in err

    def test_checkpoint_with_optimizer_state_evaluates_the_same(self, pipeline):
        # earlier checkpoints of the same version also stored Adam's step count and moments
        assert self.evaluate(pipeline) == 0
        report = Path(pipeline["tmp"], "eval", "report.json").read_bytes()
        params = load_arrays(os.path.join(pipeline["checkpoint"], "params"))
        moments = {"step_count": np.array([5], dtype=np.int64)}
        for name, arr in params.items():
            moments["m1." + name] = np.full_like(arr, 0.5)
            moments["m2." + name] = np.full_like(arr, 0.25)
        save_arrays(os.path.join(pipeline["checkpoint"], "optimizer"), moments)
        os.remove(os.path.join(pipeline["tmp"], "eval", "report.json"))
        assert self.evaluate(pipeline) == 0
        assert Path(pipeline["tmp"], "eval", "report.json").read_bytes() == report

    def test_missing_parameter_array_is_config_error(self, pipeline, capsys):
        os.remove(os.path.join(pipeline["checkpoint"], "params", "fusion.bias.npy"))
        assert self.evaluate(pipeline) == 1
        err = capsys.readouterr().err
        assert "missing ['fusion.bias']" in err
        assert "internal error" not in err

    def test_misshaped_parameter_array_is_config_error(self, pipeline, capsys):
        path = os.path.join(pipeline["checkpoint"], "params", "fusion.weight.npy")
        np.save(path, np.load(path)[:, :-1])
        assert self.evaluate(pipeline) == 1
        err = capsys.readouterr().err
        assert "fusion.weight has shape (12, 7), expected (12, 8)" in err
        assert "internal error" not in err

    def edit_graph_meta(self, artifact, edit):
        path = os.path.join(artifact, "graph.json")
        with open(path) as fh:
            meta = json.load(fh)
        edit(meta)
        with open(path, "w") as fh:
            json.dump(meta, fh)

    def test_artifact_version_mismatch_is_validation_error(self, pipeline, capsys):
        self.edit_graph_meta(pipeline["artifact"], lambda m: m.update(version=99))
        assert train(pipeline["artifact"], str(pipeline["tmp"] / "c2")) == 1
        err = capsys.readouterr().err
        assert "graph.json: artifact version 99" in err
        assert "internal error" not in err

    @pytest.mark.parametrize("name", ["entities", "relations", "attributes"])
    def test_artifact_size_mismatch_is_validation_error(self, pipeline, capsys, name):
        self.edit_graph_meta(pipeline["artifact"], lambda m: m.update({name: 17}))
        assert train(pipeline["artifact"], str(pipeline["tmp"] / "c2")) == 1
        err = capsys.readouterr().err
        assert f"graph.json: records 17 {name}" in err
        assert "internal error" not in err

    def test_triple_index_out_of_range_is_validation_error(self, pipeline, capsys):
        path = os.path.join(pipeline["artifact"], "arrays", "test.npy")
        test = np.load(path)
        test[0, 2] = 999
        np.save(path, test)
        assert self.evaluate(pipeline) == 1
        err = capsys.readouterr().err
        assert "test.npy: triple 0 has tail index 999 outside 0..7" in err
        assert "internal error" not in err

    def test_profile_relation_count_mismatch_is_validation_error(self, pipeline, capsys):
        path = os.path.join(pipeline["artifact"], "profiles", "u_head.npy")
        np.save(path, np.load(path)[:1])
        assert train(pipeline["artifact"], str(pipeline["tmp"] / "c2"), extra=("--fusion", "linear")) == 1
        err = capsys.readouterr().err
        assert "u_head.npy has shape (1, 2, 11), expected (2, 2, 11)" in err
        assert "internal error" not in err

    def test_missing_profile_array_is_validation_error(self, pipeline, capsys):
        os.remove(os.path.join(pipeline["artifact"], "profiles", "u_tail.npy"))
        assert train(pipeline["artifact"], str(pipeline["tmp"] / "c2"), extra=("--fusion", "linear")) == 1
        err = capsys.readouterr().err
        assert "u_tail.npy is missing" in err
        assert "internal error" not in err

    def test_checkpoint_profile_mismatch_is_validation_error(self, pipeline, capsys):
        path = os.path.join(pipeline["checkpoint"], "profiles", "u_tail.npy")
        np.save(path, np.load(path)[:, :, :5])
        assert self.evaluate(pipeline) == 1
        err = capsys.readouterr().err
        assert "u_tail.npy has shape (2, 2, 5), expected (2, 2, 11)" in err
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
        meta = json.loads(Path(checkpoint, "checkpoint.json").read_text())
        assert meta["config"]["model"] == "distmult"
        echoed = json.loads(Path(checkpoint, "config.json").read_text())
        assert echoed["model"] == "distmult"
        assert echoed["epochs"] == 1

    def test_profile_options_are_not_training_config(self, dataset, tmp_path):
        artifact = str(tmp_path / "artifact")
        assert preprocess(dataset, artifact) == 0
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "artifact_dir": artifact,
            "aggregate_over_all_rows": True,
            "multiset_rows": True,
        }))
        checkpoint = str(tmp_path / "ckpt")
        assert main(["--config", str(config), "train", "--checkpoint-dir", checkpoint,
                     "--dim-entity", "8", "--dim-relation", "8", "--epochs", "1"]) == 0
        meta = json.loads(Path(checkpoint, "checkpoint.json").read_text())
        assert "aggregate_over_all_rows" not in meta["config"]
        assert "multiset_rows" not in meta["config"]

    @pytest.mark.parametrize("content, message", [
        ('5', "does not hold a JSON object"),
        ('["epochs"]', "does not hold a JSON object"),
        ('{"epochs": "2"}', "epochs must be an integer, got '2'"),
        ('{"epochs": 2.0}', "epochs must be an integer, got 2.0"),
        ('{"batch_size": true}', "batch_size must be an integer, got True"),
        ('{"learning_rate": "0.1"}', "learning_rate must be a finite number, got '0.1'"),
        ('{"train_path": 0}', "train_path must be a string or null, got 0"),
        ('{"labels_path": false}', "labels_path must be a string or null, got False"),
        ('{"checkpoint_dir": ["c"]}', "checkpoint_dir must be a string or null, got ['c']"),
    ])
    def test_wrongly_typed_config_file_is_config_error(self, dataset, tmp_path, capsys,
                                                       content, message):
        artifact = str(tmp_path / "artifact")
        assert preprocess(dataset, artifact) == 0
        config = tmp_path / "run.json"
        config.write_text(content)
        code = main(["--config", str(config), "train", "--artifact-dir", artifact,
                     "--checkpoint-dir", str(tmp_path / "ckpt")])
        assert code == 1
        err = capsys.readouterr().err
        assert message in err
        assert "internal error" not in err
