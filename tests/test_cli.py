import argparse
import contextlib
import filecmp
import io
import json
import logging
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from litrel.cli import KEYS, build_parser, main
from litrel.data import vocabulary_digests
from litrel.evaluation import EvaluationReport
from litrel.serialize import load_arrays, save_arrays
from litrel.training import TrainConfig


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

    def test_profiles_are_the_two_stat_tensors(self, dataset, tmp_path):
        # the population convention is fixed, so nothing records it next to the profiles
        artifact = tmp_path / "artifact"
        assert preprocess(dataset, str(artifact)) == 0
        assert sorted(os.listdir(artifact / "profiles")) == ["u_head.npy", "u_tail.npy"]

    # a side's population is always its distinct training entities; TransE is always L2, the
    # loss has no weight penalty, and the correlation minimum and SVM schedule are fixed
    @pytest.mark.parametrize("key", ["aggregate_over_all_rows", "multiset_rows", "transe_norm", "l2",
                                     "min_corr_samples", "svm_epochs", "svm_lr", "svm_reg"])
    def test_removed_key_is_unknown_key(self, dataset, tmp_path, capsys, key):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: False}))
        artifact = tmp_path / "artifact"
        assert main(["--config", str(config), "preprocess",
                     "--train-path", dataset["train"], "--literals-path", dataset["literals"],
                     "--artifact-dir", str(artifact)]) == 1
        assert f"unknown config keys: ['{key}']" in capsys.readouterr().err
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

    def test_each_call_logs_to_the_current_stderr(self, dataset, tmp_path, monkeypatch):
        # as in a fresh process, which has no root handler (pytest installs its own)
        monkeypatch.setattr(logging.root, "handlers", [])
        with open(dataset["train"], "a") as fh:
            fh.write("p0\trents\th0\n")
        streams = [io.StringIO(), io.StringIO()]
        for i, stream in enumerate(streams):
            with contextlib.redirect_stderr(stream):
                assert preprocess(dataset, str(tmp_path / f"artifact{i}")) == 0
        for stream in streams:
            assert stream.getvalue() == (
                "WARNING litrel.data: duplicate triple in train split: (p0, rents, h0)\n")
        assert logging.root.handlers == []

    def test_handlers_of_an_application_are_kept(self, dataset, tmp_path, monkeypatch):
        messages = []

        class Collect(logging.Handler):
            def emit(self, record):
                messages.append(record.getMessage())

        handler = Collect()
        monkeypatch.setattr(logging.root, "handlers", [handler])
        with open(dataset["train"], "a") as fh:
            fh.write("p0\trents\th0\n")
        stream = io.StringIO()
        with contextlib.redirect_stderr(stream):
            assert preprocess(dataset, str(tmp_path / "artifact")) == 0
        assert logging.root.handlers == [handler]
        assert messages == ["duplicate triple in train split: (p0, rents, h0)"]
        assert stream.getvalue() == ""


@pytest.fixture
def pipeline(dataset, tmp_path):
    artifact = str(tmp_path / "artifact")
    checkpoint = str(tmp_path / "checkpoint")
    assert preprocess(dataset, artifact) == 0
    assert train(artifact, checkpoint, extra=("--fusion", "linear")) == 0
    return {"artifact": artifact, "checkpoint": checkpoint, "tmp": tmp_path}


class TestTrainEvaluateClassify:
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

    def test_group_without_test_triples_has_null_metrics(self, pipeline):
        # no relation has more than 100000 training triples, so "frequent" is empty
        out_dir = pipeline["tmp"] / "eval_empty_group"
        assert main([
            "--output-dir", str(out_dir),
            "evaluate",
            "--artifact-dir", pipeline["artifact"],
            "--checkpoint-dir", pipeline["checkpoint"],
            "--group-by", "frequency",
            "--threshold", "100000",
        ]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["groups"]["frequent"] == {
            "num_triples": 0, "mrr": None, "hits_at_1": None, "hits_at_10": None,
        }
        assert report["groups"]["long-tail"]["num_triples"] == 1
        assert report["groups"]["long-tail"]["mrr"] == report["mrr"]
        rows = (out_dir / "report.txt").read_text().splitlines()
        assert rows[1].split() == ["frequent", "0", "--", "--", "--"]
        assert rows[2].split()[:2] == ["long-tail", "1"]
        assert "--" not in rows[2]

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
        ("evaluate", {"tie_policy": "best"},
         "tie_policy must be one of 'realistic', 'optimistic', 'pessimistic', got 'best'"),
        ("classify", {"classifier": "svm", "seed": -1}, "seed must be >= 0, got -1"),
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

    def infer(self, pipeline, dataset, command):
        """Run ``evaluate`` or ``classify`` on the pipeline's artifact and checkpoint."""
        args = ["--output-dir", str(pipeline["tmp"] / "out"), command,
                "--artifact-dir", pipeline["artifact"], "--checkpoint-dir", pipeline["checkpoint"]]
        if command == "classify":
            args += ["--labels-path", dataset["labels"]]
        return main(args)

    @pytest.mark.parametrize("version", [99, 3, 4, 5])
    def test_unknown_checkpoint_version_is_config_error(self, pipeline, capsys, version):
        # version 3 stored the fusion block and the profiles instead of the fused relation rows;
        # version 4's config held the removed transe_norm and l2 keys; version 5 stored a vanilla
        # model's fusion as null
        self.edit_checkpoint_meta(pipeline["checkpoint"], lambda m: m.update(version=version))
        assert self.evaluate(pipeline) == 1
        err = capsys.readouterr().err
        assert f"checkpoint version {version} is not supported (expected 6); train the model again" in err

    @pytest.mark.parametrize("key", ["bogus", "l2"])
    def test_unknown_checkpoint_config_key_is_config_error(self, pipeline, capsys, key):
        # the version check runs first, so this message means the checkpoint is of the current version
        self.edit_checkpoint_meta(pipeline["checkpoint"], lambda m: m["config"].update({key: 1}))
        assert self.evaluate(pipeline) == 1
        err = capsys.readouterr().err
        assert f"unknown checkpoint config keys: ['{key}']" in err
        assert "internal error" not in err

    # no default may stand in for a stored value: a TransE checkpoint without "model" would rank as DistMult
    @pytest.mark.parametrize("key", ["model", "fusion"])
    def test_checkpoint_config_missing_key_is_config_error(self, pipeline, capsys, key):
        self.edit_checkpoint_meta(pipeline["checkpoint"], lambda m: m["config"].pop(key))
        assert self.evaluate(pipeline) == 1
        err = capsys.readouterr().err
        assert f"checkpoint config lacks keys: ['{key}']" in err
        assert "internal error" not in err
        assert not (pipeline["tmp"] / "eval").exists()

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
        # a directory the format does not name, such as Adam's step count and moments, is not read
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
        os.remove(os.path.join(pipeline["checkpoint"], "params", "relation.npy"))
        assert self.evaluate(pipeline) == 1
        err = capsys.readouterr().err
        assert "missing ['relation']" in err
        assert "internal error" not in err

    def test_misshaped_parameter_array_is_config_error(self, pipeline, capsys):
        path = os.path.join(pipeline["checkpoint"], "params", "relation.npy")
        np.save(path, np.load(path)[:, :-1])
        assert self.evaluate(pipeline) == 1
        err = capsys.readouterr().err
        assert "relation has shape (2, 7), expected (|R|, 8)" in err
        assert "internal error" not in err

    @pytest.mark.parametrize("command", ["evaluate", "classify"])
    @pytest.mark.parametrize("corrupt, message", [
        pytest.param(lambda a: np.where(a == a.max(), np.nan, a), "entity holds a non-finite value",
                     id="nan"),
        pytest.param(lambda a: np.float64(1.0), "entity has shape (), expected (|E|, 8)", id="0-d"),
        pytest.param(lambda a: a.astype(np.float32), "entity has dtype float32, expected float64",
                     id="float32"),
    ])
    def test_corrupt_parameter_array_is_config_error(self, pipeline, dataset, capsys, command,
                                                     corrupt, message):
        # load_checkpoint is the only check of the entity rows that KNN and the SVM read
        path = os.path.join(pipeline["checkpoint"], "params", "entity.npy")
        np.save(path, corrupt(np.load(path)))
        assert self.infer(pipeline, dataset, command) == 1
        err = capsys.readouterr().err
        assert f"{pipeline['checkpoint']}: parameter {message}" in err
        assert "internal error" not in err

    @pytest.mark.parametrize("command", ["evaluate", "classify"])
    @pytest.mark.parametrize("table, name, kept, size", [("entity", "entities", 7, 8),
                                                         ("relation", "relations", 1, 2)])
    def test_checkpoint_rows_must_match_the_artifact(self, pipeline, dataset, capsys, command,
                                                     table, name, kept, size):
        path = os.path.join(pipeline["checkpoint"], "params", table + ".npy")
        np.save(path, np.load(path)[:kept])
        assert self.infer(pipeline, dataset, command) == 1
        err = capsys.readouterr().err
        assert (f"checkpoint {pipeline['checkpoint']} has rows for {kept} {name}, "
                f"but artifact {pipeline['artifact']} has {size}") in err
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

    def test_fused_train_without_artifact_profiles_is_error(self, pipeline, capsys):
        # train reads the profiles the artifact holds and does not rebuild them
        profile_dir = os.path.join(pipeline["artifact"], "profiles")
        shutil.rmtree(profile_dir)
        assert train(pipeline["artifact"], str(pipeline["tmp"] / "c2"), extra=("--fusion", "linear")) == 1
        err = capsys.readouterr().err
        assert profile_dir in err
        assert "internal error" not in err
        assert train(pipeline["artifact"], str(pipeline["tmp"] / "c3")) == 0

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


def evaluate(artifact_dir, checkpoint_dir, output_dir):
    return main(["--output-dir", output_dir, "evaluate",
                 "--artifact-dir", artifact_dir, "--checkpoint-dir", checkpoint_dir])


def classify(artifact_dir, checkpoint_dir, output_dir, labels_path):
    return main(["--seed", "0", "--output-dir", output_dir, "classify",
                 "--artifact-dir", artifact_dir, "--checkpoint-dir", checkpoint_dir,
                 "--labels-path", labels_path])


def snapshot(*directories):
    """{path: (inode, bytes)} of every file under ``directories``."""
    files = {}
    for directory in directories:
        for root, _, names in os.walk(directory):
            for name in names:
                path = os.path.join(root, name)
                files[path] = (os.stat(path).st_ino, Path(path).read_bytes())
    return files


def fail_if_called(*args, **kwargs):
    raise AssertionError("work started before the output directory was checked")


class TestOutputSwap:
    """Outputs are written beside their target and renamed into place, never rewritten in place."""

    def test_rerun_swaps_every_output_in_whole(self, dataset, tmp_path, monkeypatch):
        artifact, checkpoint, out = (str(tmp_path / name) for name in ("artifact", "checkpoint", "out"))

        def run():
            # a trailing "/" must still put the .tmp/.old siblings next to the directory
            assert preprocess(dataset, artifact + "/") == 0
            assert train(artifact, checkpoint + "/", extra=("--fusion", "linear")) == 0
            # evaluate and classify share one output directory
            assert evaluate(artifact, checkpoint, out) == 0
            assert classify(artifact, checkpoint, out, dataset["labels"]) == 0

        run()
        first = snapshot(artifact, checkpoint, out)
        renames = []
        for name in ("rename", "replace"):
            def record(src, dst, *args, real=getattr(os, name), **kwargs):
                renames.append((dst, os.path.lexists(dst)))
                return real(src, dst, *args, **kwargs)
            monkeypatch.setattr(os, name, record)
        run()
        monkeypatch.undo()
        second = snapshot(artifact, checkpoint, out)
        assert set(second) == set(first)
        assert {path for path in first if second[path][0] == first[path][0]} == set()
        assert {path: data for path, (_, data) in second.items()} == \
            {path: data for path, (_, data) in first.items()}
        assert renames and [dst for dst, existed in renames if existed] == []
        leftovers = [name for _, dirs, names in os.walk(tmp_path) for name in dirs + names
                     if name.endswith((".tmp", ".old"))]
        assert leftovers == []

    def test_failed_classification_write_keeps_previous_outputs(self, dataset, pipeline, monkeypatch):
        out = str(pipeline["tmp"] / "out")
        assert classify(pipeline["artifact"], pipeline["checkpoint"], out, dataset["labels"]) == 0
        before = snapshot(out)
        dump = json.dump

        def dump_fails_midway(document, fh, **kwargs):
            if "classification.json" in fh.name:
                fh.write("{")
                raise OSError(28, "No space left on device")
            dump(document, fh, **kwargs)

        monkeypatch.setattr(json, "dump", dump_fails_midway)
        assert classify(pipeline["artifact"], pipeline["checkpoint"], out, dataset["labels"]) == 2
        assert sorted(os.listdir(out)) == ["classification.json", "config.json", "predictions.tsv"]
        assert {p: data for p, (_, data) in snapshot(out).items()} == \
            {p: data for p, (_, data) in before.items()}

    def test_failed_report_write_keeps_previous_outputs(self, pipeline, monkeypatch):
        out = str(pipeline["tmp"] / "out")
        assert evaluate(pipeline["artifact"], pipeline["checkpoint"], out) == 0
        before = snapshot(out)

        def table_fails(self):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(EvaluationReport, "to_table", table_fails)
        assert evaluate(pipeline["artifact"], pipeline["checkpoint"], out) == 2
        assert sorted(os.listdir(out)) == ["config.json", "report.json", "report.txt"]
        assert {p: data for p, (_, data) in snapshot(out).items()} == \
            {p: data for p, (_, data) in before.items()}

    def test_failed_artifact_swap_leaves_a_usable_artifact(self, dataset, pipeline, monkeypatch, caplog):
        tmp, artifact = pipeline["tmp"], pipeline["artifact"]
        rename = os.rename

        def rename_fails_for_new_artifact(src, dst):
            if src.endswith(".tmp"):
                raise OSError("killed before the new artifact was in place")
            rename(src, dst)

        monkeypatch.setattr(os, "rename", rename_fails_for_new_artifact)
        assert preprocess(dataset, artifact) == 2
        monkeypatch.undo()
        assert not os.path.exists(artifact)
        checkpoint = str(tmp / "checkpoint2")
        assert train(artifact, checkpoint, extra=("--fusion", "linear")) == 0
        assert any("left by an interrupted write" in r.getMessage() for r in caplog.records)
        recorded = json.loads(Path(checkpoint, "checkpoint.json").read_text())["artifact"]
        assert recorded == vocabulary_digests(artifact + ".old")
        assert evaluate(artifact, checkpoint, str(tmp / "eval")) == 0
        assert classify(artifact, checkpoint, str(tmp / "cls"), dataset["labels"]) == 0
        # the next preprocess puts the new artifact in place and drops the old one
        assert preprocess(dataset, artifact) == 0
        assert sorted(name for name in os.listdir(tmp) if name.startswith("artifact")) == ["artifact"]

    @pytest.mark.parametrize("command", ["preprocess", "train"])
    @pytest.mark.parametrize("spelling", ["victim", "victim/"])
    def test_foreign_directory_is_refused_before_work(self, dataset, pipeline, capsys, monkeypatch,
                                                      command, spelling):
        tmp = pipeline["tmp"]
        (tmp / "victim").mkdir()
        (tmp / "victim" / "notes.txt").write_text("keep me\n")
        monkeypatch.setattr("litrel.cli.load_triples", fail_if_called)
        monkeypatch.setattr("litrel.training.train", fail_if_called)
        directory = str(tmp / spelling)
        if command == "preprocess":
            code = preprocess(dataset, directory)
        else:
            code = train(pipeline["artifact"], directory)
        assert code == 1
        err = capsys.readouterr().err
        assert str(tmp / "victim") in err
        assert "internal error" not in err
        assert os.listdir(tmp / "victim") == ["notes.txt"]
        assert (tmp / "victim" / "notes.txt").read_text() == "keep me\n"
        assert not [name for name in os.listdir(tmp) if name.startswith("victim.")]

    @pytest.mark.parametrize("command, marker", [("preprocess", "graph.json"),
                                                 ("train", "checkpoint.json")])
    @pytest.mark.parametrize("directory, inside", [(".", ""), ("..", "sub")])
    def test_working_directory_is_refused_before_work(self, dataset, pipeline, capsys, monkeypatch,
                                                      command, marker, directory, inside):
        # a previous output, so only the working-directory rule refuses it
        target = Path(pipeline["artifact"] if command == "preprocess" else pipeline["checkpoint"])
        (target / inside).mkdir(exist_ok=True)
        before = snapshot(target)
        monkeypatch.chdir(target / inside)
        monkeypatch.setattr("litrel.cli.load_triples", fail_if_called)
        monkeypatch.setattr("litrel.training.train", fail_if_called)
        if command == "preprocess":
            code = preprocess(dataset, directory)
        else:
            code = train(pipeline["artifact"], directory)
        assert code == 1
        err = capsys.readouterr().err
        assert f"{directory!r} is or contains the working directory" in err
        assert snapshot(target) == before
        assert not [name for name in os.listdir(target.parent) if name.endswith((".tmp", ".old"))]
        assert (target / marker).exists()


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

    def test_a_flag_does_not_outlive_its_command(self, dataset, tmp_path):
        """The parser is built once per process; a flag of one ``main`` call is not the next one's."""
        artifact = str(tmp_path / "artifact")
        assert preprocess(dataset, artifact) == 0
        for checkpoint, epochs in (("first", ["--epochs", "3"]), ("second", [])):
            assert main(["train", "--artifact-dir", artifact, "--checkpoint-dir", str(tmp_path / checkpoint),
                         "--dim-entity", "4", "--dim-relation", "4", *epochs]) == 0
        assert build_parser() is build_parser()
        for checkpoint, epochs in (("first", 3), ("second", KEYS["epochs"].default)):
            assert json.loads(Path(tmp_path, checkpoint, "config.json").read_text())["epochs"] == epochs

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

    @pytest.mark.parametrize("content, message", [
        ('{"seed": -1}', "seed must be >= 0, got -1"),
        ('{"valid_every": -1, "epochs": 1}', "valid_every must be >= 0, got -1"),
    ])
    def test_out_of_range_train_config_is_config_error(self, dataset, tmp_path, capsys,
                                                       content, message):
        artifact = str(tmp_path / "artifact")
        assert preprocess(dataset, artifact) == 0
        config = tmp_path / "run.json"
        config.write_text(content)
        checkpoint = tmp_path / "ckpt"
        code = main(["--config", str(config), "train", "--artifact-dir", artifact,
                     "--checkpoint-dir", str(checkpoint)])
        assert code == 1
        err = capsys.readouterr().err
        assert message in err
        assert "internal error" not in err
        assert not checkpoint.exists()

    def test_negative_seed_flag_is_config_error(self, dataset, tmp_path, capsys):
        artifact = str(tmp_path / "artifact")
        assert preprocess(dataset, artifact) == 0
        code = main(["--seed", "-1", "train", "--artifact-dir", artifact,
                     "--checkpoint-dir", str(tmp_path / "ckpt")])
        assert code == 1
        err = capsys.readouterr().err
        assert "seed must be >= 0, got -1" in err
        assert "internal error" not in err


class TestInputErrors:
    def classify(self, pipeline, labels, extra=()):
        return main(["--output-dir", str(pipeline["tmp"] / "cls"), *extra, "classify",
                     "--artifact-dir", pipeline["artifact"],
                     "--checkpoint-dir", pipeline["checkpoint"], "--labels-path", labels])

    def assert_error(self, capsys, *fragments):
        err = capsys.readouterr().err
        for fragment in fragments:
            assert fragment in err
        assert "internal error" not in err

    def test_directory_as_train_path_is_error(self, tmp_path, capsys):
        assert main(["preprocess", "--train-path", str(tmp_path),
                     "--artifact-dir", str(tmp_path / "artifact")]) == 1
        self.assert_error(capsys, "Is a directory", str(tmp_path))

    def test_directory_as_labels_path_is_error(self, pipeline, capsys):
        assert self.classify(pipeline, str(pipeline["tmp"])) == 1
        self.assert_error(capsys, "Is a directory", str(pipeline["tmp"]))

    def test_file_as_output_dir_is_error(self, dataset, pipeline, capsys):
        # preprocess makes <output-dir>/artifact inside the file; classify makes the file itself
        taken = pipeline["tmp"] / "taken"
        taken.write_text("")
        assert main(["--output-dir", str(taken), "preprocess",
                     "--train-path", dataset["train"]]) == 1
        self.assert_error(capsys, "Not a directory", str(taken))
        assert self.classify(pipeline, dataset["labels"], extra=("--output-dir", str(taken))) == 1
        self.assert_error(capsys, "File exists", str(taken))

    def test_empty_training_split_is_validation_error(self, dataset, tmp_path, capsys):
        Path(dataset["train"]).write_text("")
        artifact, checkpoint = str(tmp_path / "artifact"), str(tmp_path / "checkpoint")
        assert preprocess(dataset, artifact) == 0
        assert train(artifact, checkpoint, extra=("--epochs", "1")) == 1
        self.assert_error(capsys, "split 'train' is empty")
        assert not os.path.exists(checkpoint)
        assert train(artifact, checkpoint, extra=("--epochs", "0")) == 0

    def test_unreadable_input_is_error(self, dataset, tmp_path, capsys, monkeypatch):
        def refuse(path):
            raise PermissionError(13, "Permission denied", path)
        monkeypatch.setattr("litrel.cli.load_triples", refuse)
        assert preprocess(dataset, str(tmp_path / "artifact")) == 1
        self.assert_error(capsys, "Permission denied", dataset["train"])

    @pytest.mark.parametrize("text, error", [
        ("p0\t\ttrain\np3\t\ttest\n", ":1: empty class label"),
        ("p0\tperson\ttrain\n\tperson\ttest\n", ":2: empty node label"),
    ])
    def test_empty_label_in_label_file_is_parse_error(self, pipeline, capsys, text, error):
        labels = pipeline["tmp"] / "empty_label.tsv"
        labels.write_text(text)
        assert main(["--output-dir", str(pipeline["tmp"] / "cls"), "classify",
                     "--artifact-dir", pipeline["artifact"], "--checkpoint-dir", pipeline["checkpoint"],
                     "--labels-path", str(labels), "--knn-k", "1"]) == 1
        self.assert_error(capsys, f"{labels}{error}")

    @pytest.mark.parametrize("name", ["train", "literals", "labels"])
    def test_non_utf8_input_is_parse_error(self, dataset, pipeline, capsys, name):
        path = Path(dataset[name])
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(lines[0] + b"caf\xe9\t" + lines[1].split(b"\t", 1)[1] + b"".join(lines[2:]))
        if name == "labels":
            code = self.classify(pipeline, str(path))
        else:
            code = preprocess(dataset, str(pipeline["tmp"] / "again"))
        assert code == 1
        self.assert_error(capsys, f"{path}:2: not UTF-8 text")

    @pytest.mark.parametrize("where, name", [
        ("checkpoint", "checkpoint.json"),
        ("checkpoint", "history.json"),
        ("artifact", "graph.json"),
    ])
    def test_truncated_json_is_parse_error(self, dataset, pipeline, capsys, where, name):
        path = Path(pipeline[where], name)
        path.write_bytes(path.read_bytes()[:len(path.read_bytes()) // 2])
        assert self.classify(pipeline, dataset["labels"]) == 1
        self.assert_error(capsys, f"cannot parse JSON file {path}")

    def test_non_utf8_vocabulary_is_parse_error(self, dataset, pipeline, capsys):
        path = Path(pipeline["artifact"], "entities.txt")
        path.write_bytes(path.read_bytes().replace(b"h1", b"h\xff"))
        assert self.classify(pipeline, dataset["labels"]) == 1
        self.assert_error(capsys, f"{path}: not UTF-8 text")

    @pytest.mark.parametrize("where, name", [("artifact", "arrays/train.npy"),
                                             ("checkpoint", "params/entity.npy")])
    def test_truncated_array_is_parse_error(self, dataset, pipeline, capsys, where, name):
        path = Path(pipeline[where], name)
        path.write_bytes(path.read_bytes()[:100])
        assert self.classify(pipeline, dataset["labels"]) == 1
        self.assert_error(capsys, f"cannot read array file {path}")

    @pytest.mark.parametrize("name, corrupt, message", [
        pytest.param("train", None, "is missing", id="no-train"),
        pytest.param("raw_min", None, "is missing", id="no-raw_min"),
        pytest.param("literal_values", lambda a: a[:-5], "has shape (3, 2), expected (8, 2)",
                     id="short-literal_values"),
        pytest.param("literal_present", lambda a: a[:, :-1], "has shape (8, 1), expected (8, 2)",
                     id="narrow-literal_present"),
        pytest.param("raw_max", lambda a: a[:-1], "has shape (1,), expected (2,)", id="short-raw_max"),
        pytest.param("literal_values", lambda a: np.where(a == a.max(), np.nan, a),
                     "holds a non-finite value", id="nan-literal_values"),
        pytest.param("raw_max", lambda a: np.where(a == a.max(), np.inf, a),
                     "holds a non-finite value", id="inf-raw_max"),
        pytest.param("test", lambda a: a.ravel(), "has shape (3,), expected (N, 3)", id="flat-test"),
        pytest.param("test", lambda a: a.astype(np.float64), "has dtype float64, expected integer",
                     id="float-test"),
    ])
    def test_corrupt_artifact_array_is_validation_error(self, dataset, pipeline, capsys, name,
                                                        corrupt, message):
        path = os.path.join(pipeline["artifact"], "arrays", name + ".npy")
        if corrupt is None:
            os.remove(path)
        else:
            np.save(path, corrupt(np.load(path)))
        assert self.classify(pipeline, dataset["labels"]) == 1
        self.assert_error(capsys, f"{path} {message}")

    def test_non_finite_profile_is_validation_error(self, pipeline, capsys):
        path = os.path.join(pipeline["artifact"], "profiles", "u_head.npy")
        u_head = np.load(path)
        u_head[0, 0, 0] = np.inf
        np.save(path, u_head)
        checkpoint = pipeline["tmp"] / "c2"
        assert train(pipeline["artifact"], str(checkpoint),
                     extra=("--fusion", "gated", "--aggregation", "learnable")) == 1
        self.assert_error(capsys, f"{path} holds a non-finite value")
        assert not checkpoint.exists()

    def test_non_utf8_config_file_is_config_error(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_bytes(b'{"model": "caf\xe9"}')
        assert main(["--config", str(config), "preprocess"]) == 1
        self.assert_error(capsys, f"cannot parse config file {config}")


# the flags (dest, type) of each command, as they were before the key table generated them
PARSER_FLAGS = {
    "litrel": [("config", None), ("output_dir", None), ("seed", "int"), ("verbose", None)],
    "preprocess": [("artifact_dir", None), ("literals_path", None), ("test_path", None),
                   ("train_path", None), ("valid_path", None)],
    "train": [("aggregation", None), ("artifact_dir", None), ("batch_size", "int"),
              ("checkpoint_dir", None), ("dim_entity", "int"), ("dim_relation", "int"),
              ("epochs", "int"), ("fusion", None), ("learning_rate", "float"), ("model", None),
              ("optimizer", None)],
    "evaluate": [("artifact_dir", None), ("checkpoint_dir", None), ("group_by", None),
                 ("threshold", None), ("tie_policy", None)],
    "classify": [("artifact_dir", None), ("checkpoint_dir", None), ("classifier", None),
                 ("knn_k", "int"), ("labels_path", None)],
}


def readme_key_row(name, key):
    kind = ", ".join(map(json.dumps, key.kind)) if isinstance(key.kind, tuple) else key.kind
    flags = ", ".join(f"`{command}`" for command in key.flag)
    return f"| `{name}` | {kind} | `{json.dumps(key.default)}` | {key.bound or ''} | {flags} |"


class TestKeyTable:
    def test_every_default_passes_its_key(self):
        for name, key in KEYS.items():
            key.check(name, key.default)
        TrainConfig()
        assert len(KEYS) == 23

    def test_flags_are_unchanged(self):
        parser = build_parser()
        commands = next(action.choices for action in parser._actions
                        if isinstance(action, argparse._SubParsersAction))
        for command, flags in PARSER_FLAGS.items():
            actions = (parser if command == "litrel" else commands[command])._actions
            assert sorted((a.dest, getattr(a.type, "__name__", None)) for a in actions
                          if a.option_strings and a.dest != "help") == flags, command

    def test_readme_table_lists_every_key(self):
        lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
        start = lines.index("| key | kind | default | bound | flag |") + 2
        end = lines.index("", start)
        assert lines[start:end] == [readme_key_row(name, key) for name, key in KEYS.items()]

    @pytest.fixture
    def artifact(self, dataset, tmp_path):
        artifact = str(tmp_path / "artifact")
        assert preprocess(dataset, artifact) == 0
        return artifact

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_fusion_none_trains_vanilla(self, artifact, tmp_path, source):
        checkpoint = tmp_path / "ckpt"
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"fusion": "none"}))
        extra = ("--fusion", "none") if source == "flag" else ()
        prefix = ["--config", str(config)] if source == "config" else []
        assert main([*prefix, "train", "--artifact-dir", artifact, "--checkpoint-dir", str(checkpoint),
                     "--dim-entity", "8", "--dim-relation", "8", "--epochs", "1", *extra]) == 0
        meta = json.loads(Path(checkpoint, "checkpoint.json").read_text())
        assert meta["config"]["fusion"] == "none"
        assert sorted(load_arrays(str(checkpoint / "params"))) == ["entity", "relation"]
        assert not (checkpoint / "profiles").exists()

    @pytest.mark.parametrize("command, keys, message", [
        ("evaluate", {"classifier": "svn"}, "classifier must be one of 'knn', 'svm', got 'svn'"),
        ("classify", {"tie_policy": "best"},
         "tie_policy must be one of 'realistic', 'optimistic', 'pessimistic', got 'best'"),
        ("preprocess", {"knn_k": "x"}, "knn_k must be an integer, got 'x'"),
        ("preprocess", {"threshold": True}, "threshold True is not a finite number"),
        ("preprocess", {"model": "complex", "dim_entity": 5, "dim_relation": 5},
         "complex requires an even entity dimension"),
        ("train", {"labels_path": 3}, "labels_path must be a string or null, got 3"),
    ])
    def test_every_command_checks_every_key(self, artifact, tmp_path, capsys, command, keys, message):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(keys))
        out = tmp_path / "out"
        assert main(["--config", str(config), "--output-dir", str(out), command]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "internal error" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--model", "conve"), ("--fusion", "concat"),
                                             ("--optimizer", "rmsprop")])
    def test_bad_flag_choice_is_config_error(self, artifact, tmp_path, capsys, flag, value):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({flag[2:]: value}))
        args = ["train", "--artifact-dir", artifact, "--checkpoint-dir", str(tmp_path / "ckpt")]
        assert main(["--config", str(config), *args]) == 1
        from_file = capsys.readouterr().err
        assert main([*args, flag, value]) == 1
        from_flag = capsys.readouterr().err
        assert from_flag == from_file
        assert f"{flag[2:]} must be one of" in from_flag
        assert not (tmp_path / "ckpt").exists()
