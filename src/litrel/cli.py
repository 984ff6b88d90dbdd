"""Command-line pipeline: preprocess, train, evaluate, classify.

Runs are described by a JSON configuration file (``--config``) whose
keys can be overridden by command-line flags.  Every command writes the
effective configuration it ran with into its output directory, so any
artifact can be reproduced from the files next to it.

Exit codes: 0 success, 1 validation/configuration error, 2 runtime or
numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys

from litrel import aggregation, training
from litrel.data import KnowledgeGraph, build_graph, load_literals, load_triples, vocabulary_digests
from litrel.downstream import (
    confusion_counts,
    export_embeddings,
    knn_classify,
    load_labeled_nodes,
    micro_f1,
    svm_train,
)
from litrel.errors import ConfigError, ParseError, TrainingError, ValidationError
from litrel.evaluation import (
    TIE_POLICIES,
    evaluate,
    frequency_threshold_from_fraction,
    group_by_correlation,
    group_by_frequency,
    save_report,
)
from litrel.fusion import FUSION_KINDS
from litrel.scoring import MODEL_KINDS
from litrel.training import TrainConfig

logger = logging.getLogger(__name__)

TRAIN_FIELDS = {f.name for f in dataclasses.fields(TrainConfig)}

DEFAULT_CONFIG = {
    "train_path": None,
    "valid_path": None,
    "test_path": None,
    "literals_path": None,
    "labels_path": None,
    "artifact_dir": None,
    "checkpoint_dir": None,
    "aggregate_over_all_rows": False,  # preprocess keys that shape the literal
    "multiset_rows": False,            # profiles; see aggregation.build_profiles
    "group_by": None,            # "frequency" or "correlation"
    "threshold": None,           # absolute count / coefficient, or "2.55%"
    "min_corr_samples": 3,
    "tie_policy": "realistic",
    "classifier": "knn",
    "knn_k": 5,
    "svm_epochs": 200,
    "svm_lr": 0.1,
    "svm_reg": 1e-4,
}


def load_config(path: str | None) -> dict:
    config = dict(DEFAULT_CONFIG)
    config.update({f.name: getattr(TrainConfig(), f.name) for f in dataclasses.fields(TrainConfig)})
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"cannot parse config file {path}: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} does not hold a JSON object")
        unknown = set(loaded) - set(config)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in loaded.items():
            if key.endswith(("_path", "_dir")) and value is not None and not isinstance(value, str):
                raise ConfigError(f"{key} must be a string or null, got {value!r}")
        config.update(loaded)
    return config


def apply_overrides(config: dict, args: argparse.Namespace) -> dict:
    for key in config:
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
    return config


def train_config_from(config: dict) -> TrainConfig:
    kwargs = {name: config[name] for name in TRAIN_FIELDS}
    if kwargs["fusion"] == "none":
        kwargs["fusion"] = None
    cfg = TrainConfig(**kwargs)
    cfg.validate()
    return cfg


def echo_config(config: dict, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_split(path: str | None):
    return load_triples(path) if path else []


def cmd_preprocess(config: dict, output_dir: str) -> int:
    if config["train_path"] is None:
        raise ConfigError("preprocess requires train_path")
    if config["fusion"] not in (None, "none") and config["literals_path"] is None:
        raise ConfigError("fusion is enabled but no literals_path is configured")
    train = load_triples(config["train_path"])
    valid = _load_split(config["valid_path"])
    test = _load_split(config["test_path"])
    literals = load_literals(config["literals_path"]) if config["literals_path"] else []
    graph = build_graph(train, valid, test, literals)
    options = {key: _typed(config, key, "bool")
               for key in ("aggregate_over_all_rows", "multiset_rows")}
    profiles = aggregation.build_profiles(graph, **options)
    artifact_dir = config["artifact_dir"] or os.path.join(output_dir, "artifact")
    graph.save(artifact_dir)
    aggregation.save_profiles(profiles, os.path.join(artifact_dir, "profiles"), options)
    stats = {
        "entities": graph.num_entities,
        "relations": graph.num_relations,
        "attributes": graph.num_attributes,
        "triples": int(graph.train.shape[0] + graph.valid.shape[0] + graph.test.shape[0]),
        "train_triples": int(graph.train.shape[0]),
        "valid_triples": int(graph.valid.shape[0]),
        "test_triples": int(graph.test.shape[0]),
        "literals": int(graph.literals.present.sum()),
    }
    with open(os.path.join(artifact_dir, "stats.json"), "w", encoding="utf-8") as fh:
        json.dump(stats, fh, indent=2, sort_keys=True)
        fh.write("\n")
    echo_config(config, artifact_dir)
    for key in ("entities", "relations", "triples", "attributes", "literals"):
        print(f"{key}: {stats[key]:,}")
    return 0


def _load_artifact(config: dict) -> KnowledgeGraph:
    artifact_dir = config["artifact_dir"]
    if artifact_dir is None or not os.path.isdir(artifact_dir):
        raise ConfigError(f"artifact_dir {artifact_dir!r} does not exist; run preprocess first")
    return KnowledgeGraph.load(artifact_dir)


def _load_checkpoint(config: dict):
    """Load the configured checkpoint, which must come from the configured artifact.

    The SHA-256 digests of the artifact's vocabulary files recorded at
    training time must equal those of ``artifact_dir``; otherwise the
    indices in the checkpoint mean other entities or relations.
    """
    if config["checkpoint_dir"] is None:
        raise ConfigError("checkpoint_dir is not set; run train first")
    state, history = training.load_checkpoint(config["checkpoint_dir"])
    recorded = state.artifact if isinstance(state.artifact, dict) else {}
    digests = vocabulary_digests(config["artifact_dir"])
    differ = [name for name, digest in digests.items() if recorded.get(name) != digest]
    if differ:
        raise ConfigError(
            f"checkpoint {config['checkpoint_dir']} was not trained on artifact "
            f"{config['artifact_dir']}: {', '.join(differ)} differ"
        )
    return state, history


def cmd_train(config: dict, output_dir: str) -> int:
    graph = _load_artifact(config)
    train_cfg = train_config_from(config)
    profiles = None
    profile_dir = os.path.join(config["artifact_dir"], "profiles")
    if train_cfg.fusion_enabled and os.path.isdir(profile_dir):
        profiles = aggregation.load_profiles(profile_dir, graph.num_relations, graph.num_attributes)
    state, history = training.train(graph, train_cfg, profiles=profiles)
    state.artifact = vocabulary_digests(config["artifact_dir"])
    checkpoint_dir = config["checkpoint_dir"] or os.path.join(output_dir, "checkpoint")
    training.save_checkpoint(state, history, checkpoint_dir)
    echo_config(config, checkpoint_dir)
    if history["loss"]:
        print(f"final loss: {history['loss'][-1]:.6f} over {train_cfg.epochs} epochs")
    print(f"trainable parameters: {state.parameter_count():,}")
    print(f"checkpoint: {checkpoint_dir}")
    return 0


def _typed(config: dict, key: str, kind: str):
    """``config[key]``, checked as :class:`TrainConfig` checks its fields."""
    training.check_type(key, config[key], kind)
    return config[key]


def _parse_threshold(raw, graph: KnowledgeGraph, group_by: str) -> float:
    if raw is None:
        raise ConfigError(f"--group-by {group_by} requires --threshold")
    percent = isinstance(raw, str) and raw.endswith("%")
    try:
        value = float(raw[:-1] if percent else raw)
    except (TypeError, ValueError):
        value = math.nan
    if isinstance(raw, bool) or not math.isfinite(value):
        raise ConfigError(f"threshold {raw!r} is not a finite number")
    if not percent:
        return value
    if group_by != "frequency":
        raise ConfigError("percentage thresholds apply to frequency grouping only")
    absolute = frequency_threshold_from_fraction(graph, value / 100.0)
    logger.info("frequency threshold %s -> %.1f training triples", raw, absolute)
    return absolute


def cmd_evaluate(config: dict, output_dir: str) -> int:
    graph = _load_artifact(config)
    state, _ = _load_checkpoint(config)
    grouping = None
    if config["group_by"] == "frequency":
        grouping = group_by_frequency(
            graph, _parse_threshold(config["threshold"], graph, "frequency")
        )
    elif config["group_by"] == "correlation":
        grouping = group_by_correlation(
            graph,
            _parse_threshold(config["threshold"], graph, "correlation"),
            min_samples=_typed(config, "min_corr_samples", "int"),
        )
    elif config["group_by"] is not None:
        raise ConfigError(f"unknown group_by {config['group_by']!r}")
    report = evaluate(state, graph, grouping=grouping, tie_policy=config["tie_policy"])
    os.makedirs(output_dir, exist_ok=True)
    save_report(
        report,
        os.path.join(output_dir, "report.json"),
        os.path.join(output_dir, "report.txt"),
    )
    echo_config(config, output_dir)
    print(report.to_table())
    return 0


def cmd_classify(config: dict, output_dir: str) -> int:
    graph = _load_artifact(config)
    if config["labels_path"] is None:
        raise ConfigError("classify requires labels_path")
    state, _ = _load_checkpoint(config)
    labeled = load_labeled_nodes(config["labels_path"], graph)
    train_feats = export_embeddings(state, labeled.train_nodes)
    test_feats = export_embeddings(state, labeled.test_nodes)
    classifier = config["classifier"]
    if classifier == "knn":
        predictions = knn_classify(
            train_feats, labeled.train_labels, test_feats, k=_typed(config, "knn_k", "int")
        )
    elif classifier == "svm":
        seed = _typed(config, "seed", "int")
        if seed < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}")
        model = svm_train(
            train_feats,
            labeled.train_labels,
            epochs=_typed(config, "svm_epochs", "int"),
            lr=_typed(config, "svm_lr", "float"),
            reg=_typed(config, "svm_reg", "float"),
            seed=seed,
        )
        predictions = model.predict(test_feats)
    else:
        raise ConfigError(f"unknown classifier {classifier!r}")
    score = micro_f1(predictions, labeled.test_labels)
    os.makedirs(output_dir, exist_ok=True)
    with open(os.path.join(output_dir, "predictions.tsv"), "w", encoding="utf-8") as fh:
        for node, pred in zip(labeled.test_nodes, predictions):
            fh.write(f"{graph.entities.labels[node]}\t{labeled.label_names[pred]}\n")
    counts = confusion_counts(predictions, labeled.test_labels, len(labeled.label_names))
    with open(os.path.join(output_dir, "classification.json"), "w", encoding="utf-8") as fh:
        json.dump(
            {
                "classifier": classifier,
                "micro_f1": score,
                "labels": labeled.label_names,
                "confusion": counts.tolist(),
            },
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
    echo_config(config, output_dir)
    print(f"micro-F1 ({classifier}): {score:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="litrel",
        description="Knowledge-graph embeddings with literal-enriched relations",
    )
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--seed", type=int, help="override the configured seed")
    parser.add_argument("--output-dir", default=".", help="directory for command outputs")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    pre = sub.add_parser("preprocess", help="build the graph artifact and literal profiles")
    pre.add_argument("--train-path", dest="train_path")
    pre.add_argument("--valid-path", dest="valid_path")
    pre.add_argument("--test-path", dest="test_path")
    pre.add_argument("--literals-path", dest="literals_path")
    pre.add_argument("--artifact-dir", dest="artifact_dir")

    tr = sub.add_parser("train", help="train a model from a preprocessed artifact")
    tr.add_argument("--artifact-dir", dest="artifact_dir")
    tr.add_argument("--checkpoint-dir", dest="checkpoint_dir")
    tr.add_argument("--model", choices=MODEL_KINDS)
    tr.add_argument("--fusion", choices=("none",) + FUSION_KINDS)
    tr.add_argument("--aggregation")
    tr.add_argument("--epochs", type=int)
    tr.add_argument("--batch-size", dest="batch_size", type=int)
    tr.add_argument("--learning-rate", dest="learning_rate", type=float)
    tr.add_argument("--dim-entity", dest="dim_entity", type=int)
    tr.add_argument("--dim-relation", dest="dim_relation", type=int)
    tr.add_argument("--optimizer", choices=("adam", "sgd"))

    ev = sub.add_parser("evaluate", help="filtered link-prediction metrics")
    ev.add_argument("--artifact-dir", dest="artifact_dir")
    ev.add_argument("--checkpoint-dir", dest="checkpoint_dir")
    ev.add_argument("--group-by", dest="group_by", choices=("frequency", "correlation"))
    ev.add_argument("--threshold")
    ev.add_argument("--tie-policy", dest="tie_policy",
                    choices=TIE_POLICIES)

    cl = sub.add_parser("classify", help="node classification from a checkpoint")
    cl.add_argument("--artifact-dir", dest="artifact_dir")
    cl.add_argument("--checkpoint-dir", dest="checkpoint_dir")
    cl.add_argument("--labels-path", dest="labels_path")
    cl.add_argument("--classifier", choices=("knn", "svm"))
    cl.add_argument("--knn-k", dest="knn_k", type=int)
    return parser


COMMANDS = {
    "preprocess": cmd_preprocess,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "classify": cmd_classify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        config = load_config(args.config)
        config = apply_overrides(config, args)
        return COMMANDS[args.command](config, args.output_dir)
    except (ParseError, ValidationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TrainingError as exc:
        print(f"training failure: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
