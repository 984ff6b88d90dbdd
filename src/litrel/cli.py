"""Command-line pipeline: preprocess, train, evaluate, classify.

Runs are described by a JSON configuration file (``--config``) whose
keys can be overridden by command-line flags.  Every command writes the
effective configuration it ran with into its output directory, so any
artifact can be reproduced from the files next to it.

``KEYS`` declares every key once: its kind, default, bound and the
commands that take it as a flag (see :class:`litrel.training.Key`).
Each value is checked as it enters, from the file in :func:`load_config`
and from a flag in :func:`apply_overrides`, whichever command runs.

Exit codes: 0 success, 1 validation/configuration error, 2 runtime or
numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import logging
import os
import sys

from litrel import aggregation, training
from litrel.data import KnowledgeGraph, build_graph, load_literals, load_triples, vocabulary_digests
from litrel.downstream import (
    confusion_counts,
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
from litrel.serialize import check_replaceable, current, load_json, replacing, save_json
from litrel.training import Key, TrainConfig

logger = logging.getLogger(__name__)

# every config key: the TrainConfig fields, then the keys the commands read
KEYS = {f.name: f.metadata["key"] for f in dataclasses.fields(TrainConfig)} | {
    "train_path": Key("path", flag=("preprocess",)),
    "valid_path": Key("path", flag=("preprocess",)),
    "test_path": Key("path", flag=("preprocess",)),
    "literals_path": Key("path", flag=("preprocess",)),
    "labels_path": Key("path", flag=("classify",)),
    "artifact_dir": Key("path", flag=("preprocess", "train", "evaluate", "classify")),
    "checkpoint_dir": Key("path", flag=("train", "evaluate", "classify")),
    "group_by": Key((None, "frequency", "correlation"), flag=("evaluate",)),
    "threshold": Key("percent", flag=("evaluate",)),  # absolute count / coefficient, or "2.55%"
    "tie_policy": Key(TIE_POLICIES, "realistic", flag=("evaluate",)),
    "classifier": Key(("knn", "svm"), "knn", flag=("classify",)),
    "knn_k": Key("int", 5, flag=("classify",)),
}


def load_config(path: str | None) -> dict:
    config = {name: key.default for name, key in KEYS.items()}
    if path is not None:
        loaded = load_json(path, "config file")
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} does not hold a JSON object")
        unknown = set(loaded) - set(config)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for name, value in loaded.items():
            KEYS[name].check(name, value)
        config.update(loaded)
    return config


def apply_overrides(config: dict, args: argparse.Namespace) -> dict:
    for name, key in KEYS.items():
        value = getattr(args, name, None)
        if value is not None:
            key.check(name, value)
            config[name] = value
    return config


def train_config_from(config: dict) -> TrainConfig:
    return TrainConfig(**{f.name: config[f.name] for f in dataclasses.fields(TrainConfig)})


def echo_config(config: dict, directory: str) -> None:
    """Write ``config.json`` into an existing output directory, swapped in whole."""
    with replacing(os.path.join(directory, "config.json")) as tmp:
        save_json(tmp, config)


def _load_split(path: str | None):
    return load_triples(path) if path else []


def cmd_preprocess(config: dict, train_cfg: TrainConfig, output_dir: str) -> int:
    """Build the graph artifact and literal profiles."""
    if config["train_path"] is None:
        raise ConfigError("preprocess requires train_path")
    if train_cfg.fusion_enabled and config["literals_path"] is None:
        raise ConfigError("fusion is enabled but no literals_path is configured")
    artifact_dir = config["artifact_dir"] or os.path.join(output_dir, "artifact")
    check_replaceable(artifact_dir, "graph.json", "artifact_dir")
    train = load_triples(config["train_path"])
    valid = _load_split(config["valid_path"])
    test = _load_split(config["test_path"])
    literals = load_literals(config["literals_path"]) if config["literals_path"] else []
    graph = build_graph(train, valid, test, literals)
    profiles = aggregation.build_profiles(graph)
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
    with replacing(artifact_dir) as tmp:
        graph.save(tmp)
        aggregation.save_profiles(profiles, os.path.join(tmp, "profiles"))
        save_json(os.path.join(tmp, "stats.json"), stats)
        save_json(os.path.join(tmp, "config.json"), config)
    for key in ("entities", "relations", "triples", "attributes", "literals"):
        print(f"{key}: {stats[key]:,}")
    return 0


def _load_artifact(config: dict) -> tuple[KnowledgeGraph, str]:
    """The configured artifact and the directory it was read from.

    That is ``artifact_dir``, or ``<artifact_dir>.old`` when a
    preprocess was killed between the two renames of its swap.
    """
    artifact_dir = current(config["artifact_dir"]) if config["artifact_dir"] else None
    if artifact_dir is None:
        raise ConfigError(f"artifact_dir {config['artifact_dir']!r} does not exist; run preprocess first")
    return KnowledgeGraph.load(artifact_dir), artifact_dir


def _load_checkpoint(config: dict, graph: KnowledgeGraph, artifact_dir: str):
    """Load the configured checkpoint, which must come from ``graph``, read from ``artifact_dir``.

    The SHA-256 digests of the artifact's vocabulary files recorded at
    training time must equal those of ``artifact_dir``, and the entity
    and relation tables must have a row per entity and relation of
    ``graph``; otherwise the indices in the checkpoint mean other
    entities or relations.
    """
    if config["checkpoint_dir"] is None:
        raise ConfigError("checkpoint_dir is not set; run train first")
    state, history = training.load_checkpoint(config["checkpoint_dir"])
    recorded = state.artifact if isinstance(state.artifact, dict) else {}
    digests = vocabulary_digests(artifact_dir)
    differ = [name for name, digest in digests.items() if recorded.get(name) != digest]
    if differ:
        raise ConfigError(
            f"checkpoint {config['checkpoint_dir']} was not trained on artifact "
            f"{config['artifact_dir']}: {', '.join(differ)} differ"
        )
    for name, table, size in (("entities", state.tables.entity, graph.num_entities),
                              ("relations", state.tables.relation, graph.num_relations)):
        if len(table) != size:
            raise ConfigError(
                f"checkpoint {config['checkpoint_dir']} has rows for {len(table)} {name}, "
                f"but artifact {config['artifact_dir']} has {size}"
            )
    return state, history


def cmd_train(config: dict, train_cfg: TrainConfig, output_dir: str) -> int:
    """Train a model from a preprocessed artifact."""
    checkpoint_dir = config["checkpoint_dir"] or os.path.join(output_dir, "checkpoint")
    check_replaceable(checkpoint_dir, "checkpoint.json", "checkpoint_dir")
    graph, artifact_dir = _load_artifact(config)
    profiles = None
    if train_cfg.fusion_enabled:
        profiles = aggregation.load_profiles(os.path.join(artifact_dir, "profiles"),
                                             graph.num_relations, graph.num_attributes)
    state, history = training.train(graph, train_cfg, profiles=profiles)
    state.artifact = vocabulary_digests(artifact_dir)
    training.save_checkpoint(state, history, checkpoint_dir, config)
    if history["loss"]:
        print(f"final loss: {history['loss'][-1]:.6f} over {train_cfg.epochs} epochs")
    print(f"trainable parameters: {state.parameter_count():,}")
    print(f"checkpoint: {checkpoint_dir}")
    return 0


def _parse_threshold(raw, graph: KnowledgeGraph, group_by: str) -> float:
    """The absolute threshold of ``raw``, which ``KEYS["threshold"]`` has checked."""
    if raw is None:
        raise ConfigError(f"--group-by {group_by} requires --threshold")
    if not (isinstance(raw, str) and raw.endswith("%")):
        return float(raw)
    if group_by != "frequency":
        raise ConfigError("percentage thresholds apply to frequency grouping only")
    absolute = frequency_threshold_from_fraction(graph, float(raw[:-1]) / 100.0)
    logger.info("frequency threshold %s -> %.1f training triples", raw, absolute)
    return absolute


def cmd_evaluate(config: dict, train_cfg: TrainConfig, output_dir: str) -> int:
    """Filtered link-prediction metrics."""
    graph, artifact_dir = _load_artifact(config)
    state, _ = _load_checkpoint(config, graph, artifact_dir)
    grouping = None
    if config["group_by"] == "frequency":
        grouping = group_by_frequency(
            graph, _parse_threshold(config["threshold"], graph, "frequency")
        )
    elif config["group_by"] == "correlation":
        grouping = group_by_correlation(
            graph, _parse_threshold(config["threshold"], graph, "correlation"))
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


def cmd_classify(config: dict, train_cfg: TrainConfig, output_dir: str) -> int:
    """Node classification from a checkpoint."""
    graph, artifact_dir = _load_artifact(config)
    if config["labels_path"] is None:
        raise ConfigError("classify requires labels_path")
    state, _ = _load_checkpoint(config, graph, artifact_dir)
    labeled = load_labeled_nodes(config["labels_path"], graph)
    train_feats = state.tables.entity[labeled.train_nodes]
    test_feats = state.tables.entity[labeled.test_nodes]
    classifier = config["classifier"]
    if classifier == "knn":
        predictions = knn_classify(train_feats, labeled.train_labels, test_feats, k=config["knn_k"])
    else:
        predictions = svm_train(train_feats, labeled.train_labels, config["seed"]).predict(test_feats)
    score = micro_f1(predictions, labeled.test_labels)
    # --output-dir may be shared or "."; each file is swapped in on its own
    os.makedirs(output_dir, exist_ok=True)
    with (replacing(os.path.join(output_dir, "predictions.tsv")) as tmp,
          open(tmp, "w", encoding="utf-8") as fh):
        for node, pred in zip(labeled.test_nodes, predictions):
            fh.write(f"{graph.entities.labels[node]}\t{labeled.label_names[pred]}\n")
    counts = confusion_counts(predictions, labeled.test_labels, len(labeled.label_names))
    with replacing(os.path.join(output_dir, "classification.json")) as tmp:
        save_json(tmp, {
            "classifier": classifier,
            "micro_f1": score,
            "labels": labeled.label_names,
            "confusion": counts.tolist(),
        })
    echo_config(config, output_dir)
    print(f"micro-F1 ({classifier}): {score:.4f}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of the program and its commands, built once per process.

    Each key's flag comes from its :class:`Key`.
    """
    parser = argparse.ArgumentParser(
        prog="litrel",
        description="Knowledge-graph embeddings with literal-enriched relations",
    )
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--output-dir", default=".", help="directory for command outputs")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {"litrel": parser}
    for name, command in COMMANDS.items():
        parsers[name] = sub.add_parser(name, help=command.__doc__)
    for name, key in KEYS.items():
        for command in key.flag:
            parsers[command].add_argument(
                "--" + name.replace("_", "-"), dest=name,
                type={"int": int, "float": float}.get(key.kind),
                metavar="{" + ",".join(filter(None, key.kind)) + "}" if isinstance(key.kind, tuple) else None,
            )
    return parser


COMMANDS = {
    "preprocess": cmd_preprocess,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "classify": cmd_classify,
}


@contextlib.contextmanager
def _logging_to_stderr(verbose: bool):
    """Log to the current ``sys.stderr`` while a command runs.

    Only when the root logger has no handler: an application that
    installed its own keeps them, and gets the records instead.
    """
    root = logging.getLogger()
    if root.handlers:
        yield
        return
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    level = root.level
    root.addHandler(handler)
    root.setLevel(logging.DEBUG if verbose else logging.INFO)
    try:
        yield
    finally:
        root.removeHandler(handler)
        root.setLevel(level)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _logging_to_stderr(args.verbose):
            config = apply_overrides(load_config(args.config), args)
            return COMMANDS[args.command](config, train_config_from(config), args.output_dir)
    except (ParseError, ValidationError, FileNotFoundError, IsADirectoryError,
            NotADirectoryError, FileExistsError, PermissionError) as exc:
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
