"""Correctness checks on one pipeline's outputs.

The filtered-rank oracle recomputes every test triple's head and tail
rank from the checkpoint's entity table and fused relation vectors with
the benchmark's own scoring formulas, filtering with sets read back from
the generated TSV splits.  Scores within ``TIE_TOL`` of the true score
may legitimately order either way under a different summation order, so
each rank is known only as a window [best, worst]; the report's MRR and
Hits@k must fall inside the window those ranks allow.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from workloads import filter_sets, read_triples

TIE_TOL = 1e-9
BATCH = 64


def _tail_scores(model, entity, core, heads, r_lit):
    """Scores of (h, r, e) for every entity e; one row per head."""
    q = entity[heads]
    if model == "distmult":
        return (q * r_lit) @ entity.T
    if model == "tucker":
        w = np.einsum("pqs,q->ps", core, r_lit)
        return (q @ w) @ entity.T
    if model == "transe":
        return -_distances(q + r_lit, entity)
    raise ValueError(f"no oracle for model {model!r}")


def _head_scores(model, entity, core, tails, r_lit):
    """Scores of (e, r, t) for every entity e; one row per tail."""
    q = entity[tails]
    if model == "distmult":
        return (q * r_lit) @ entity.T
    if model == "tucker":
        w = np.einsum("pqs,q->ps", core, r_lit)
        return (q @ w.T) @ entity.T
    if model == "transe":
        return -_distances(q - r_lit, entity)
    raise ValueError(f"no oracle for model {model!r}")


def _distances(queries, entity):
    sq = (queries ** 2).sum(axis=1)[:, None] - 2.0 * queries @ entity.T + (entity ** 2).sum(axis=1)
    return np.sqrt(np.maximum(sq, 0.0))


def _rank_window(scores, true_index, filtered):
    true_score = scores[true_index]
    tol = TIE_TOL * max(1.0, abs(true_score))
    kept = scores.copy()
    kept[list(filtered)] = -np.inf
    kept[true_index] = true_score
    best = 1 + int((kept > true_score + tol).sum())
    worst = int((kept >= true_score - tol).sum())
    return best, worst


def oracle_rank_windows(state, graph, paths, model: str) -> np.ndarray:
    """(2 * |test|, 2) array of [best, worst] filtered ranks, tail side first."""
    entity = state.tables.entity
    core = state.tables.core
    ent_index = graph.entities.index
    rel_index = graph.relations.index
    tails_of, heads_of = filter_sets(paths)
    test = read_triples(paths["test"])
    by_relation: dict[str, list[int]] = {}
    for i, (_, r, _) in enumerate(test):
        by_relation.setdefault(r, []).append(i)
    windows = np.zeros((2 * len(test), 2))
    for r, rows in by_relation.items():
        r_lit = state.fused_relation(rel_index[r])
        for start in range(0, len(rows), BATCH):
            chunk = rows[start:start + BATCH]
            heads = np.array([ent_index[test[i][0]] for i in chunk])
            tails = np.array([ent_index[test[i][2]] for i in chunk])
            tail_scores = _tail_scores(model, entity, core, heads, r_lit)
            head_scores = _head_scores(model, entity, core, tails, r_lit)
            for k, i in enumerate(chunk):
                h, _, t = test[i]
                others = {ent_index[x] for x in tails_of[(h, r)]} - {tails[k]}
                windows[2 * i] = _rank_window(tail_scores[k], tails[k], others)
                others = {ent_index[x] for x in heads_of[(r, t)]} - {heads[k]}
                windows[2 * i + 1] = _rank_window(head_scores[k], heads[k], others)
    return windows


def check_ranks(report: dict, windows: np.ndarray) -> str | None:
    """None when the report's metrics are consistent with the oracle ranks."""
    best, worst = windows[:, 0], windows[:, 1]
    expected = {
        "mrr": ((1.0 / worst).mean(), (1.0 / best).mean()),
        "hits_at_1": ((worst <= 1).mean(), (best <= 1).mean()),
        "hits_at_10": ((worst <= 10).mean(), (best <= 10).mean()),
    }
    if report["num_triples"] * 2 != windows.shape[0]:
        return f"report ranks {report['num_triples']} triples, test split has {windows.shape[0] // 2}"
    for key, (lo, hi) in expected.items():
        if not lo - 1e-12 <= report[key] <= hi + 1e-12:
            return f"{key} {report[key]!r} outside oracle window [{lo!r}, {hi!r}]"
    return None


def check_group_identity(report: dict) -> str | None:
    """Group triple counts sum to the total and group MRRs average to the total."""
    groups = report["groups"].values()
    total = sum(g["num_triples"] for g in groups)
    if total != report["num_triples"]:
        return f"group triple counts sum to {total}, report has {report['num_triples']}"
    weighted = sum(g["num_triples"] * g["mrr"] for g in groups if g["num_triples"]) / total
    if not math.isclose(weighted, report["mrr"], rel_tol=1e-9, abs_tol=1e-12):
        return f"weighted group MRR {weighted!r} != overall MRR {report['mrr']!r}"
    return None


def check_loss_trace(history: dict, epochs: int) -> str | None:
    losses = history["loss"]
    if len(losses) != epochs:
        return f"loss trace has {len(losses)} epochs, expected {epochs}"
    if not all(math.isfinite(x) for x in losses):
        return f"non-finite loss in trace {losses!r}"
    return None


def check_classification(out_dir: str, labels_path: str) -> str | None:
    """Predictions cover exactly the test nodes and reproduce the reported micro-F1."""
    gold = {}
    with open(labels_path, encoding="utf-8") as fh:
        for line in fh:
            node, label, split = line.rstrip("\n").split("\t")
            if split == "test":
                gold[node] = label
    with open(os.path.join(out_dir, "predictions.tsv"), encoding="utf-8") as fh:
        predicted = dict(line.rstrip("\n").split("\t") for line in fh if line.strip())
    if predicted.keys() != gold.keys():
        return f"{len(predicted)} predictions for {len(gold)} test nodes"
    with open(os.path.join(out_dir, "classification.json"), encoding="utf-8") as fh:
        reported = json.load(fh)["micro_f1"]
    accuracy = sum(predicted[n] == gold[n] for n in gold) / len(gold)
    if not math.isclose(accuracy, reported, rel_tol=1e-12):
        return f"reported micro-F1 {reported!r}, predictions give {accuracy!r}"
    return None
