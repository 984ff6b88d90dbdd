"""Filtered rank-based link-prediction metrics and relation groupings.

For every evaluated triple both perturbations are ranked: all candidate
tails for (h, r, ?) and all candidate heads for (?, r, t).  Competitors
forming known-true triples anywhere in train/valid/test (other than the
evaluated entity itself) are filtered out before ranking.  Ties resolve
to the realistic rank (mean of best and worst rank among equal scores)
by default; optimistic and pessimistic policies are available.

Ranking fuses the relation table once, as |R| rows ``r_lit``; then each
block of at most :func:`scoring.block_rows` triples, in input order and
so spanning relations, is scored as one B x |E| matrix per side with
each triple's ``r_lit`` row, in the one score buffer of a
:class:`scoring.SimilarityBlocks`, and compared in one reused mask.  The
filter is read from the splits on each call: the known triples are
sorted by an int64 key per side, and each block finds its rows'
known-true competitors by binary search.  Filtering sets them to -inf,
and the better and tied entries are counted row-wise.

Relations can additionally be partitioned into frequent vs long-tail
groups (by training-triple count) or correlated vs less-correlated
groups (by the best |Pearson coefficient| over head/tail attribute
pairs), as one array of |R| group labels, and per-group MRR is
reported next to the all-triples row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from litrel import scoring
from litrel.data import KnowledgeGraph
from litrel.errors import ValidationError
from litrel.serialize import replacing, save_json

TIE_POLICIES = ("realistic", "optimistic", "pessimistic")


@dataclass
class RelationGrouping:
    """Partition of relations into two labeled groups."""

    kind: str                    # "frequency" or "correlation"
    partition: np.ndarray        # |R| group labels: relation r is in group partition[r]
    labels: tuple[str, str]      # (upper group, lower group)


@dataclass
class EvaluationReport:
    mrr: float
    hits1: float
    hits10: float
    num_triples: int
    group_metrics: dict[str, dict] = field(default_factory=dict)
    grouping_kind: str | None = None

    def to_dict(self) -> dict:
        out = {
            "mrr": self.mrr,
            "hits_at_1": self.hits1,
            "hits_at_10": self.hits10,
            "num_triples": self.num_triples,
        }
        if self.grouping_kind is not None:
            out["grouping"] = self.grouping_kind
            out["groups"] = self.group_metrics
        return out

    def to_table(self) -> str:
        lines = [
            f"{'group':<16} {'triples':>8} {'MRR':>8} {'H@1':>8} {'H@10':>8}",
        ]
        def fmt(value):
            return "--" if value is None else f"{value:.4f}"

        for label, metrics in self.group_metrics.items():
            lines.append(
                f"{label:<16} {metrics['num_triples']:>8} {fmt(metrics['mrr']):>8} "
                f"{fmt(metrics['hits_at_1']):>8} {fmt(metrics['hits_at_10']):>8}"
            )
        lines.append(
            f"{'all triples':<16} {self.num_triples:>8} {self.mrr:>8.4f} "
            f"{self.hits1:>8.4f} {self.hits10:>8.4f}"
        )
        return "\n".join(lines)


def filtered_ranks(scores: np.ndarray, targets: np.ndarray, known: tuple[np.ndarray, np.ndarray],
                   tie_policy: str = "realistic", mask: np.ndarray | None = None) -> np.ndarray:
    """Filtered rank of entity ``targets[b]`` in row ``b`` of a B x |E| score matrix.

    ``known`` is a ``(rows, cols)`` pair of index arrays: entity
    ``cols[i]`` is known to complete row ``rows[i]``.  All known entities
    of a row except its target are filtered out by setting their scores
    to -inf, in place.  ``mask``, a boolean array with at least B rows of
    |E| entries, is the comparison buffer when given.
    """
    if tie_policy not in TIE_POLICIES:
        raise ValidationError(f"unknown tie policy {tie_policy!r}")
    rows = np.arange(targets.size)
    true = scores[rows, targets]
    scores[known] = -np.inf
    scores[rows, targets] = true
    mask = np.empty(scores.shape, dtype=bool) if mask is None else mask[:scores.shape[0]]
    better = np.count_nonzero(np.greater(scores, true[:, None], out=mask), axis=1)
    ties = np.count_nonzero(np.equal(scores, true[:, None], out=mask), axis=1) - 1  # excluding the target
    if tie_policy == "optimistic":
        return better + 1.0
    if tie_policy == "pessimistic":
        return better + ties + 1.0
    return better + 1 + ties / 2.0


def _known_entities(keys: np.ndarray, entities: np.ndarray, queries: np.ndarray):
    """``(rows, cols)`` of every entity filed under key ``queries[row]`` in sorted ``keys``."""
    start, stop = (np.searchsorted(keys, queries, side) for side in ("left", "right"))
    sizes = stop - start
    rows = np.repeat(np.arange(queries.size), sizes)
    return rows, entities[np.arange(rows.size) + np.repeat(start - np.cumsum(sizes) + sizes, sizes)]


def rank_triples(state, graph: KnowledgeGraph, triples: np.ndarray,
                 tie_policy: str = "realistic") -> np.ndarray:
    """(N, 2) filtered [head rank, tail rank] of every triple under the trained model."""
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    ranks = np.empty((triples.shape[0], 2))
    model, tables = state.model, state.tables
    n_e, n_r = graph.num_entities, graph.num_relations
    # a known triple files its tail under key r|E| + h and its head under (|R| + r)|E| + t
    h, r, t = np.concatenate([graph.train, graph.valid, graph.test]).T
    keys = np.concatenate([r * n_e + h, (n_r + r) * n_e + t])
    order = np.argsort(keys, kind="stable")
    keys, entities = keys[order], np.concatenate([t, h])[order]
    r_lit = state.fuse_forward(np.arange(n_r))[0]  # its cache holds gathered profile rows: drop it
    step = scoring.block_rows(n_e)
    blocks = scoring.SimilarityBlocks(model.norm, tables.entity, min(step, triples.shape[0]))
    mask = np.empty((blocks.rows, n_e), dtype=bool)
    for start in range(0, triples.shape[0], step):
        heads, rels, tails = triples[start:start + step].T
        r_rows = r_lit[rels]
        known_heads = _known_entities(keys, entities, (n_r + rels) * n_e + tails)
        known_tails = _known_entities(keys, entities, rels * n_e + heads)
        ranks[start:start + step, 0] = filtered_ranks(
            scoring.score_all_heads(tails, r_rows, model, tables, blocks), heads, known_heads,
            tie_policy, mask)
        ranks[start:start + step, 1] = filtered_ranks(
            scoring.score_all_tails(heads, r_rows, model, tables, blocks), tails, known_tails,
            tie_policy, mask)
    return ranks


def compute_metrics(ranks: np.ndarray) -> tuple[float, float, float]:
    """Pool head and tail ranks (two per triple) into MRR, Hits@1, Hits@10."""
    ranks = np.asarray(ranks, dtype=np.float64).reshape(-1)
    if ranks.size == 0:
        raise ValidationError("cannot compute metrics over an empty rank array")
    mrr = float((1.0 / ranks).mean())
    hits1 = float((ranks <= 1).mean())
    hits10 = float((ranks <= 10).mean())
    return mrr, hits1, hits10


def pearson(xs, ys) -> float:
    """Pearson correlation; 0 when n < 2 or a series has zero variance."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape:
        raise ValidationError(f"length mismatch: {xs.shape} vs {ys.shape}")
    n = xs.shape[0]
    if n < 2:
        return 0.0
    dx = xs - xs.mean()
    dy = ys - ys.mean()
    sx = math.sqrt(float(dx @ dx))
    sy = math.sqrt(float(dy @ dy))
    if sx == 0.0 or sy == 0.0:
        return 0.0
    return float(dx @ dy) / (sx * sy)


def group_by_frequency(graph: KnowledgeGraph, threshold_count: float) -> RelationGrouping:
    """Split relations into frequent (> threshold training triples) vs long-tail."""
    if threshold_count < 0:
        raise ValidationError("frequency threshold must be >= 0")
    counts = np.bincount(graph.train[:, 1], minlength=graph.num_relations)
    labels = ("frequent", "long-tail")
    return RelationGrouping("frequency", np.where(counts > threshold_count, *labels), labels)


def frequency_threshold_from_fraction(graph: KnowledgeGraph, fraction: float) -> float:
    """Absolute training-triple threshold for a fraction like 0.0255."""
    if not 0 <= fraction <= 1:
        raise ValidationError("fraction must be within [0, 1]")
    return fraction * graph.train.shape[0]


# Relative tolerance of the moment estimates in :func:`group_by_correlation`.
_R_TOL = 1e-9


def _pair_coefficients(x, y, hm, tm):
    """Moment estimates of |Pearson's r| for every (head, tail) attribute pair.

    ``x``/``y`` are the head/tail literal rows of a relation's triples and
    ``hm``/``tm`` their presence masks; pair (a, b) runs over the rows
    where both cells are present.  Returns |A| x |A| arrays
    ``(n, abs_r, unsure, tol)``: the pair counts, the estimates from the
    raw moments, the pairs that need the exact :func:`pearson` whatever
    the threshold (fewer than 2 rows, or a variance within ``_R_TOL`` of
    its sum of squares), and the rounding tolerance of each estimate.
    """
    hm, tm = hm.astype(np.float64), tm.astype(np.float64)
    x, y = x * hm, y * tm
    n = hm.T @ tm
    sx, sy, sxy = x.T @ tm, hm.T @ y, x.T @ y
    sxx, syy = (x * x).T @ tm, hm.T @ (y * y)
    with np.errstate(divide="ignore", invalid="ignore"):
        vx = sxx - sx * sx / n
        vy = syy - sy * sy / n
        abs_r = np.abs(sxy - sx * sy / n) / np.sqrt(vx * vy)
        # the raw sums round to about n * eps of each sum of squares
        tol = _R_TOL + 8 * n * np.finfo(np.float64).eps * (sxx / vx + syy / vy)
    unsure = (n < 2) | (vx <= _R_TOL * sxx) | (vy <= _R_TOL * syy)
    return n, abs_r, unsure, tol


def group_by_correlation(
    graph: KnowledgeGraph, threshold: float, min_samples: int = 3
) -> RelationGrouping:
    """Split relations by head/tail attribute correlation over training triples.

    A relation is "correlated" iff some (head attribute, tail attribute)
    pair, over the relation's training triples where both values are
    present, reaches |Pearson coefficient| >= threshold.  Pairs with
    fewer than ``min_samples`` complete observations are skipped.

    All pairs of a relation are estimated at once from masked moment
    products.  An estimate farther than its rounding tolerance from the
    threshold decides its pair; only the pairs too close to call are
    recomputed with :func:`pearson`, so the partition is the one the
    exact coefficients give.
    """
    if not 0 <= threshold <= 1:
        raise ValidationError("correlation threshold must be within [0, 1]")
    values = graph.literals.values
    present = graph.literals.present
    labels = ("correlated", "less-correlated")
    partition = np.full(graph.num_relations, labels[1])
    for relation, rows in scoring.relation_groups(graph.train[:, 1]):
        if rows.size < min_samples or graph.num_attributes == 0:
            continue
        heads, tails = graph.train[rows, 0], graph.train[rows, 2]
        n, abs_r, unsure, tol = _pair_coefficients(
            values[heads], values[tails], present[heads], present[tails])
        candidate = n >= min_samples
        unsure |= np.abs(abs_r - threshold) <= tol
        if (abs_r[candidate & ~unsure] >= threshold).any():
            partition[relation] = labels[0]
            continue
        for a, b in zip(*np.nonzero(candidate & unsure)):
            both = present[heads, a] & present[tails, b]
            if abs(pearson(values[heads[both], a], values[tails[both], b])) >= threshold:
                partition[relation] = labels[0]
                break
    return RelationGrouping("correlation", partition, labels)


def evaluate(
    state,
    graph: KnowledgeGraph,
    grouping: RelationGrouping | None = None,
    split: str = "test",
    tie_policy: str = "realistic",
) -> EvaluationReport:
    """Rank every triple of a split and assemble the metric report."""
    triples = graph.split(split)
    if triples.shape[0] == 0:
        raise ValidationError(f"split {split!r} is empty")
    ranks = rank_triples(state, graph, triples, tie_policy)
    mrr, hits1, hits10 = compute_metrics(ranks)
    report = EvaluationReport(
        mrr=mrr, hits1=hits1, hits10=hits10, num_triples=triples.shape[0]
    )
    if grouping is not None:
        report.grouping_kind = grouping.kind
        groups = grouping.partition[triples[:, 1]]
        for label in grouping.labels:
            group_ranks = ranks[groups == label]
            g_mrr, g_h1, g_h10 = compute_metrics(group_ranks) if group_ranks.size else (None,) * 3
            report.group_metrics[label] = {
                "num_triples": group_ranks.shape[0],
                "mrr": g_mrr,
                "hits_at_1": g_h1,
                "hits_at_10": g_h10,
            }
    return report


def save_report(report: EvaluationReport, json_path: str, table_path: str | None = None) -> None:
    """Write the report as JSON and, given ``table_path``, as a table; each file is swapped in whole."""
    with replacing(json_path) as tmp:
        save_json(tmp, report.to_dict())
    if table_path is not None:
        with replacing(table_path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
            fh.write(report.to_table() + "\n")
