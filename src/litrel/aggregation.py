"""Per-relation aggregation of entity literals into head/tail vectors.

For every relation two |A| x 11 statistic matrices are precomputed, one
over the literal rows of the relation's head entities and one over its
tail entities (training split only, to avoid evaluation leakage).  A
configured aggregation kind then selects one statistic column, or the
learnable combination squashes all 11 through a sigmoid-activated linear
map, yielding the vectors fed into fusion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from litrel import kernels
from litrel.data import KnowledgeGraph
from litrel.errors import ConfigError, ValidationError
from litrel.kernels import NUM_STATS, STAT_NAMES
from litrel.serialize import load_arrays, save_arrays

AGGREGATION_KINDS = STAT_NAMES + ("learnable",)

HEAD, TAIL = 0, 2  # triple column of the side entity


@dataclass
class RelationLiteralProfile:
    """Precomputed statistic matrices for one relation.

    ``u_head`` and ``u_tail`` have shape (|A|, 11): row = attribute,
    column = aggregation kind in :data:`litrel.kernels.STAT_NAMES` order.
    """

    relation: int
    u_head: np.ndarray
    u_tail: np.ndarray


@dataclass
class LearnableAggregationParams:
    """Weights of the learnable combination: 11 column weights + 1 bias."""

    weights: np.ndarray  # float64, shape (11,)
    bias: float

    @classmethod
    def zeros(cls) -> "LearnableAggregationParams":
        return cls(weights=np.zeros(NUM_STATS), bias=0.0)


def collect_side_rows(graph: KnowledgeGraph, relation: int, side: str) -> set[int]:
    """Distinct entities on the given side of a relation in the training split."""
    if not 0 <= relation < graph.num_relations:
        raise ValidationError(f"relation index {relation} out of range")
    if side not in ("head", "tail"):
        raise ValidationError(f"side must be 'head' or 'tail', got {side!r}")
    column = HEAD if side == "head" else TAIL
    rows = graph.train[graph.train[:, 1] == relation, column]
    return set(int(e) for e in rows)


def build_profiles(
    graph: KnowledgeGraph,
    aggregate_over_all_rows: bool = False,
    multiset_rows: bool = False,
) -> dict[int, RelationLiteralProfile]:
    """Compute head/tail statistic matrices for every relation.

    By default the population for a side is the set of distinct entities
    occurring on that side of the relation in training.  With
    ``aggregate_over_all_rows`` the statistics instead run over all |E|
    rows with non-participating rows zeroed (the dilute-toward-zero
    reading, kept for ablation); ``count`` still counts present cells of
    participating rows only.  With ``multiset_rows`` an entity
    contributes once per training triple it appears in.
    """
    values = graph.literals.values
    present = graph.literals.present
    num_entities = graph.num_entities
    profiles: dict[int, RelationLiteralProfile] = {}
    for relation in range(graph.num_relations):
        sides = []
        rel_triples = graph.train[graph.train[:, 1] == relation]
        for column in (HEAD, TAIL):
            members = rel_triples[:, column]
            if not multiset_rows:
                members = np.unique(members)
            else:
                members = np.sort(members)
            if members.size == 0:
                sides.append(np.zeros((graph.num_attributes, NUM_STATS)))
                continue
            if aggregate_over_all_rows:
                padded = np.zeros((num_entities, graph.num_attributes))
                padded[members] = values[members]
                padded_mask = np.zeros((num_entities, graph.num_attributes), dtype=bool)
                padded_mask[members] = present[members]
                sides.append(kernels.column_stats(padded, padded_mask))
            else:
                sides.append(kernels.column_stats(values[members], present[members]))
        profiles[relation] = RelationLiteralProfile(
            relation=relation, u_head=sides[0], u_tail=sides[1]
        )
    return profiles


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def literal_vectors(
    profile: RelationLiteralProfile,
    kind: str,
    params: LearnableAggregationParams | None = None,
):
    """Reduce a profile to the head/tail literal vectors (each length |A|).

    A fixed kind selects its statistic column; ``learnable`` applies
    sigmoid(U @ w + b) separately to the head and tail matrices.
    """
    if kind == "learnable":
        if params is None:
            raise ConfigError("learnable aggregation requires parameters")
        l_h = _sigmoid(profile.u_head @ params.weights + params.bias)
        l_t = _sigmoid(profile.u_tail @ params.weights + params.bias)
        return l_h, l_t
    if kind not in STAT_NAMES:
        raise ValidationError(f"unknown aggregation kind {kind!r}")
    column = STAT_NAMES.index(kind)
    return profile.u_head[:, column].copy(), profile.u_tail[:, column].copy()


def literal_vectors_backward(
    profile: RelationLiteralProfile,
    params: LearnableAggregationParams,
    d_l_h: np.ndarray,
    d_l_t: np.ndarray,
):
    """Gradient of the learnable reduction w.r.t. its weights and bias.

    Returns (d_weights, d_bias) for upstream gradients d_l_h, d_l_t on
    the two output vectors.
    """
    y_h = _sigmoid(profile.u_head @ params.weights + params.bias)
    y_t = _sigmoid(profile.u_tail @ params.weights + params.bias)
    g_h = d_l_h * y_h * (1.0 - y_h)
    g_t = d_l_t * y_t * (1.0 - y_t)
    d_weights = profile.u_head.T @ g_h + profile.u_tail.T @ g_t
    d_bias = float(g_h.sum() + g_t.sum())
    return d_weights, d_bias


def save_profiles(profiles: dict[int, RelationLiteralProfile], directory: str) -> None:
    """Serialize profiles as stacked (|R|, |A|, 11) arrays."""
    num_relations = len(profiles)
    if num_relations == 0:
        u_head = u_tail = np.zeros((0, 0, NUM_STATS))
    else:
        u_head = np.stack([profiles[r].u_head for r in range(num_relations)])
        u_tail = np.stack([profiles[r].u_tail for r in range(num_relations)])
    save_arrays(directory, {"u_head": u_head, "u_tail": u_tail})


def load_profiles(directory: str) -> dict[int, RelationLiteralProfile]:
    arrays = load_arrays(directory)
    u_head = arrays["u_head"]
    u_tail = arrays["u_tail"]
    return {
        r: RelationLiteralProfile(relation=r, u_head=u_head[r], u_tail=u_tail[r])
        for r in range(u_head.shape[0])
    }
