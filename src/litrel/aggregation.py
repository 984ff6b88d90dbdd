"""Per-relation aggregation of entity literals into head/tail vectors.

For every relation two |A| x 11 statistic matrices are precomputed, one
over the literal rows of the relation's head entities and one over its
tail entities (training split only, to avoid evaluation leakage).  A
configured aggregation kind then selects one statistic column, or the
learnable combination squashes all 11 through a sigmoid-activated linear
map, yielding the vectors fed into fusion.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from litrel import kernels, scoring
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
    empty = np.zeros((graph.num_attributes, NUM_STATS))
    profiles = {
        relation: RelationLiteralProfile(relation=relation, u_head=empty.copy(), u_tail=empty.copy())
        for relation in range(graph.num_relations)
    }
    for relation, rows in scoring.relation_groups(graph.train[:, 1]):
        sides = []
        for column in (HEAD, TAIL):
            members = graph.train[rows, column]
            members = np.sort(members) if multiset_rows else np.unique(members)
            if aggregate_over_all_rows:
                padded = np.zeros((num_entities, graph.num_attributes))
                padded[members] = values[members]
                padded_mask = np.zeros((num_entities, graph.num_attributes), dtype=bool)
                padded_mask[members] = present[members]
                sides.append(kernels.column_stats(padded, padded_mask))
            else:
                sides.append(kernels.column_stats(values[members], present[members]))
        profiles[relation].u_head, profiles[relation].u_tail = sides
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


def save_profiles(profiles: dict[int, RelationLiteralProfile], directory: str,
                  options: dict | None = None) -> None:
    """Serialize profiles as stacked (|R|, |A|, 11) arrays.

    ``options`` (the :func:`build_profiles` keywords the profiles were
    built with) is recorded next to them in ``options.json``.
    """
    num_relations = len(profiles)
    if num_relations == 0:
        u_head = u_tail = np.zeros((0, 0, NUM_STATS))
    else:
        u_head = np.stack([profiles[r].u_head for r in range(num_relations)])
        u_tail = np.stack([profiles[r].u_tail for r in range(num_relations)])
    save_arrays(directory, {"u_head": u_head, "u_tail": u_tail})
    if options is not None:
        with open(os.path.join(directory, "options.json"), "w", encoding="utf-8") as fh:
            json.dump(options, fh, indent=2, sort_keys=True)
            fh.write("\n")


def load_profiles(directory: str, num_relations: int | None = None,
                  num_attributes: int | None = None) -> dict[int, RelationLiteralProfile]:
    """Read profiles written by :func:`save_profiles`, checking their shapes.

    ``u_head.npy`` and ``u_tail.npy`` must both exist with the same
    (|R|, |A|, 11) shape, and |R| and |A| must equal ``num_relations``
    and ``num_attributes`` where those are given; otherwise a
    :class:`ValidationError` names the file.
    """
    arrays = load_arrays(directory)
    expected = None
    for name in ("u_head", "u_tail"):
        path = os.path.join(directory, name + ".npy")
        if name not in arrays:
            raise ValidationError(f"{path} is missing")
        shape = arrays[name].shape
        if expected is None and len(shape) == 3:
            expected = (num_relations if num_relations is not None else shape[0],
                        num_attributes if num_attributes is not None else shape[1],
                        NUM_STATS)
        if shape != expected:
            raise ValidationError(f"{path} has shape {shape}, expected {expected or '(|R|, |A|, 11)'}")
    u_head, u_tail = arrays["u_head"], arrays["u_tail"]
    return {
        r: RelationLiteralProfile(relation=r, u_head=u_head[r], u_tail=u_tail[r])
        for r in range(u_head.shape[0])
    }
