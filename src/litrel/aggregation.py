"""Per-relation aggregation of entity literals into head/tail vectors.

For every relation two |A| x 11 statistic matrices are precomputed, one
over the literal rows of the relation's head entities and one over its
tail entities (training split only, to avoid evaluation leakage).  They
are held, in memory as on disk, as two (|R|, |A|, 11) arrays
``(u_head, u_tail)``.  For an array of G relations, a configured
aggregation kind selects one statistic column of their rows, or the
learnable combination squashes all 11 through a sigmoid-activated linear
map, yielding the G x |A| head and tail rows fed into fusion.
"""

from __future__ import annotations

import json
import os

import numpy as np

from litrel import kernels, scoring
from litrel.data import KnowledgeGraph
from litrel.errors import ConfigError, ValidationError
from litrel.kernels import NUM_STATS, STAT_NAMES
from litrel.serialize import load_arrays, save_arrays

AGGREGATION_KINDS = STAT_NAMES + ("learnable",)

HEAD, TAIL = 0, 2  # triple column of the side entity


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
) -> tuple[np.ndarray, np.ndarray]:
    """Head and tail statistic arrays ``(u_head, u_tail)``, each (|R|, |A|, 11).

    Row ``[r, a]`` holds the statistics of attribute ``a`` in
    :data:`litrel.kernels.STAT_NAMES` order; a relation without training
    triples keeps zeros.  By default the population for a side is the set
    of distinct entities occurring on that side of the relation in
    training.  With ``aggregate_over_all_rows`` the statistics instead run
    over all |E| rows with non-participating rows zeroed (the
    dilute-toward-zero reading, kept for ablation); ``count`` still counts
    present cells of participating rows only.  With ``multiset_rows`` an
    entity contributes once per training triple it appears in.
    """
    values = graph.literals.values
    present = graph.literals.present
    num_entities = graph.num_entities
    shape = (graph.num_relations, graph.num_attributes, NUM_STATS)
    profiles = np.zeros(shape), np.zeros(shape)
    for relation, rows in scoring.relation_groups(graph.train[:, 1]):
        for u, column in zip(profiles, (HEAD, TAIL)):
            members = graph.train[rows, column]
            members = np.sort(members) if multiset_rows else np.unique(members)
            if aggregate_over_all_rows:
                padded = np.zeros((num_entities, graph.num_attributes))
                padded[members] = values[members]
                padded_mask = np.zeros((num_entities, graph.num_attributes), dtype=bool)
                padded_mask[members] = present[members]
                u[relation] = kernels.column_stats(padded, padded_mask)
            else:
                u[relation] = kernels.column_stats(values[members], present[members])
    return profiles


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def literal_vectors(profiles, relations: np.ndarray, kind: str,
                    weights: np.ndarray | None = None, bias: np.ndarray | None = None):
    """G x |A| head and tail literal rows of the relations (an index array).

    A fixed kind slices its statistic column; ``learnable`` applies
    sigmoid(U @ weights + bias) to the (G, |A|, 11) head and tail blocks.
    """
    u_head, u_tail = profiles
    if kind == "learnable":
        if weights is None or bias is None:
            raise ConfigError("learnable aggregation requires weights and bias")
        return (_sigmoid(u_head[relations] @ weights + bias),
                _sigmoid(u_tail[relations] @ weights + bias))
    if kind not in STAT_NAMES:
        raise ValidationError(f"unknown aggregation kind {kind!r}")
    column = STAT_NAMES.index(kind)
    return u_head[relations, :, column], u_tail[relations, :, column]


def literal_vectors_backward(profiles, relations: np.ndarray, weights: np.ndarray,
                             bias: np.ndarray, d_l_h: np.ndarray, d_l_t: np.ndarray):
    """Gradient of the learnable reduction w.r.t. its weights (11,) and bias (1,).

    ``d_l_h`` and ``d_l_t`` are the upstream G x |A| gradients on the
    rows :func:`literal_vectors` returned for the same relations.
    """
    d_weights, d_bias = np.zeros(NUM_STATS), np.zeros(1)
    for u, d_l in zip(profiles, (d_l_h, d_l_t)):
        u = u[relations]
        y = _sigmoid(u @ weights + bias)
        g = d_l * y * (1.0 - y)
        d_weights += np.tensordot(g, u, axes=2)
        d_bias += g.sum()
    return d_weights, d_bias


def save_profiles(profiles, directory: str, options: dict | None = None) -> None:
    """Write ``(u_head, u_tail)`` as ``u_head.npy`` and ``u_tail.npy``.

    ``options`` (the :func:`build_profiles` keywords the profiles were
    built with) is recorded next to them in ``options.json``.
    """
    u_head, u_tail = profiles
    save_arrays(directory, {"u_head": u_head, "u_tail": u_tail})
    if options is not None:
        with open(os.path.join(directory, "options.json"), "w", encoding="utf-8") as fh:
            json.dump(options, fh, indent=2, sort_keys=True)
            fh.write("\n")


def load_profiles(directory: str, num_relations: int | None = None,
                  num_attributes: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Read ``(u_head, u_tail)`` written by :func:`save_profiles`, checking their shapes.

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
    return arrays["u_head"], arrays["u_tail"]
