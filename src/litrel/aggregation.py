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

import os

import numpy as np

from litrel import kernels
from litrel.data import KnowledgeGraph
from litrel.errors import ConfigError, ValidationError
from litrel.kernels import NUM_STATS, STAT_NAMES
from litrel.serialize import array_fault, load_arrays, save_arrays, save_json

AGGREGATION_KINDS = STAT_NAMES + ("learnable",)

HEAD, TAIL = 0, 2  # triple column of the side entity


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
    dilute-toward-zero reading, kept for ablation; the literal values
    must be >= 0, as normalized ones are); ``count`` still counts present
    cells of participating rows only, and an entity counts once however
    many triples it is in.  With ``multiset_rows`` (and not
    ``aggregate_over_all_rows``) an entity contributes once per training
    triple it appears in.

    Each side is one :func:`litrel.kernels.column_stats` call over the
    populations of all relations, sorted by (relation, entity).
    """
    values = graph.literals.values
    num_entities = graph.num_entities
    if aggregate_over_all_rows and (values < 0).any():
        raise ValidationError("aggregate_over_all_rows needs literal values >= 0")
    shape = (graph.num_relations, graph.num_attributes, NUM_STATS)
    profiles = np.zeros(shape), np.zeros(shape)
    for u, column in zip(profiles, (HEAD, TAIL)):
        keys = graph.train[:, 1] * num_entities + graph.train[:, column]
        keys = np.sort(keys) if multiset_rows and not aggregate_over_all_rows else np.unique(keys)
        relations, members = np.divmod(keys, num_entities)
        starts = np.flatnonzero(np.diff(relations, prepend=-1))
        zeros = num_entities - np.diff(starts, append=len(keys)) if aggregate_over_all_rows else None
        u[relations[starts]] = kernels.column_stats(
            values, graph.literals.present, starts, zeros, members)
    return profiles


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def literal_vectors(profiles, relations: np.ndarray, kind: str,
                    weights: np.ndarray | None = None, bias: np.ndarray | None = None,
                    cache: dict | None = None):
    """G x |A| head and tail literal rows of the relations (an index array).

    A fixed kind slices its statistic column; ``learnable`` applies
    sigmoid(U @ weights + bias) to the (G, |A|, 11) head and tail blocks
    and, when given a ``cache`` dict, stores those blocks as ``rows`` and
    its two outputs as ``outputs`` there for :func:`literal_vectors_backward`.
    """
    u_head, u_tail = profiles
    if kind == "learnable":
        if weights is None or bias is None:
            raise ConfigError("learnable aggregation requires weights and bias")
        rows = u_head[relations], u_tail[relations]
        outputs = _sigmoid(rows[0] @ weights + bias), _sigmoid(rows[1] @ weights + bias)
        if cache is not None:
            cache.update(rows=rows, outputs=outputs)
        return outputs
    if kind not in STAT_NAMES:
        raise ValidationError(f"unknown aggregation kind {kind!r}")
    column = STAT_NAMES.index(kind)
    return u_head[relations, :, column], u_tail[relations, :, column]


def literal_vectors_backward(cache: dict, d_l_h: np.ndarray, d_l_t: np.ndarray):
    """Gradient of the learnable reduction w.r.t. its weights (11,) and bias (1,).

    ``cache`` is the dict a learnable :func:`literal_vectors` call
    filled; ``d_l_h`` and ``d_l_t`` are the upstream G x |A| gradients
    on the rows that call returned.
    """
    d_weights, d_bias = np.zeros(NUM_STATS), np.zeros(1)
    for u, y, d_l in zip(cache["rows"], cache["outputs"], (d_l_h, d_l_t)):
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
        save_json(os.path.join(directory, "options.json"), options)


def load_profiles(directory: str, num_relations: int,
                  num_attributes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read ``(u_head, u_tail)`` written by :func:`save_profiles`, checking their shapes.

    ``u_head.npy`` and ``u_tail.npy`` must both exist as float64 arrays
    of shape (``num_relations``, ``num_attributes``, 11); otherwise a
    :class:`ValidationError` names the file.
    """
    arrays = load_arrays(directory)
    expected = (num_relations, num_attributes, NUM_STATS)
    for name in ("u_head", "u_tail"):
        path = os.path.join(directory, name + ".npy")
        if name not in arrays:
            raise ValidationError(f"{path} is missing")
        fault = array_fault(arrays[name], "float64", expected)
        if fault is not None:
            raise ValidationError(f"{path} {fault}")
    return arrays["u_head"], arrays["u_tail"]
