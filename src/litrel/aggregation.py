"""Per-relation aggregation of entity literals into head/tail vectors.

For every relation two |A| x 11 statistic matrices are precomputed, one
over the literal rows of the distinct entities on its head side and one
over those on its tail side, each entity once (training split only, to
avoid evaluation leakage).  Absent cells hold 0 and enter every
statistic but ``count``; entities outside a relation enter none.  They
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
from litrel.errors import ValidationError
from litrel.kernels import NUM_STATS, STAT_NAMES
from litrel.serialize import array_fault, load_arrays, save_arrays

AGGREGATION_KINDS = STAT_NAMES + ("learnable",)

HEAD, TAIL = 0, 2  # triple column of the side entity


def build_profiles(graph: KnowledgeGraph) -> tuple[np.ndarray, np.ndarray]:
    """Head and tail statistic arrays ``(u_head, u_tail)``, each (|R|, |A|, 11).

    Row ``[r, a]`` holds the statistics of attribute ``a`` in
    :data:`litrel.kernels.STAT_NAMES` order; a relation without training
    triples keeps zeros.  The population for a side is the set of
    distinct entities occurring on that side of the relation in
    training: an entity counts once however many triples it is in.

    Each side is one :func:`litrel.kernels.column_stats` call over the
    populations of all relations, sorted by (relation, entity).
    """
    num_entities = graph.num_entities
    shape = (graph.num_relations, graph.num_attributes, NUM_STATS)
    profiles = np.zeros(shape), np.zeros(shape)
    for u, column in zip(profiles, (HEAD, TAIL)):
        keys = np.unique(graph.train[:, 1] * num_entities + graph.train[:, column])
        relations, members = np.divmod(keys, num_entities)
        starts = np.flatnonzero(np.diff(relations, prepend=-1))
        u[relations[starts]] = kernels.column_stats(
            graph.literals.values, graph.literals.present, members, starts)
    return profiles


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def literal_vectors(profiles, relations: np.ndarray, kind: str, weights, bias, cache: dict, gathered):
    """G x |A| head and tail literal rows of the relations (an index array).

    A fixed kind slices its statistic column, and ignores ``weights``,
    ``bias``, ``cache`` and ``gathered``.  ``learnable`` gathers the
    (G, |A|, 11) head and tail blocks into the first G rows of the two
    arrays of ``gathered``, which the next call overwrites (the state's
    are (|R|, |A|, 11), as no caller asks for a relation twice; the ids
    must be valid row indices, which the caller has checked),
    applies sigmoid(U @ weights + bias) to them and stores the blocks as
    ``rows`` and its two outputs as ``outputs`` in the ``cache`` dict for
    :func:`literal_vectors_backward`.
    """
    u_head, u_tail = profiles
    if kind == "learnable":
        # mode "raise" would gather through a temporary copy
        rows = tuple(np.take(u, relations, axis=0, out=out[:len(relations)], mode="wrap")
                     for u, out in zip(profiles, gathered))
        outputs = _sigmoid(rows[0] @ weights + bias), _sigmoid(rows[1] @ weights + bias)
        cache.update(rows=rows, outputs=outputs)
        return outputs
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


def save_profiles(profiles, directory: str) -> None:
    """Write ``(u_head, u_tail)`` as ``u_head.npy`` and ``u_tail.npy``."""
    u_head, u_tail = profiles
    save_arrays(directory, {"u_head": u_head, "u_tail": u_tail})


def load_profiles(directory: str, num_relations: int,
                  num_attributes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read ``(u_head, u_tail)`` written by :func:`save_profiles`, checking their shapes.

    ``u_head.npy`` and ``u_tail.npy`` must both exist as finite float64
    arrays of shape (``num_relations``, ``num_attributes``, 11);
    otherwise a :class:`ValidationError` names the file.
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
