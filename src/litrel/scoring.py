"""Triple scoring as a per-model query plus a shared similarity kernel.

Every model scores a triple side by turning the anchor entity and the
fused relation vector ``r_lit`` into a query ``q``, then comparing ``q``
with every entity row in one of two kernels:

* dot product ``E @ q`` (``norm = None``): DistMult, ComplEx, TuckER;
* negative Lp distance ``-||q - E_i||_p`` (``norm = 1`` or ``2``):
  TransE, and RotatE with p = 2 over the packed re/im row.

So "higher is better" for every model.  The tail side anchors on the
head, the head side on the tail, and exact identities let both sides
build a single query:

* TransE:   tails ``q = e_h + r``, heads ``q = e_t - r``;
* DistMult: ``q = e_anchor * r`` on both sides (the model is symmetric);
* ComplEx:  tails ``q = e_h * r``, heads ``q = conj(r) * e_t``, since
  ``Re(<e_h, r, conj(e_t)>)`` equals ``Re(<e_h, conj(conj(r) * e_t)>)``;
* RotatE:   tails ``q = e_h * exp(i theta)``, heads
  ``q = e_t * exp(-i theta)``, since a rotation preserves the norm;
* TuckER:   the core contracted with the anchor and ``r_lit``, the
  anchor on the first entity mode for tails and on the last for heads.

Complex-valued layouts pack real parts in the first half of a row and
imaginary parts in the second half.  The rotation model stores relation
vectors as phase angles of length D_e / 2; the trigonometric functions
absorb the 2*pi periodicity, so no modular wrapping is applied.

Backward passes accumulate into caller-provided dense gradient buffers
(the softmax training loss makes entity gradients dense anyway):
:func:`similarities_backward` returns the gradient w.r.t. the query and
each model's ``query_backward`` turns that into the gradient w.r.t. the
fused relation vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from litrel.errors import ConfigError, ShapeError

MODEL_KINDS = ("transe", "distmult", "complex", "rotate", "tucker")

_NORM_EPS = 1e-12


@dataclass
class EmbeddingTables:
    """Entity and relation embedding matrices (plus core tensor for tucker)."""

    entity: np.ndarray              # float64, |E| x D_e
    relation: np.ndarray            # float64, |R| x D_r
    core: np.ndarray | None = None  # float64, D_e x D_r x D_e (tucker only)

    @property
    def dim_entity(self) -> int:
        return self.entity.shape[1]


def _complex(row):
    m = row.shape[-1] // 2
    return row[:m] + 1j * row[m:]


def _packed(z):
    return np.concatenate([z.real, z.imag])


class TransE:
    """score = -|| e_h + r - e_t ||_p (p = 2 by default, 1 by config)."""

    def __init__(self, norm: int = 2):
        if norm not in (1, 2):
            raise ConfigError(f"transe norm must be 1 or 2, got {norm}")
        self.norm = norm

    def query(self, tables, anchor, r_lit, side):
        e = tables.entity[anchor]
        return e + r_lit if side == "tail" else e - r_lit

    def query_backward(self, tables, anchor, r_lit, side, d_q, d_entity, d_core=None):
        d_entity[anchor] += d_q
        return d_q if side == "tail" else -d_q


class DistMult:
    """score = sum(e_h * r * e_t), symmetric in head and tail."""

    norm = None

    def query(self, tables, anchor, r_lit, side):
        return tables.entity[anchor] * r_lit

    def query_backward(self, tables, anchor, r_lit, side, d_q, d_entity, d_core=None):
        d_entity[anchor] += d_q * r_lit
        return d_q * tables.entity[anchor]


class ComplEx:
    """score = Re(<e_h, r, conj(e_t)>) over complex-packed rows."""

    norm = None

    def query(self, tables, anchor, r_lit, side):
        e, r = _complex(tables.entity[anchor]), _complex(r_lit)
        return _packed(e * r if side == "tail" else np.conj(r) * e)

    def query_backward(self, tables, anchor, r_lit, side, d_q, d_entity, d_core=None):
        e, r, g = _complex(tables.entity[anchor]), _complex(r_lit), _complex(d_q)
        if side == "tail":
            d_e, d_r = g * np.conj(r), g * np.conj(e)
        else:
            d_e, d_r = g * r, np.conj(g) * e
        d_entity[anchor] += _packed(d_e)
        return _packed(d_r)


class RotatE:
    """score = -|| e_h * exp(i * theta) - e_t || with phase relation vectors."""

    norm = 2

    def query(self, tables, anchor, r_lit, side):
        if r_lit.shape[-1] != tables.dim_entity // 2:
            raise ShapeError(
                f"rotate phase vector has length {r_lit.shape[-1]}, "
                f"expected D_e/2 = {tables.dim_entity // 2}"
            )
        sign = 1.0 if side == "tail" else -1.0
        return _packed(_complex(tables.entity[anchor]) * np.exp(sign * 1j * r_lit))

    def query_backward(self, tables, anchor, r_lit, side, d_q, d_entity, d_core=None):
        sign = 1.0 if side == "tail" else -1.0
        rotation = np.exp(sign * 1j * r_lit)
        q = _complex(tables.entity[anchor]) * rotation
        g = _complex(d_q)
        d_entity[anchor] += _packed(g * np.conj(rotation))
        # dq/dtheta = sign * i * q
        return sign * np.imag(g * np.conj(q))


class TuckER:
    """score = core tensor contracted with e_h, r and e_t."""

    norm = None

    def query(self, tables, anchor, r_lit, side):
        if tables.core is None:
            raise ShapeError("tucker scoring requires a core tensor")
        a, o = ("p", "s") if side == "tail" else ("s", "p")
        return np.einsum(f"{a},pqs,q->{o}", tables.entity[anchor], tables.core, r_lit)

    def query_backward(self, tables, anchor, r_lit, side, d_q, d_entity, d_core=None):
        a, o = ("p", "s") if side == "tail" else ("s", "p")
        e = tables.entity[anchor]
        d_entity[anchor] += np.einsum(f"{o},pqs,q->{a}", d_q, tables.core, r_lit)
        if d_core is not None:
            d_core += np.einsum(f"{a},q,{o}->pqs", e, r_lit, d_q)
        return np.einsum(f"{a},pqs,{o}->q", e, tables.core, d_q)


def make_model(kind: str, transe_norm: int = 2):
    if kind == "transe":
        return TransE(norm=transe_norm)
    if kind == "distmult":
        return DistMult()
    if kind == "complex":
        return ComplEx()
    if kind == "rotate":
        return RotatE()
    if kind == "tucker":
        return TuckER()
    raise ConfigError(f"unknown model kind {kind!r}")


def similarities(norm, q: np.ndarray, entity: np.ndarray) -> np.ndarray:
    """Score of query ``q`` against every entity row: ``E @ q`` or ``-||q - E_i||_p``."""
    if norm is None:
        return entity @ q
    diff = q - entity
    if norm == 1:
        return -np.abs(diff).sum(axis=-1)
    return -np.sqrt((diff * diff).sum(axis=-1))


def similarities_backward(norm, q, entity, g, d_entity) -> np.ndarray:
    """Backward of :func:`similarities` for upstream gradient ``g`` (|E|,).

    Accumulates the entity-row gradients into ``d_entity`` and returns
    the gradient w.r.t. ``q``.
    """
    if norm is None:
        d_entity += np.outer(g, q)
        return entity.T @ g
    diff = q - entity
    if norm == 1:
        unit = np.sign(diff)
    else:
        n = np.sqrt((diff * diff).sum(axis=-1))
        unit = diff / np.maximum(n, _NORM_EPS)[:, None]
    d_entity += g[:, None] * unit
    return -(unit.T @ g)


def score_all_tails(h: int, r_lit: np.ndarray, model, tables: EmbeddingTables) -> np.ndarray:
    """Scores of (h, r, e) for every entity e, as one batched operation."""
    return similarities(model.norm, model.query(tables, h, r_lit, "tail"), tables.entity)


def score_all_heads(t: int, r_lit: np.ndarray, model, tables: EmbeddingTables) -> np.ndarray:
    """Scores of (e, r, t) for every entity e, as one batched operation."""
    return similarities(model.norm, model.query(tables, t, r_lit, "head"), tables.entity)
