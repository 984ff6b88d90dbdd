"""Triple scoring as per-model query matrices plus a shared similarity kernel.

Every model scores one side of a block of triples by turning the anchor
entities and their fused relation rows ``r_lit`` (B x D_r, one row per
anchor, so a block may span relations) into a B x D query matrix ``Q``,
then comparing every row with every entity in one of two kernels:

* dot product ``Q @ E.T`` (``norm = None``): DistMult, ComplEx, TuckER;
* negative Lp distance ``-||q_b - e_j||_p`` (``norm = 1`` or ``2``):
  TransE, and RotatE with p = 2 over the packed re/im row.

So "higher is better" for every model, and a block scores as a B x |E|
matrix.  The tail side anchors on the heads, the head side on the
tails, and exact identities let both sides build their queries:

* TransE:   tails ``q = e_h + r``, heads ``q = e_t - r``;
* DistMult: ``q = e_anchor * r`` on both sides (the model is symmetric);
* ComplEx:  tails ``q = e_h * r``, heads ``q = conj(r) * e_t``, since
  ``Re(<e_h, r, conj(e_t)>)`` equals ``Re(<e_h, conj(conj(r) * e_t)>)``;
* RotatE:   tails ``q = e_h * exp(i theta)``, heads
  ``q = e_t * exp(-i theta)``, since a rotation preserves the norm;
* TuckER:   the core contracted with each row's ``e_anchor`` and
  ``r_lit`` in Khatri-Rao form: tails ``q = (e_h (x) r) @ core`` with
  the core as a (D_e*D_r) x D_e matrix, heads ``q = (r (x) e_t) @ core.T``
  with the core as a D_e x (D_r*D_e) matrix; the D_e*D_r-wide rows are
  built :data:`BLOCK_SCORES` entries at a time.

The kernels live in :class:`SimilarityBlocks`, one per call site (a
training loss, a ranking call): it computes the entity table's squared
norms once and reuses its B x |E| and |E| x D buffers for every block.

Squared L2 distances are expanded as ``||q||^2 - 2 q.e + ||e||^2``, so
the distance kernel is one matrix product plus row norms.  The
expansion loses every digit when ``q`` lies on ``e`` (a zero distance
reads as a rounding residue such as -6e-8, and its gradient direction is
noise), so the pairs whose expanded square is within ``_CANCEL`` times
the rounding scale ``||q||^2 + max ||e||^2`` are recomputed directly
as ``||q - e||^2``, which is exactly 0 for equal rows.  A row minimum
screens the rows first, so only rows holding such a pair are searched.
The L1 kernel keeps the direct form, one query row at a time.

Complex-valued layouts pack real parts in the first half of a row and
imaginary parts in the second half.  The rotation model stores relation
vectors as phase angles of length D_e / 2; the trigonometric functions
absorb the 2*pi periodicity, so no modular wrapping is applied.

Backward passes accumulate into caller-provided dense gradient buffers
(the softmax training loss makes entity gradients dense anyway):
:meth:`SimilarityBlocks.backward` returns the gradient w.r.t. the query
matrix and each model's ``query_backward`` adds the anchor rows'
gradients with ``np.add.at`` (a repeated anchor adds up) and returns
the B x D_r gradient w.r.t. the fused relation rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from litrel.errors import ConfigError, ShapeError

MODEL_KINDS = ("transe", "distmult", "complex", "rotate", "tucker")

# Score entries per block: a B x |E| float64 score matrix stays at 2 MiB.
BLOCK_SCORES = 1 << 18

_NORM_EPS = 1e-12
# Expanded squared distances within this multiple of their rounding scale
# are recomputed directly; outside it the expansion is accurate to about
# D * 1e-16 / _CANCEL relative.
_CANCEL = 1e-6


@dataclass
class EmbeddingTables:
    """Entity and relation embedding matrices (plus core tensor for tucker)."""

    entity: np.ndarray              # float64, |E| x D_e
    relation: np.ndarray            # float64, |R| x D_r
    core: np.ndarray | None = None  # float64, D_e x D_r x D_e (tucker only)

    @property
    def dim_entity(self) -> int:
        return self.entity.shape[1]


def _complex(rows):
    m = rows.shape[-1] // 2
    return rows[..., :m] + 1j * rows[..., m:]


def _packed(z):
    return np.concatenate([z.real, z.imag], axis=-1)


class TransE:
    """score = -|| e_h + r - e_t ||_p (p = 2 by default, 1 by config)."""

    def __init__(self, norm: int = 2):
        if norm not in (1, 2):
            raise ConfigError(f"transe norm must be 1 or 2, got {norm}")
        self.norm = norm

    def query(self, tables, anchors, r_lit, side):
        e = tables.entity[anchors]
        return e + r_lit if side == "tail" else e - r_lit

    def query_backward(self, tables, anchors, r_lit, side, d_q, d_entity, d_core=None):
        np.add.at(d_entity, anchors, d_q)
        return d_q if side == "tail" else -d_q


class DistMult:
    """score = sum(e_h * r * e_t), symmetric in head and tail."""

    norm = None

    def query(self, tables, anchors, r_lit, side):
        return tables.entity[anchors] * r_lit

    def query_backward(self, tables, anchors, r_lit, side, d_q, d_entity, d_core=None):
        np.add.at(d_entity, anchors, d_q * r_lit)
        return d_q * tables.entity[anchors]


class ComplEx:
    """score = Re(<e_h, r, conj(e_t)>) over complex-packed rows."""

    norm = None

    def query(self, tables, anchors, r_lit, side):
        e, r = _complex(tables.entity[anchors]), _complex(r_lit)
        return _packed(e * r if side == "tail" else np.conj(r) * e)

    def query_backward(self, tables, anchors, r_lit, side, d_q, d_entity, d_core=None):
        e, r, g = _complex(tables.entity[anchors]), _complex(r_lit), _complex(d_q)
        if side == "tail":
            d_e, d_r = g * np.conj(r), g * np.conj(e)
        else:
            d_e, d_r = g * r, np.conj(g) * e
        np.add.at(d_entity, anchors, _packed(d_e))
        return _packed(d_r)


class RotatE:
    """score = -|| e_h * exp(i * theta) - e_t || with phase relation vectors."""

    norm = 2

    def query(self, tables, anchors, r_lit, side):
        if r_lit.shape[-1] != tables.dim_entity // 2:
            raise ShapeError(
                f"rotate phase vector has length {r_lit.shape[-1]}, "
                f"expected D_e/2 = {tables.dim_entity // 2}"
            )
        sign = 1.0 if side == "tail" else -1.0
        return _packed(_complex(tables.entity[anchors]) * np.exp(sign * 1j * r_lit))

    def query_backward(self, tables, anchors, r_lit, side, d_q, d_entity, d_core=None):
        sign = 1.0 if side == "tail" else -1.0
        rotation = np.exp(sign * 1j * r_lit)
        q = _complex(tables.entity[anchors]) * rotation
        g = _complex(d_q)
        np.add.at(d_entity, anchors, _packed(g * np.conj(rotation)))
        # dq/dtheta = sign * i * q
        return sign * np.imag(g * np.conj(q))


class TuckER:
    """score = core tensor contracted with e_h, r and e_t."""

    norm = None

    @staticmethod
    def _factors(core, e, r_lit, side):
        """Operands ``(a, b)`` and a matrix view ``M`` of the core: row by row ``q = (a (x) b) @ M``."""
        if side == "tail":
            return e, r_lit, core.reshape(-1, core.shape[-1])
        return r_lit, e, core.reshape(core.shape[0], -1).T

    @staticmethod
    def _khatri_rao(a, b):
        """``(rows, a[rows] (x) b[rows])`` for chunks of rows of at most ``BLOCK_SCORES`` entries."""
        width = a.shape[1] * b.shape[1]
        step = max(1, BLOCK_SCORES // width)
        for start in range(0, a.shape[0], step):
            rows = slice(start, start + step)
            yield rows, (a[rows, :, None] * b[rows, None, :]).reshape(-1, width)

    def query(self, tables, anchors, r_lit, side):
        if tables.core is None:
            raise ShapeError("tucker scoring requires a core tensor")
        a, b, m = self._factors(tables.core, tables.entity[anchors], r_lit, side)
        q = np.empty((a.shape[0], m.shape[1]))
        for rows, kr in self._khatri_rao(a, b):
            q[rows] = kr @ m
        return q

    def query_backward(self, tables, anchors, r_lit, side, d_q, d_entity, d_core=None):
        e = tables.entity[anchors]
        a, b, m = self._factors(tables.core, e, r_lit, side)
        d_m = None if d_core is None else self._factors(d_core, e, r_lit, side)[2]  # adds into d_core
        d_a, d_b = np.empty_like(a), np.empty_like(b)
        for rows, kr in self._khatri_rao(a, b):
            d_kr = (d_q[rows] @ m.T).reshape(-1, a.shape[1], b.shape[1])
            d_a[rows] = np.einsum("bij,bj->bi", d_kr, b[rows])
            d_b[rows] = np.einsum("bij,bi->bj", d_kr, a[rows])
            if d_m is not None:
                d_m += kr.T @ d_q[rows]
        d_e, d_r = (d_a, d_b) if side == "tail" else (d_b, d_a)
        np.add.at(d_entity, anchors, d_e)
        return d_r


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


def block_rows(num_entities: int) -> int:
    """Query rows per similarity block: ``BLOCK_SCORES`` score entries, at least one row."""
    return max(1, BLOCK_SCORES // num_entities)


def relation_groups(relations: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """``(relation, row indices)`` per distinct relation, ascending, rows in input order."""
    order = np.argsort(relations, kind="stable")
    values, starts = np.unique(relations[order], return_index=True)
    return list(zip(values.tolist(), np.split(order, starts[1:])))


def sq_norms(rows):
    """Squared L2 norm of each row."""
    return np.einsum("ij,ij->i", rows, rows)


class SimilarityBlocks:
    """The similarity kernel of one call site, over blocks of at most ``rows`` query rows.

    ``forward(q)`` scores the rows of ``q`` against every entity row:
    ``q @ E.T`` for ``norm = None``, else ``-||q_b - e_j||_p``.
    ``backward`` is its gradient.  The entity table's squared norms are
    computed once, at construction; the B x |E| score and weight
    buffers and the |E| x D product buffers are allocated once and
    written with ``out=`` on every block, so the scores a ``forward``
    returns are a view that the next ``forward`` overwrites.  The entity
    table must not change while the kernel is in use.
    """

    def __init__(self, norm, entity: np.ndarray, rows: int):
        self.norm = norm
        self.entity = entity
        self.rows = rows
        self._scores = np.empty((rows, entity.shape[0]))
        self._product = np.empty_like(entity)
        if norm is not None:
            self._other = np.empty_like(entity)
        if norm == 2:
            self._weights = np.empty_like(self._scores)
            self._entity_sq = sq_norms(entity)
            self._entity_sq_max = self._entity_sq.max()

    def _cancel_bound(self, q):
        """Per query row, the squared distance below which the expansion is recomputed."""
        return _CANCEL * (sq_norms(q) + self._entity_sq_max)

    def forward(self, q: np.ndarray) -> np.ndarray:
        """B x |E| scores of the query rows ``q``: a view of the kernel's score buffer."""
        if q.shape[0] > self.rows:
            raise ShapeError(f"{q.shape[0]} query rows exceed the block of {self.rows}")
        entity, out = self.entity, self._scores[:q.shape[0]]
        if self.norm is None:
            return np.matmul(q, entity.T, out=out)
        if self.norm == 1:
            diff = self._product
            for row, out_row in zip(q, out):
                np.subtract(row, entity, out=diff)
                np.abs(diff, out=diff)
                np.sum(diff, axis=1, out=out_row)
            return np.negative(out, out=out)
        sq = np.matmul(q, entity.T, out=out)
        sq *= -2.0
        sq += sq_norms(q)[:, None]
        sq += self._entity_sq
        bound = self._cancel_bound(q)
        # fmin skips NaN, so a row screens in exactly when some entry passes the test below
        near = np.flatnonzero(np.fmin.reduce(sq, axis=1) <= bound)
        rows, cols = _pairs_within(near, sq[near], bound[near])
        sq[rows, cols] = sq_norms(q[rows] - entity[cols])
        np.sqrt(sq, out=sq)
        return np.negative(sq, out=sq)

    def backward(self, q, scores, g, d_entity, d_q=None) -> np.ndarray:
        """Backward of :meth:`forward` for upstream gradient ``g`` (B x |E|).

        ``scores`` is the forward output; the L2 kernel reuses its
        distances.  Accumulates the entity-row gradients into
        ``d_entity`` and writes the gradient w.r.t. ``q`` into ``d_q``
        (a new B x D array when not given), which it returns.
        """
        entity = self.entity
        if d_q is None:
            d_q = np.empty_like(q)
        if self.norm is None:
            d_entity += np.matmul(g.T, q, out=self._product)
            return np.matmul(g, entity, out=d_q)
        if self.norm == 1:
            unit, weighted = self._product, self._other
            for row, g_row, d_row in zip(q, g, d_q):
                np.subtract(row, entity, out=unit)
                np.sign(unit, out=unit)
                d_entity += np.multiply(g_row[:, None], unit, out=weighted)
                d_row[...] = -(unit.T @ g_row)
            return d_q
        # score = -n with n = ||q - e||: dq = sum_j w_j (e_j - q), de_j = w_j (q - e_j), w = g / n
        bound = np.sqrt(self._cancel_bound(q))
        near = np.flatnonzero(-np.fmax.reduce(scores, axis=1) <= bound)
        rows, cols = _pairs_within(near, -scores[near], bound[near])
        w = np.negative(scores, out=self._weights[:q.shape[0]])
        with np.errstate(divide="ignore", invalid="ignore"):  # the near pairs, zeroed next
            np.divide(g, w, out=w)
        w[rows, cols] = 0.0
        product = np.matmul(w.T, q, out=self._product)
        product -= np.multiply(w.sum(axis=0)[:, None], entity, out=self._other)
        d_entity += product
        np.matmul(w, entity, out=d_q)
        d_q -= w.sum(axis=1)[:, None] * q
        diff = q[rows] - entity[cols]
        pair = (g[rows, cols] / np.maximum(-scores[rows, cols], _NORM_EPS))[:, None] * diff
        np.add.at(d_entity, cols, pair)
        np.add.at(d_q, rows, -pair)
        return d_q


def _pairs_within(rows, values, bound):
    """``(rows, cols)`` of the entries ``values[i, j] <= bound[i]``, row-major; ``values[i]`` is row ``rows[i]``."""
    sub_rows, cols = np.nonzero(values <= bound[:, None])
    return rows[sub_rows], cols


def _score_all(anchors, r_lit, model, tables, side, blocks):
    q = model.query(tables, anchors, r_lit, side)
    if blocks is None:
        blocks = SimilarityBlocks(model.norm, tables.entity, q.shape[0])
    return blocks.forward(q)


def score_all_tails(heads: np.ndarray, r_lit: np.ndarray, model, tables: EmbeddingTables,
                    blocks: SimilarityBlocks | None = None) -> np.ndarray:
    """B x |E| scores of (heads[b], r_b, e) for every entity e; ``r_lit`` is B x D_r.

    ``blocks``, a :class:`SimilarityBlocks` of ``model.norm`` over
    ``tables.entity``, is reused across calls; the scores are then a view
    of its buffer.
    """
    return _score_all(heads, r_lit, model, tables, "tail", blocks)


def score_all_heads(tails: np.ndarray, r_lit: np.ndarray, model, tables: EmbeddingTables,
                    blocks: SimilarityBlocks | None = None) -> np.ndarray:
    """B x |E| scores of (e, r_b, tails[b]) for every entity e; ``r_lit`` is B x D_r.

    ``blocks`` as in :func:`score_all_tails`.
    """
    return _score_all(tails, r_lit, model, tables, "head", blocks)
