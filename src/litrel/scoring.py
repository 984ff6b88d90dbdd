"""Triple scoring as per-model query matrices plus a shared similarity kernel.

Every model scores one side of a block of triples by turning the anchor
entities and their fused relation rows ``r_lit`` (B x D_r, one row per
anchor, so a block may span relations) into a B x D query matrix ``Q``,
then comparing every row with every entity in one of two kernels:

* dot product ``Q @ E.T`` (``norm = None``): DistMult, ComplEx, TuckER;
* negative L2 distance ``-||q_b - e_j||`` (``norm = 2``): TransE, and
  RotatE over the packed re/im row.

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
  built a :data:`LANES` share of :data:`BLOCK_SCORES` entries at a time,
  so the lane models of a training step together hold one budget.

The kernels live in :class:`GradientBlocks`, one per lane of a training
run, which scores in float64 and adds the backward pass, and in
:class:`SimilarityBlocks`, one per lane of a ranking or KNN call, which
screens in float32 and re-checks in float64 (below).  Each sizes its
buffers itself, allocates them when it is built and reuses them for every
block; :meth:`GradientBlocks.refresh` re-reads the entity table's
squared norms after the optimizer has changed the table in place.  A
screen kernel's float32 score buffer takes the bytes of the whole
:data:`BLOCK_SCORES` budget, so ``2 BLOCK_SCORES / |E|`` rows.  A
training lane also holds an |E| x D entity-gradient partial and, for
L2, an upstream buffer of the score buffer's shape, so its float64
score buffer is its :data:`LANES` share, ``BLOCK_SCORES / LANES / |E|``
rows.  Either kernel takes at least one row.  The backward kernel adds
its entity-gradient products into that partial through one chunk
buffer of :data:`CHUNK_ENTRIES` entries, so it holds no |E| x D array,
and the optimizer step works through its lanes' chunks with one such
scratch each (:class:`litrel.training.Optimizer`).
A TuckER model is built with its Khatri-Rao chunk and, in a training
lane, its core-product buffer, so no lane allocates a chunk-sized array.

The block loops of training, ranking and KNN all cut their query rows
by their kernels' ``rows`` with :func:`cut`, into :data:`LANES`
contiguous lanes of blocks, and :func:`fan_out` runs the lanes on a
thread pool.  :func:`lanes` builds the lanes of training and ranking, on
the calling thread: per lane, a kernel (a :class:`GradientBlocks` for
training, a :class:`SimilarityBlocks` for ranking) and a scoring model
of its own, which builds the lane's queries (and, in training, runs
their ``query_backward``), so TuckER's buffers are never shared between
threads.  The screen kernels of a ranking or KNN call share one float32
copy of the table (:func:`screens`).  :data:`BLOCK_SCORES` alone decides
the block shape.  The cut depends only on the row count and the block
rows, so results do not depend on the number of threads.

In training, squared L2 distances are expanded as ``||q||^2 - 2 q.e +
||e||^2``, so the distance kernel is one matrix product plus row norms.
The expansion loses every digit when ``q`` lies on ``e`` (a zero
distance reads as a rounding residue such as -6e-8, and its gradient
direction is noise), so the pairs whose expanded square is within
``_CANCEL`` times the rounding scale ``||q||^2 + max ||e||^2`` are
recomputed directly as ``||q - e||^2``, which is exactly 0 for equal
rows.  A row minimum screens the rows first, so only rows holding such a
pair are searched.

Ranking needs only the order of each row's scores, and it orders them by
exact scores: :meth:`SimilarityBlocks.exact` computes ``x = q.e`` (dot
kernel) or ``x = -||q - e||^2`` (L2) directly in float64, one einsum per
pair, so a pair's ``x`` does not depend on the block it is in and equal
entity rows tie.  Only the pairs too close to call are computed that
way; every other comparison is read off a float32 screen ``f``: ``q.e``,
or for L2 ``2 q.e - ||e||^2``, which is ``||q||^2 - ||q - e||^2`` and so
orders a row as ``x`` does without its per-row ``||q||^2`` term, its
square root or its cancellation.  The screen is one float32 product
against a float32 copy of the table (less the float32 ``||e||^2``).

The bound ``beta`` of a row is sound for any two of its entries j, k:
``|(f_j - f_k) - (x_j - x_k)| <= beta``.  Let ``u = 2^-24``, ``D`` the
width, ``g = (D+4) u / (1 - (D+4) u)`` (Higham's gamma_{D+4}, which
bounds the relative error of a float32 sum of D products, in any order,
of operands rounded to float32), ``E = max ||e||`` over the table and
the row's scale ``S = ||q|| E`` (dot) or ``(||q|| + E)^2`` (L2).  A
screen entry is then within ``g S`` of its real value: the dot product
takes D + 2 roundings, and for L2 the float64 ``||e||^2`` rounds once
more to float32 and the subtraction once, on terms ``|2 q.e| +
||e||^2 <= S``.  The float64 ``x`` is within ``2^-29 g S`` of its own,
since float64 rounds 2^29 times finer.  Two entries, each with both
errors, differ by at most ``2 g S (1 + 2^-29)``; the code takes ``beta
= 4 g S``, which leaves a factor of about 2 for the rounding of
``beta`` and of the band's edges, and adds ``D 2^-122 R`` for the
absolute error of float32 underflow, even flushed to zero, where ``R =
(||q|| + E + 1)^2`` is the row's reach: no float32 operand, product,
partial sum or screen entry exceeds it.  A row whose reach is not below
``2^124`` (or is NaN) could overflow float32, so its screen is set to 0
and its ``beta`` to inf: every candidate falls in its band, so the same
count ranks it by exact scores alone and KNN keeps every training row.
How ranking and KNN use the bound is in :mod:`litrel.evaluation` and
:func:`litrel.downstream.knn_classify`.

Complex-valued layouts pack real parts in the first half of a row and
imaginary parts in the second half.  The rotation model stores relation
vectors as phase angles of length D_e / 2; the trigonometric functions
absorb the 2*pi periodicity, so no modular wrapping is applied.

Backward passes accumulate into caller-provided dense gradient buffers
(the softmax training loss makes entity gradients dense anyway):
:meth:`GradientBlocks.backward` returns the gradient w.r.t. the query
matrix and each model's ``query_backward`` adds the anchor rows'
gradients with ``np.add.at`` (a repeated anchor adds up) and returns
the B x D_r gradient w.r.t. the fused relation rows.
"""

from __future__ import annotations

import copy
import functools
import os
from concurrent import futures
from dataclasses import dataclass

import numpy as np

import litrel

# The bytes of BLOCK_SCORES float64 entries (2 MiB) are the score buffer of a
# ranking or KNN lane, in float32 (SimilarityBlocks).  A training lane also holds
# an upstream buffer (L2) and an |E| x D entity-gradient partial, so its float64
# score buffer takes a LANES share of the entries (GradientBlocks).
BLOCK_SCORES = 1 << 18

# Entries per chunk of the passes that would otherwise need table-sized
# scratch: the entity-gradient products of GradientBlocks and each lane of an
# optimizer step work through their arrays this many float64 entries (256 KiB)
# at a time, in one chunk buffer each, which stays in a core's L2 cache.
CHUNK_ENTRIES = 1 << 15

# Contiguous parts of a block loop's query rows, scored on threads of their own.
LANES = 2

_NORM_EPS = 1e-12
# float32 unit roundoff, and the reach (module docstring) from which a screen row is widened to
# every candidate: below it no float32 operand, product, sum or band edge can leave float32 range
_UNIT_ROUNDOFF32 = 2.0 ** -24
_REACH = 2.0 ** 124
_FLOAT32_MAX = np.finfo(np.float32).max
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


def _complex(rows):
    m = rows.shape[-1] // 2
    return rows[..., :m] + 1j * rows[..., m:]


def _packed(z):
    return np.concatenate([z.real, z.imag], axis=-1)


class TransE:
    """score = -|| e_h + r - e_t ||."""

    norm = 2

    def query(self, tables, anchors, r_lit, side):
        e = tables.entity[anchors]
        return e + r_lit if side == "tail" else e - r_lit

    def query_backward(self, tables, anchors, r_lit, side, d_q, d_entity, d_core):
        np.add.at(d_entity, anchors, d_q)
        return d_q if side == "tail" else -d_q


class DistMult:
    """score = sum(e_h * r * e_t), symmetric in head and tail."""

    norm = None

    def query(self, tables, anchors, r_lit, side):
        return tables.entity[anchors] * r_lit

    def query_backward(self, tables, anchors, r_lit, side, d_q, d_entity, d_core):
        np.add.at(d_entity, anchors, d_q * r_lit)
        return d_q * tables.entity[anchors]


class ComplEx:
    """score = Re(<e_h, r, conj(e_t)>) over complex-packed rows."""

    norm = None

    def query(self, tables, anchors, r_lit, side):
        e, r = _complex(tables.entity[anchors]), _complex(r_lit)
        return _packed(e * r if side == "tail" else np.conj(r) * e)

    def query_backward(self, tables, anchors, r_lit, side, d_q, d_entity, d_core):
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
        sign = 1.0 if side == "tail" else -1.0
        return _packed(_complex(tables.entity[anchors]) * np.exp(sign * 1j * r_lit))

    def query_backward(self, tables, anchors, r_lit, side, d_q, d_entity, d_core):
        sign = 1.0 if side == "tail" else -1.0
        rotation = np.exp(sign * 1j * r_lit)
        q = _complex(tables.entity[anchors]) * rotation
        g = _complex(d_q)
        np.add.at(d_entity, anchors, _packed(g * np.conj(rotation)))
        # dq/dtheta = sign * i * q
        return sign * np.imag(g * np.conj(q))


class TuckER:
    """score = core tensor contracted with e_h, r and e_t.

    A model is built over a ``core`` with the buffers its calls write
    into: :attr:`chunk`, the Khatri-Rao rows of one chunk and then their
    gradients, a :data:`LANES` share of :data:`BLOCK_SCORES` entries (at
    least one D_e*D_r-wide row), and, with ``backward``, :attr:`product`,
    the D_e*D_r*D_e chunk products of the core gradient (None without:
    such a model never runs ``query_backward``).  Each lane runs a model
    of its own (:func:`lanes`).
    """

    norm = None

    def __init__(self, core, backward: bool):
        width = core.shape[0] * core.shape[1]
        self.chunk = np.empty(max(1, BLOCK_SCORES // LANES // width) * width)
        self.product = np.empty(core.size) if backward else None

    @staticmethod
    def _factors(core, e, r_lit, side):
        """Operands ``(a, b)`` and a matrix view ``M`` of the core: row by row ``q = (a (x) b) @ M``."""
        if side == "tail":
            return e, r_lit, core.reshape(-1, core.shape[-1])
        return r_lit, e, core.reshape(core.shape[0], -1).T

    def _khatri_rao(self, a, b):
        """``(rows, a[rows] (x) b[rows])`` for chunks of as many rows as :attr:`chunk` holds.

        Each chunk is a view of :attr:`chunk`, which the next overwrites.
        """
        width = a.shape[1] * b.shape[1]
        step = self.chunk.size // width
        for start in range(0, a.shape[0], step):
            rows = slice(start, start + step)
            count = min(step, a.shape[0] - start)
            kr = self.chunk[:count * width].reshape(count, a.shape[1], b.shape[1])
            yield rows, np.einsum("bi,bj->bij", a[rows], b[rows], out=kr).reshape(-1, width)

    def query(self, tables, anchors, r_lit, side):
        a, b, m = self._factors(tables.core, tables.entity[anchors], r_lit, side)
        q = np.empty((a.shape[0], m.shape[1]))
        for rows, kr in self._khatri_rao(a, b):
            np.matmul(kr, m, out=q[rows])
        return q

    def query_backward(self, tables, anchors, r_lit, side, d_q, d_entity, d_core):
        e = tables.entity[anchors]
        a, b, m = self._factors(tables.core, e, r_lit, side)
        d_m = self._factors(d_core, e, r_lit, side)[2]  # adds into d_core
        # the chunk products in d_m's memory order (the head side's is a transposed view), so += needs no buffer
        product = self.product.reshape(m.T.shape).T if side == "head" else self.product.reshape(m.shape)
        d_a, d_b = np.empty_like(a), np.empty_like(b)
        for rows, kr in self._khatri_rao(a, b):
            d_m += np.matmul(kr.T, d_q[rows], out=product)
            d_kr = np.matmul(d_q[rows], m.T, out=kr).reshape(-1, a.shape[1], b.shape[1])  # kr is spent
            np.einsum("bij,bj->bi", d_kr, b[rows], out=d_a[rows])
            np.einsum("bij,bi->bj", d_kr, a[rows], out=d_b[rows])
        d_e, d_r = (d_a, d_b) if side == "tail" else (d_b, d_a)
        np.add.at(d_entity, anchors, d_e)
        return d_r


# the scoring model of each model kind
MODELS = {"transe": TransE, "distmult": DistMult, "complex": ComplEx, "rotate": RotatE, "tucker": TuckER}


def chunks(count: int, step: int) -> list[slice]:
    """The items ``0..count`` in contiguous slices of ``step`` items, the last one shorter."""
    return [slice(start, min(start + step, count)) for start in range(0, count, step)]


def cut(count: int, rows: int) -> list[list[slice]]:
    """The rows ``0..count`` in ``LANES`` contiguous parts, each cut into blocks of ``rows`` rows.

    The one row cut of every block loop; the earlier parts take the remainder.
    """
    size = -(-count // LANES)
    parts = [range(min(k * size, count), min((k + 1) * size, count)) for k in range(LANES)]
    return [[slice(start, min(start + rows, part.stop)) for start in part[::rows]] for part in parts]


def lanes(kernel, kind: str, tables: EmbeddingTables) -> list[tuple[SimilarityBlocks | GradientBlocks, object]]:
    """Per lane, a ``kernel`` (:class:`SimilarityBlocks` or :class:`GradientBlocks`) and a scoring model of ``kind``.

    Both are built on the calling thread, over ``tables``, with their
    buffers allocated: the kernel over the entity table (for ranking,
    :func:`screens`), and a TuckER model over the core, with the
    core-product buffer only for a :class:`GradientBlocks` lane, since
    forward lanes never run ``query_backward``.
    """
    model = MODELS[kind]
    kernels = (screens(model.norm, tables.entity) if kernel is SimilarityBlocks
               else [kernel(model.norm, tables.entity) for _ in range(LANES)])
    args = () if tables.core is None else (tables.core, issubclass(kernel, GradientBlocks))
    return [(blocks, model(*args)) for blocks in kernels]


def screens(norm, entity: np.ndarray) -> list[SimilarityBlocks]:
    """``LANES`` :class:`SimilarityBlocks` over one float32 copy of ``entity`` (:meth:`SimilarityBlocks.twin`)."""
    first = SimilarityBlocks(norm, entity)
    return [first] + [first.twin() for _ in range(LANES - 1)]


def lane_threads() -> int:
    """Threads that run the lanes: ``min(LANES, usable CPUs)``, or 1 where BLAS runs threads itself."""
    if not litrel.SINGLE_THREADED_BLAS:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(LANES, cpus)


@functools.cache
def _pool(threads: int) -> futures.ThreadPoolExecutor:
    return futures.ThreadPoolExecutor(threads, thread_name_prefix="litrel-lane")


def fan_out(fn, *iterables) -> list:
    """``[fn(*args) for args in zip(*iterables)]``, on :func:`lane_threads` threads.

    With one thread the calls run on the calling thread.  Otherwise they
    run under the calling thread's :func:`numpy.errstate`, and every call
    has finished when the first exception is raised.
    """
    threads = lane_threads()
    if threads == 1:
        return [fn(*args) for args in zip(*iterables)]
    errors = np.geterr()  # numpy keeps the error state per thread

    def lane(*args):
        with np.errstate(**errors):
            return fn(*args)

    pending = [_pool(threads).submit(lane, *args) for args in zip(*iterables)]
    futures.wait(pending)
    return [f.result() for f in pending]


def sq_norms(rows, out=None):
    """Squared L2 norm of each row, into ``out`` when given."""
    return np.einsum("ij,ij->i", rows, rows, out=out)


class SimilarityBlocks:
    """The screen of one ranking or KNN lane: float32 scores of blocks of at most :attr:`rows` query rows.

    :meth:`screen` scores the rows of ``q`` against every entity row in
    float32 (``q.e`` for ``norm = None``, ``2 q.e - ||e||^2`` for
    ``norm = 2``) and bounds each row's rounding error; :meth:`exact`
    recomputes chosen pairs directly in float64 (``q.e``, or
    ``-||q - e||^2``).  The kernel holds a float32 copy of the entity
    table (for L2 also its float32 squared row norms), shared with its
    :meth:`twin` kernels, a float32 ``rows`` x |E| score buffer with the
    bytes of :data:`BLOCK_SCORES` float64 entries, so twice their rows,
    and :attr:`masks`, two boolean buffers of the same shape that ranking
    and KNN compare into.  All are allocated when it is built and reused
    for every block, so the scores a ``screen`` returns are a view that
    the next ``screen`` overwrites.  It reads the table as it was when built.
    """

    def __init__(self, norm, entity: np.ndarray):
        self.norm = norm
        self.entity = entity
        num_entities, dim = entity.shape
        self.rows = max(1, 2 * BLOCK_SCORES // num_entities)  # float32: the budget's bytes
        # an entry beyond float32 range reads inf, and a norm beyond float64 range inf or NaN:
        # either way every row's reach is out of range, so every band is widened
        with np.errstate(over="ignore", invalid="ignore"):
            self._entity = entity.astype(np.float32)
            sq = sq_norms(entity)
            self._max_norm = float(np.sqrt(sq.max()))
            self._entity_sq = sq.astype(np.float32) if norm == 2 else None
        del sq  # freed before the buffers are allocated, so it adds nothing to the kernel's peak
        # Allocated here, on the constructing thread, not on first use on a lane thread: glibc
        # serves each thread from a malloc arena of its own, and allocating these buffers on the
        # lane threads raised rank-hubs' peak RSS from 61.4 to 66.9 MiB (2-CPU AMD EPYC VM; 61.25
        # MiB under MALLOC_ARENA_MAX=1).
        self._scores = np.empty((self.rows, num_entities), dtype=np.float32)
        self.masks = np.empty((2, self.rows, num_entities), dtype=bool)
        self._gamma = (dim + 4) * _UNIT_ROUNDOFF32 / (1 - (dim + 4) * _UNIT_ROUNDOFF32)
        self._tiny = dim * 2.0 ** -122

    def twin(self) -> SimilarityBlocks:
        """A kernel that shares this one's float32 table, norms and bound, with a score buffer and masks of its own."""
        twin = copy.copy(self)
        twin._scores, twin.masks = np.empty_like(self._scores), np.empty_like(self.masks)
        return twin

    def screen(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The float32 B x |E| screen of the query rows ``q`` and each row's bound ``beta``.

        The screen is a view of the kernel's score buffer.  For any two
        entities of a row, the difference of their screen entries is
        within the row's ``beta`` of the difference of their
        :meth:`exact` scores (module docstring).  A row whose reach is
        out of range is all zeros with ``beta = inf``.
        """
        out = self._scores[:q.shape[0]]
        # out of float32 range, a row reads inf or NaN: it is widened below
        with np.errstate(over="ignore", invalid="ignore"):
            q32 = q.astype(np.float32)
            if self.norm == 2:
                q32 *= 2.0
            np.matmul(q32, self._entity.T, out=out)
            if self.norm == 2:
                out -= self._entity_sq
            q_norm = np.sqrt(sq_norms(q))
            scale = q_norm * self._max_norm if self.norm is None else (q_norm + self._max_norm) ** 2
            reach = (q_norm + self._max_norm + 1.0) ** 2
            beta = 4.0 * self._gamma * scale + self._tiny * reach
        wide = ~(reach < _REACH)  # NaN is out of range too
        out[wide] = 0.0
        beta[wide] = np.inf
        return out, beta

    @staticmethod
    def edge(values: np.ndarray, toward: float) -> np.ndarray:
        """``values`` as band edges: in float32, one step outward ``toward`` -inf or inf, and finite."""
        return np.clip(np.nextafter(values.astype(np.float32), toward), -_FLOAT32_MAX, _FLOAT32_MAX)

    def exact(self, q: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The float64 score of each query row ``q[i]`` against entity ``cols[i]``, computed directly.

        ``q.e`` for ``norm = None`` and ``-||q - e||^2`` for ``norm = 2``,
        one einsum row each, so a pair's score does not depend on the
        other pairs, and equal entity rows score equal.
        """
        e = self.entity[cols]
        # a widened row's scores may overflow float64 too: they read inf or NaN, as any float64 sum would
        with np.errstate(over="ignore", invalid="ignore"):
            if self.norm is None:
                return np.einsum("ij,ij->i", q, e)
            np.subtract(e, q, out=e)
            return np.negative(sq_norms(e))


class GradientBlocks:
    """The float64 similarity kernel of a training lane, with its backward pass.

    ``forward(q)`` scores the rows of ``q`` against every entity row:
    ``q @ E.T`` for ``norm = None``, ``-||q_b - e_j||`` for ``norm = 2``,
    over blocks of at most :attr:`rows` query rows: a :data:`LANES`
    share of :data:`BLOCK_SCORES` entries, at least one row, since the
    lane also holds an |E| x D entity-gradient partial (and for L2 an
    upstream buffer of the score buffer's shape).
    ``backward`` is its gradient, for an upstream gradient written into
    :meth:`upstream`; :meth:`flush` completes the entity gradient of a
    run of ``backward`` calls.  Both add their entity-row products into
    the caller's gradient one chunk of rows at a time, through one chunk
    buffer of at most :data:`CHUNK_ENTRIES` entries, so the kernel holds
    no |E| x D array.  The ``rows`` x |E| score buffer, the chunk buffer
    and, for L2, the upstream buffer of the score buffer's shape, the
    |E| squared entity norms and the |E| deferred weights are allocated
    once, by the constructor (see :class:`SimilarityBlocks` for why
    there), so the scores a ``forward`` returns are a view that the next
    ``forward`` overwrites.  After the entity table changes in place (an
    optimizer step) :meth:`refresh` must run before the next ``forward``.
    """

    def __init__(self, norm, entity: np.ndarray):
        self.norm = norm
        self.entity = entity
        self.rows = max(1, BLOCK_SCORES // LANES // entity.shape[0])
        self._scores = np.empty((self.rows, entity.shape[0]))
        if norm == 2:
            self._entity_sq = np.empty(entity.shape[0])
        self.refresh()
        step = max(1, CHUNK_ENTRIES // entity.shape[1])
        self._entity_chunks = chunks(entity.shape[0], step)
        self._chunk = np.empty((min(step, entity.shape[0]), entity.shape[1]))
        self._upstream = np.empty_like(self._scores) if norm == 2 else self._scores
        if norm == 2:
            self._deferred = np.zeros(entity.shape[0])

    def refresh(self) -> None:
        """Re-read the entity table after an in-place change: recompute its squared norms."""
        if self.norm == 2:
            sq_norms(self.entity, out=self._entity_sq)
            self._entity_sq_max = self._entity_sq.max()

    def _cancel_bound(self, q):
        """Per query row, the squared distance below which the expansion is recomputed."""
        return _CANCEL * (sq_norms(q) + self._entity_sq_max)

    def forward(self, q: np.ndarray) -> np.ndarray:
        """B x |E| scores of the query rows ``q``: a view of the kernel's score buffer."""
        entity, out = self.entity, self._scores[:q.shape[0]]
        if self.norm is None:
            return np.matmul(q, entity.T, out=out)
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

    def _products(self, weights, rows):
        """Per chunk of entity rows, ``(chunk, weights[:, chunk].T @ rows)`` in the chunk buffer."""
        for chunk in self._entity_chunks:
            out = self._chunk[:chunk.stop - chunk.start]
            yield chunk, np.matmul(weights[:, chunk].T, rows, out=out)

    def upstream(self, rows: int) -> np.ndarray:
        """The ``rows`` x |E| buffer to write a block's upstream gradient into.

        Only the L2 backward reads the scores, so for the other kernels
        this is the score buffer itself and writing it overwrites the
        scores of the last ``forward``.
        """
        return self._upstream[:rows]

    def backward(self, q, scores, g, d_entity, d_q) -> np.ndarray:
        """Backward of :meth:`forward` for upstream gradient ``g`` (B x |E|).

        ``scores`` is the forward output; the L2 kernel reuses its
        distances and overwrites ``g``.  Accumulates the entity-row
        gradients into ``d_entity`` (the L2 kernel defers one term to
        :meth:`flush`) and writes the gradient w.r.t. ``q`` into the
        B x D array ``d_q``, which it returns.
        """
        entity = self.entity
        if self.norm is None:
            for chunk, product in self._products(g, q):
                d_entity[chunk] += product
            return np.matmul(g, entity, out=d_q)
        # score = -n with n = ||q - e||: dq = sum_j w_j (e_j - q), de_j = w_j (q - e_j), w = g / n;
        # v = g / score = -w is written into g, and flush adds -sum_b w_bj e_j
        bound = np.sqrt(self._cancel_bound(q))
        near = np.flatnonzero(-np.fmax.reduce(scores, axis=1) <= bound)
        rows, cols = _pairs_within(near, -scores[near], bound[near])
        g_near = g[rows, cols]
        with np.errstate(divide="ignore", invalid="ignore"):  # the near pairs, zeroed next
            v = np.divide(g, scores, out=g)
        v[rows, cols] = 0.0
        for chunk, product in self._products(v, q):
            d_entity[chunk] -= product
        self._deferred += v.sum(axis=0)
        np.matmul(v, entity, out=d_q)
        d_q -= v.sum(axis=1)[:, None] * q
        np.negative(d_q, out=d_q)
        diff = q[rows] - entity[cols]
        pair = (g_near / np.maximum(-scores[rows, cols], _NORM_EPS))[:, None] * diff
        np.add.at(d_entity, cols, pair)
        np.add.at(d_q, rows, -pair)
        return d_q

    def flush(self, d_entity) -> None:
        """Add the entity-gradient term the ``backward`` calls since the last flush deferred.

        Only the L2 kernel defers one: ``-sum_b w_bj e_j``, summed over
        the blocks into one |E| vector and multiplied out here once.
        """
        if self.norm == 2:
            for chunk in self._entity_chunks:
                out = self._chunk[:chunk.stop - chunk.start]
                d_entity[chunk] += np.multiply(self._deferred[chunk, None], self.entity[chunk], out=out)
            self._deferred.fill(0.0)


def _pairs_within(rows, values, bound):
    """``(rows, cols)`` of the entries ``values[i, j] <= bound[i]``, row-major; ``values[i]`` is row ``rows[i]``."""
    sub_rows, cols = np.nonzero(values <= bound[:, None])
    return rows[sub_rows], cols
