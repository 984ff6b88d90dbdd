"""The reusable block kernel against the fresh-allocation formulas it replaced.

``fresh_similarities`` and ``fresh_similarities_backward`` below are the
former free functions: every call allocates its B x |E| arrays and, per
chunk of entity rows, its chunk-sized products.  :class:`scoring.GradientBlocks`
writes the same arithmetic into buffers it owns, so scores and gradients
must be bit-identical to them, block after block, and consecutive blocks
must share one buffer.  The L2 backward defers its ``-sum_b w_bj e_j``
entity term to ``GradientBlocks.flush``, so the reference sums the column
weights over the blocks too and adds that term in ``fresh_flush``.
"""

import tracemalloc
from concurrent import futures
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from litrel import scoring
from litrel.downstream import _nearest
from litrel.evaluation import filtered_ranks

_NORM_EPS = 1e-12
_CANCEL = 1e-6


def _cancel_bound(q_sq, entity_sq):
    return _CANCEL * (q_sq + entity_sq.max())


def fresh_similarities(norm, q, entity):
    if norm is None:
        return q @ entity.T
    q_sq, entity_sq = scoring.sq_norms(q), scoring.sq_norms(entity)
    sq = q @ entity.T
    sq *= -2.0
    sq += q_sq[:, None]
    sq += entity_sq
    rows, cols = np.nonzero(sq <= _cancel_bound(q_sq, entity_sq)[:, None])
    sq[rows, cols] = scoring.sq_norms(q[rows] - entity[cols])
    np.sqrt(sq, out=sq)
    return np.negative(sq, out=sq)


def fresh_similarities_backward(norm, q, entity, scores, g, d_entity, deferred, chunk_rows):
    chunks = [slice(start, start + chunk_rows) for start in range(0, len(entity), chunk_rows)]
    if norm is None:
        for rows in chunks:
            d_entity[rows] += g[:, rows].T @ q
        return g @ entity
    dist = -scores
    near = dist <= np.sqrt(_cancel_bound(scoring.sq_norms(q), scoring.sq_norms(entity)))[:, None]
    w = np.divide(g, dist, out=np.zeros_like(g), where=~near)
    for rows in chunks:
        d_entity[rows] += w[:, rows].T @ q
    deferred += w.sum(axis=0)
    d_q = w @ entity - w.sum(axis=1)[:, None] * q
    rows, cols = np.nonzero(near)
    diff = q[rows] - entity[cols]
    pair = (g[rows, cols] / np.maximum(dist[rows, cols], _NORM_EPS))[:, None] * diff
    np.add.at(d_entity, cols, pair)
    np.add.at(d_q, rows, -pair)
    return d_q


def fresh_flush(norm, entity, d_entity, deferred):
    if norm == 2:
        d_entity -= deferred[:, None] * entity


# how far a query row sits from the entity it is placed on: exactly on it,
# inside the recomputation bound, near it, or anywhere
OFFSETS = (0.0, 1e-12, 1e-9, 1e-6, 1e-3, 1.0)


@st.composite
def kernel_cases(draw):
    norm = draw(st.sampled_from([None, 2]))
    num_entities = draw(st.integers(2, 7))
    dim = draw(st.integers(1, 5))
    num_rows = draw(st.integers(1, 9))
    block = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    entity = rng.normal(size=(num_entities, dim)) * draw(st.sampled_from([1e-3, 1.0, 30.0]))
    if draw(st.booleans()):
        entity[-1] = entity[0]  # two equal entity rows
    anchors = rng.integers(num_entities, size=num_rows)
    offsets = np.array(draw(st.lists(st.sampled_from(OFFSETS), min_size=num_rows, max_size=num_rows)))
    q = entity[anchors] + offsets[:, None] * rng.normal(size=(num_rows, dim))
    g = rng.normal(size=(num_rows, num_entities))
    chunk_rows = draw(st.integers(1, num_entities))  # entity rows per chunk of the gradient products
    return norm, entity, q, g, block, chunk_rows


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
def test_blocks_are_bit_identical_to_fresh_allocation(case):
    norm, entity, q, g, block, chunk_rows = case
    d_entity, want_d_entity = np.zeros_like(entity), np.zeros_like(entity)
    deferred = np.zeros(entity.shape[0])
    d_q = np.empty_like(q)
    with mock.patch.object(scoring, "BLOCK_SCORES", scoring.LANES * block * entity.shape[0]), \
            mock.patch.object(scoring, "CHUNK_ENTRIES", chunk_rows * entity.shape[1]):
        blocks = scoring.GradientBlocks(norm, entity)
    step = blocks.rows
    assert step == block
    previous = None
    for start in range(0, q.shape[0], step):
        rows = slice(start, start + step)
        want = fresh_similarities(norm, q[rows], entity)
        want_d_q = fresh_similarities_backward(norm, q[rows], entity, want, g[rows], want_d_entity,
                                               deferred, chunk_rows)
        scores = blocks.forward(q[rows])
        assert np.array_equal(scores, want)
        got_d_q = blocks.backward(q[rows], scores, g[rows].copy(), d_entity, d_q[rows])
        assert np.shares_memory(got_d_q, d_q)
        assert np.array_equal(got_d_q, want_d_q)
        assert np.array_equal(d_entity, want_d_entity)
        if previous is not None:
            assert np.shares_memory(scores, previous)
        previous = scores
    blocks.flush(d_entity)
    fresh_flush(norm, entity, want_d_entity, deferred)
    assert np.array_equal(d_entity, want_d_entity)


@pytest.mark.parametrize("dim", [1, 7, 48, 129, 200, 256])
def test_chunked_entity_gradient_equals_the_whole_table_product(dim, rng):
    # OpenBLAS may round a row of g.T @ q differently when the product is cut into chunks of
    # entity rows, so this check is numeric: three chunks of CHUNK_ENTRIES // dim rows, the last
    # one 5 rows long
    entity = rng.normal(size=(2 * (scoring.CHUNK_ENTRIES // dim) + 5, dim))
    blocks = scoring.GradientBlocks(None, entity)
    q, g = rng.normal(size=(blocks.rows, dim)), rng.normal(size=(blocks.rows, len(entity)))
    d_entity = np.zeros_like(entity)
    blocks.backward(q, blocks.forward(q), g, d_entity, np.empty_like(q))
    want = g.T @ q
    assert np.abs(d_entity - want).max() <= 1e-12 * np.abs(want).max()


def one_mib_case(rng, norm):
    """A kernel over 8000 x 16 entities in 16-row blocks, where a B x |E| or |E| x D float64 array is 1 MiB.

    Returns it with a block of query rows, an upstream gradient and the two gradient buffers.
    """
    entity = rng.normal(size=(8000, 16))
    q, g = rng.normal(size=(16, 16)), rng.normal(size=(16, 8000))
    q[0] = entity[3]  # one pair on the L2 recomputation path
    blocks = scoring.GradientBlocks(norm, entity)
    assert blocks.rows == 16
    return blocks, q, g, np.zeros_like(entity), np.empty_like(q)


def traced_peak(fn):
    """The peak traced allocation while ``fn()`` runs, above what was traced before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("norm", [None, 2])
def test_block_allocates_no_block_or_table_sized_array(norm, rng):
    blocks, q, g, d_entity, d_q = one_mib_case(rng, norm)
    blocks.backward(q, blocks.forward(q), g, d_entity, d_q)
    peak = traced_peak(lambda: blocks.backward(q, blocks.forward(q), g, d_entity, d_q))
    assert peak < blocks.entity.nbytes // 4


@pytest.mark.parametrize("norm", [None, 2])
def test_first_block_on_another_thread_allocates_no_block_or_table_sized_array(norm, rng):
    # the kernel's buffers belong to the thread that builds it: a lane thread that allocated them
    # on first use would hold them in a malloc arena of its own; the upstream gradient is written
    # into the kernel's own buffer, as training writes it
    blocks, q, g, d_entity, d_q = one_mib_case(rng, norm)

    def first_block():
        scores = blocks.forward(q)
        upstream = blocks.upstream(len(q))
        upstream[...] = g
        blocks.backward(q, scores, upstream, d_entity, d_q)
        blocks.flush(d_entity)

    with futures.ThreadPoolExecutor(1) as lane:
        peak = traced_peak(lambda: lane.submit(first_block).result(timeout=60))
    assert peak < blocks.entity.nbytes // 4


@pytest.mark.parametrize("norm", [None, 2])
def test_ranking_kernel_allocates_only_its_scores_and_norms(norm, rng):
    # each ranking kernel holds a float32 rows x |E| score buffer and two boolean masks of its
    # shape, and the LANES kernels of one call share one float32 copy of the entity table and, for
    # L2, one set of |E| float32 entity norms: the table is converted once per call, and there is no
    # float64 block, no |E| x D float64 array and no upstream buffer, which only the backward pass writes
    entity = rng.normal(size=(8000, 16))
    tables = scoring.EmbeddingTables(entity, np.zeros((1, 16)))
    built = []
    peak = traced_peak(lambda: built.extend(
        scoring.lanes(scoring.SimilarityBlocks, "distmult" if norm is None else "transe", tables)))
    assert len(built) == scoring.LANES
    block = built[0][0].rows * len(entity)
    size = scoring.LANES * (block * 4 + 2 * block) + entity.size * 4 + (len(entity) * 4 if norm == 2 else 0)
    assert size <= peak < size + 4096


@pytest.mark.parametrize("norm", [None, 2])
def test_ranking_a_block_allocates_no_block_or_table_sized_array(norm, rng):
    # the screen, the band and its re-check work in the kernel's buffers; what a block allocates
    # scales with its rows and its band, not with |E|
    entity = rng.normal(size=(8000, 16))
    kernel = scoring.SimilarityBlocks(norm, entity)
    q = rng.normal(size=(kernel.rows, 16))
    q[0] = entity[3]  # an exact hit, for L2 on the band of the target
    targets = rng.integers(len(entity), size=kernel.rows)
    known = (np.repeat(np.arange(kernel.rows), 3), rng.integers(len(entity), size=3 * kernel.rows))
    filtered_ranks(kernel, q, targets, known, "realistic")
    peak = traced_peak(lambda: filtered_ranks(kernel, q, targets, known, "realistic"))
    assert peak < entity.nbytes // 4


def test_a_knn_block_allocates_no_block_or_table_sized_array(rng):
    # the screen and the candidate mask work in the kernel's buffers, and the k-th largest entries
    # come from float32 copies of a chunk of rows: far less than one float64 rows x n_train block,
    # where a float64 expanded square and its partitioned copy take two
    train = rng.normal(size=(8000, 16))
    kernel = scoring.screens(2, train)[0]
    x = rng.normal(size=(kernel.rows, 16))
    x[0] = train[3]  # a query on a training row
    _nearest(kernel, x, 5)
    peak = traced_peak(lambda: _nearest(kernel, x, 5))
    assert peak < train.nbytes // 4 < 8 * kernel.rows * len(train)


@pytest.mark.parametrize("norm", [None, 2])
def test_training_kernel_allocates_only_its_scores_upstream_norms_and_one_chunk(norm, rng):
    # rows x |E| scores and, for L2, an upstream buffer of their shape, the |E| entity norms and
    # deferred weights; the entity-gradient products go through one chunk, never an |E| x D array
    entity = rng.normal(size=(8000, 16))
    kernels = []
    peak = traced_peak(lambda: kernels.append(scoring.GradientBlocks(norm, entity)))
    chunk = min(scoring.CHUNK_ENTRIES // 16, len(entity)) * 16
    assert chunk < entity.size
    floats = kernels[0].rows * len(entity) * (2 if norm == 2 else 1) + chunk
    floats += 2 * len(entity) if norm == 2 else 0
    assert floats * 8 <= peak < floats * 8 + 4096


@pytest.mark.parametrize("num_entities", [1, 5, 3000, 8000, 1 << 20])
def test_forward_kernel_takes_the_whole_budget_and_training_its_lane_share(num_entities):
    # a ranking lane holds float32 scores in the whole budget's bytes, so twice its float64 rows; a
    # training lane also holds an |E| x D entity-gradient partial and (L2) an upstream buffer, so
    # its float64 blocks take its LANES share
    entity = np.zeros((num_entities, 1))
    rows = scoring.SimilarityBlocks(2, entity).rows
    assert rows == max(1, 2 * scoring.BLOCK_SCORES // num_entities)
    assert rows * num_entities * 4 <= scoring.BLOCK_SCORES * 8 or rows == 1
    assert scoring.GradientBlocks(2, entity).rows == max(1, scoring.BLOCK_SCORES // scoring.LANES // num_entities)


def test_block_larger_than_its_buffer_is_rejected(rng, monkeypatch):
    """Every block comes from ``scoring.cut`` by its kernel's rows; a larger one still fails, in numpy's ``out=``."""
    monkeypatch.setattr(scoring, "BLOCK_SCORES", 2 * scoring.LANES * 5)  # 8 float32 rows over 5 entities
    blocks = scoring.SimilarityBlocks(2, rng.normal(size=(5, 3)))
    with pytest.raises(ValueError):
        blocks.screen(rng.normal(size=(blocks.rows + 1, 3)))


@pytest.mark.parametrize("norm", [None, 2])
def test_refresh_after_an_in_place_update_equals_a_new_kernel(norm, rng):
    entity = rng.normal(size=(40, 6))
    blocks = scoring.GradientBlocks(norm, entity)
    q, g = rng.normal(size=(5, 6)), rng.normal(size=(5, 40))
    d_entity = np.zeros_like(entity)
    blocks.backward(q, blocks.forward(q), g.copy(), d_entity, np.empty_like(q))
    blocks.flush(d_entity)
    entity *= 3.0  # an optimizer step changes the table in place, and its norms with it
    entity[7] += 1.0
    q[0] = entity[7]  # one pair on the L2 recomputation path, whose bound reads the largest norm
    blocks.refresh()
    fresh = scoring.GradientBlocks(norm, entity.copy())
    got, want = blocks.forward(q), fresh.forward(q)
    assert np.array_equal(got, want)
    got_d_entity, want_d_entity = np.zeros_like(entity), np.zeros_like(entity)
    got_d_q = blocks.backward(q, got, g.copy(), got_d_entity, np.empty_like(q))
    want_d_q = fresh.backward(q, want, g.copy(), want_d_entity, np.empty_like(q))
    assert np.array_equal(got_d_q, want_d_q)
    blocks.flush(got_d_entity)
    fresh.flush(want_d_entity)
    assert np.array_equal(got_d_entity, want_d_entity)
