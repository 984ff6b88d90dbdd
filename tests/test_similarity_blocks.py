"""The reusable block kernel against the fresh-allocation formulas it replaced.

``fresh_similarities`` and ``fresh_similarities_backward`` below are the
former free functions: every call allocates its B x |E| and |E| x D
arrays.  :class:`scoring.SimilarityBlocks` writes the same arithmetic
into buffers it owns, so scores and gradients must be bit-identical to
them, block after block, and consecutive blocks must share one buffer.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from litrel import scoring
from litrel.errors import ShapeError

_NORM_EPS = 1e-12
_CANCEL = 1e-6


def _cancel_bound(q_sq, entity_sq):
    return _CANCEL * (q_sq + entity_sq.max())


def fresh_similarities(norm, q, entity):
    if norm is None:
        return q @ entity.T
    if norm == 1:
        return -np.stack([np.abs(row - entity).sum(axis=1) for row in q])
    q_sq, entity_sq = scoring.sq_norms(q), scoring.sq_norms(entity)
    sq = q @ entity.T
    sq *= -2.0
    sq += q_sq[:, None]
    sq += entity_sq
    rows, cols = np.nonzero(sq <= _cancel_bound(q_sq, entity_sq)[:, None])
    sq[rows, cols] = scoring.sq_norms(q[rows] - entity[cols])
    np.sqrt(sq, out=sq)
    return np.negative(sq, out=sq)


def fresh_similarities_backward(norm, q, entity, scores, g, d_entity):
    if norm is None:
        d_entity += g.T @ q
        return g @ entity
    if norm == 1:
        d_q = np.empty_like(q)
        for b, (row, g_row) in enumerate(zip(q, g)):
            unit = np.sign(row - entity)
            d_entity += g_row[:, None] * unit
            d_q[b] = -(unit.T @ g_row)
        return d_q
    dist = -scores
    near = dist <= np.sqrt(_cancel_bound(scoring.sq_norms(q), scoring.sq_norms(entity)))[:, None]
    w = np.divide(g, dist, out=np.zeros_like(g), where=~near)
    d_entity += w.T @ q - w.sum(axis=0)[:, None] * entity
    d_q = w @ entity - w.sum(axis=1)[:, None] * q
    rows, cols = np.nonzero(near)
    diff = q[rows] - entity[cols]
    pair = (g[rows, cols] / np.maximum(dist[rows, cols], _NORM_EPS))[:, None] * diff
    np.add.at(d_entity, cols, pair)
    np.add.at(d_q, rows, -pair)
    return d_q


# how far a query row sits from the entity it is placed on: exactly on it,
# inside the recomputation bound, near it, or anywhere
OFFSETS = (0.0, 1e-12, 1e-9, 1e-6, 1e-3, 1.0)


@st.composite
def kernel_cases(draw):
    norm = draw(st.sampled_from([None, 1, 2]))
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
    return norm, entity, q, g, block


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
def test_blocks_are_bit_identical_to_fresh_allocation(case):
    norm, entity, q, g, block = case
    d_entity, want_d_entity = np.zeros_like(entity), np.zeros_like(entity)
    d_q = np.empty_like(q)
    with mock.patch.object(scoring, "BLOCK_SCORES", block * entity.shape[0]):
        step = scoring.block_rows(entity.shape[0])
    assert step == block
    blocks = scoring.SimilarityBlocks(norm, entity, min(step, q.shape[0]))
    previous = None
    for start in range(0, q.shape[0], step):
        rows = slice(start, start + step)
        want = fresh_similarities(norm, q[rows], entity)
        want_d_q = fresh_similarities_backward(norm, q[rows], entity, want, g[rows], want_d_entity)
        scores = blocks.forward(q[rows])
        assert np.array_equal(scores, want)
        got_d_q = blocks.backward(q[rows], scores, g[rows], d_entity, d_q[rows])
        assert np.shares_memory(got_d_q, d_q)
        assert np.array_equal(got_d_q, want_d_q)
        assert np.array_equal(d_entity, want_d_entity)
        if previous is not None:
            assert np.shares_memory(scores, previous)
        previous = scores


@pytest.mark.parametrize("norm", [None, 1, 2])
def test_block_allocates_no_block_or_table_sized_array(norm, rng):
    # 8000 x 16 entities, 16-row blocks: a B x |E| or |E| x D float64 array is 1 MiB
    entity = rng.normal(size=(8000, 16))
    q, g = rng.normal(size=(16, 16)), rng.normal(size=(16, 8000))
    q[0] = entity[3]  # one pair on the L2 recomputation path
    blocks = scoring.SimilarityBlocks(norm, entity, 16)
    d_entity, d_q = np.zeros_like(entity), np.empty_like(q)
    blocks.backward(q, blocks.forward(q), g, d_entity, d_q)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        blocks.backward(q, blocks.forward(q), g, d_entity, d_q)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < entity.nbytes // 4


def test_block_larger_than_its_buffer_is_rejected(rng):
    blocks = scoring.SimilarityBlocks(2, rng.normal(size=(5, 3)), 2)
    with pytest.raises(ShapeError, match="3 query rows exceed the block of 2"):
        blocks.forward(rng.normal(size=(3, 3)))


def test_score_all_tails_and_heads_reuse_the_given_blocks(rng):
    tables = scoring.EmbeddingTables(entity=rng.normal(size=(6, 4)), relation=rng.normal(size=(2, 4)))
    model = scoring.make_model("transe")
    blocks = scoring.SimilarityBlocks(model.norm, tables.entity, 3)
    heads, r_lit = np.array([0, 1, 2]), rng.normal(size=(3, 4))
    tails = scoring.score_all_tails(heads, r_lit, model, tables, blocks)
    want = tails.copy()
    assert np.shares_memory(tails, scoring.score_all_heads(heads[:2], r_lit[:2], model, tables, blocks))
    np.testing.assert_array_equal(want, scoring.score_all_tails(heads, r_lit, model, tables))
