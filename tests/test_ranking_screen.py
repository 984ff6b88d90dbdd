"""Ranking's float32 screen and float64 re-check against an exhaustive float64 oracle.

The oracle scores every candidate of a row with
:meth:`scoring.SimilarityBlocks.exact` (``q.e``, or ``-||q - e||^2`` for
L2), drops the filtered ones, and counts the greater and the equal
scores.  The ranker must give the same rank, for both kernels and every
tie policy, on tables built so that float32 cannot call the order: equal
entity rows, rows a few units in the last place apart, queries lying on
an entity row, and entries whose float32 products overflow or underflow.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import exact_scores
from litrel import scoring
from litrel.evaluation import TIE_POLICIES, filtered_ranks

NORMS = [pytest.param(None, id="dot"), pytest.param(2, id="l2")]


def oracle_ranks(kernel, q, targets, filtered, policy):
    """Rank of each target among its row's unfiltered candidates, by exhaustive exact scores."""
    ranks = []
    for row, target, skip in zip(exact_scores(kernel, q), targets, filtered):
        keep = np.ones(row.size, dtype=bool)
        keep[list(skip)] = False
        keep[target] = True
        kept, mine = row[keep], row[target]
        better, tied = np.count_nonzero(kept > mine), np.count_nonzero(kept == mine) - 1
        ranks.append({"optimistic": better + 1.0, "pessimistic": better + tied + 1.0,
                      "realistic": better + 1 + tied / 2.0}[policy])
    return np.array(ranks)


def check_ranks(norm, entity, q, targets, filtered=None):
    """Assert the ranker equals the oracle under every tie policy; return the kernel it ranked with."""
    filtered = filtered or [set() for _ in targets]
    pairs = [(b, e) for b, skip in enumerate(filtered) for e in sorted(skip)]
    known = tuple(np.array(pairs, dtype=np.int64).reshape(-1, 2).T)
    kernel = scoring.SimilarityBlocks(norm, entity)
    assert q.shape[0] <= kernel.rows
    for policy in TIE_POLICIES:
        got = filtered_ranks(kernel, q, targets, known, policy)
        np.testing.assert_array_equal(got, oracle_ranks(kernel, q, targets, filtered, policy), policy)
    return kernel


def last_bits_apart(rng, rows, dim):
    """``rows`` random rows, each followed by copies 1, 2 and 3 units in the last place away in one entry."""
    base = rng.normal(size=(rows, dim))
    out = [base]
    for ulps in (1, 2, 3):
        moved = base.copy()
        for _ in range(ulps):
            moved[:, 0] = np.nextafter(moved[:, 0], np.inf)
        out.append(moved)
    return np.concatenate(out)


@pytest.mark.parametrize("norm", NORMS)
def test_duplicate_entity_rows_tie(norm, rng):
    entity = rng.normal(size=(40, 6))
    entity[20:30] = entity[:10]
    entity[30] = entity[0]  # three equal rows
    q = np.concatenate([entity[[0, 5, 25]], rng.normal(size=(5, 6))])
    targets = np.array([0, 25, 5, 30, 20, 1, 21, 39])
    kernel = check_ranks(norm, entity, q, targets)
    scores = exact_scores(kernel, q)
    assert (scores[:, 0] == scores[:, 20]).all() and (scores[:, 0] == scores[:, 30]).all()


@pytest.mark.parametrize("norm", NORMS)
def test_rows_apart_in_their_last_bits(norm, rng):
    entity = last_bits_apart(rng, 10, 5)
    q = np.concatenate([entity[[0, 13, 27]], rng.normal(size=(7, 5))])
    targets = np.array([0, 10, 20, 30, 3, 13, 23, 33, 7, 17])
    kernel = check_ranks(norm, entity, q, targets)
    scores = exact_scores(kernel, q)
    # the exact scores of a row and its copies differ, yet their float32 screens cannot tell them apart
    assert (scores[:, :10] != scores[:, 10:20]).any()
    screen, _ = kernel.screen(q)
    assert (screen[:, :10] == screen[:, 10:20]).any()


def test_query_on_an_entity_row_ranks_that_row_first(rng):
    entity = rng.normal(size=(30, 4)) * 3.0
    entity[29] = entity[4]
    q = entity[[4, 4, 29, 7, 12]]
    targets = np.array([4, 29, 29, 7, 3])
    kernel = check_ranks(2, entity, q, targets)
    assert kernel.exact(q[:1], np.array([4]))[0] == 0.0  # the direct distance, not a rounding residue
    ranks = filtered_ranks(kernel, q[:4], targets[:4], (np.zeros(0, int), np.zeros(0, int)), "realistic")
    np.testing.assert_array_equal(ranks, [1.5, 1.5, 1.5, 1.0])  # 4 and 29 tie at distance 0


@pytest.mark.parametrize("norm", NORMS)
def test_filtered_competitors_are_skipped(norm, rng):
    entity = last_bits_apart(rng, 6, 4)
    entity[20:24] = entity[:4]
    q = entity[[0, 1, 2, 3, 6, 12]] + np.array([0.0, 1e-12, 0.0, 1e-3, 0.0, 0.0])[:, None]
    targets = np.array([0, 7, 20, 3, 12, 18])
    filtered = [{6, 12, 18, 20}, {1, 7, 13, 21}, {2, 8, 14, 20}, set(range(24)), {0, 6}, set()]
    check_ranks(norm, entity, q, targets, filtered)


@pytest.mark.parametrize("norm, entity, q", [
    pytest.param(None, [[1e8 + 0.3, -1e8 + 2.7], [0.0, 1.0]], [[1.0, 1.0]], id="dot"),
    pytest.param(2, [[3194.0333, -3589.9368, -19015.2728], [3193.8534, -3589.0496, -19017.2026],
                     [3193.6316, -3589.1446, -19017.8384], [3194.4429, -3589.2392, -19017.5387]],
                 [[3191.744, -3588.62, -19016.6506]], id="l2"),
])
def test_screen_misordered_by_more_than_a_unit_in_the_last_place(norm, entity, q):
    # cancelling terms: the float32 screen puts two entities in the wrong order, further apart than
    # one float32 spacing, so only a band of the derived width ranks every target right
    entity = np.array(entity)
    q = np.repeat(q, len(entity), axis=0)
    kernel = check_ranks(norm, entity, q, np.arange(len(entity)))
    exact, (screen, _) = exact_scores(kernel, q[:1])[0], kernel.screen(q[:1])
    screen = screen[0].astype(np.float64)
    gaps = screen[:, None] - screen[None, :]
    wrong = (gaps * (exact[:, None] - exact[None, :]) < 0) & (np.abs(gaps) > np.spacing(np.abs(screen).max()))
    assert wrong.any()


@pytest.mark.parametrize("scale", [1e20, 1e-30, 1e-40])
@pytest.mark.parametrize("norm", NORMS)
def test_entries_whose_float32_products_overflow_or_underflow(norm, scale, rng):
    # 1e20: products of 1e40 overflow float32, so the screen is widened to every candidate;
    # 1e-30: products of 1e-60 underflow to 0; 1e-40: the entries themselves are float32 subnormals
    entity = last_bits_apart(rng, 5, 3) * scale
    entity[15:20] = entity[:5]
    q = np.concatenate([entity[[0, 6, 12]], rng.normal(size=(3, 3)) * scale])
    targets = np.array([0, 6, 15, 11, 2, 19])
    kernel = check_ranks(norm, entity, q, targets, [{5}, {0, 1}, set(), {15}, set(), {4, 9}])
    _, beta = kernel.screen(q)
    assert np.isinf(beta).all() == (scale > 1)


def test_one_large_entity_widens_every_row(rng):
    entity = rng.normal(size=(12, 3))
    entity[5] = 1e20
    q = rng.normal(size=(4, 3))
    for norm in (None, 2):
        kernel = check_ranks(norm, entity, q, np.array([0, 5, 6, 11]), [{5}, set(), {1, 2}, set()])
        screen, beta = kernel.screen(q)
        assert np.isinf(beta).all() and not screen.any()


@pytest.mark.parametrize("norm", NORMS)
def test_band_holds_few_candidates_on_a_random_table(norm, rng):
    # the screen calls almost every comparison: the band is about the target alone
    entity = rng.normal(size=(3000, 32))
    q = entity[rng.integers(3000, size=50)] + rng.normal(size=(50, 32))
    targets = rng.integers(3000, size=50)
    kernel = scoring.SimilarityBlocks(norm, entity)
    recomputed = []
    exact = kernel.exact
    with mock.patch.object(kernel, "exact", lambda q, cols: recomputed.append(len(cols)) or exact(q, cols)):
        filtered_ranks(kernel, q, targets, (np.zeros(0, int), np.zeros(0, int)), "realistic")
    band, target_rows = recomputed
    assert target_rows == 50 and band <= 1.5 * 50


SCALES = [1e-40, 1e-30, 1e-20, 1e-3, 1.0, 1e3, 1e20]  # 1e-20: float32 products are subnormal


@st.composite
def ranking_cases(draw):
    norm = draw(st.sampled_from([None, 2]))
    num_entities = draw(st.integers(1, 12))
    dim = draw(st.integers(1, 6))
    num_rows = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        entity = rng.integers(-2, 3, size=(num_entities, dim)).astype(np.float64)  # a coarse grid: many ties
    else:
        entity = rng.normal(size=(num_entities, dim))
    entity *= draw(st.sampled_from(SCALES))
    if num_entities > 1 and draw(st.booleans()):
        entity[-1] = entity[0]
    if num_entities > 2 and draw(st.booleans()):
        entity[1] = np.nextafter(entity[0], np.inf)  # every entry one unit in the last place up
    q = entity[rng.integers(num_entities, size=num_rows)]
    if draw(st.booleans()):
        q = q + rng.normal(size=q.shape) * draw(st.sampled_from(SCALES))
    targets = rng.integers(num_entities, size=num_rows)
    filtered = [set(rng.integers(num_entities, size=int(rng.integers(0, num_entities + 1))).tolist())
                for _ in range(num_rows)]
    return norm, entity, q, targets, filtered


@settings(max_examples=300, deadline=None)
@given(ranking_cases())
@example((2, np.array([[0.0], [0.0], [1.0]]), np.array([[0.0]]), np.array([1]), [{0}]))
def test_ranks_equal_the_exhaustive_oracle(case):
    norm, entity, q, targets, filtered = case
    check_ranks(norm, entity, q, targets, filtered)
