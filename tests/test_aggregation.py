import math
import statistics

import numpy as np
import pytest

from litrel.aggregation import (
    build_profiles,
    literal_vectors,
    literal_vectors_backward,
    load_profiles,
    save_profiles,
)
from litrel.data import build_graph
from litrel.errors import ConfigError
from litrel.kernels import STAT_NAMES
from tests.conftest import random_graph
from tests.test_kernels import assert_stats_match, exact_stats, stats


def reference_quantile(values, q):
    # independent oracle: interpolation at position (n - 1) * q
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo, hi = math.floor(pos), math.ceil(pos)
    return ordered[lo] * (1 - (pos - lo)) + ordered[hi] * (pos - lo)


def reference_stats(values, present_count):
    """Brute-force statistics, built on stdlib routines only."""
    if not values:
        return {name: 0.0 for name in STAT_NAMES}
    counts = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    best = max(counts.values())
    mode = min(v for v, c in counts.items() if c == best)
    return {
        "mean": statistics.fmean(values),
        "median": reference_quantile(values, 0.5),
        "mode": mode,
        "min": min(values),
        "max": max(values),
        "sum": sum(values),
        "count": float(present_count),
        "variance": statistics.pvariance(values),
        "std": math.sqrt(statistics.pvariance(values)),
        "iqr": reference_quantile(values, 0.75) - reference_quantile(values, 0.25),
        "range": max(values) - min(values),
    }


def aggregate_column(values, present_count, kind):
    """One statistic of one column: the first ``present_count`` cells are present."""
    column = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    mask = np.zeros(column.shape, dtype=bool)
    mask[:present_count, 0] = True
    return float(stats(column, mask)[0, STAT_NAMES.index(kind)])


class TestAggregateColumn:
    def test_mean(self):
        assert aggregate_column([0.2, 0.4, 0.6], 3, "mean") == pytest.approx(0.4)

    def test_mode_tie_breaks_to_smallest(self):
        assert aggregate_column([0.3, 0.3, 0.7, 0.7], 4, "mode") == 0.3

    def test_iqr_matches_reference_quantiles(self):
        values = [0.0, 1.0, 2.0, 3.0]
        expected = reference_quantile(values, 0.75) - reference_quantile(values, 0.25)
        assert expected == 1.5
        assert aggregate_column(values, 4, "iqr") == pytest.approx(1.5)

    def test_variance_of_constant(self):
        assert aggregate_column([0.0, 0.0, 0.0], 3, "variance") == 0.0

    def test_empty_population_is_zero_for_all_kinds(self):
        # a relation with no training triples has empty head and tail populations
        graph = build_graph([("a", "r", "b")], [("a", "s", "b")], [],
                            [("a", "x", 1.0), ("b", "x", 2.0)])
        profiles = build_profiles(graph)
        for kind in STAT_NAMES:
            for side in literal_vectors(profiles, np.array([graph.relations["s"]]), kind):
                assert not side.any(), kind

    def test_count_uses_present_only(self):
        assert aggregate_column([0.5, 0.0, 0.0], 1, "count") == 1.0

    @pytest.mark.parametrize("kind", STAT_NAMES)
    def test_matches_reference_on_random_columns(self, kind, rng):
        for _ in range(20):
            n = int(rng.integers(1, 12))
            values = [float(v) for v in rng.uniform(-3, 3, size=n)]
            present = int(rng.integers(0, n + 1))
            expected = reference_stats(values, present)[kind]
            assert aggregate_column(values, present, kind) == pytest.approx(expected, abs=1e-9)


class TestSidePopulations:
    """The populations build_profiles aggregates, read through ``count``."""

    COUNT = STAT_NAMES.index("count")

    def test_head_side(self):
        graph = build_graph([("a", "r", "b"), ("c", "r", "b")], [], [],
                            [("a", "x", 1.0), ("b", "x", 2.0), ("c", "x", 3.0)])
        u_head, _ = build_profiles(graph)
        assert u_head[graph.relations["r"], 0, self.COUNT] == 2.0

    def test_tail_side_dedups(self):
        graph = build_graph([("a", "r", "b"), ("c", "r", "b")], [], [],
                            [("a", "x", 1.0), ("b", "x", 2.0), ("c", "x", 3.0)])
        _, u_tail = build_profiles(graph)
        assert u_tail[graph.relations["r"], 0, self.COUNT] == 1.0

    def test_relation_unseen_in_training(self):
        graph = build_graph([("a", "r", "b")], [("a", "s", "b")], [],
                            [("a", "x", 1.0), ("b", "x", 2.0)])
        u_head, u_tail = build_profiles(graph)
        assert u_head[graph.relations["r"], 0, self.COUNT] == 1.0
        assert not u_head[graph.relations["s"]].any()
        assert not u_tail[graph.relations["s"]].any()


class TestBuildProfiles:
    def test_two_head_rows_single_attribute(self):
        graph = build_graph(
            [("e1", "r", "e3"), ("e2", "r", "e3")], [], [],
            [("e1", "a", 0.2), ("e2", "a", 0.4), ("e3", "a", 1.0)],
        )
        # normalized column: e1 -> 0, e2 -> 0.25, e3 -> 1; head rows are e1, e2
        u_head, _ = build_profiles(graph)
        row = {name: u_head[graph.relations["r"], 0, i] for i, name in enumerate(STAT_NAMES)}
        expected = reference_stats([0.0, 0.25], 2)
        for name in STAT_NAMES:
            assert row[name] == pytest.approx(expected[name], abs=1e-12), name

    def test_unseen_relation_zero_profiles(self):
        graph = build_graph([("a", "r", "b")], [("a", "s", "b")], [], [("a", "x", 1.0)])
        u_head, u_tail = build_profiles(graph)
        assert u_head.shape == u_tail.shape == (2, 1, len(STAT_NAMES))
        assert not u_head[graph.relations["s"]].any()
        assert not u_tail[graph.relations["s"]].any()

    def test_absent_cells_count_zero(self):
        graph = build_graph(
            [("a", "r", "b")], [], [], [("b", "x", 1.0), ("c", "x", 2.0)]
        )
        head_row = build_profiles(graph)[0][graph.relations["r"], 0]
        assert head_row[STAT_NAMES.index("count")] == 0.0
        assert head_row[STAT_NAMES.index("mean")] == 0.0  # stored zeros

    def test_permutation_invariance(self, rng):
        triples = [("a", "r", "b"), ("c", "r", "d"), ("e", "r", "b"), ("a", "s", "d")]
        lits = [("a", "x", 1.0), ("b", "x", 2.0), ("c", "x", 3.0), ("d", "y", 4.0)]
        g1 = build_graph(triples, [], [], lits)
        shuffled = list(triples)
        rng.shuffle(shuffled)
        g2 = build_graph(shuffled, [], [], lits)
        for u1, u2 in zip(build_profiles(g1), build_profiles(g2)):
            np.testing.assert_allclose(u1, u2)

    def test_monotonic_max_and_count(self):
        base = [("e1", "r", "t"), ("e2", "r", "t")]
        lits = [("e1", "a", 1.0), ("e2", "a", 2.0), ("e3", "a", 5.0), ("t", "a", 0.0)]
        small = build_graph(base, [], [], lits)
        grown = build_graph(base + [("e3", "r", "t")], [], [], lits)
        i_max, i_count = STAT_NAMES.index("max"), STAT_NAMES.index("count")
        p_small = build_profiles(small)[0][small.relations["r"], 0]
        p_grown = build_profiles(grown)[0][grown.relations["r"], 0]
        assert p_grown[i_max] > p_small[i_max]
        assert p_grown[i_count] >= p_small[i_count]

    def test_entities_outside_the_relation_do_not_dilute(self):
        # e3 has a literal but no r triple: the head population is e1 alone
        graph = build_graph(
            [("e1", "r", "e2")], [], [],
            [("e1", "a", 1.0), ("e2", "a", 0.5), ("e3", "a", 0.0)],
        )
        r, i_mean, i_count = graph.relations["r"], STAT_NAMES.index("mean"), STAT_NAMES.index("count")
        u_head, u_tail = build_profiles(graph)
        assert u_head[r, 0, i_mean] == pytest.approx(1.0)
        assert u_tail[r, 0, i_mean] == pytest.approx(0.5)
        assert u_head[r, 0, i_count] == u_tail[r, 0, i_count] == 1.0

    def test_repeated_members_count_once(self):
        # e1 heads two r triples and still weighs as one row
        graph = build_graph(
            [("e1", "r", "t"), ("e1", "r", "u"), ("e2", "r", "t")], [], [],
            [("e1", "a", 1.0), ("e2", "a", 0.0), ("t", "a", 0.5), ("u", "a", 0.25)],
        )
        r, i_mean, i_count = graph.relations["r"], STAT_NAMES.index("mean"), STAT_NAMES.index("count")
        u_head, _ = build_profiles(graph)
        assert u_head[r, 0, i_mean] == pytest.approx(0.5)
        assert u_head[r, 0, i_count] == 2.0

    def test_std_squared_is_variance(self, rng):
        graph = random_graph(rng)
        for u in build_profiles(graph):
            np.testing.assert_allclose(
                u[:, :, STAT_NAMES.index("std")] ** 2,
                u[:, :, STAT_NAMES.index("variance")],
                atol=1e-9,
            )

    def test_min_median_max_ordering(self, rng):
        graph = random_graph(rng, num_entities=10, triples_per_relation=8)
        for u in build_profiles(graph):
            assert (u[..., STAT_NAMES.index("min")] <= u[..., STAT_NAMES.index("median")] + 1e-12).all()
            assert (u[..., STAT_NAMES.index("median")] <= u[..., STAT_NAMES.index("max")] + 1e-12).all()


def reference_profiles(graph):
    """The per-relation loop build_profiles replaced, on explicit population blocks."""
    values, present = graph.literals.values, graph.literals.present
    shape = (graph.num_relations, graph.num_attributes, len(STAT_NAMES))
    profiles = np.zeros(shape), np.zeros(shape)
    for relation in np.unique(graph.train[:, 1]):
        rows = graph.train[:, 1] == relation
        for u, column in zip(profiles, (0, 2)):
            members = np.unique(graph.train[rows, column])
            u[relation] = exact_stats(values[members], present[members])
    return profiles


class TestProfilesAgainstRelationLoop:
    def test_matches_reference(self, rng):
        for _ in range(20):
            # few entities, so members repeat within a relation
            graph = random_graph(rng, num_entities=int(rng.integers(2, 12)),
                                 num_relations=int(rng.integers(1, 6)),
                                 num_attributes=int(rng.integers(1, 5)),
                                 triples_per_relation=int(rng.integers(1, 15)),
                                 literal_density=0.6)
            for actual, expected in zip(build_profiles(graph), reference_profiles(graph)):
                assert_stats_match(actual, expected)


# every relation, one repeated: the rows follow the index array
RELATIONS = np.array([1, 0, 1])


class TestLiteralVectors:
    def test_fixed_kind_selects_column(self, rng):
        u_head, u_tail = profiles = build_profiles(random_graph(rng))
        l_h, l_t = literal_vectors(profiles, RELATIONS, "min")
        np.testing.assert_array_equal(l_h, u_head[RELATIONS, :, STAT_NAMES.index("min")])
        np.testing.assert_array_equal(l_t, u_tail[RELATIONS, :, STAT_NAMES.index("min")])

    def test_learnable_zero_params_gives_half(self, rng):
        profiles = build_profiles(random_graph(rng))
        l_h, l_t = literal_vectors(profiles, RELATIONS, "learnable", np.zeros(11), np.zeros(1))
        np.testing.assert_allclose(l_h, 0.5)
        np.testing.assert_allclose(l_t, 0.5)

    def test_learnable_mean_selector(self, rng):
        u_head, _ = profiles = build_profiles(random_graph(rng))
        weights = np.zeros(11)
        weights[STAT_NAMES.index("mean")] = 1.0
        l_h, _ = literal_vectors(profiles, RELATIONS, "learnable", weights, np.zeros(1))
        expected = 1.0 / (1.0 + np.exp(-u_head[RELATIONS, :, STAT_NAMES.index("mean")]))
        np.testing.assert_allclose(l_h, expected, atol=1e-12)
        # sigmoid(0.3) spot value
        assert 1.0 / (1.0 + math.exp(-0.3)) == pytest.approx(0.574443, abs=1e-6)

    def test_learnable_outputs_strictly_inside_unit_interval(self, rng):
        profiles = build_profiles(random_graph(rng))
        for vec in literal_vectors(profiles, RELATIONS, "learnable", rng.normal(size=11), np.array([0.3])):
            assert vec.shape == (RELATIONS.size, 3)
            assert (vec > 0).all() and (vec < 1).all()

    def test_learnable_requires_params(self, rng):
        profiles = build_profiles(random_graph(rng))
        with pytest.raises(ConfigError):
            literal_vectors(profiles, RELATIONS, "learnable")

    def test_learnable_gradient_matches_finite_differences(self, rng):
        graph = random_graph(rng)
        profiles = build_profiles(graph)
        weights = rng.normal(size=11)
        bias = np.array([0.2])
        d_l_h = rng.normal(size=(RELATIONS.size, graph.num_attributes))
        d_l_t = rng.normal(size=(RELATIONS.size, graph.num_attributes))

        def objective(w, b):
            l_h, l_t = literal_vectors(profiles, RELATIONS, "learnable", w, b)
            return float(np.sum(d_l_h * l_h) + np.sum(d_l_t * l_t))

        cache = {}
        literal_vectors(profiles, RELATIONS, "learnable", weights, bias, cache)
        d_w, d_b = literal_vectors_backward(cache, d_l_h, d_l_t)
        h = 1e-6
        for i in range(11):
            bumped = weights.copy()
            bumped[i] += h
            plus = objective(bumped, bias)
            bumped[i] -= 2 * h
            minus = objective(bumped, bias)
            num = (plus - minus) / (2 * h)
            assert abs(num - d_w[i]) <= 1e-4 * max(1e-6, abs(num), abs(d_w[i]))
        num_b = (objective(weights, bias + h) - objective(weights, bias - h)) / (2 * h)
        assert abs(num_b - d_b[0]) <= 1e-4 * max(1e-6, abs(num_b), abs(d_b[0]))


class TestProfileSerialization:
    def test_round_trip(self, rng, tmp_path):
        profiles = build_profiles(random_graph(rng))
        save_profiles(profiles, str(tmp_path / "profiles"))
        loaded = load_profiles(str(tmp_path / "profiles"), *profiles[0].shape[:2])
        assert len(loaded) == 2
        for got, want in zip(loaded, profiles):
            np.testing.assert_array_equal(got, want)
