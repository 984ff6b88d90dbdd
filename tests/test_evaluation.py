import math
from itertools import chain
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from litrel import scoring
from litrel.data import KnowledgeGraph, LiteralMatrix, Vocab, build_graph
from litrel.errors import ValidationError
from litrel.evaluation import (
    compute_metrics,
    evaluate,
    filtered_ranks,
    frequency_threshold_from_fraction,
    group_by_correlation,
    group_by_frequency,
    pearson,
    rank_triples,
)
from litrel.training import TrainConfig, init_state, symmetric_lcwa_loss
from tests.conftest import random_graph


def brute_force_rank(scores, true_index, filtered, tie_policy="realistic"):
    """Oracle: exhaustively sort the kept candidates and locate the target."""
    kept = [
        (i, s) for i, s in enumerate(scores)
        if i == true_index or i not in filtered
    ]
    ordered = sorted(kept, key=lambda pair: -pair[1])
    positions = [
        pos + 1 for pos, (i, s) in enumerate(ordered) if s == scores[true_index]
    ]
    if tie_policy == "optimistic":
        return float(min(positions))
    if tie_policy == "pessimistic":
        return float(max(positions))
    return (min(positions) + max(positions)) / 2.0


def as_index(filtered_rows):
    """The ``(rows, cols)`` form of one set of filtered entities per row."""
    pairs = [(b, e) for b, filtered in enumerate(filtered_rows) for e in sorted(filtered)]
    return tuple(np.array(pairs, dtype=np.int64).reshape(-1, 2).T)


def rank_of(scores, true_index, filtered, tie_policy):
    """The block ranker on a one-row block."""
    block = np.array([scores], dtype=np.float64)
    return filtered_ranks(block, np.array([true_index]), as_index([filtered]), tie_policy)[0]


class TestRankOf:
    def test_unique_best_is_rank_one(self):
        assert rank_of(np.array([0.1, 0.9, 0.3]), 1, set(), "realistic") == 1.0

    def test_all_equal_four_candidates(self):
        scores = np.zeros(4)
        assert rank_of(scores, 2, set(), "realistic") == 2.5
        assert rank_of(scores, 2, set(), "optimistic") == 1.0
        assert rank_of(scores, 2, set(), "pessimistic") == 4.0

    def test_filtering_removes_better_competitor(self):
        scores = np.array([5.0, 3.0, 1.0])
        assert rank_of(scores, 1, set(), "realistic") == 2.0
        assert rank_of(scores, 1, {0}, "realistic") == 1.0

    def test_true_entity_never_filtered(self):
        scores = np.array([5.0, 3.0, 1.0])
        assert rank_of(scores, 1, {0, 1}, "realistic") == 1.0

    @pytest.mark.parametrize("policy", ["realistic", "optimistic", "pessimistic"])
    def test_matches_exhaustive_sort_oracle(self, policy, rng):
        for _ in range(50):
            n = int(rng.integers(1, 9))
            rows = int(rng.integers(1, 5))
            # coarse grid forces frequent ties
            scores = rng.integers(0, 3, size=(rows, n)).astype(np.float64)
            targets = rng.integers(n, size=rows)
            filtered = [
                {int(i) for i in rng.integers(0, n, size=int(rng.integers(0, n)))}
                for _ in range(rows)
            ]
            expected = [
                brute_force_rank(scores[b], int(targets[b]), filtered[b], policy)
                for b in range(rows)
            ]
            ranks = filtered_ranks(scores.copy(), targets, as_index(filtered), policy)
            assert ranks.tolist() == expected


class TestMetrics:
    def test_hand_arithmetic(self):
        # one [head rank, tail rank] row per triple
        ranks = np.array([[1.0, 2.0], [10.0, 1.0]])
        mrr, hits1, hits10 = compute_metrics(ranks)
        assert mrr == pytest.approx((1 + 0.5 + 0.1 + 1) / 4)
        assert hits1 == 0.5
        assert hits10 == 1.0

    def test_two_ranks_per_triple(self):
        mrr, hits1, hits10 = compute_metrics(np.array([[1.0, 4.0]]))
        assert mrr == pytest.approx((1 + 0.25) / 2)
        assert hits1 == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            compute_metrics(np.zeros((0, 2)))

    def test_bounds(self, rng):
        ranks = rng.integers(1, 50, size=(20, 2)).astype(np.float64)
        mrr, hits1, hits10 = compute_metrics(ranks)
        assert 0 < mrr <= 1
        assert 0 <= hits1 <= hits10 <= 1


class TestFilteredRanking:
    @pytest.fixture
    def trained_state(self, toy_graph):
        config = TrainConfig(model="distmult", dim_entity=6, dim_relation=6, seed=3)
        return init_state(toy_graph, config)

    def test_filtered_never_worse_than_raw(self, toy_graph, trained_state):
        test = toy_graph.test
        ranks = rank_triples(trained_state, toy_graph, test)
        r_lit = np.stack([trained_state.fused_relation(r) for r in test[:, 1]])
        scores = scoring.score_all_tails(test[:, 0], r_lit, trained_state.model, trained_state.tables)
        raw = filtered_ranks(scores, test[:, 2], as_index([set()] * test.shape[0]))
        assert (ranks[:, 1] <= raw).all()

    def test_rank_bounds(self, toy_graph, trained_state):
        n = toy_graph.num_entities
        ranks = rank_triples(trained_state, toy_graph, toy_graph.test)
        assert ranks.shape == (toy_graph.test.shape[0], 2)
        assert ((1.0 <= ranks) & (ranks <= n)).all()

    @pytest.mark.parametrize("model", ["distmult", "complex"])
    def test_fusion_runs_once_per_ranking_and_batch(self, toy_graph, model):
        state = init_state(toy_graph, TrainConfig(model=model, fusion="linear",
                                                  dim_entity=6, dim_relation=6))
        calls = []
        for name in ("forward", "backward"):
            method = getattr(state.fusion, name)
            setattr(state.fusion, name,
                    lambda *args, name=name, method=method: calls.append(name) or method(*args))
        rank_triples(state, toy_graph, toy_graph.train)  # two relations, ComplEx: two halves each
        assert calls == ["forward"]
        symmetric_lcwa_loss(toy_graph.train, state)
        assert calls == ["forward", "forward", "backward"]

    def test_unknown_tie_policy(self, toy_graph, trained_state):
        with pytest.raises(ValidationError):
            rank_triples(trained_state, toy_graph, toy_graph.test, tie_policy="hopeful")


def reference_rank_triples(state, graph, triples, tie_policy):
    """The former ranker: dicts of filter sets over the splits, flattened per block."""
    filter_tails, filter_heads = {}, {}
    for split in (graph.train, graph.valid, graph.test):
        for head, relation, tail in split:
            filter_tails.setdefault((int(head), int(relation)), set()).add(int(tail))
            filter_heads.setdefault((int(relation), int(tail)), set()).add(int(head))

    def ranks_of(scores, targets, known):
        rows = np.arange(targets.size)
        true = scores[rows, targets]
        sizes = np.fromiter(map(len, known), dtype=np.int64, count=len(known))
        competitors = np.fromiter(chain.from_iterable(known), dtype=np.int64, count=int(sizes.sum()))
        scores[np.repeat(rows, sizes), competitors] = -np.inf
        scores[rows, targets] = true
        better = np.count_nonzero(scores > true[:, None], axis=1)
        ties = np.count_nonzero(scores == true[:, None], axis=1) - 1
        if tie_policy == "optimistic":
            return better + 1.0
        if tie_policy == "pessimistic":
            return better + ties + 1.0
        return better + 1 + ties / 2.0

    ranks = np.empty((triples.shape[0], 2))
    model, tables = state.model, state.tables
    r_lit, _ = state.fuse_forward(np.arange(tables.relation.shape[0]))
    step = scoring.block_rows(tables.entity.shape[0])
    for start in range(0, triples.shape[0], step):
        block = triples[start:start + step]
        heads, rels, tails = block.T
        r_rows = r_lit[rels]
        known_heads = [filter_heads.get((r, t), ()) for _, r, t in block.tolist()]
        known_tails = [filter_tails.get((h, r), ()) for h, r, _ in block.tolist()]
        ranks[start:start + step, 0] = ranks_of(
            scoring.score_all_heads(tails, r_rows, model, tables), heads, known_heads)
        ranks[start:start + step, 1] = ranks_of(
            scoring.score_all_tails(heads, r_rows, model, tables), tails, known_tails)
    return ranks


@st.composite
def split_graphs(draw):
    """An index-level graph whose splits share triples and entities.

    The last train triple is repeated in valid and test; entity ``n`` is
    only in valid and entity ``n + 1`` only in test; the last relation
    has no triples.
    """
    n = draw(st.integers(1, 5))
    num_relations = draw(st.integers(1, 3))

    def triples(min_size):
        triple = st.tuples(st.integers(0, n - 1), st.integers(0, num_relations - 1),
                           st.integers(0, n - 1))
        return draw(st.lists(triple, min_size=min_size, max_size=10, unique=True))

    train, valid, test = triples(1), triples(0), triples(0)
    for split in (valid, test):
        if train[-1] not in split:
            split.append(train[-1])
    valid.append((n, draw(st.integers(0, num_relations - 1)), draw(st.integers(0, n - 1))))
    test.append((draw(st.integers(0, n)), draw(st.integers(0, num_relations - 1)), n + 1))
    arrays = [np.array(split, dtype=np.int64).reshape(-1, 3) for split in (train, valid, test)]
    return KnowledgeGraph(
        entities=Vocab(f"e{i}" for i in range(n + 2)),
        relations=Vocab(f"r{i}" for i in range(num_relations + 1)),
        attributes=Vocab([]),
        train=arrays[0], valid=arrays[1], test=arrays[2],
        literals=LiteralMatrix(values=np.zeros((n + 2, 0)), present=np.zeros((n + 2, 0), bool),
                               raw_min=np.zeros(0), raw_max=np.zeros(0)),
    )


class TestFilterFromSplits:
    @settings(max_examples=60, deadline=None)
    @given(graph=split_graphs(), model=st.sampled_from(["distmult", "transe"]),
           tied=st.booleans(), rows_per_block=st.sampled_from([1, 2, None]),
           seed=st.integers(0, 100))
    def test_matches_dict_of_sets_ranker(self, graph, model, tied, rows_per_block, seed):
        state = init_state(graph, TrainConfig(model=model, dim_entity=4, dim_relation=4, seed=seed))
        for table in (state.tables.entity, state.tables.relation):
            table[...] = 0.0 if tied else np.round(table, 1)  # all scores tie, or many do
        triples = np.concatenate([graph.train, graph.valid, graph.test])
        block_scores = scoring.BLOCK_SCORES if rows_per_block is None else (
            rows_per_block * graph.num_entities)
        with mock.patch.object(scoring, "BLOCK_SCORES", block_scores):
            for policy in ("realistic", "optimistic", "pessimistic"):
                ranks = rank_triples(state, graph, triples, policy)
                np.testing.assert_array_equal(
                    ranks, reference_rank_triples(state, graph, triples, policy))
        if tied:
            # every score is 0: a pessimistic rank is |E| minus the other entities
            # known to complete that side, counted over all three splits
            known = set(map(tuple, triples.tolist()))
            entities = range(graph.num_entities)
            expected = [
                [graph.num_entities - sum((x, r, t) in known for x in entities if x != h),
                 graph.num_entities - sum((h, r, x) in known for x in entities if x != t)]
                for h, r, t in triples.tolist()
            ]
            np.testing.assert_array_equal(rank_triples(state, graph, triples, "pessimistic"), expected)


class TestPearson:
    def test_perfect_linear(self):
        assert pearson([1, 2, 3], [3, 6, 9]) == pytest.approx(1.0)

    def test_constant_series_is_zero(self):
        assert pearson([1, 1, 1], [2, 5, 9]) == 0.0

    def test_short_series_is_zero(self):
        assert pearson([1], [2]) == 0.0
        assert pearson([], []) == 0.0

    def test_three_point_example(self):
        # dx = (-1, 0, 1), dy = (-1/3, -4/3, 5/3): r = 2 / sqrt(2 * 14/3)
        assert pearson([1, 2, 3], [2, 1, 4]) == pytest.approx(3 / math.sqrt(21))

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            pearson([1, 2], [1, 2, 3])

    def test_symmetry_and_affine_invariance(self, rng):
        xs = rng.normal(size=12)
        ys = rng.normal(size=12)
        r = pearson(xs, ys)
        assert pearson(ys, xs) == pytest.approx(r)
        assert pearson(3.0 * xs + 7.0, ys) == pytest.approx(r)
        assert pearson(-xs, ys) == pytest.approx(-r)
        assert -1 - 1e-12 <= r <= 1 + 1e-12


class TestGroupings:
    @pytest.fixture
    def skewed_graph(self):
        triples = [(f"e{i}", "common", f"e{i+1}") for i in range(6)]
        triples += [("e0", "rare", "e3")]
        literals = [(f"e{i}", "a", float(i)) for i in range(7)]
        literals += [(f"e{i}", "b", float(2 * i + 1)) for i in range(7)]
        return build_graph(triples, [], [], literals)

    def test_frequency_partition(self, skewed_graph):
        grouping = group_by_frequency(skewed_graph, threshold_count=2)
        assert grouping.partition[skewed_graph.relations["common"]] == "frequent"
        assert grouping.partition[skewed_graph.relations["rare"]] == "long-tail"

    def test_partition_is_total(self, skewed_graph):
        for builder in (
            lambda: group_by_frequency(skewed_graph, 3),
            lambda: group_by_correlation(skewed_graph, 0.2),
        ):
            grouping = builder()
            assert set(grouping.partition) == set(range(skewed_graph.num_relations))
            assert set(grouping.partition.values()) <= set(grouping.labels)

    def test_threshold_from_fraction(self, skewed_graph):
        assert frequency_threshold_from_fraction(skewed_graph, 0.0255) == pytest.approx(
            0.0255 * skewed_graph.train.shape[0]
        )
        with pytest.raises(ValidationError):
            frequency_threshold_from_fraction(skewed_graph, 1.5)

    def test_correlation_detects_linear_attribute_pair(self, skewed_graph):
        # heads of "common" have a = i, tails have b = 2(i+1)+1: perfectly linear
        grouping = group_by_correlation(skewed_graph, threshold=0.9)
        assert grouping.partition[skewed_graph.relations["common"]] == "correlated"
        # "rare" has only one training triple: below min_samples
        assert grouping.partition[skewed_graph.relations["rare"]] == "less-correlated"

    def test_correlation_requires_min_samples(self, skewed_graph):
        grouping = group_by_correlation(skewed_graph, threshold=0.0, min_samples=100)
        assert all(v == "less-correlated" for v in grouping.partition.values())

    def test_uncorrelated_attributes_stay_below_threshold(self):
        rng = np.random.default_rng(5)
        triples = [(f"h{i}", "r", f"t{i}") for i in range(40)]
        literals = [(f"h{i}", "a", float(rng.normal())) for i in range(40)]
        literals += [(f"t{i}", "b", float(rng.normal())) for i in range(40)]
        graph = build_graph(triples, [], [], literals)
        grouping = group_by_correlation(graph, threshold=0.9)
        assert grouping.partition[graph.relations["r"]] == "less-correlated"


def loop_correlation_partition(graph, threshold, min_samples=3):
    """Oracle: one exact ``pearson`` per (relation, head attribute, tail attribute) pair."""
    values = graph.literals.values
    present = graph.literals.present
    partition = {}
    for relation in range(graph.num_relations):
        triples = graph.train[graph.train[:, 1] == relation]
        correlated = False
        if triples.shape[0] >= min_samples and graph.num_attributes > 0:
            heads = triples[:, 0]
            tails = triples[:, 2]
            head_mask = present[heads]
            tail_mask = present[tails]
            for ha in range(graph.num_attributes):
                if correlated:
                    break
                if head_mask[:, ha].sum() < min_samples:
                    continue
                for ta in range(graph.num_attributes):
                    both = head_mask[:, ha] & tail_mask[:, ta]
                    if int(both.sum()) < min_samples:
                        continue
                    coef = pearson(values[heads[both], ha], values[tails[both], ta])
                    if abs(coef) >= threshold:
                        correlated = True
                        break
        partition[relation] = "correlated" if correlated else "less-correlated"
    return partition


THRESHOLDS = (0.0, 0.3, 0.5, 0.8, 0.95, 0.99, 1.0)


class TestCorrelationOracle:
    def assert_matches_loop(self, graph, thresholds=THRESHOLDS, min_samples=(0, 1, 2, 3, 5)):
        for threshold in thresholds:
            for k in min_samples:
                expected = loop_correlation_partition(graph, threshold, k)
                assert group_by_correlation(graph, threshold, k).partition == expected, (threshold, k)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        self.assert_matches_loop(random_graph(rng, num_entities=12, num_relations=4,
                                              num_attributes=3, triples_per_relation=10))

    def test_constant_and_coarse_columns(self):
        rng = np.random.default_rng(11)
        entities = [f"e{i}" for i in range(10)]
        triples = [(entities[i], "r", entities[(3 * i + 1) % 10]) for i in range(10)]
        triples += [(entities[i], "s", entities[(i + 5) % 10]) for i in range(0, 10, 2)]
        literals = [(e, "const", 7.0) for e in entities]
        literals += [(e, "coarse", float(rng.integers(0, 2))) for e in entities]
        graph = build_graph(triples, [], [], literals)
        self.assert_matches_loop(graph)
        # every pair of a constant column has coefficient 0, which threshold 0 still counts
        assert set(group_by_correlation(graph, 0.0).partition.values()) == {"correlated"}

    @pytest.mark.parametrize("rows", [3, 4, 7, 10, 31])
    def test_perfectly_linear_pair(self, rows):
        triples = [(f"h{i}", "r", f"t{i}") for i in range(rows)]
        literals = [(f"h{i}", "x", 0.1 * i) for i in range(rows)]
        literals += [(f"t{i}", "y", -3.7 * i + 2.0) for i in range(rows)]
        graph = build_graph(triples, [], [], literals)
        self.assert_matches_loop(graph, thresholds=(0.0, 0.999999, 1.0))
        assert group_by_correlation(graph, 0.999999).partition[0] == "correlated"

    def test_min_samples_boundary(self):
        # 5 triples, the head attribute present on 4 of them
        triples = [(f"h{i}", "r", f"t{i}") for i in range(5)]
        literals = [(f"h{i}", "x", float(i * i)) for i in range(4)] + [("h4", "z", 1.0)]
        literals += [(f"t{i}", "y", float(i)) for i in range(5)]
        graph = build_graph(triples, [], [], literals)
        self.assert_matches_loop(graph, min_samples=(3, 4, 5, 6))
        relation = graph.relations["r"]
        assert group_by_correlation(graph, 0.5, 4).partition[relation] == "correlated"
        assert group_by_correlation(graph, 0.5, 5).partition[relation] == "less-correlated"

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 7), st.integers(0, 2), st.integers(0, 7)),
                 min_size=1, max_size=30),
        st.lists(st.tuples(st.integers(0, 7), st.integers(0, 2), st.integers(0, 3)), max_size=24),
        st.sampled_from(THRESHOLDS),
        st.integers(0, 4),
    )
    def test_arbitrary_small_graphs(self, triples, literals, threshold, min_samples):
        graph = build_graph(
            [(f"e{h}", f"r{r}", f"e{t}") for h, r, t in triples], [], [],
            [(f"e{e}", f"a{a}", float(v)) for e, a, v in literals],
        )
        expected = loop_correlation_partition(graph, threshold, min_samples)
        assert group_by_correlation(graph, threshold, min_samples).partition == expected


class TestEvaluate:
    def test_grouped_report_weighted_mean_identity(self, toy_graph):
        state = init_state(
            toy_graph, TrainConfig(model="distmult", dim_entity=6, dim_relation=6, seed=1)
        )
        grouping = group_by_frequency(toy_graph, threshold_count=1)
        report = evaluate(state, toy_graph, grouping=grouping, split="test")
        total = 0
        weighted = 0.0
        for metrics in report.group_metrics.values():
            total += metrics["num_triples"]
            if metrics["mrr"] is not None:
                weighted += metrics["mrr"] * metrics["num_triples"]
        assert total == report.num_triples
        assert weighted / total == pytest.approx(report.mrr)

    def test_empty_split_rejected(self):
        graph = build_graph([("a", "r", "b")], [], [], [])
        state = init_state(graph, TrainConfig(dim_entity=4, dim_relation=4))
        with pytest.raises(ValidationError, match="empty"):
            evaluate(state, graph, split="test")

    def test_report_serialization(self, toy_graph, tmp_path):
        from litrel.evaluation import save_report

        state = init_state(
            toy_graph, TrainConfig(model="distmult", dim_entity=6, dim_relation=6, seed=1)
        )
        grouping = group_by_frequency(toy_graph, threshold_count=1)
        report = evaluate(state, toy_graph, grouping=grouping, split="test")
        json_path = str(tmp_path / "report.json")
        table_path = str(tmp_path / "report.txt")
        save_report(report, json_path, table_path)
        import json

        payload = json.loads(open(json_path).read())
        assert payload["mrr"] == pytest.approx(report.mrr)
        assert payload["grouping"] == "frequency"
        table = open(table_path).read()
        assert "all triples" in table
