import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from litrel import data, scoring
from litrel.downstream import (
    SVM_EPOCHS,
    SVM_LR,
    SVM_REG,
    LinearSvm,
    confusion_counts,
    knn_classify,
    load_labeled_nodes,
    micro_f1,
    svm_train,
)
from litrel.errors import ParseError, ValidationError


def svm_hinge_loss(model, feats, labels, reg):
    # mean one-vs-rest hinge loss plus L2 penalty on the weights
    scores = feats @ model.weights.T + model.biases
    signs = -np.ones_like(scores)
    signs[np.arange(labels.shape[0]), labels] = 1.0
    margins = np.maximum(0.0, 1.0 - signs * scores)
    return float(margins.mean() + reg * np.sum(model.weights ** 2))


def cluster_data(rng, centers, per_class, spread=0.1):
    feats, labels = [], []
    for label, center in enumerate(centers):
        feats.append(np.asarray(center) + spread * rng.normal(size=(per_class, len(center))))
        labels.extend([label] * per_class)
    return np.vstack(feats), np.array(labels, dtype=np.int64)


def brute_force_knn(train_feats, train_labels, x, k):
    dists = np.sqrt(((train_feats - x) ** 2).sum(axis=1))
    nearest = np.argsort(dists, kind="stable")[:k]
    votes = {}
    for j in nearest:
        votes.setdefault(int(train_labels[j]), []).append(float(dists[j]))
    return min(votes, key=lambda lab: (-len(votes[lab]), np.mean(votes[lab]), lab))


@st.composite
def knn_inputs(draw):
    """Tie-forcing grids with repeated rows, a scale, a common offset and, in some draws, last-bit nudges.

    At the scales 1e19 and 1e40 the float32 screen's reach overflows and
    every row is widened, while the oracle's float64 squares stay
    finite; a nudge moves each training entry a few ulps, so repeated
    rows become last-bit near-ties.
    """
    num_train = draw(st.integers(1, 20))
    dim = draw(st.integers(1, 4))
    grid = hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.just(dim)),
                      elements=st.integers(-2, 2).map(float))
    train_feats = draw(grid)
    # repeat some training rows, then fill up to num_train
    repeats = draw(st.lists(st.integers(0, train_feats.shape[0] - 1), max_size=num_train))
    train_feats = np.vstack([train_feats, train_feats[repeats]])[:num_train]
    train_feats = np.vstack([train_feats, np.zeros((num_train - train_feats.shape[0], dim))])
    test_feats = np.vstack([draw(grid), train_feats[:draw(st.integers(0, 3))]])
    scale = draw(st.sampled_from([1.0, 0.1, 1e-3, 1e19, 1e40]))
    offset = draw(st.sampled_from([0.0, 1e6]))
    labels = np.array(draw(st.lists(st.integers(0, 3), min_size=num_train, max_size=num_train)))
    train_feats = train_feats * scale + offset
    if draw(st.booleans()):
        ulps = draw(hnp.arrays(np.float64, train_feats.shape, elements=st.integers(-3, 3).map(float)))
        train_feats += ulps * np.spacing(train_feats)
    return train_feats, labels, test_feats * scale + offset


def row_major_svm(feats, labels, seed):
    # reference: the same schedule on sample-major (n x C) arrays, each bias gradient summed row by row
    num_classes = int(labels.max()) + 1
    n = feats.shape[0]
    rng = np.random.default_rng(seed)
    model = LinearSvm(weights=rng.normal(0.0, 0.01, size=(num_classes, feats.shape[1])),
                      biases=np.zeros(num_classes))
    signs = -np.ones((n, num_classes))
    signs[np.arange(n), labels] = 1.0
    for _ in range(SVM_EPOCHS):
        scores = feats @ model.weights.T + model.biases
        active = (1.0 - signs * scores) > 0
        coef = -(signs * active) / n
        model.weights -= SVM_LR * (coef.T @ feats + 2.0 * SVM_REG * model.weights)
        model.biases -= SVM_LR * coef.sum(axis=0)
    return model


@st.composite
def svm_inputs(draw):
    """Gaussian features (n >= 2) and labels from a drawn class set, a gap such as {0, 2} allowed."""
    classes = draw(st.sampled_from([(0, 1), (0, 2), (1, 2), (0, 1, 2), (0, 1, 3)]))
    n = draw(st.integers(len(classes), 40))
    dim = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = np.array(classes + tuple(rng.choice(classes, size=n - len(classes))), dtype=np.int64)
    feats = rng.normal(size=(n, dim)) * draw(st.sampled_from([0.1, 1.0, 3.0]))
    return feats, labels, draw(st.integers(0, 100))


class TestLoadLabeledNodes:
    def test_basic_parse(self, toy_graph, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("alice\tperson\ttrain\nbob\tperson\ttrain\nhouse1\tplace\ttest\n")
        labeled = load_labeled_nodes(str(path), toy_graph)
        assert labeled.label_names == ["person", "place"]
        assert labeled.train_nodes.shape == (2,)
        assert labeled.test_labels.tolist() == [1]

    def test_unknown_node_listed(self, toy_graph, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("alice\tperson\ttrain\nnobody\tperson\ttest\n")
        with pytest.raises(ValidationError, match="nobody"):
            load_labeled_nodes(str(path), toy_graph)

    def test_bad_split_token(self, toy_graph, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("alice\tperson\tvalidation\n")
        with pytest.raises(ParseError, match="split"):
            load_labeled_nodes(str(path), toy_graph)

    def test_repeated_node_rejected(self, toy_graph, tmp_path):
        # one entity in both splits with two labels would leak test nodes into training
        path = tmp_path / "labels.tsv"
        path.write_text("alice\tperson\ttrain\nbob\tperson\ttrain\nalice\tplace\ttest\n")
        with pytest.raises(ValidationError, match="'alice' is listed on lines 1 and 3"):
            load_labeled_nodes(str(path), toy_graph)

    def test_repeated_node_before_a_bad_split_token_is_reported_first(self, toy_graph, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("alice\tperson\ttrain\n\nalice\tplace\ttest\nbob\tperson\tvalidation\n")
        with pytest.raises(ValidationError, match="'alice' is listed on lines 1 and 3"):
            load_labeled_nodes(str(path), toy_graph)

    def test_unknown_nodes_listed_sorted(self, toy_graph, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("zed\tperson\ttrain\nalice\tperson\ttrain\namy\tplace\ttest\n")
        with pytest.raises(ValidationError, match=r"unknown nodes: \['amy', 'zed'\]$"):
            load_labeled_nodes(str(path), toy_graph)

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_line_ends_blank_lines_and_unterminated_last_line(self, toy_graph, tmp_path, end):
        lines = ["alice\tperson\ttrain", "", "house1\tplace\ttest", "", "bob\tperson\ttrain"]
        path = tmp_path / "labels.tsv"
        path.write_bytes(end.join(lines).encode())  # no line end after the last line
        labeled = load_labeled_nodes(str(path), toy_graph)
        entities = toy_graph.entities.index
        assert labeled.train_nodes.tolist() == [entities["alice"], entities["bob"]]
        assert labeled.train_labels.tolist() == [0, 0]
        assert labeled.test_nodes.tolist() == [entities["house1"]]
        assert labeled.test_labels.tolist() == [1]
        assert labeled.label_names == ["person", "place"]

    @pytest.mark.parametrize("bad, message", [
        ("n9\tc\n", "{path}:{line}: expected 3 tab-separated fields, got 2"),
        ("n9\t\ttest\n", "{path}:{line}: empty class label"),
        ("n9\tc\tvalid\n", "{path}:{line}: split must be 'train' or 'test', got 'valid'"),
        ("n7\tc\ttest\n", "{path}: node 'n7' is listed on lines 8 and {line}"),
    ])
    def test_bad_line_in_a_later_chunk_named_by_its_line(self, toy_graph, tmp_path, bad, message):
        # about 190 KB: the last line sits in the third chunk; no node is in the graph, so
        # the bad line must be found before the unknown nodes are reported
        lines = [f"n{i}\tc\ttrain\n" for i in range(2 * data.CHUNK_CHARS // 10)]
        path = tmp_path / "labels.tsv"
        path.write_text("".join(lines) + bad)
        assert path.stat().st_size > 2 * data.CHUNK_CHARS
        with pytest.raises((ParseError, ValidationError),
                           match=re.escape(message.format(path=path, line=len(lines) + 1))):
            load_labeled_nodes(str(path), toy_graph)



class TestKnn:
    def test_k1_exact_match(self):
        train = np.array([[0.0, 0.0], [10.0, 10.0]])
        labels = np.array([0, 1])
        preds = knn_classify(train, labels, np.array([[10.0, 10.0]]), k=1)
        assert preds.tolist() == [1]

    def test_separable_clusters(self, rng):
        train_feats, train_labels = cluster_data(rng, [(0, 0), (5, 5), (-5, 5)], 10)
        test_feats, test_labels = cluster_data(rng, [(0, 0), (5, 5), (-5, 5)], 5)
        preds = knn_classify(train_feats, train_labels, test_feats, k=3)
        assert micro_f1(preds, test_labels) == 1.0

    def test_matches_brute_force_oracle(self, rng):
        # quantized coordinates force distance and vote ties
        train_feats = rng.integers(0, 3, size=(12, 2)).astype(np.float64)
        train_labels = rng.integers(0, 3, size=12)
        test_feats = rng.integers(0, 3, size=(15, 2)).astype(np.float64)
        for k in (1, 3, 5):
            preds = knn_classify(train_feats, train_labels, test_feats, k)
            expected = [
                brute_force_knn(train_feats, train_labels, x, k) for x in test_feats
            ]
            assert preds.tolist() == expected

    def test_vote_tie_breaks_to_nearer_label(self):
        # k=2: one neighbor of each label; label 1 is nearer
        train = np.array([[0.0], [3.0]])
        labels = np.array([0, 1])
        preds = knn_classify(train, labels, np.array([[2.0]]), k=2)
        assert preds.tolist() == [1]

    def test_invalid_k(self):
        train = np.zeros((3, 2))
        labels = np.zeros(3, dtype=np.int64)
        for k in (0, 4):
            with pytest.raises(ValidationError):
                knn_classify(train, labels, np.zeros((1, 2)), k)

    def test_deterministic(self, rng):
        train_feats, train_labels = cluster_data(rng, [(0, 0), (4, 4)], 8)
        test_feats = rng.normal(size=(6, 2))
        p1 = knn_classify(train_feats, train_labels, test_feats, 3)
        p2 = knn_classify(train_feats, train_labels, test_feats, 3)
        np.testing.assert_array_equal(p1, p2)

    @settings(max_examples=80, deadline=None)
    @given(inputs=knn_inputs(), rows_per_block=st.sampled_from([1, 2, 3, None]))
    def test_blocks_match_brute_force_for_every_k(self, inputs, rows_per_block):
        train_feats, train_labels, test_feats = inputs
        num_train = train_feats.shape[0]
        block_scores = scoring.BLOCK_SCORES if rows_per_block is None else rows_per_block * num_train
        with mock.patch.object(scoring, "BLOCK_SCORES", block_scores):
            for k in range(1, num_train + 1):
                preds = knn_classify(train_feats, train_labels, test_feats, k)
                expected = [brute_force_knn(train_feats, train_labels, x, k) for x in test_feats]
                assert preds.tolist() == expected, k


class TestSvm:
    def test_separable_reaches_full_accuracy(self, rng):
        train_feats, train_labels = cluster_data(rng, [(0, 0), (6, 6)], 15)
        model = svm_train(train_feats, train_labels, seed=0)
        preds = model.predict(train_feats)
        assert micro_f1(preds, train_labels) == 1.0

    def test_margin_beyond_one_contributes_zero(self):
        model = LinearSvm(weights=np.array([[2.0], [-2.0]]), biases=np.zeros(2))
        # x = 1, label 0: scores (2, -2); both margins beyond 1 -> hinge 0
        loss = svm_hinge_loss(model, np.array([[1.0]]), np.array([0]), reg=0.0)
        assert loss == 0.0

    def test_hand_stepped_subgradient(self):
        # one sample x=(1,), label 0, two classes, zero-init weights/biases.
        # scores are 0 -> both hinges active: margin_c = 1 - s_c * 0 = 1.
        # d/d w_0 = -(+1)*x / 1 = -1; d/d w_1 = +1. lr=0.1, reg=0.
        model = LinearSvm(weights=np.zeros((2, 1)), biases=np.zeros(2))
        feats = np.array([[1.0]])
        labels = np.array([0])
        signs = np.array([[1.0, -1.0]])
        scores = feats @ model.weights.T + model.biases
        active = (1.0 - signs * scores) > 0
        coef = -(signs * active) / 1
        model.weights -= 0.1 * (coef.T @ feats)
        model.biases -= 0.1 * coef.sum(axis=0)
        np.testing.assert_allclose(model.weights, [[0.1], [-0.1]])
        np.testing.assert_allclose(model.biases, [0.1, -0.1])

    def test_loss_non_increasing_overall(self, rng):
        train_feats, train_labels = cluster_data(rng, [(0, 0), (3, 3), (0, 4)], 10)
        trained = svm_train(train_feats, train_labels, seed=5)
        # the weights svm_train starts from: seed 5's draw, zero biases
        initial = LinearSvm(weights=np.random.default_rng(5).normal(0.0, 0.01, size=trained.weights.shape),
                            biases=np.zeros_like(trained.biases))
        l0 = svm_hinge_loss(initial, train_feats, train_labels, reg=SVM_REG)
        l1 = svm_hinge_loss(trained, train_feats, train_labels, reg=SVM_REG)
        assert l1 < l0

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError):
            svm_train(np.zeros((3, 2)), np.zeros(3, dtype=np.int64), seed=0)

    @settings(max_examples=60, deadline=None)
    @given(inputs=svm_inputs())
    @example(inputs=(np.array([[0.5, -1.0], [2.0, 0.25]]), np.array([0, 2]), 3))
    # balanced classes: both biases cancel to +-5.6e-16 in one summation order and to 0 in the other
    @example(inputs=(np.array([[-0.07605633588236906], [0.04261033253636852], [-0.061140295678854345],
                               [-0.14721222202681458], [0.05860777559266609], [0.08438006096842499],
                               [0.09408332631615723], [-0.00749403675253732], [0.033384680439679675],
                               [0.26700500979045694]]),
                     np.array([0, 0, 1, 0, 0, 1, 1, 0, 1, 1]), 21))
    def test_class_major_matches_the_row_major_loop(self, inputs):
        feats, labels, seed = inputs
        got, want = svm_train(feats, labels, seed), row_major_svm(feats, labels, seed)
        # the two orders round each epoch's sums differently: bound the difference by what the
        # epochs add up (a step moves a weight by about SVM_LR * max |x| at most, and a bias by
        # SVM_LR), not by the result, which can cancel to a rounding residue
        bound = 1e-12 * SVM_LR * SVM_EPOCHS * (1.0 + np.abs(feats).max())
        for name in ("weights", "biases"):
            assert np.abs(getattr(got, name) - getattr(want, name)).max() <= bound, name
        assert np.array_equal(got.predict(feats), want.predict(feats))

    def test_seeded_determinism(self, rng):
        train_feats, train_labels = cluster_data(rng, [(0, 0), (5, 5)], 8)
        m1 = svm_train(train_feats, train_labels, seed=4)
        m2 = svm_train(train_feats, train_labels, seed=4)
        np.testing.assert_array_equal(m1.weights, m2.weights)
        np.testing.assert_array_equal(m1.biases, m2.biases)


class TestMicroF1:
    def test_equals_accuracy(self):
        assert micro_f1(np.array([0, 1, 1, 2]), np.array([0, 1, 2, 2])) == pytest.approx(0.75)

    def test_perfect(self):
        assert micro_f1(np.array([1, 0]), np.array([1, 0])) == 1.0

    def test_all_wrong(self):
        assert micro_f1(np.array([0, 0]), np.array([1, 1])) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            micro_f1(np.array([], dtype=np.int64), np.array([], dtype=np.int64))

    def test_is_exactly_correct_over_n(self):
        # 2PR / (P + R) with P = R = k / n misses k / n by an ulp in 1,588 of these cases
        for n in range(1, 200):
            gold = np.zeros(n, dtype=np.int64)
            for k in range(n + 1):
                assert micro_f1(np.arange(n) >= k, gold) == k / n, (k, n)

    def test_matches_accuracy_randomly(self, rng):
        preds = rng.integers(0, 4, size=50)
        gold = rng.integers(0, 4, size=50)
        assert micro_f1(preds, gold) == pytest.approx(float((preds == gold).mean()))


class TestConfusion:
    def test_counts(self):
        counts = confusion_counts([0, 1, 1], [0, 0, 1], num_classes=2)
        np.testing.assert_array_equal(counts, [[1, 1], [0, 1]])
        assert counts.sum() == 3

    def test_matches_loop_randomly(self, rng):
        predictions = rng.integers(0, 5, size=200)
        gold = rng.integers(0, 5, size=200)
        expected = np.zeros((5, 5), dtype=np.int64)
        for p, g in zip(predictions, gold):
            expected[g, p] += 1
        np.testing.assert_array_equal(confusion_counts(predictions, gold, num_classes=5), expected)
