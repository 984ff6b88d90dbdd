import numpy as np
import pytest

from litrel.data import build_graph
from litrel.downstream import (
    LinearSvm,
    confusion_counts,
    export_embeddings,
    knn_classify,
    load_labeled_nodes,
    micro_f1,
    svm_train,
)
from litrel.errors import ParseError, ValidationError
from litrel.training import TrainConfig, init_state


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


class TestExportEmbeddings:
    def test_row_order_matches_nodes(self, toy_graph):
        state = init_state(toy_graph, TrainConfig(dim_entity=6, dim_relation=6))
        nodes = [2, 0, 1]
        feats = export_embeddings(state, nodes)
        np.testing.assert_array_equal(feats, state.tables.entity[[2, 0, 1]])

    def test_copy_not_view(self, toy_graph):
        state = init_state(toy_graph, TrainConfig(dim_entity=6, dim_relation=6))
        feats = export_embeddings(state, [0])
        feats[...] = 0.0
        assert not np.all(state.tables.entity[0] == 0.0)

    def test_out_of_range_rejected(self, toy_graph):
        state = init_state(toy_graph, TrainConfig(dim_entity=6, dim_relation=6))
        with pytest.raises(ValidationError):
            export_embeddings(state, [0, 999])


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


class TestSvm:
    def test_separable_reaches_full_accuracy(self, rng):
        train_feats, train_labels = cluster_data(rng, [(0, 0), (6, 6)], 15)
        model = svm_train(train_feats, train_labels, epochs=300, lr=0.1)
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
        model0 = svm_train(train_feats, train_labels, epochs=0, lr=0.05)
        model1 = svm_train(train_feats, train_labels, epochs=150, lr=0.05)
        l0 = svm_hinge_loss(model0, train_feats, train_labels, reg=1e-4)
        l1 = svm_hinge_loss(model1, train_feats, train_labels, reg=1e-4)
        assert l1 < l0

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError):
            svm_train(np.zeros((3, 2)), np.zeros(3, dtype=np.int64))

    def test_seeded_determinism(self, rng):
        train_feats, train_labels = cluster_data(rng, [(0, 0), (5, 5)], 8)
        m1 = svm_train(train_feats, train_labels, seed=4)
        m2 = svm_train(train_feats, train_labels, seed=4)
        np.testing.assert_array_equal(m1.weights, m2.weights)
        np.testing.assert_array_equal(m1.biases, m2.biases)


class TestMicroF1:
    def test_equals_accuracy(self):
        assert micro_f1([0, 1, 1, 2], [0, 1, 2, 2]) == pytest.approx(0.75)

    def test_perfect(self):
        assert micro_f1([1, 0], [1, 0]) == 1.0

    def test_all_wrong(self):
        assert micro_f1([0, 0], [1, 1]) == 0.0

    def test_mismatched_length(self):
        with pytest.raises(ValidationError):
            micro_f1([0], [0, 1])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            micro_f1([], [])

    def test_matches_accuracy_randomly(self, rng):
        preds = rng.integers(0, 4, size=50)
        gold = rng.integers(0, 4, size=50)
        assert micro_f1(preds, gold) == pytest.approx(float((preds == gold).mean()))


class TestConfusion:
    def test_counts(self):
        counts = confusion_counts([0, 1, 1], [0, 0, 1], num_classes=2)
        np.testing.assert_array_equal(counts, [[1, 1], [0, 1]])
        assert counts.sum() == 3
