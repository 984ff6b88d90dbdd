"""Node classification on top of trained entity embeddings.

Entity embedding rows serve as features; labels come from a
``node<TAB>label<TAB>split`` text file.  Two classifiers are provided: a
deterministic Euclidean KNN and a linear one-vs-rest SVM trained by
subgradient descent on L2-regularized hinge loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from litrel.data import KnowledgeGraph
from litrel.errors import ParseError, ValidationError


@dataclass
class LabeledNodes:
    train_nodes: np.ndarray   # int64 entity indices
    train_labels: np.ndarray  # int64 class indices 0..C-1
    test_nodes: np.ndarray
    test_labels: np.ndarray
    label_names: list[str]


def load_labeled_nodes(path: str, graph: KnowledgeGraph) -> LabeledNodes:
    """Parse a node-label file, mapping node labels to entity indices."""
    rows = []
    unknown = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ParseError(
                    f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}"
                )
            node, label, split = fields
            if split not in ("train", "test"):
                raise ParseError(f"{path}:{lineno}: split must be 'train' or 'test', got {split!r}")
            if node not in graph.entities:
                unknown.append(node)
                continue
            rows.append((graph.entities[node], label, split))
    if unknown:
        raise ValidationError(f"label file references unknown nodes: {sorted(set(unknown))}")
    label_names = sorted({label for _, label, _ in rows})
    label_index = {name: i for i, name in enumerate(label_names)}
    by_split = {"train": ([], []), "test": ([], [])}
    for node, label, split in rows:
        by_split[split][0].append(node)
        by_split[split][1].append(label_index[label])
    return LabeledNodes(
        train_nodes=np.array(by_split["train"][0], dtype=np.int64),
        train_labels=np.array(by_split["train"][1], dtype=np.int64),
        test_nodes=np.array(by_split["test"][0], dtype=np.int64),
        test_labels=np.array(by_split["test"][1], dtype=np.int64),
        label_names=label_names,
    )


def export_embeddings(state, nodes) -> np.ndarray:
    """Entity-embedding feature rows in the given node order."""
    nodes = np.asarray(nodes, dtype=np.int64)
    num_entities = state.tables.entity.shape[0]
    bad = nodes[(nodes < 0) | (nodes >= num_entities)]
    if bad.size:
        raise ValidationError(f"unknown node indices: {bad.tolist()}")
    return state.tables.entity[nodes].copy()


def knn_classify(train_feats, train_labels, test_feats, k: int) -> np.ndarray:
    """Majority vote over the k Euclidean-nearest training points.

    Vote ties break toward the label with the smallest mean distance
    among its voting neighbors, then toward the smallest label index.
    """
    train_feats = np.asarray(train_feats, dtype=np.float64)
    test_feats = np.asarray(test_feats, dtype=np.float64)
    train_labels = np.asarray(train_labels, dtype=np.int64)
    if train_feats.shape[0] == 0:
        raise ValidationError("empty training set")
    if not 1 <= k <= train_feats.shape[0]:
        raise ValidationError(f"k must be within [1, {train_feats.shape[0]}], got {k}")
    predictions = np.empty(test_feats.shape[0], dtype=np.int64)
    for i, x in enumerate(test_feats):
        dists = np.sqrt(((train_feats - x) ** 2).sum(axis=1))
        # stable sort keeps ordering deterministic under distance ties
        nearest = np.argsort(dists, kind="stable")[:k]
        votes: dict[int, list[float]] = {}
        for j in nearest:
            votes.setdefault(int(train_labels[j]), []).append(float(dists[j]))
        predictions[i] = min(
            votes, key=lambda label: (-len(votes[label]), np.mean(votes[label]), label)
        )
    return predictions


@dataclass
class LinearSvm:
    weights: np.ndarray  # C x D
    biases: np.ndarray   # C

    def decision(self, feats) -> np.ndarray:
        return np.asarray(feats, dtype=np.float64) @ self.weights.T + self.biases

    def predict(self, feats) -> np.ndarray:
        return np.argmax(self.decision(feats), axis=1).astype(np.int64)


def svm_train(
    train_feats,
    train_labels,
    epochs: int = 200,
    lr: float = 0.1,
    reg: float = 1e-4,
    seed: int = 0,
) -> LinearSvm:
    """One-vs-rest linear SVM via subgradient descent on hinge loss."""
    feats = np.asarray(train_feats, dtype=np.float64)
    labels = np.asarray(train_labels, dtype=np.int64)
    classes = np.unique(labels)
    if classes.shape[0] < 2:
        raise ValidationError("SVM training requires at least 2 classes")
    num_classes = int(classes.max()) + 1
    n, dim = feats.shape
    rng = np.random.default_rng(seed)
    model = LinearSvm(
        weights=rng.normal(0.0, 0.01, size=(num_classes, dim)),
        biases=np.zeros(num_classes),
    )
    signs = -np.ones((n, num_classes))
    signs[np.arange(n), labels] = 1.0
    for _ in range(epochs):
        scores = feats @ model.weights.T + model.biases
        active = (1.0 - signs * scores) > 0            # hinge subgradient support
        coef = -(signs * active) / n                   # d loss / d scores
        model.weights -= lr * (coef.T @ feats + 2.0 * reg * model.weights)
        model.biases -= lr * coef.sum(axis=0)
    return model


def micro_f1(predictions, gold) -> float:
    """Micro-averaged F1; equals accuracy for single-label multi-class."""
    predictions = np.asarray(predictions, dtype=np.int64)
    gold = np.asarray(gold, dtype=np.int64)
    if predictions.shape != gold.shape:
        raise ValidationError(f"length mismatch: {predictions.shape} vs {gold.shape}")
    if predictions.shape[0] == 0:
        raise ValidationError("empty prediction list")
    tp = int((predictions == gold).sum())
    fp = int((predictions != gold).sum())
    fn = fp  # each wrong single-label prediction is one FP and one FN
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def confusion_counts(predictions, gold, num_classes: int) -> np.ndarray:
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    for p, g in zip(predictions, gold):
        counts[int(g), int(p)] += 1
    return counts
