"""Node classification on top of trained entity embeddings.

Entity embedding rows serve as features; labels come from a
``node<TAB>label<TAB>split`` text file.  Two classifiers are provided: a
deterministic Euclidean KNN and a linear one-vs-rest SVM trained by
subgradient descent on L2-regularized hinge loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from litrel import scoring
from litrel.data import KnowledgeGraph
from litrel.errors import ParseError, ValidationError

_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_TINY = np.finfo(np.float64).smallest_subnormal


@dataclass
class LabeledNodes:
    train_nodes: np.ndarray   # int64 entity indices
    train_labels: np.ndarray  # int64 class indices 0..C-1
    test_nodes: np.ndarray
    test_labels: np.ndarray
    label_names: list[str]


def load_labeled_nodes(path: str, graph: KnowledgeGraph) -> LabeledNodes:
    """Parse a node-label file, mapping node labels to entity indices.

    Each node may be listed once: a repeated node would carry two labels
    or sit in both splits.
    """
    rows = []
    unknown = []
    first_line: dict[str, int] = {}
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
            if node in first_line:
                raise ValidationError(
                    f"{path}: node {node!r} is listed on lines {first_line[node]} and {lineno}"
                )
            first_line[node] = lineno
            if node not in graph.entities:
                unknown.append(node)
                continue
            rows.append((graph.entities[node], label, split))
    if unknown:
        raise ValidationError(f"label file references unknown nodes: {sorted(unknown)}")
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

    Distances are ``sqrt(((t - x) ** 2).sum())`` and neighbours rank by
    (distance, training index), as a stable sort ranks them.  Vote ties
    break toward the label with the smallest mean distance among its
    voting neighbours, then toward the smallest label.

    Test rows go in blocks of ``scoring.block_rows(n_train)`` rows.  A
    block ranks every training row by the expanded square
    ``s = ||x||^2 - 2 x.t + ||t||^2`` (one matrix product), keeps as
    candidates the rows with ``s <= s_k + delta``, where ``s_k`` is the
    row's k-th smallest ``s``, and computes direct distances for those
    candidates only.

    The bound ``delta`` is sound.  Let ``u = 2^-53``, ``D`` the width and
    ``g = (D+4) u / (1 - (D+4) u)`` (Higham's gamma_{D+4}), which bounds
    the relative error of a (D+4)-term float64 sum of products in any
    order.  The expanded ``s`` is then within ``g (||x|| + ||t||)^2 <=
    g W``, ``W = 2 (||x||^2 + max ||t||^2)``, of the exact square ``S``,
    and the direct distance squared lies within ``S (1 +- g)``.  A row j
    with ``s_j > s_k + delta`` has ``S_j (1 - g) > S_i (1 + g)`` for each
    of the k rows i with ``s_i <= s_k`` once
    ``delta >= 2g / (1 - g) (max(s_k, 0) + W)``, so its direct distance
    exceeds all of theirs and it cannot be among the k nearest.  The code
    takes ``4g`` for ``2g / (1 - g)``, which leaves a factor of about 2
    for the rounding of ``W`` and of the bound itself, and adds
    ``16 D 2^-1074`` for the absolute error of underflowing products.
    A bound that overflows keeps every row as a candidate.
    """
    train_feats = np.asarray(train_feats, dtype=np.float64)
    test_feats = np.asarray(test_feats, dtype=np.float64)
    train_labels = np.asarray(train_labels, dtype=np.int64)
    _check_knn_inputs(train_feats, train_labels, test_feats)
    if train_feats.shape[0] == 0:
        raise ValidationError("empty training set")
    if not 1 <= k <= train_feats.shape[0]:
        raise ValidationError(f"k must be within [1, {train_feats.shape[0]}], got {k}")
    classes, label_index = np.unique(train_labels, return_inverse=True)
    train_sq = scoring.sq_norms(train_feats)
    predictions = np.empty(test_feats.shape[0], dtype=np.int64)
    step = scoring.block_rows(train_feats.shape[0])
    for start in range(0, test_feats.shape[0], step):
        block = slice(start, start + step)
        nearest, dists = _nearest(train_feats, train_sq, test_feats[block], k)
        predictions[block] = classes[_vote(label_index[nearest], dists, classes.shape[0])]
    return predictions


def _check_knn_inputs(train_feats, train_labels, test_feats) -> None:
    feats = {"train": train_feats, "test": test_feats}
    for name, rows in feats.items():
        if rows.ndim != 2:
            raise ValidationError(f"{name} features must be 2-D, got shape {rows.shape}")
    if train_feats.shape[1] != test_feats.shape[1]:
        raise ValidationError(
            f"feature widths differ: train {train_feats.shape[1]}, test {test_feats.shape[1]}"
        )
    if train_labels.shape != (train_feats.shape[0],):
        raise ValidationError(
            f"expected {train_feats.shape[0]} train labels, got shape {train_labels.shape}"
        )
    for name, rows in feats.items():
        bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
        if bad.size:
            raise ValidationError(f"{name} feature row {bad[0]} is not finite")


def _nearest(train_feats, train_sq, x, k):
    """B x k training indices and direct distances of each query row's k nearest rows."""
    dim = train_feats.shape[1]
    gamma = (dim + 4) * _UNIT_ROUNDOFF / (1 - (dim + 4) * _UNIT_ROUNDOFF)
    # overflow here only widens the candidate set; the direct distances below
    # overflow as they always did
    with np.errstate(over="ignore", invalid="ignore"):
        x_sq = scoring.sq_norms(x)
        sq = x @ train_feats.T
        sq *= -2.0
        sq += x_sq[:, None]
        sq += train_sq
        # a copy, so the partitioned block is freed at once
        kth = np.partition(sq, k - 1, axis=1)[:, k - 1].copy()
        scale = 2.0 * (x_sq + train_sq.max())  # W in the docstring
        delta = 4 * gamma * (np.maximum(kth, 0.0) + scale) + 16 * dim * _TINY
        # "not above" rather than "at most": a NaN bound or square keeps the row
        rows, cols = np.nonzero(~(sq > (kth + delta)[:, None]))
    dists = np.empty(rows.shape[0])
    chunk = scoring.block_rows(dim)
    for start in range(0, rows.shape[0], chunk):
        part = slice(start, start + chunk)
        dists[part] = np.sqrt(((train_feats[cols[part]] - x[rows[part]]) ** 2).sum(axis=1))
    order = np.lexsort((cols, dists, rows))
    # rows[order] ascends, and every row has at least k candidates
    first = np.searchsorted(rows[order], np.arange(x.shape[0]))
    keep = order[first[:, None] + np.arange(k)]
    return cols[keep], dists[keep]


def _vote(labels, dists, num_classes: int) -> np.ndarray:
    """Per row of B x k neighbour labels: most votes, then smallest mean distance, then label.

    Each mean is ``np.mean`` over the label's distances in neighbour
    order, so it matches the mean of the same list bit for bit.
    """
    num_rows = labels.shape[0]
    keys = (np.arange(num_rows)[:, None] * num_classes + labels).ravel()
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
    counts = np.diff(np.r_[starts, keys.shape[0]])
    means = np.empty(starts.shape[0])
    flat = dists.ravel()
    for m in np.unique(counts):
        groups = np.flatnonzero(counts == m)
        means[groups] = flat[order[starts[groups][:, None] + np.arange(m)]].mean(axis=1)
    group_rows, group_labels = np.divmod(sorted_keys[starts], num_classes)
    best = np.lexsort((group_labels, means, -counts, group_rows))
    return group_labels[best[np.searchsorted(group_rows[best], np.arange(num_rows))]]


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
    np.add.at(counts, (np.asarray(gold, dtype=np.int64),
                       np.asarray(predictions, dtype=np.int64)), 1)
    return counts
