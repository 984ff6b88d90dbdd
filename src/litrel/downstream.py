"""Node classification on top of trained entity embeddings.

Entity embedding rows serve as features; labels come from a
``node<TAB>label<TAB>split`` text file.  Two classifiers are provided: a
deterministic Euclidean KNN and a linear one-vs-rest SVM trained by
subgradient descent on L2-regularized hinge loss.  Both take the float64
entity rows and the int64 labels as the checkpoint and label loaders
give them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from litrel import scoring
from litrel.data import KnowledgeGraph, _bad_line, _chunk_columns, _rescan
from litrel.errors import ParseError, ValidationError

# The SVM's fixed schedule: full-batch subgradient epochs, step size and L2 weight.
SVM_EPOCHS = 200
SVM_LR = 0.1
SVM_REG = 1e-4


@dataclass
class LabeledNodes:
    train_nodes: np.ndarray   # int64 entity indices
    train_labels: np.ndarray  # int64 class indices 0..C-1
    test_nodes: np.ndarray
    test_labels: np.ndarray
    label_names: list[str]


def load_labeled_nodes(path: str, graph: KnowledgeGraph) -> LabeledNodes:
    """Parse a node-label file, mapping node labels to entity indices.

    The file is read in bulk, a chunk of lines at a time
    (:func:`litrel.data._chunk_columns`); only a bad line, found by a
    rescan, is read on its own.  Each node may be listed once: a
    repeated node would carry two labels or sit in both splits.
    """
    first_line: dict[str, int] = {}

    def check(lineno, fields):
        if len(fields) != 3 or not fields[0] or not fields[1]:
            raise _bad_line(path, lineno, fields, ("node", "class"))
        node, _, split = fields
        if split not in ("train", "test"):
            raise ParseError(f"{path}:{lineno}: split must be 'train' or 'test', got {split!r}")
        if node in first_line:
            raise ValidationError(
                f"{path}: node {node!r} is listed on lines {first_line[node]} and {lineno}"
            )
        first_line[node] = lineno

    nodes, labels, splits = [], [], []
    for node_column, label_column, split_column in _chunk_columns(path, check, label_fields=2):
        nodes += node_column
        labels += label_column
        splits += split_column
    if not set(splits) <= {"train", "test"} or len(set(nodes)) != len(nodes):
        raise _rescan(path, check)
    index = graph.entities.index
    unknown = [node for node in nodes if node not in index]
    if unknown:
        raise ValidationError(f"label file references unknown nodes: {sorted(unknown)}")
    label_names = sorted(set(labels))
    label_index = {name: i for i, name in enumerate(label_names)}
    ids = np.fromiter(map(index.__getitem__, nodes), np.int64, len(nodes))
    classes = np.fromiter(map(label_index.__getitem__, labels), np.int64, len(labels))
    train = np.fromiter(map("train".__eq__, splits), bool, len(splits))
    return LabeledNodes(
        train_nodes=ids[train],
        train_labels=classes[train],
        test_nodes=ids[~train],
        test_labels=classes[~train],
        label_names=label_names,
    )


def knn_classify(train_feats, train_labels, test_feats, k: int) -> np.ndarray:
    """Majority vote over the k Euclidean-nearest training points.

    Distances are ``sqrt(((t - x) ** 2).sum())`` and neighbours rank by
    (distance, training index), as a stable sort ranks them.  Vote ties
    break toward the label with the smallest mean distance among its
    voting neighbours, then toward the smallest label.

    Test rows go in the blocks of ``scoring.cut(n_test, kernel.rows)``
    on the lanes of :func:`scoring.screens`, whose L2 screen of the
    training rows (converted to float32 once) orders a row by ``f_j =
    2 x.t_j - ||t_j||^2`` as ``-||x - t_j||^2`` orders it.  Row j stays a
    candidate iff ``f_j >= f_(k) - beta``: ``f_(k)`` is the row's k-th
    largest entry, ``beta`` its bound (:mod:`litrel.scoring`) and the
    edge is :meth:`scoring.SimilarityBlocks.edge`.  Only the candidates
    get direct distances; a widened row (``beta = inf``) keeps every
    row.  Each lane writes the predictions of its own rows.

    A rejected row j is not among the k nearest, not even through a tie
    of square roots: each of the k rows i with ``f_i >= f_(k)`` has
    ``f_i - f_j > beta >= 4gS`` (scoring's ``g`` and row scale ``S``) and
    a screen entry is within ``gS`` of its real value, so their real
    squared distances differ by more than ``2gS``, far above the float64
    rounding of a direct square (``2^-29 gS``) and of its square root;
    so does the absolute term of ``beta`` over float32 underflow.
    """
    if train_feats.shape[0] == 0:
        raise ValidationError("empty training set")
    if not 1 <= k <= train_feats.shape[0]:
        raise ValidationError(f"k must be within [1, {train_feats.shape[0]}], got {k}")
    classes, label_index = np.unique(train_labels, return_inverse=True)
    predictions = np.empty(test_feats.shape[0], dtype=np.int64)
    kernels = scoring.screens(2, train_feats)

    def lane(kernel, blocks):
        for block in blocks:
            nearest, dists = _nearest(kernel, test_feats[block], k)
            predictions[block] = classes[_vote(label_index[nearest], dists, classes.shape[0])]

    scoring.fan_out(lane, kernels, scoring.cut(test_feats.shape[0], kernels[0].rows))
    return predictions


def _nearest(kernel, x, k):
    """B x k training indices and direct distances of each query row's k nearest rows of ``kernel.entity``."""
    scores, beta = kernel.screen(x)
    # each row's k-th largest entry, from copies of a chunk of rows: one copy of the whole block
    # raised rank-hubs' peak RSS from 56.0 to 58.7 MiB (2-CPU Intel Xeon VM)
    kth = np.empty(x.shape[0], dtype=np.float32)
    for part in scoring.chunks(x.shape[0], max(1, scoring.CHUNK_ENTRIES // scores.shape[1])):
        kth[part] = np.partition(scores[part], -k, axis=1)[:, -k]
    lo = kernel.edge(kth - beta, -np.inf)
    rows, cols = np.nonzero(np.greater_equal(scores, lo[:, None], out=kernel.masks[0, :x.shape[0]]))
    dists = np.empty(rows.shape[0])
    # the candidates' D-wide differences, BLOCK_SCORES entries at a time
    for part in scoring.chunks(rows.shape[0], max(1, scoring.BLOCK_SCORES // x.shape[1])):
        dists[part] = np.sqrt(((kernel.entity[cols[part]] - x[rows[part]]) ** 2).sum(axis=1))
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

    def predict(self, feats) -> np.ndarray:
        scores = feats @ self.weights.T + self.biases
        return np.argmax(scores, axis=1).astype(np.int64)


def svm_train(feats, labels, seed: int) -> LinearSvm:
    """One-vs-rest linear SVM via subgradient descent on hinge loss.

    Runs :data:`SVM_EPOCHS` full-batch steps of size :data:`SVM_LR` with
    L2 weight :data:`SVM_REG`, from weights drawn from ``seed``.

    The margins, signs, hinge support and coefficients are class-major
    C x n arrays, allocated once and written in place, so every product
    and the bias gradient's row sums run along contiguous rows.
    """
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
    feats_t = np.ascontiguousarray(feats.T)
    signs = -np.ones((num_classes, n))
    signs[labels, np.arange(n)] = 1.0
    slopes = -signs / n                                # d loss / d scores where the hinge is active
    scores = np.empty((num_classes, n))
    active = np.empty((num_classes, n), dtype=bool)
    coef = np.empty((num_classes, n))
    for _ in range(SVM_EPOCHS):
        np.matmul(model.weights, feats_t, out=scores)
        scores += model.biases[:, None]
        np.multiply(signs, scores, out=coef)
        np.less(coef, 1.0, out=active)                 # hinge subgradient support: s * m < 1
        np.multiply(slopes, active, out=coef)
        model.weights -= SVM_LR * (coef @ feats + 2.0 * SVM_REG * model.weights)
        model.biases -= SVM_LR * coef.sum(axis=1)
    return model


def micro_f1(predictions, gold) -> float:
    """Micro-averaged F1, which for single-label multi-class is the accuracy: correct / n."""
    if predictions.shape[0] == 0:
        raise ValidationError("empty prediction list")
    return int((predictions == gold).sum()) / predictions.shape[0]


def confusion_counts(predictions, gold, num_classes: int) -> np.ndarray:
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(counts, (gold, predictions), 1)
    return counts
