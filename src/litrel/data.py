"""Loading, indexing and normalization of triples and numeric literals.

File formats are plain UTF-8 text, one record per line, tab-separated:

* triple file:   ``head<TAB>relation<TAB>tail``
* literal file:  ``entity<TAB>attribute<TAB>value`` with a decimal or
  scientific-notation real value

A preprocessed graph serializes to a directory holding one vocabulary
text file per vocabulary (line number = index) and an ``arrays.npz``
dump of the triple stores and the normalized literal matrix.
"""

from __future__ import annotations

import datetime
import hashlib
import logging
import math
import os
from dataclasses import dataclass

import numpy as np

from litrel.errors import ParseError, ValidationError
from litrel.serialize import load_arrays, load_json, save_arrays, save_json

logger = logging.getLogger(__name__)

ARTIFACT_VERSION = 1


class Vocab:
    """Bidirectional label <-> dense index mapping.

    Indices are contiguous from 0 and assigned in sorted label order so
    that construction is independent of input ordering.  A label must be
    non-empty and free of ``\n``: the vocabulary file holds one per line.
    """

    def __init__(self, labels):
        self.labels = list(labels)
        self.index = {label: i for i, label in enumerate(self.labels)}
        if len(self.index) != len(self.labels):
            raise ValidationError("duplicate labels in vocabulary")
        bad = next((label for label in self.labels if not label or "\n" in label), None)
        if bad is not None:
            raise ValidationError(f"label {bad!r} is empty or holds a newline")

    @classmethod
    def from_items(cls, items) -> "Vocab":
        return cls(sorted(set(items)))

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, label: str) -> int:
        return self.index[label]

    def __contains__(self, label: str) -> bool:
        return label in self.index

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocab) and self.labels == other.labels

    # newline="\n": only "\n" ends a line, so a "\r" inside a label survives
    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for label in self.labels:
                fh.write(label + "\n")

    @classmethod
    def load(cls, path: str) -> "Vocab":
        try:
            with open(path, encoding="utf-8", newline="\n") as fh:
                return cls([line.rstrip("\n") for line in fh if line != "\n"])
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


@dataclass
class LiteralMatrix:
    """Min-max normalized |E| x |A| attribute-value matrix with presence mask.

    Absent cells hold 0.0 with ``present`` False.  A constant attribute
    column (raw_min == raw_max) normalizes every present cell to 0.
    """

    values: np.ndarray   # float64, |E| x |A|
    present: np.ndarray  # bool, |E| x |A|
    raw_min: np.ndarray  # float64, |A|
    raw_max: np.ndarray  # float64, |A|


@dataclass
class KnowledgeGraph:
    """Indexed triple stores plus literal matrix."""

    entities: Vocab
    relations: Vocab
    attributes: Vocab
    train: np.ndarray  # int64, N x 3 (head, relation, tail)
    valid: np.ndarray
    test: np.ndarray
    literals: LiteralMatrix

    @property
    def num_entities(self) -> int:
        return len(self.entities)

    @property
    def num_relations(self) -> int:
        return len(self.relations)

    @property
    def num_attributes(self) -> int:
        return len(self.attributes)

    def split(self, name: str) -> np.ndarray:
        try:
            return {"train": self.train, "valid": self.valid, "test": self.test}[name]
        except KeyError:
            raise ValidationError(f"unknown split {name!r}") from None

    def save(self, directory: str) -> None:
        os.makedirs(directory, exist_ok=True)
        self.entities.save(os.path.join(directory, "entities.txt"))
        self.relations.save(os.path.join(directory, "relations.txt"))
        self.attributes.save(os.path.join(directory, "attributes.txt"))
        save_arrays(
            os.path.join(directory, "arrays"),
            {
                "train": self.train,
                "valid": self.valid,
                "test": self.test,
                "literal_values": self.literals.values,
                "literal_present": self.literals.present,
                "raw_min": self.literals.raw_min,
                "raw_max": self.literals.raw_max,
            },
        )
        meta = {
            "version": ARTIFACT_VERSION,
            "entities": len(self.entities),
            "relations": len(self.relations),
            "attributes": len(self.attributes),
        }
        save_json(os.path.join(directory, "graph.json"), meta)

    @classmethod
    def load(cls, directory: str) -> "KnowledgeGraph":
        """Read an artifact written by :meth:`save` and check it against ``graph.json``."""
        entities = Vocab.load(os.path.join(directory, "entities.txt"))
        relations = Vocab.load(os.path.join(directory, "relations.txt"))
        attributes = Vocab.load(os.path.join(directory, "attributes.txt"))
        arrays = load_arrays(os.path.join(directory, "arrays"))
        graph = cls(
            entities=entities,
            relations=relations,
            attributes=attributes,
            train=arrays["train"],
            valid=arrays["valid"],
            test=arrays["test"],
            literals=LiteralMatrix(
                values=arrays["literal_values"],
                present=arrays["literal_present"],
                raw_min=arrays["raw_min"],
                raw_max=arrays["raw_max"],
            ),
        )
        _check_artifact(graph, directory)
        return graph


def vocabulary_digests(directory: str) -> dict[str, str]:
    """SHA-256 hex digest of each vocabulary file of an artifact, by file name."""
    digests = {}
    for name in ("entities.txt", "relations.txt", "attributes.txt"):
        with open(os.path.join(directory, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def _check_artifact(graph: KnowledgeGraph, directory: str) -> None:
    """Reject an artifact whose version, sizes or triple indices disagree with its vocabularies."""
    meta_path = os.path.join(directory, "graph.json")
    meta = load_json(meta_path)
    if not isinstance(meta, dict):
        meta = {}
    if meta.get("version") != ARTIFACT_VERSION:
        raise ValidationError(
            f"{meta_path}: artifact version {meta.get('version')!r} is not supported "
            f"(expected {ARTIFACT_VERSION}); run preprocess again"
        )
    sizes = {"entities": graph.num_entities, "relations": graph.num_relations,
             "attributes": graph.num_attributes}
    for name, size in sizes.items():
        if meta.get(name) != size:
            raise ValidationError(f"{meta_path}: records {meta.get(name)!r} {name}, "
                                  f"but {name}.txt holds {size}")
    bounds = np.array([graph.num_entities, graph.num_relations, graph.num_entities])
    for name in ("train", "valid", "test"):
        triples = graph.split(name)
        bad = (triples < 0) | (triples >= bounds)
        if bad.any():
            row, column = np.argwhere(bad)[0]
            raise ValidationError(
                f"{os.path.join(directory, 'arrays', name + '.npy')}: triple {row} has "
                f"{('head', 'relation', 'tail')[column]} index "
                f"{triples[row, column]} outside 0..{bounds[column] - 1}"
            )


def _bad_line(path: str, lineno: int, fields: list[str], labels: tuple[str, ...]) -> ParseError:
    """The error for a line without 3 tab-separated fields or with an empty label.

    An empty label would not survive the one-label-per-line vocabulary
    files, so it is rejected here rather than corrupting the artifact.
    """
    if len(fields) != 3:
        return ParseError(f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}")
    name = next(name for name, value in zip(labels, fields) if not value)
    return ParseError(f"{path}:{lineno}: empty {name} label")


def read_tsv(path: str):
    """Yield ``(lineno, fields)`` for each non-empty line of a tab-separated UTF-8 file.

    Lines are streamed, never read all at once.  Bytes that are not
    UTF-8 raise a :class:`ParseError` naming the line; only then is the
    file read a second time, to find that line.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if line:
                    yield lineno, line.split("\t")
    except UnicodeDecodeError as exc:
        # the same line splitting, with each undecodable byte read as a surrogate U+DC80..U+DCFF
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            lineno = next(lineno for lineno, line in enumerate(fh, start=1)
                          if any("\udc80" <= char <= "\udcff" for char in line))
        raise ParseError(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from None


def load_triples(path: str) -> list[tuple[str, str, str]]:
    """Read a tab-separated triple file into (head, relation, tail) labels.

    Order and duplicates are preserved; deduplication happens in
    :func:`build_graph` where it can be reported.
    """
    triples = []
    for lineno, fields in read_tsv(path):
        if len(fields) != 3 or "" in fields:
            raise _bad_line(path, lineno, fields, ("head", "relation", "tail"))
        triples.append((fields[0], fields[1], fields[2]))
    return triples


def load_literals(path: str) -> list[tuple[str, str, float]]:
    """Read a literal file into (entity, attribute, value) records.

    Non-finite values are rejected: the literal matrix must stay finite.
    """
    literals = []
    for lineno, fields in read_tsv(path):
        if len(fields) != 3 or not fields[0] or not fields[1]:
            raise _bad_line(path, lineno, fields, ("entity", "attribute"))
        entity, attribute, token = fields
        try:
            value = float(token)
        except ValueError:
            raise ParseError(f"{path}:{lineno}: cannot parse numeric value {token!r}") from None
        if not math.isfinite(value):
            raise ParseError(f"{path}:{lineno}: non-finite value {token!r}")
        literals.append((entity, attribute, value))
    return literals


def date_to_decimal(year: int, month: int, day: int) -> float:
    """Encode a calendar date as YYYY.MMDD with fixed decimal positions.

    E.g. (2001, 5, 17) -> 2001.0517.  Used to map date attributes onto the
    numeric literal pipeline.
    """
    try:
        datetime.date(year, month, day)
    except ValueError as exc:
        raise ValidationError(f"invalid date ({year}, {month}, {day}): {exc}") from None
    return (year * 10000 + month * 100 + day) / 10000.0


def build_graph(train, valid, test, literals) -> KnowledgeGraph:
    """Index label-level triples and literals into a KnowledgeGraph.

    Vocabularies cover every label appearing in any split or literal
    record, so valid/test entities are always resolvable.  Duplicate
    triples within a split and repeated (entity, attribute) literal
    assertions are reported via logging; the latter resolve
    last-write-wins.  Normalization statistics use the full literal set.
    """
    entity_labels = set()
    relation_labels = set()
    attribute_labels = set()
    for split in (train, valid, test):
        for head, relation, tail in split:
            entity_labels.add(head)
            entity_labels.add(tail)
            relation_labels.add(relation)
    for entity, attribute, _ in literals:
        entity_labels.add(entity)
        attribute_labels.add(attribute)

    entities = Vocab.from_items(entity_labels)
    relations = Vocab.from_items(relation_labels)
    attributes = Vocab.from_items(attribute_labels)

    def index_split(split, name):
        seen = set()
        rows = []
        for head, relation, tail in split:
            row = (entities[head], relations[relation], entities[tail])
            if row in seen:
                logger.warning("duplicate triple in %s split: (%s, %s, %s)", name, head, relation, tail)
                continue
            seen.add(row)
            rows.append(row)
        return np.array(rows, dtype=np.int64).reshape(-1, 3)

    train_idx = index_split(train, "train")
    valid_idx = index_split(valid, "valid")
    test_idx = index_split(test, "test")

    raw = np.zeros((len(entities), len(attributes)), dtype=np.float64)
    present = np.zeros((len(entities), len(attributes)), dtype=bool)
    for entity, attribute, value in literals:
        e, a = entities[entity], attributes[attribute]
        if present[e, a]:
            logger.warning(
                "duplicate literal for (%s, %s): keeping later value %r", entity, attribute, value
            )
        raw[e, a] = value
        present[e, a] = True

    raw_min = np.zeros(len(attributes), dtype=np.float64)
    raw_max = np.zeros(len(attributes), dtype=np.float64)
    values = np.zeros_like(raw)
    for a in range(len(attributes)):
        mask = present[:, a]
        if not mask.any():
            continue
        lo = raw[mask, a].min()
        hi = raw[mask, a].max()
        raw_min[a] = lo
        raw_max[a] = hi
        if hi > lo:
            values[mask, a] = (raw[mask, a] - lo) / (hi - lo)
        # hi == lo: constant column normalizes to 0 to keep the matrix finite

    return KnowledgeGraph(
        entities=entities,
        relations=relations,
        attributes=attributes,
        train=train_idx,
        valid=valid_idx,
        test=test_idx,
        literals=LiteralMatrix(values=values, present=present, raw_min=raw_min, raw_max=raw_max),
    )
