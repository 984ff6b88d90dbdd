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
import json
import logging
import math
import os
from dataclasses import dataclass, field

import numpy as np

from litrel.errors import ParseError, ValidationError
from litrel.serialize import load_arrays, save_arrays

logger = logging.getLogger(__name__)

ARTIFACT_VERSION = 1


class Vocab:
    """Bidirectional label <-> dense index mapping.

    Indices are contiguous from 0 and assigned in sorted label order so
    that construction is independent of input ordering.
    """

    def __init__(self, labels):
        self.labels = list(labels)
        self.index = {label: i for i, label in enumerate(self.labels)}
        if len(self.index) != len(self.labels):
            raise ValidationError("duplicate labels in vocabulary")

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

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for label in self.labels:
                fh.write(label + "\n")

    @classmethod
    def load(cls, path: str) -> "Vocab":
        with open(path, encoding="utf-8") as fh:
            return cls([line.rstrip("\n") for line in fh if line != "\n"])


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

    @property
    def num_attributes(self) -> int:
        return self.values.shape[1]


@dataclass
class KnowledgeGraph:
    """Indexed triple stores plus literal matrix and filter indices."""

    entities: Vocab
    relations: Vocab
    attributes: Vocab
    train: np.ndarray  # int64, N x 3 (head, relation, tail)
    valid: np.ndarray
    test: np.ndarray
    literals: LiteralMatrix
    # (head, relation) -> set of true tails; (relation, tail) -> set of true
    # heads; built over train + valid + test.
    filter_tails: dict = field(default_factory=dict)
    filter_heads: dict = field(default_factory=dict)

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

    def contains(self, head: int, relation: int, tail: int) -> bool:
        return tail in self.filter_tails.get((head, relation), ())

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
        with open(os.path.join(directory, "graph.json"), "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, directory: str) -> "KnowledgeGraph":
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
        _build_filter_index(graph)
        return graph


def _bad_line(path: str, lineno: int, fields: list[str], labels: tuple[str, ...]) -> ParseError:
    """The error for a line without 3 tab-separated fields or with an empty label.

    An empty label would not survive the one-label-per-line vocabulary
    files, so it is rejected here rather than corrupting the artifact.
    """
    if len(fields) != 3:
        return ParseError(f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}")
    name = next(name for name, value in zip(labels, fields) if not value)
    return ParseError(f"{path}:{lineno}: empty {name} label")


def load_triples(path: str) -> list[tuple[str, str, str]]:
    """Read a tab-separated triple file into (head, relation, tail) labels.

    Order and duplicates are preserved; deduplication happens in
    :func:`build_graph` where it can be reported.
    """
    triples = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3 or "" in fields:
                raise _bad_line(path, lineno, fields, ("head", "relation", "tail"))
            triples.append((fields[0], fields[1], fields[2]))
    return triples


def load_literals(path: str) -> list[tuple[str, str, float]]:
    """Read a literal file into (entity, attribute, value) records.

    Non-finite values are rejected: the literal matrix must stay finite.
    """
    literals = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3 or not fields[0] or not fields[1]:
                raise _bad_line(path, lineno, fields, ("entity", "attribute"))
            entity, attribute, token = fields
            try:
                value = float(token)
            except ValueError:
                raise ParseError(
                    f"{path}:{lineno}: cannot parse numeric value {token!r}"
                ) from None
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

    graph = KnowledgeGraph(
        entities=entities,
        relations=relations,
        attributes=attributes,
        train=train_idx,
        valid=valid_idx,
        test=test_idx,
        literals=LiteralMatrix(values=values, present=present, raw_min=raw_min, raw_max=raw_max),
    )
    _build_filter_index(graph)
    return graph


def _build_filter_index(graph: KnowledgeGraph) -> None:
    graph.filter_tails = {}
    graph.filter_heads = {}
    for split in (graph.train, graph.valid, graph.test):
        for head, relation, tail in split:
            graph.filter_tails.setdefault((int(head), int(relation)), set()).add(int(tail))
            graph.filter_heads.setdefault((int(relation), int(tail)), set()).add(int(head))
