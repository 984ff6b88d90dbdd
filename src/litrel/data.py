"""Loading, indexing and normalization of triples and numeric literals.

File formats are plain UTF-8 text, one record per line, tab-separated:

* triple file:   ``head<TAB>relation<TAB>tail``
* literal file:  ``entity<TAB>attribute<TAB>value`` with a decimal or
  scientific-notation real value

The readers take a file in chunks of whole lines and split each chunk
in bulk (:func:`_chunk_columns`, which the node-label reader of
:mod:`litrel.downstream` shares), interning labels into integer ids
(:class:`Records`); only the error path reads a file line by line, to
name the line that failed.

A preprocessed graph serializes to a directory holding one vocabulary
text file per vocabulary (line number = index) and an ``arrays.npz``
dump of the triple stores and the normalized literal matrix.
"""

from __future__ import annotations

import hashlib
import logging
import math
import os
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, count

import numpy as np

from litrel.errors import ParseError, ValidationError
from litrel.serialize import array_fault, load_arrays, load_json, save_arrays, save_json

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

    # newline="\n": only "\n" ends a line, so a "\r" inside a label survives
    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for label in self.labels:
                fh.write(label + "\n")

    @classmethod
    def load(cls, path: str) -> "Vocab":
        try:
            with open(path, encoding="utf-8", newline="\n") as fh:
                return cls(filter(None, fh.read().split("\n")))
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
        return {"train": self.train, "valid": self.valid, "test": self.test}[name]

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
        """Read an artifact written by :meth:`save` and check it against ``graph.json``.

        The splits may hold any integer dtype; they are cast to int64 here,
        once, so the keys built from them (``r * |E| + e``) cannot overflow.
        """
        entities = Vocab.load(os.path.join(directory, "entities.txt"))
        relations = Vocab.load(os.path.join(directory, "relations.txt"))
        attributes = Vocab.load(os.path.join(directory, "attributes.txt"))
        arrays = load_arrays(os.path.join(directory, "arrays"))
        _check_artifact(directory, entities, relations, attributes, arrays)
        return cls(
            entities=entities,
            relations=relations,
            attributes=attributes,
            train=arrays["train"].astype(np.int64, copy=False),
            valid=arrays["valid"].astype(np.int64, copy=False),
            test=arrays["test"].astype(np.int64, copy=False),
            literals=LiteralMatrix(
                values=arrays["literal_values"],
                present=arrays["literal_present"],
                raw_min=arrays["raw_min"],
                raw_max=arrays["raw_max"],
            ),
        )


def vocabulary_digests(directory: str) -> dict[str, str]:
    """SHA-256 hex digest of each vocabulary file of an artifact, by file name."""
    digests = {}
    for name in ("entities.txt", "relations.txt", "attributes.txt"):
        with open(os.path.join(directory, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def _check_artifact(directory: str, entities: Vocab, relations: Vocab, attributes: Vocab,
                    arrays: dict[str, np.ndarray]) -> None:
    """Reject an artifact whose version, sizes, arrays or triple indices disagree with its vocabularies.

    Each array of :meth:`KnowledgeGraph.save` must be there, of its
    dtype and of its shape: a split (N, 3) integers, the literal values
    (|E|, |A|) float64, their presence mask (|E|, |A|) bool and the raw
    column minima and maxima (|A|,) float64.
    """
    meta_path = os.path.join(directory, "graph.json")
    meta = load_json(meta_path)
    if not isinstance(meta, dict):
        meta = {}
    if meta.get("version") != ARTIFACT_VERSION:
        raise ValidationError(
            f"{meta_path}: artifact version {meta.get('version')!r} is not supported "
            f"(expected {ARTIFACT_VERSION}); run preprocess again"
        )
    sizes = {"entities": len(entities), "relations": len(relations), "attributes": len(attributes)}
    for name, size in sizes.items():
        if meta.get(name) != size:
            raise ValidationError(f"{meta_path}: records {meta.get(name)!r} {name}, "
                                  f"but {name}.txt holds {size}")
    n_e, n_r, n_a = sizes.values()
    layout = {name: ("integer", ("N", 3)) for name in ("train", "valid", "test")} | {
        "literal_values": ("float64", (n_e, n_a)),
        "literal_present": ("bool", (n_e, n_a)),
        "raw_min": ("float64", (n_a,)),
        "raw_max": ("float64", (n_a,)),
    }
    for name, (dtype, shape) in layout.items():
        path = os.path.join(directory, "arrays", name + ".npy")
        if name not in arrays:
            raise ValidationError(f"{path} is missing")
        fault = array_fault(arrays[name], dtype, shape)
        if fault is not None:
            raise ValidationError(f"{path} {fault}")
    bounds = np.array([n_e, n_r, n_e])
    for name in ("train", "valid", "test"):
        triples = arrays[name]
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


def _undecodable(path: str, exc: UnicodeDecodeError) -> ParseError:
    """The error for a file that is not UTF-8, naming its first undecodable line."""
    # the same line splitting, with each undecodable byte read as a surrogate U+DC80..U+DCFF
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        lineno = next(lineno for lineno, line in enumerate(fh, start=1)
                      if any("\udc80" <= char <= "\udcff" for char in line))
    return ParseError(f"{path}:{lineno}: not UTF-8 text ({exc.reason})")


def read_tsv(path: str):
    """Yield ``(lineno, fields)`` for each non-empty line of a tab-separated UTF-8 file.

    The per-line reader of the error path: the bulk readers
    (:func:`_chunk_columns`) rescan a file with it to name the line that
    failed.  Bytes that are not UTF-8 raise a :class:`ParseError` naming
    the line.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if line:
                    yield lineno, line.split("\t")
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc) from None


CHUNK_CHARS = 1 << 16


def _line_chunks(path: str):
    """Yield the non-empty lines of a UTF-8 text file as lists, a chunk at a time.

    A chunk is about ``CHUNK_CHARS`` characters of whole lines, so a file
    is never read all at once.  A line ends at ``\n``, ``\r\n`` or a
    lone ``\r``, as :func:`read_tsv` counts them.  Bytes that are not
    UTF-8 raise a :class:`ParseError` naming the line.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            while chunk := fh.read(CHUNK_CHARS) + fh.readline():
                lines = list(filter(None, chunk.split("\n")))
                if lines:
                    yield lines
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc) from None


def _rescan(path: str, check) -> ParseError:
    """The error ``check(lineno, fields)`` raises on the first bad line of ``path``."""
    for lineno, fields in read_tsv(path):
        check(lineno, fields)
    return ParseError(f"{path}: changed while it was read")


def _chunk_columns(path: str, check, label_fields: int):
    """Yield the three field columns of each chunk of a three-field file, as lists.

    Each chunk is split once.  A line must hold 3 tab-separated fields,
    the first ``label_fields`` of them non-empty; when a chunk holds a
    line that does not, :func:`_rescan` finds the first bad line of the
    file with ``check``.
    """
    for lines in _line_chunks(path):
        # a "\n" field between lines: each line has 3 fields iff they sit at every 4th place
        fields = "\t\n\t".join(lines).split("\t")
        if len(fields) != 4 * len(lines) - 1 or fields[3::4].count("\n") != len(lines) - 1:
            raise _rescan(path, check)
        columns = [fields[i::4] for i in range(3)]
        if any("" in column for column in columns[:label_fields]):
            raise _rescan(path, check)
        yield columns


# the label table of each label field: entities 0, relations or attributes 1
_KINDS = {False: (0, 1, 0), True: (0, 1)}


def _tables():
    """Two empty label tables; looking up a new label gives it the next id."""
    return defaultdict(count().__next__), defaultdict(count().__next__)


def _interned(tables, kinds, columns) -> np.ndarray:
    """(n, len(kinds)) ids of the label columns, each interned in ``tables[kind]``."""
    return np.stack([np.fromiter(map(tables[kind].__getitem__, column), np.int64, len(column))
                     for kind, column in zip(kinds, columns)], axis=1)


@dataclass
class Records:
    """The records of one input file, with their labels interned as ids.

    ``ids`` has one row per record, in file order: (head, relation, tail)
    for a triple file, (entity, attribute) for a literal file.  Column 1
    indexes ``labels[1]`` (relation or attribute labels), the other
    columns index ``labels[0]`` (entity labels); an id is the order of
    the label's first appearance.  A literal file's values are
    ``values``, one per record.
    """

    ids: np.ndarray  # int64, (n, 3) or (n, 2)
    labels: tuple[list[str], list[str]]
    values: np.ndarray | None = None  # float64, (n,)


def _load_records(path: str, check, literal: bool) -> Records:
    """Parse a three-field file in bulk, a chunk of lines at a time.

    Each chunk's labels (:func:`_chunk_columns`) are interned through one
    table per label kind and its values parsed with ``float``.  When a
    chunk holds a bad line, :func:`_rescan` finds the first one with
    ``check``.
    """
    tables = _tables()
    kinds = _KINDS[literal]
    ids, values = [], []
    for columns in _chunk_columns(path, check, len(kinds)):
        ids.append(_interned(tables, kinds, columns))
        if literal:
            try:
                values.append(np.fromiter(map(float, columns[2]), np.float64, len(columns[2])))
            except ValueError:
                raise _rescan(path, check) from None
            if not np.isfinite(values[-1]).all():
                raise _rescan(path, check)
    ids = np.concatenate(ids) if ids else np.empty((0, len(kinds)), dtype=np.int64)
    return Records(ids, (list(tables[0]), list(tables[1])),
                   np.concatenate(values or [np.empty(0)]) if literal else None)


def load_triples(path: str) -> Records:
    """Read a tab-separated triple file into (head, relation, tail) records.

    Order and duplicates are preserved; deduplication happens in
    :func:`build_graph` where it can be reported.
    """
    def check(lineno, fields):
        if len(fields) != 3 or "" in fields:
            raise _bad_line(path, lineno, fields, ("head", "relation", "tail"))

    return _load_records(path, check, literal=False)


def load_literals(path: str) -> Records:
    """Read a literal file into (entity, attribute) records and their values.

    Values parse as Python ``float`` does (``1e3``, ``1_000``).
    Non-finite values are rejected: the literal matrix must stay finite.
    """
    def check(lineno, fields):
        if len(fields) != 3 or not fields[0] or not fields[1]:
            raise _bad_line(path, lineno, fields, ("entity", "attribute"))
        token = fields[2]
        try:
            value = float(token)
        except ValueError:
            raise ParseError(f"{path}:{lineno}: cannot parse numeric value {token!r}") from None
        if not math.isfinite(value):
            raise ParseError(f"{path}:{lineno}: non-finite value {token!r}")

    return _load_records(path, check, literal=True)


def _records(rows, literal: bool) -> Records:
    """``rows`` as :class:`Records`: records as they are, else a sequence of label tuples."""
    if isinstance(rows, Records):
        return rows
    columns = list(zip(*rows)) or [()] * 3
    tables = _tables()
    ids = _interned(tables, _KINDS[literal], columns)
    return Records(ids, (list(tables[0]), list(tables[1])),
                   np.array(columns[2], dtype=np.float64) if literal else None)


def _repeated(rows: np.ndarray) -> np.ndarray:
    """Mask of the rows of an integer array that equal an earlier row."""
    order = np.lexsort(rows.T)  # stable: equal rows stay in input order
    ordered = rows[order]
    repeated = np.zeros(len(rows), dtype=bool)
    repeated[order[1:][(ordered[1:] == ordered[:-1]).all(axis=1)]] = True
    return repeated


def build_graph(train, valid, test, literals) -> KnowledgeGraph:
    """Index triples and literals into a KnowledgeGraph.

    Each split is :class:`Records` from :func:`load_triples` or a
    sequence of (head, relation, tail) labels; ``literals`` is
    :class:`Records` from :func:`load_literals` or a sequence of
    (entity, attribute, value).  Vocabularies cover every label
    appearing in any split or literal record, so valid/test entities are
    always resolvable.  Duplicate triples within a split and repeated
    (entity, attribute) literal assertions are reported via logging; the
    latter resolve last-write-wins.  Normalization statistics use the
    full literal set.
    """
    splits = [_records(split, literal=False) for split in (train, valid, test)]
    literals = _records(literals, literal=True)
    entities = Vocab.from_items(chain.from_iterable(r.labels[0] for r in (*splits, literals)))
    relations = Vocab.from_items(chain.from_iterable(r.labels[1] for r in splits))
    attributes = Vocab.from_items(literals.labels[1])

    def indexed(records, vocabs):
        """The records' ids as vocabulary indices, column by column."""
        lookup = [np.fromiter(map(vocab.index.__getitem__, labels), np.int64, len(labels))
                  for vocab, labels in zip(vocabs, records.labels)]
        kinds = _KINDS[records.values is not None]
        return np.stack([lookup[kind][records.ids[:, j]] for j, kind in enumerate(kinds)], axis=1)

    def index_split(records, name):
        rows = indexed(records, (entities, relations))
        repeated = _repeated(rows)
        for i in np.flatnonzero(repeated):
            h, r, t = rows[i]
            logger.warning("duplicate triple in %s split: (%s, %s, %s)", name,
                           entities.labels[h], relations.labels[r], entities.labels[t])
        return rows[~repeated]

    train_idx, valid_idx, test_idx = map(index_split, splits, ("train", "valid", "test"))

    cells = indexed(literals, (entities, attributes))
    values = literals.values
    repeated = _repeated(cells)
    for i in np.flatnonzero(repeated):
        e, a = cells[i]
        logger.warning("duplicate literal for (%s, %s): keeping later value %r",
                       entities.labels[e], attributes.labels[a], float(values[i]))
    if repeated.any():
        last = ~_repeated(cells[::-1])[::-1]
        cells, values = cells[last], values[last]
    shape = (len(entities), len(attributes))
    raw = np.zeros(shape, dtype=np.float64)
    present = np.zeros(shape, dtype=bool)
    raw[cells[:, 0], cells[:, 1]] = values
    present[cells[:, 0], cells[:, 1]] = True

    seen = present.any(axis=0)
    raw_min = np.where(seen, raw.min(axis=0, where=present, initial=np.inf), 0.0)
    raw_max = np.where(seen, raw.max(axis=0, where=present, initial=-np.inf), 0.0)
    # a constant column (raw_max == raw_min) normalizes to 0 to keep the matrix finite
    spread = raw_max > raw_min
    values = np.where(present & spread,
                      (raw - raw_min) / np.where(spread, raw_max - raw_min, 1.0), 0.0)

    return KnowledgeGraph(
        entities=entities,
        relations=relations,
        attributes=attributes,
        train=train_idx,
        valid=valid_idx,
        test=test_idx,
        literals=LiteralMatrix(values=values, present=present, raw_min=raw_min, raw_max=raw_max),
    )
