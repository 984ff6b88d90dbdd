import logging
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from litrel.data import (
    KnowledgeGraph,
    Vocab,
    build_graph,
    load_literals,
    load_triples,
    read_tsv,
)
from litrel.errors import ParseError, ValidationError
from litrel.serialize import array_fault


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def rows(records):
    """The records as label tuples in file order; a literal's third field is its value."""
    entities, others = records.labels
    tables = (entities, others, entities)
    labels = [tuple(tables[j][i] for j, i in enumerate(row)) for row in records.ids.tolist()]
    if records.values is None:
        return labels
    return [(entity, attribute, value)
            for (entity, attribute), value in zip(labels, records.values.tolist())]


class TestLoadTriples:
    def test_basic_line(self, tmp_path):
        path = write(tmp_path, "t.tsv", "Alice\trents\tHouse1\n")
        assert rows(load_triples(path)) == [("Alice", "rents", "House1")]

    def test_empty_file(self, tmp_path):
        assert rows(load_triples(write(tmp_path, "t.tsv", ""))) == []

    def test_wrong_field_count_names_line(self, tmp_path):
        path = write(tmp_path, "t.tsv", "a\tr\tb\nbad\tline\n")
        with pytest.raises(ParseError, match=":2:"):
            load_triples(path)

    @pytest.mark.parametrize("line, field", [
        ("\tr\tc", "head"), ("a\t\tc", "relation"), ("a\tr\t", "tail"),
    ], ids=["head", "relation", "tail"])
    def test_empty_label_names_line_and_field(self, tmp_path, line, field):
        # an empty label would be dropped by Vocab.load and shift every index
        path = write(tmp_path, "t.tsv", f"a\tr\tb\n{line}\n")
        with pytest.raises(ParseError, match=f":2: empty {field} label"):
            load_triples(path)

    def test_preserves_order_and_duplicates(self, tmp_path):
        path = write(tmp_path, "t.tsv", "a\tr\tb\na\tr\tb\nc\tr\td\n")
        assert rows(load_triples(path)) == [("a", "r", "b"), ("a", "r", "b"), ("c", "r", "d")]


class TestLoadLiterals:
    def test_basic_parse(self, tmp_path):
        path = write(tmp_path, "l.tsv", "Alice\tmonthlyIncome\t3000\n")
        assert rows(load_literals(path)) == [("Alice", "monthlyIncome", 3000.0)]

    def test_scientific_notation(self, tmp_path):
        path = write(tmp_path, "l.tsv", "House1\tmonthlyRent\t1e3\n")
        assert rows(load_literals(path)) == [("House1", "monthlyRent", 1000.0)]

    def test_nan_rejected(self, tmp_path):
        path = write(tmp_path, "l.tsv", "Alice\tmonthlyIncome\tNaN\n")
        with pytest.raises(ParseError, match="non-finite"):
            load_literals(path)

    @pytest.mark.parametrize("line, field", [
        ("\tincome\t1", "entity"), ("Alice\t\t1", "attribute"),
    ], ids=["entity", "attribute"])
    def test_empty_label_names_line_and_field(self, tmp_path, line, field):
        path = write(tmp_path, "l.tsv", f"Alice\tincome\t2\n{line}\n")
        with pytest.raises(ParseError, match=f":2: empty {field} label"):
            load_literals(path)

    def test_garbage_value_names_token(self, tmp_path):
        path = write(tmp_path, "l.tsv", "Alice\tmonthlyIncome\tabc\n")
        with pytest.raises(ParseError, match="'abc'"):
            load_literals(path)


class TestBuildGraph:
    def test_minmax_normalization(self):
        graph = build_graph(
            [("e1", "r", "e2")], [], [],
            [("e1", "a", 10.0), ("e2", "a", 30.0), ("e3", "a", 20.0)],
        )
        col = graph.literals.values[:, graph.attributes.index["a"]]
        by_label = {e: col[graph.entities.index[e]] for e in ("e1", "e2", "e3")}
        assert by_label == {"e1": 0.0, "e2": 1.0, "e3": 0.5}

    def test_constant_column_normalizes_to_zero(self):
        graph = build_graph([("e1", "r", "e1")], [], [], [("e1", "a", 42.0)])
        e, a = graph.entities.index["e1"], graph.attributes.index["a"]
        assert graph.literals.values[e, a] == 0.0
        assert graph.literals.present[e, a]

    def test_mask_matches_assertions(self, toy_graph):
        present = toy_graph.literals.present
        assert present.sum() == 5
        assert present[toy_graph.entities.index["alice"], toy_graph.attributes.index["income"]]
        assert not present[toy_graph.entities.index["alice"], toy_graph.attributes.index["rent"]]

    def test_duplicate_triples_deduplicated_with_warning(self, caplog):
        graph = build_graph([("a", "r", "b"), ("a", "r", "b")], [], [], [])
        assert graph.train.shape[0] == 1
        assert any("duplicate triple" in r.message for r in caplog.records)

    def test_duplicate_literal_last_write_wins(self, caplog):
        graph = build_graph(
            [("a", "r", "b")], [], [], [("a", "x", 1.0), ("a", "x", 9.0), ("b", "x", 0.0)]
        )
        # raw 9.0 is the column max -> normalizes to 1.0
        assert graph.literals.values[graph.entities.index["a"], graph.attributes.index["x"]] == 1.0
        assert any("duplicate literal" in r.message for r in caplog.records)

    def test_vocabulary_covers_literal_only_entities(self):
        graph = build_graph([("a", "r", "b")], [], [], [("ghost", "x", 1.0)])
        assert "ghost" in graph.entities.index

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=20))
    def test_normalization_idempotent(self, raw):
        literals = [(f"e{i}", "a", v) for i, v in enumerate(raw)]
        graph = build_graph([("e0", "r", "e0")], [], [], literals)
        col = graph.literals.values[:, 0]
        present = graph.literals.present[:, 0]
        vals = col[present]
        lo, hi = vals.min(), vals.max()
        renorm = (vals - lo) / (hi - lo) if hi > lo else np.zeros_like(vals)
        assert np.allclose(renorm, vals, atol=1e-12)


class TestSerialization:
    def test_round_trip(self, toy_graph, tmp_path):
        directory = str(tmp_path / "artifact")
        toy_graph.save(directory)
        loaded = KnowledgeGraph.load(directory)
        assert loaded.entities.labels == toy_graph.entities.labels
        assert loaded.relations.labels == toy_graph.relations.labels
        assert loaded.attributes.labels == toy_graph.attributes.labels
        np.testing.assert_array_equal(loaded.train, toy_graph.train)
        np.testing.assert_array_equal(loaded.valid, toy_graph.valid)
        np.testing.assert_array_equal(loaded.test, toy_graph.test)
        np.testing.assert_array_equal(loaded.literals.values, toy_graph.literals.values)

    def test_vocab_round_trip(self, tmp_path):
        vocab = Vocab.from_items(["b", "a", "c"])
        vocab.save(str(tmp_path / "v.txt"))
        assert Vocab.load(str(tmp_path / "v.txt")).labels == vocab.labels

    def test_vocab_load_skips_blank_lines_and_keeps_carriage_returns(self, tmp_path):
        # only "\n" ends a line: a "\r" stays in its label, and a last line needs no "\n"
        path = tmp_path / "v.txt"
        path.write_bytes(b"\na\r\n\n\nb\rc\n\rd\ne")
        assert Vocab.load(str(path)).labels == ["a\r", "b\rc", "\rd", "e"]
        path.write_bytes(b"")
        assert Vocab.load(str(path)).labels == []

    def test_index_order_independent_of_input_order(self):
        g1 = build_graph([("a", "r", "b"), ("c", "r", "d")], [], [], [])
        g2 = build_graph([("c", "r", "d"), ("a", "r", "b")], [], [], [])
        assert g1.entities.labels == g2.entities.labels


class TestArrayFault:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_float_is_a_fault(self, bad):
        array = np.zeros((3, 2))
        array[1, 1] = bad
        assert array_fault(array, "float64", ("|E|", 2)) == "holds a non-finite value"

    def test_finite_and_empty_arrays_pass(self):
        assert array_fault(np.linspace(-1.0, 1.0, 6).reshape(3, 2), "float64", ("|E|", 2)) is None
        assert array_fault(np.zeros((0, 2)), "float64", ("|E|", 2)) is None
        assert array_fault(np.arange(6).reshape(2, 3), "integer", ("N", 3)) is None


# any label a vocabulary file can hold: one label per line
LABELS = st.text(min_size=1, max_size=6).filter(lambda label: "\n" not in label)


class TestLabelRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.tuples(LABELS, LABELS, LABELS), min_size=1, max_size=8),
        st.lists(st.tuples(LABELS, LABELS, st.floats(-1e3, 1e3)), max_size=6),
    )
    def test_build_save_load_keeps_vocabularies_and_triples(self, triples, literals):
        graph = build_graph(triples, triples[:1], triples[-1:], literals)
        with tempfile.TemporaryDirectory() as directory:
            graph.save(directory)
            loaded = KnowledgeGraph.load(directory)
        for name in ("entities", "relations", "attributes"):
            assert getattr(loaded, name).labels == getattr(graph, name).labels
        for split in ("train", "valid", "test"):
            np.testing.assert_array_equal(loaded.split(split), graph.split(split))
        e, r = loaded.entities.labels, loaded.relations.labels
        assert {(e[h], r[rel], e[t]) for h, rel, t in loaded.train} == set(triples)

    @pytest.mark.parametrize("label", ["", "two\nlines"], ids=["empty", "newline"])
    def test_label_a_vocabulary_file_cannot_hold_is_rejected(self, label):
        with pytest.raises(ValidationError, match="label"):
            build_graph([("a", "r", label)], [], [], [])
        with pytest.raises(ValidationError, match="label"):
            build_graph([("a", "r", "b")], [], [], [("a", label, 1.0)])


FIELD = st.text(st.sampled_from("ab\x00é\x0b\x85 "), min_size=1, max_size=3)
ENDINGS = ["\n", "\r\n", "\r", "\n\n", "\r\r\n"]


class TestBulkReader:
    """Files of several chunks: the bulk path against what each line says."""

    @staticmethod
    def triple_lines(count):
        return [f"h{i % 97}\tr{i % 5}\tt{i}" for i in range(count)]

    @pytest.mark.parametrize("chunk", [1, 7, None], ids=["1", "7", "default"])
    def test_line_endings_and_blank_lines_across_chunks(self, tmp_path, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr("litrel.data.CHUNK_CHARS", chunk)
        lines = self.triple_lines(15000)
        endings = ["\n", "\r\n", "\r", "\n\n", "\r\n\r\n", "\r\r"]  # the last three add a blank line
        text = "".join(line + endings[i % len(endings)] for i, line in enumerate(lines))
        path = tmp_path / "t.tsv"
        path.write_bytes(text.encode("utf-8"))
        assert len(text) > 3 * 65536
        assert rows(load_triples(str(path))) == [tuple(line.split("\t")) for line in lines]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(FIELD, FIELD, FIELD, st.sampled_from(ENDINGS)), max_size=12),
           st.integers(1, 30))
    def test_matches_the_line_reader(self, lines, chunk):
        text = "".join("\t".join(fields) + ending for *fields, ending in lines)
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "t.tsv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            with mock.patch("litrel.data.CHUNK_CHARS", chunk):
                assert rows(load_triples(path)) == [tuple(fields) for *fields, _ in lines]
            assert [tuple(fields) for _, fields in read_tsv(path)] == rows(load_triples(path))

    def test_last_line_without_newline(self, tmp_path):
        path = write(tmp_path, "l.tsv", "a\tx\t1\n\nb\tx\t2")
        assert rows(load_literals(path)) == [("a", "x", 1.0), ("b", "x", 2.0)]

    @pytest.mark.parametrize("bad, message", [
        ("h\tr", "expected 3 tab-separated fields, got 2"),
        ("h\tr\tt\tx", "expected 3 tab-separated fields, got 4"),
        ("h\t\tt", "empty relation label"),
        ("\tr\tt", "empty head label"),
    ], ids=["two", "four", "relation", "head"])
    def test_bad_triple_after_the_first_chunk_names_its_line(self, tmp_path, bad, message):
        lines = self.triple_lines(12000)
        lines[9000] = ""          # blank lines count toward line numbers
        lines[10001] = bad
        lines[11000] = "only"     # a later bad line is not the one reported
        path = write(tmp_path, "t.tsv", "\n".join(lines) + "\n")
        assert os.path.getsize(path) > 65536 * 2
        with pytest.raises(ParseError) as info:
            load_triples(path)
        assert str(info.value) == f"{path}:10002: {message}"

    @pytest.mark.parametrize("bad, message", [
        ("e\ta\tabc", "cannot parse numeric value 'abc'"),
        ("e\ta\t", "cannot parse numeric value ''"),
        ("e\ta\tinf", "non-finite value 'inf'"),
        ("e\ta\tNaN", "non-finite value 'NaN'"),
        ("e\t\t1", "empty attribute label"),
        ("e\ta", "expected 3 tab-separated fields, got 2"),
    ], ids=["garbage", "empty", "inf", "nan", "attribute", "fields"])
    def test_bad_literal_after_the_first_chunk_names_its_line(self, tmp_path, bad, message):
        lines = [f"e{i}\ta{i % 7}\t{i * 0.5}" for i in range(20000)]
        lines[15000] = bad
        lines[17000] = "e\ta\tnope"
        path = write(tmp_path, "l.tsv", "\r\n".join(lines) + "\r\n")
        with pytest.raises(ParseError) as info:
            load_literals(path)
        assert str(info.value) == f"{path}:15001: {message}"

    def test_values_parse_as_python_float(self, tmp_path):
        path = write(tmp_path, "l.tsv", "a\tx\t1_000\nb\tx\t 2.5 \nc\tx\t-1E-3\nd\tx\t0x1\n")
        with pytest.raises(ParseError, match=":4: cannot parse numeric value '0x1'"):
            load_literals(path)
        path = write(tmp_path, "l.tsv", "a\tx\t1_000\nb\tx\t 2.5 \nc\tx\t-1E-3\n")
        assert rows(load_literals(path)) == [("a", "x", 1000.0), ("b", "x", 2.5), ("c", "x", -0.001)]

    def test_labels_keep_str_semantics(self, tmp_path):
        # numpy string arrays would drop the trailing NUL and merge "a\x00" into "a"
        text = "a\x00\tr\tb\na\tr\tb\nÄ\tréel\t日本\n"
        graph = build_graph(load_triples(write(tmp_path, "t.tsv", text)), [], [],
                            load_literals(write(tmp_path, "l.tsv", "a\x00\tx\x00\t1\na\tx\t2\n")))
        assert graph.entities.labels == ["a", "a\x00", "b", "Ä", "日本"]
        assert graph.relations.labels == ["r", "réel"]
        assert graph.attributes.labels == ["x", "x\x00"]
        assert graph.train.shape == (3, 3)
        assert graph.literals.present.sum() == 2

    def test_duplicate_warnings_keep_their_text_and_order(self, tmp_path, caplog):
        train = write(tmp_path, "train.tsv", "a\tr\tb\nc\tr\td\na\tr\tb\nc\tr\td\na\tr\tb\n")
        valid = write(tmp_path, "valid.tsv", "b\ts\ta\nb\ts\ta\n")
        literals = write(tmp_path, "l.tsv", "b\tx\t3\na\tx\t1.5\nb\tx\t1e1\na\tx\t2\nb\tx\t7\n")
        caplog.set_level(logging.WARNING, logger="litrel.data")
        graph = build_graph(load_triples(train), load_triples(valid), [], load_literals(literals))
        assert [r.getMessage() for r in caplog.records] == [
            "duplicate triple in train split: (a, r, b)",
            "duplicate triple in train split: (c, r, d)",
            "duplicate triple in train split: (a, r, b)",
            "duplicate triple in valid split: (b, s, a)",
            "duplicate literal for (b, x): keeping later value 10.0",
            "duplicate literal for (a, x): keeping later value 2.0",
            "duplicate literal for (b, x): keeping later value 7.0",
        ]
        e = graph.entities
        assert rows_of(graph.train, e, graph.relations) == [("a", "r", "b"), ("c", "r", "d")]
        # last write wins: a -> 2, b -> 7, normalized over [2, 7]
        x = graph.attributes.index["x"]
        assert graph.literals.values[e.index["a"], x] == 0.0
        assert graph.literals.values[e.index["b"], x] == 1.0
        assert (graph.literals.raw_min[x], graph.literals.raw_max[x]) == (2.0, 7.0)


def rows_of(triples, entities, relations):
    return [(entities.labels[h], relations.labels[r], entities.labels[t]) for h, r, t in triples]
