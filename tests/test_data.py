import numpy as np
import pytest
from hypothesis import given, strategies as st

from litrel.data import (
    KnowledgeGraph,
    Vocab,
    build_graph,
    date_to_decimal,
    load_literals,
    load_triples,
)
from litrel.errors import ParseError, ValidationError


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadTriples:
    def test_basic_line(self, tmp_path):
        path = write(tmp_path, "t.tsv", "Alice\trents\tHouse1\n")
        assert load_triples(path) == [("Alice", "rents", "House1")]

    def test_empty_file(self, tmp_path):
        assert load_triples(write(tmp_path, "t.tsv", "")) == []

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
        assert load_triples(path) == [("a", "r", "b"), ("a", "r", "b"), ("c", "r", "d")]


class TestLoadLiterals:
    def test_basic_parse(self, tmp_path):
        path = write(tmp_path, "l.tsv", "Alice\tmonthlyIncome\t3000\n")
        assert load_literals(path) == [("Alice", "monthlyIncome", 3000.0)]

    def test_scientific_notation(self, tmp_path):
        path = write(tmp_path, "l.tsv", "House1\tmonthlyRent\t1e3\n")
        assert load_literals(path) == [("House1", "monthlyRent", 1000.0)]

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


class TestDateToDecimal:
    @pytest.mark.parametrize(
        "ymd,expected",
        [((2001, 5, 17), 2001.0517), ((1999, 12, 31), 1999.1231), ((2000, 1, 1), 2000.0101)],
    )
    def test_fixed_positions(self, ymd, expected):
        assert date_to_decimal(*ymd) == expected

    def test_invalid_date(self):
        with pytest.raises(ValidationError):
            date_to_decimal(2001, 2, 30)


class TestBuildGraph:
    def test_minmax_normalization(self):
        graph = build_graph(
            [("e1", "r", "e2")], [], [],
            [("e1", "a", 10.0), ("e2", "a", 30.0), ("e3", "a", 20.0)],
        )
        col = graph.literals.values[:, graph.attributes["a"]]
        by_label = {e: col[graph.entities[e]] for e in ("e1", "e2", "e3")}
        assert by_label == {"e1": 0.0, "e2": 1.0, "e3": 0.5}

    def test_constant_column_normalizes_to_zero(self):
        graph = build_graph([("e1", "r", "e1")], [], [], [("e1", "a", 42.0)])
        e, a = graph.entities["e1"], graph.attributes["a"]
        assert graph.literals.values[e, a] == 0.0
        assert graph.literals.present[e, a]

    def test_mask_matches_assertions(self, toy_graph):
        present = toy_graph.literals.present
        assert present.sum() == 5
        assert present[toy_graph.entities["alice"], toy_graph.attributes["income"]]
        assert not present[toy_graph.entities["alice"], toy_graph.attributes["rent"]]

    def test_filter_index_covers_all_splits(self, toy_graph):
        for split in (toy_graph.train, toy_graph.valid, toy_graph.test):
            for h, r, t in split:
                assert toy_graph.contains(int(h), int(r), int(t))

    def test_duplicate_triples_deduplicated_with_warning(self, caplog):
        graph = build_graph([("a", "r", "b"), ("a", "r", "b")], [], [], [])
        assert graph.train.shape[0] == 1
        assert any("duplicate triple" in r.message for r in caplog.records)

    def test_duplicate_literal_last_write_wins(self, caplog):
        graph = build_graph(
            [("a", "r", "b")], [], [], [("a", "x", 1.0), ("a", "x", 9.0), ("b", "x", 0.0)]
        )
        # raw 9.0 is the column max -> normalizes to 1.0
        assert graph.literals.values[graph.entities["a"], graph.attributes["x"]] == 1.0
        assert any("duplicate literal" in r.message for r in caplog.records)

    def test_vocabulary_covers_literal_only_entities(self):
        graph = build_graph([("a", "r", "b")], [], [], [("ghost", "x", 1.0)])
        assert "ghost" in graph.entities

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
        assert loaded.entities == toy_graph.entities
        assert loaded.relations == toy_graph.relations
        assert loaded.attributes == toy_graph.attributes
        np.testing.assert_array_equal(loaded.train, toy_graph.train)
        np.testing.assert_array_equal(loaded.test, toy_graph.test)
        np.testing.assert_array_equal(loaded.literals.values, toy_graph.literals.values)
        assert loaded.filter_tails == toy_graph.filter_tails

    def test_vocab_round_trip(self, tmp_path):
        vocab = Vocab.from_items(["b", "a", "c"])
        vocab.save(str(tmp_path / "v.txt"))
        assert Vocab.load(str(tmp_path / "v.txt")) == vocab

    def test_index_order_independent_of_input_order(self):
        g1 = build_graph([("a", "r", "b"), ("c", "r", "d")], [], [], [])
        g2 = build_graph([("c", "r", "d"), ("a", "r", "b")], [], [], [])
        assert g1.entities == g2.entities
