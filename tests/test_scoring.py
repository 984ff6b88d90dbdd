import numpy as np
import pytest

from litrel.errors import ShapeError
from litrel.scoring import (
    EmbeddingTables,
    make_model,
    score_all_heads,
    score_all_tails,
    similarities_backward,
)

# spec id -> (model kind, transe norm, D_e, D_r)
MODEL_SPECS = {
    "transe": ("transe", 2, 6, 6),
    "transe_l1": ("transe", 1, 6, 6),
    "distmult": ("distmult", 2, 6, 6),
    "complex": ("complex", 2, 6, 6),
    "rotate": ("rotate", 2, 6, 3),
    "tucker": ("tucker", 2, 6, 4),
}


def spec_model(spec):
    kind, norm, _, _ = MODEL_SPECS[spec]
    return make_model(kind, transe_norm=norm)


def random_tables(rng, spec, num_entities=5):
    kind, _, dim_e, dim_r = MODEL_SPECS[spec]
    core = rng.normal(size=(dim_e, dim_r, dim_e)) if kind == "tucker" else None
    return EmbeddingTables(
        entity=rng.normal(size=(num_entities, dim_e)),
        relation=rng.normal(size=(2, dim_r)),
        core=core,
    )


def as_complex(row):
    m = row.shape[0] // 2
    return row[:m] + 1j * row[m:]


def reference_score(spec, tables, h, t, r_lit):
    """Closed-form score of one triple (h, r, t), written per model."""
    kind, norm, _, _ = MODEL_SPECS[spec]
    e_h, e_t = tables.entity[h], tables.entity[t]
    if kind == "transe":
        diff = e_h + r_lit - e_t
        return -np.abs(diff).sum() if norm == 1 else -np.sqrt(np.sum(diff ** 2))
    if kind == "distmult":
        return np.sum(e_h * r_lit * e_t)
    if kind == "complex":
        return np.real(np.sum(as_complex(e_h) * as_complex(r_lit) * np.conj(as_complex(e_t))))
    if kind == "rotate":
        return -np.sqrt(np.sum(np.abs(as_complex(e_h) * np.exp(1j * r_lit) - as_complex(e_t)) ** 2))
    return np.einsum("p,pqs,q,s->", e_h, tables.core, r_lit, e_t)


def tail_score(h, r_lit, t, model, tables):
    return score_all_tails(h, r_lit, model, tables)[t]


class TestSingleScores:
    def test_transe_zero_vectors(self):
        tables = EmbeddingTables(entity=np.zeros((2, 2)), relation=np.zeros((1, 2)))
        model = make_model("transe")
        assert tail_score(0, np.zeros(2), 1, model, tables) == 0.0

    def test_transe_perfect_translation(self):
        tables = EmbeddingTables(
            entity=np.array([[1.0, 0.0], [1.0, 1.0]]), relation=np.zeros((1, 2))
        )
        model = make_model("transe")
        assert tail_score(0, np.array([0.0, 1.0]), 1, model, tables) == 0.0

    def test_distmult_hand_arithmetic(self):
        tables = EmbeddingTables(
            entity=np.array([[1.0, 2.0], [5.0, 6.0]]), relation=np.zeros((1, 2))
        )
        model = make_model("distmult")
        assert tail_score(0, np.array([3.0, 4.0]), 1, model, tables) == 63.0

    def test_distmult_symmetry(self, rng):
        tables = random_tables(rng, "distmult")
        model = make_model("distmult")
        r_lit = rng.normal(size=6)
        for h in range(5):
            for t in range(5):
                assert tail_score(h, r_lit, t, model, tables) == pytest.approx(
                    tail_score(t, r_lit, h, model, tables)
                )

    def test_complex_matches_complex_arithmetic(self, rng):
        tables = random_tables(rng, "complex")
        model = make_model("complex")
        r_lit = rng.normal(size=6)
        h_c = tables.entity[0, :3] + 1j * tables.entity[0, 3:]
        t_c = tables.entity[1, :3] + 1j * tables.entity[1, 3:]
        r_c = r_lit[:3] + 1j * r_lit[3:]
        expected = np.real(np.sum(h_c * r_c * np.conj(t_c)))
        assert tail_score(0, r_lit, 1, model, tables) == pytest.approx(expected)

    def test_rotate_preserves_modulus(self, rng):
        tables = random_tables(rng, "rotate")
        phases = rng.uniform(-np.pi, np.pi, size=3)
        a, b = tables.entity[0, :3], tables.entity[0, 3:]
        ra = a * np.cos(phases) - b * np.sin(phases)
        rb = a * np.sin(phases) + b * np.cos(phases)
        np.testing.assert_allclose(ra**2 + rb**2, a**2 + b**2, atol=1e-12)

    def test_rotate_phase_periodicity(self, rng):
        tables = random_tables(rng, "rotate")
        model = make_model("rotate")
        phases = rng.uniform(-np.pi, np.pi, size=3)
        s1 = tail_score(0, phases, 1, model, tables)
        s2 = tail_score(0, phases + 2 * np.pi, 1, model, tables)
        assert s1 == pytest.approx(s2, abs=1e-9)

    def test_rotate_phase_length_checked(self, rng):
        tables = random_tables(rng, "rotate")
        model = make_model("rotate")
        with pytest.raises(ShapeError, match="phase"):
            score_all_tails(0, np.zeros(6), model, tables)
        with pytest.raises(ShapeError, match="phase"):
            score_all_heads(1, np.zeros(6), model, tables)

    def test_tucker_requires_core(self):
        tables = EmbeddingTables(entity=np.zeros((2, 2)), relation=np.zeros((1, 2)))
        with pytest.raises(ShapeError, match="core"):
            score_all_tails(0, np.zeros(2), make_model("tucker"), tables)
        with pytest.raises(ShapeError, match="core"):
            score_all_heads(1, np.zeros(2), make_model("tucker"), tables)

    def test_tucker_matches_einsum(self, rng):
        tables = random_tables(rng, "tucker")
        model = make_model("tucker")
        r_lit = rng.normal(size=4)
        expected = np.einsum(
            "p,pqs,q,s->", tables.entity[0], tables.core, r_lit, tables.entity[1]
        )
        assert tail_score(0, r_lit, 1, model, tables) == pytest.approx(expected)

    def test_transe_l1_config(self):
        tables = EmbeddingTables(
            entity=np.array([[0.0, 0.0], [1.0, -2.0]]), relation=np.zeros((1, 2))
        )
        model = make_model("transe", transe_norm=1)
        assert tail_score(0, np.zeros(2), 1, model, tables) == -3.0


class TestBatchedScoring:
    @pytest.mark.parametrize("spec", list(MODEL_SPECS))
    def test_all_tails_matches_loop(self, spec, rng):
        tables = random_tables(rng, spec)
        model = spec_model(spec)
        r_lit = rng.normal(size=MODEL_SPECS[spec][3])
        batched = score_all_tails(0, r_lit, model, tables)
        assert batched.shape == (5,)
        looped = [reference_score(spec, tables, 0, t, r_lit) for t in range(5)]
        np.testing.assert_allclose(batched, looped, atol=1e-9)

    @pytest.mark.parametrize("spec", list(MODEL_SPECS))
    def test_all_heads_matches_loop(self, spec, rng):
        tables = random_tables(rng, spec)
        model = spec_model(spec)
        r_lit = rng.normal(size=MODEL_SPECS[spec][3])
        batched = score_all_heads(1, r_lit, model, tables)
        assert batched.shape == (5,)
        looped = [reference_score(spec, tables, h, 1, r_lit) for h in range(5)]
        np.testing.assert_allclose(batched, looped, atol=1e-9)

    def test_distmult_heads_equals_tails_swapped(self, rng):
        tables = random_tables(rng, "distmult")
        model = make_model("distmult")
        r_lit = rng.normal(size=6)
        np.testing.assert_allclose(
            score_all_heads(2, r_lit, model, tables),
            score_all_tails(2, r_lit, model, tables),
        )

    def test_transe_translation_hits_maximum(self):
        # entity 2 sits exactly at e_0 + r: its tail score is the max (0)
        entity = np.array([[0.0, 0.0], [3.0, 3.0], [1.0, 2.0]])
        tables = EmbeddingTables(entity=entity, relation=np.zeros((1, 2)))
        scores = score_all_tails(0, np.array([1.0, 2.0]), make_model("transe"), tables)
        assert scores[2] == 0.0
        assert scores.argmax() == 2


class TestBackwardPasses:
    @pytest.mark.parametrize("spec", list(MODEL_SPECS))
    @pytest.mark.parametrize("side", ["tails", "heads"])
    def test_weighted_gradients_match_finite_differences(self, spec, side, rng):
        tables = random_tables(rng, spec)
        model = spec_model(spec)
        r_lit = rng.normal(size=MODEL_SPECS[spec][3])
        g = rng.normal(size=5)
        anchor = 1
        query_side = side[:-1]  # "tail" or "head"

        def objective():
            if side == "tails":
                return float(g @ score_all_tails(anchor, r_lit, model, tables))
            return float(g @ score_all_heads(anchor, r_lit, model, tables))

        d_entity = np.zeros_like(tables.entity)
        d_core = np.zeros_like(tables.core) if tables.core is not None else None
        q = model.query(tables, anchor, r_lit, query_side)
        d_q = similarities_backward(model.norm, q, tables.entity, g, d_entity)
        d_r_lit = model.query_backward(tables, anchor, r_lit, query_side, d_q, d_entity, d_core)

        h = 1e-6
        tensors = [(tables.entity, d_entity), (r_lit, d_r_lit)]
        if tables.core is not None:
            tensors.append((tables.core, d_core))
        for tensor, analytic in tensors:
            flat = tensor.reshape(-1)
            aflat = np.asarray(analytic).reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                plus = objective()
                flat[i] = orig - h
                minus = objective()
                flat[i] = orig
                num = (plus - minus) / (2 * h)
                assert abs(num - aflat[i]) <= 1e-4 * max(1e-5, abs(num), abs(aflat[i]))
