import numpy as np
import pytest

from litrel import scoring
from litrel.scoring import MODELS, EmbeddingTables, GradientBlocks

# model kind -> (D_e, D_r)
MODEL_SPECS = {
    "transe": (6, 6),
    "distmult": (6, 6),
    "complex": (6, 6),
    "rotate": (6, 3),
    "tucker": (6, 4),
}


def random_tables(rng, kind, num_entities=5):
    dim_e, dim_r = MODEL_SPECS[kind]
    core = rng.normal(size=(dim_e, dim_r, dim_e)) if kind == "tucker" else None
    return EmbeddingTables(
        entity=rng.normal(size=(num_entities, dim_e)),
        relation=rng.normal(size=(2, dim_r)),
        core=core,
    )


def as_complex(row):
    m = row.shape[0] // 2
    return row[:m] + 1j * row[m:]


def reference_score(kind, tables, h, t, r_lit):
    """Closed-form score of one triple (h, r, t), written per model."""
    e_h, e_t = tables.entity[h], tables.entity[t]
    if kind == "transe":
        return -np.sqrt(np.sum((e_h + r_lit - e_t) ** 2))
    if kind == "distmult":
        return np.sum(e_h * r_lit * e_t)
    if kind == "complex":
        return np.real(np.sum(as_complex(e_h) * as_complex(r_lit) * np.conj(as_complex(e_t))))
    if kind == "rotate":
        return -np.sqrt(np.sum(np.abs(as_complex(e_h) * np.exp(1j * r_lit) - as_complex(e_t)) ** 2))
    return np.einsum("p,pqs,q,s->", e_h, tables.core, r_lit, e_t)


def lane_model(kind, tables):
    """A training lane's scoring model of ``kind``: TuckER's with its Khatri-Rao and core-product buffers."""
    return scoring.lanes(GradientBlocks, kind, tables)[0][1]


def all_scores(anchors, r_lit, model, tables, side):
    """B x |E| float64 scores of the ``side`` queries of ``anchors`` against every entity."""
    return GradientBlocks(model.norm, tables.entity).forward(model.query(tables, anchors, r_lit, side))


def tail_score(h, r_lit, t, model, tables):
    return all_scores(np.array([h]), r_lit[None, :], model, tables, "tail")[0, t]


class TestSingleScores:
    def test_transe_zero_vectors(self):
        tables = EmbeddingTables(entity=np.zeros((2, 2)), relation=np.zeros((1, 2)))
        model = MODELS["transe"]()
        assert tail_score(0, np.zeros(2), 1, model, tables) == 0.0

    def test_transe_perfect_translation(self):
        tables = EmbeddingTables(
            entity=np.array([[1.0, 0.0], [1.0, 1.0]]), relation=np.zeros((1, 2))
        )
        model = MODELS["transe"]()
        assert tail_score(0, np.array([0.0, 1.0]), 1, model, tables) == 0.0

    def test_transe_is_the_euclidean_distance(self):
        # |(0, 0) - (1, -2)| is sqrt(5) in L2; an L1 distance would read 3
        tables = EmbeddingTables(
            entity=np.array([[0.0, 0.0], [1.0, -2.0]]), relation=np.zeros((1, 2))
        )
        model = MODELS["transe"]()
        assert tail_score(0, np.zeros(2), 1, model, tables) == pytest.approx(-np.sqrt(5.0))

    def test_distmult_hand_arithmetic(self):
        tables = EmbeddingTables(
            entity=np.array([[1.0, 2.0], [5.0, 6.0]]), relation=np.zeros((1, 2))
        )
        model = MODELS["distmult"]()
        assert tail_score(0, np.array([3.0, 4.0]), 1, model, tables) == 63.0

    def test_distmult_symmetry(self, rng):
        tables = random_tables(rng, "distmult")
        model = MODELS["distmult"]()
        r_lit = rng.normal(size=6)
        for h in range(5):
            for t in range(5):
                assert tail_score(h, r_lit, t, model, tables) == pytest.approx(
                    tail_score(t, r_lit, h, model, tables)
                )

    def test_complex_matches_complex_arithmetic(self, rng):
        tables = random_tables(rng, "complex")
        model = MODELS["complex"]()
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
        model = MODELS["rotate"]()
        phases = rng.uniform(-np.pi, np.pi, size=3)
        s1 = tail_score(0, phases, 1, model, tables)
        s2 = tail_score(0, phases + 2 * np.pi, 1, model, tables)
        assert s1 == pytest.approx(s2, abs=1e-9)

    def test_tucker_matches_einsum(self, rng):
        tables = random_tables(rng, "tucker")
        model = lane_model("tucker", tables)
        r_lit = rng.normal(size=4)
        expected = np.einsum(
            "p,pqs,q,s->", tables.entity[0], tables.core, r_lit, tables.entity[1]
        )
        assert tail_score(0, r_lit, 1, model, tables) == pytest.approx(expected)


# a block of anchors with a repeat, so that per-anchor accumulation is exercised
ANCHORS = np.array([1, 3, 1, 0])


def distinct_rows(rng, kind):
    """One fused relation row per anchor, all different, as in a block spanning relations."""
    return rng.normal(size=(ANCHORS.size, MODEL_SPECS[kind][1]))


class TestBatchedScoring:
    @pytest.mark.parametrize("kind", list(MODEL_SPECS))
    def test_all_tails_matches_loop(self, kind, rng):
        tables = random_tables(rng, kind)
        model = lane_model(kind, tables)
        r_lit = distinct_rows(rng, kind)
        batched = all_scores(ANCHORS, r_lit, model, tables, "tail")
        assert batched.shape == (ANCHORS.size, 5)
        looped = [[reference_score(kind, tables, h, t, r_b) for t in range(5)]
                  for h, r_b in zip(ANCHORS, r_lit)]
        np.testing.assert_allclose(batched, looped, atol=1e-9)

    @pytest.mark.parametrize("kind", list(MODEL_SPECS))
    def test_all_heads_matches_loop(self, kind, rng):
        tables = random_tables(rng, kind)
        model = lane_model(kind, tables)
        r_lit = distinct_rows(rng, kind)
        batched = all_scores(ANCHORS, r_lit, model, tables, "head")
        assert batched.shape == (ANCHORS.size, 5)
        looped = [[reference_score(kind, tables, h, t, r_b) for h in range(5)]
                  for t, r_b in zip(ANCHORS, r_lit)]
        np.testing.assert_allclose(batched, looped, atol=1e-9)

    def test_distmult_heads_equals_tails_swapped(self, rng):
        tables = random_tables(rng, "distmult")
        model = MODELS["distmult"]()
        r_lit = distinct_rows(rng, "distmult")
        np.testing.assert_allclose(
            all_scores(ANCHORS, r_lit, model, tables, "head"),
            all_scores(ANCHORS, r_lit, model, tables, "tail"),
        )

    def test_transe_translation_hits_maximum(self):
        # entity 2 sits exactly at e_0 + r: its tail score is the max (0)
        entity = np.array([[0.0, 0.0], [3.0, 3.0], [1.0, 2.0]])
        tables = EmbeddingTables(entity=entity, relation=np.zeros((1, 2)))
        scores = all_scores(np.array([0]), np.array([[1.0, 2.0]]), MODELS["transe"](), tables, "tail")[0]
        assert scores[2] == 0.0
        assert scores.argmax() == 2


class TestBackwardPasses:
    @pytest.mark.parametrize("kind", list(MODEL_SPECS))
    @pytest.mark.parametrize("side", ["tails", "heads"])
    def test_weighted_gradients_match_finite_differences(self, kind, side, rng):
        tables = random_tables(rng, kind)
        model = lane_model(kind, tables)
        r_lit = distinct_rows(rng, kind)
        g = rng.normal(size=(ANCHORS.size, 5))
        query_side = side[:-1]  # "tail" or "head"

        def objective():
            return float(np.sum(g * all_scores(ANCHORS, r_lit, model, tables, query_side)))

        d_entity = np.zeros_like(tables.entity)
        d_core = np.zeros_like(tables.core) if tables.core is not None else None
        q = model.query(tables, ANCHORS, r_lit, query_side)
        blocks = GradientBlocks(model.norm, tables.entity)
        scores = blocks.forward(q)
        # the L2 kernel overwrites its g
        d_q = blocks.backward(q, scores, g.copy(), d_entity, np.empty_like(q))
        blocks.flush(d_entity)
        d_r_lit = model.query_backward(tables, ANCHORS, r_lit, query_side, d_q, d_entity, d_core)

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

    @pytest.mark.parametrize("side", ["tail", "head"])
    def test_tucker_chunks_match_one_chunk(self, side, rng, monkeypatch):
        # the D_e*D_r-wide Khatri-Rao rows are built BLOCK_SCORES entries at a time
        tables = random_tables(rng, "tucker")
        r_lit = distinct_rows(rng, "tucker")
        d_q = rng.normal(size=(ANCHORS.size, 6))

        def run():
            # a model built now takes its chunk from the BLOCK_SCORES of the moment
            model = lane_model("tucker", tables)
            d_entity, d_core = np.zeros_like(tables.entity), np.zeros_like(tables.core)
            q = model.query(tables, ANCHORS, r_lit, side)
            d_r_lit = model.query_backward(tables, ANCHORS, r_lit, side, d_q, d_entity, d_core)
            return q, d_r_lit, d_entity, d_core

        whole = run()
        monkeypatch.setattr(scoring, "BLOCK_SCORES", 6 * 4)  # one row per chunk
        for got, want in zip(run(), whole):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def direct_l2_backward(q, entity, g):
    """Gradients of sum(g * -||q_b - e_j||) from the unexpanded differences."""
    diff = q[:, None, :] - entity[None, :, :]
    n = np.sqrt((diff ** 2).sum(axis=-1))
    unit = diff / np.maximum(n, 1e-12)[..., None]
    return -(g[..., None] * unit).sum(axis=1), (g[..., None] * unit).sum(axis=0)


class TestDistanceKernel:
    """The expanded L2 kernel against the direct formula on (near-)coincident pairs."""

    @pytest.fixture
    def block(self, rng):
        entity = rng.normal(size=(6, 8)) * 3.0
        offsets = [0.0, 1e-12, 1e-9, 1e-6, 1e-3, 1.0]
        q = np.stack([entity[i] + off * rng.normal(size=8) for i, off in enumerate(offsets)])
        q = np.concatenate([q, entity[[2]]])  # a second exact hit on entity 2
        return q, entity

    def test_zero_and_near_zero_distances_match_direct_formula(self, block):
        q, entity = block
        scores = GradientBlocks(2, entity).forward(q)
        direct = -np.sqrt(((q[:, None, :] - entity[None, :, :]) ** 2).sum(axis=-1))
        assert scores[0, 0] == 0.0
        assert scores[-1, 2] == 0.0
        np.testing.assert_allclose(scores, direct, rtol=1e-8, atol=0.0)

    def test_gradients_match_direct_formula(self, block, rng):
        q, entity = block
        g = rng.normal(size=(q.shape[0], entity.shape[0]))
        d_entity = np.zeros_like(entity)
        blocks = GradientBlocks(2, entity)
        # the kernel overwrites its g
        d_q = blocks.backward(q, blocks.forward(q), g.copy(), d_entity, np.empty_like(q))
        blocks.flush(d_entity)
        want_q, want_entity = direct_l2_backward(q, entity, g)
        np.testing.assert_allclose(d_q, want_q, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(d_entity, want_entity, rtol=1e-8, atol=1e-10)
