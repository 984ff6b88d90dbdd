import dataclasses
import os
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from litrel import evaluation, scoring, training
from litrel import fusion as fusion_mod
from litrel.data import build_graph
from litrel.errors import ConfigError, TrainingError, ValidationError
from litrel.training import Optimizer, TrainConfig, symmetric_lcwa_loss, train


def make_config(**overrides):
    base = dict(
        model="distmult", fusion="none", aggregation="mean",
        dim_entity=6, dim_relation=6, epochs=0, batch_size=8,
        learning_rate=1e-2, seed=7,
    )
    base.update(overrides)
    return TrainConfig(**base)


def base_parameter_count(state):
    tables = (state.tables.entity, state.tables.relation, state.tables.core)
    return sum(t.size for t in tables if t is not None)


@pytest.fixture
def small_graph():
    train = [
        ("a", "r", "b"), ("b", "r", "c"), ("c", "r", "d"), ("d", "r", "a"),
        ("a", "s", "c"), ("b", "s", "d"),
    ]
    literals = [("a", "x", 1.0), ("b", "x", 2.0), ("c", "y", 3.0), ("d", "y", 1.0)]
    return build_graph(train, [], [], literals)


class TestConfigValidation:
    def test_odd_dims_rejected_for_complex(self):
        with pytest.raises(ConfigError, match="even"):
            make_config(model="complex", dim_entity=5, dim_relation=5)

    def test_rotate_phase_dimension(self):
        make_config(model="rotate", dim_entity=6, dim_relation=3)
        with pytest.raises(ConfigError, match="phase"):
            make_config(model="rotate", dim_entity=6, dim_relation=6)

    def test_unknown_model(self):
        with pytest.raises(ConfigError):
            make_config(model="conve")

    @pytest.mark.parametrize("key, value", [("seed", -1), ("valid_every", -1)])
    def test_negative_seed_and_valid_every_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be >= 0, got {value}"):
            make_config(**{key: value})
        make_config(**{key: 0})


class TestLoss:
    def test_single_entity_zero_loss(self):
        graph = build_graph([("only", "r", "only")], [], [], [])
        state = training.init_state(graph, make_config(dim_entity=4, dim_relation=4), None)
        loss, _ = symmetric_lcwa_loss(graph.train, state, training.Workspace(state, len(graph.train)))
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_two_entities_equal_scores(self):
        graph = build_graph([("a", "r", "b")], [], [], [])
        state = training.init_state(graph, make_config(dim_entity=4, dim_relation=4), None)
        state.tables.entity[...] = 1.0  # identical rows -> uniform softmax
        loss, _ = symmetric_lcwa_loss(graph.train, state, training.Workspace(state, len(graph.train)))
        assert loss == pytest.approx(2 * np.log(2), abs=1e-12)

    def test_matches_independent_softmax_ce(self, small_graph):
        state = training.init_state(small_graph, make_config(), None)
        batch = small_graph.train[:3]
        loss, _ = symmetric_lcwa_loss(batch, state, training.Workspace(state, len(batch)))
        expected = 0.0
        for h, r, t in batch:
            r_lit = state.tables.relation[r]
            for anchor, side, true in ((h, "tail", int(t)), (t, "head", int(h))):
                model = scoring.MODELS[state.config.model]
                q = model().query(state.tables, np.array([anchor]), r_lit, side)
                side_scores = scoring.GradientBlocks(model.norm, state.tables.entity).forward(q)[0]
                exp = np.exp(side_scores - side_scores.max())
                expected += -np.log(exp[true] / exp.sum())
        assert loss == pytest.approx(expected / batch.shape[0], abs=1e-10)

    def test_loss_non_negative(self, small_graph, rng):
        for seed in range(3):
            state = training.init_state(small_graph, make_config(seed=seed, fusion="linear"), None)
            loss, _ = symmetric_lcwa_loss(small_graph.train, state,
                                          training.Workspace(state, len(small_graph.train)))
            assert loss >= 0.0

    def test_gated_off_equals_vanilla(self, small_graph):
        vanilla = training.init_state(small_graph, make_config(), None)
        gated = training.init_state(small_graph, make_config(fusion="gated"), None)
        gated.tables.entity[...] = vanilla.tables.entity
        gated.tables.relation[...] = vanilla.tables.relation
        block = gated.fusion
        block.gate[...] = 0
        block.gate_bias[...] = -30.0
        for triple in small_graph.train:
            l_vanilla, _ = symmetric_lcwa_loss(triple[None, :], vanilla, training.Workspace(vanilla, 1))
            l_gated, _ = symmetric_lcwa_loss(triple[None, :], gated, training.Workspace(gated, 1))
            assert l_gated == pytest.approx(l_vanilla, abs=1e-6)


    @pytest.mark.parametrize("model,dim_relation", [
        ("transe", 6), ("distmult", 6), ("complex", 6), ("rotate", 3), ("tucker", 4),
    ])
    def test_blocks_split_inside_a_relation_group(self, small_graph, monkeypatch, model, dim_relation):
        state = training.init_state(small_graph, make_config(
            model=model, dim_relation=dim_relation, fusion="gated", aggregation="learnable"), None)
        # repeated triples give repeated anchors inside one block
        batch = np.concatenate([small_graph.train, small_graph.train[:3]])
        whole_loss, whole = symmetric_lcwa_loss(batch, state, training.Workspace(state, len(batch)))
        for rows_per_block in (1, 2, 3):
            monkeypatch.setattr(scoring, "BLOCK_SCORES", rows_per_block * small_graph.num_entities)
            loss, grads = symmetric_lcwa_loss(batch, state, training.Workspace(state, len(batch)))
            assert abs(loss - whole_loss) <= 1e-12 * abs(whole_loss)
            for name, grad in grads.items():
                assert np.abs(grad - whole[name]).max() <= 1e-12 * np.abs(whole[name]).max()


class TestNonFiniteGuard:
    def test_non_finite_gradient_names_parameter(self, small_graph):
        state = training.init_state(small_graph, make_config(), None)
        entities, relations = small_graph.entities.index, small_graph.relations.index
        a, s, c = entities["a"], relations["s"], entities["c"]
        state.tables.entity[a, 0] = 1e200
        state.tables.relation[s, 0] = 1e-200
        # the scores and the loss stay finite, but the relation gradient d_q * e_a overflows
        with np.errstate(over="ignore"):
            with pytest.raises(TrainingError, match="non-finite gradient for parameter relation"):
                symmetric_lcwa_loss(np.array([[a, s, c]]), state, training.Workspace(state, 1))

    def test_non_finite_update_names_parameter(self, small_graph):
        config = make_config(learning_rate=1e308)
        state = training.init_state(small_graph, config, None)
        optimizer = Optimizer(config.optimizer, config.learning_rate)
        _, grads = symmetric_lcwa_loss(small_graph.train, state,
                                       training.Workspace(state, len(small_graph.train)))
        training.optimizer_step(optimizer, grads, state)  # each Adam step moves a parameter by ~1e308
        with np.errstate(over="ignore"), pytest.raises(TrainingError, match="parameter entity is non-finite"):
            training.optimizer_step(optimizer, grads, state)


class TestOptimizer:
    def test_sgd_update(self):
        opt = Optimizer("sgd", 0.1)
        params = {"p": np.array([1.0])}
        opt.step(params, {"p": np.array([0.5])})
        assert params["p"][0] == pytest.approx(0.95)

    def test_adam_first_step_magnitude(self):
        opt = Optimizer("adam", 0.01)
        params = {"p": np.array([1.0, 1.0])}
        opt.step(params, {"p": np.array([0.3, -0.7])})
        # bias-corrected first step moves ~lr against the gradient sign
        np.testing.assert_allclose(params["p"], [1.0 - 0.01, 1.0 + 0.01], atol=1e-6)

    def test_zero_gradient_fixed_point(self):
        for kind in ("sgd", "adam"):
            opt = Optimizer(kind, 0.1)
            params = {"p": np.array([2.0])}
            opt.step(params, {"p": np.array([0.0])})
            assert params["p"][0] == 2.0

    @pytest.mark.parametrize("kind", ["adam", "sgd"])
    def test_in_place_steps_equal_textbook_expressions(self, kind, rng, monkeypatch):
        # chunks of 5 entries: the tables and the core span several, each with a remainder
        monkeypatch.setattr(scoring, "CHUNK_ENTRIES", 5)
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        shapes = {"entity": (7, 3), "relation": (2, 3), "core": (3, 2, 3), "agg.bias": (1,)}
        params = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        want = {name: p.copy() for name, p in params.items()}
        m = {name: np.zeros(shape) for name, shape in shapes.items()}
        v = {name: np.zeros(shape) for name, shape in shapes.items()}
        opt = Optimizer(kind, lr)
        for t in range(1, 5):
            grads = {name: rng.normal(size=shape) for name, shape in shapes.items()}
            for name, g in grads.items():
                if kind == "sgd":
                    want[name] = want[name] - lr * g
                    continue
                m[name] = b1 * m[name] + (1 - b1) * g
                v[name] = b2 * v[name] + (1 - b2) * g * g
                m_hat = m[name] / (1 - b1 ** t)
                v_hat = v[name] / (1 - b2 ** t)
                want[name] = want[name] - lr * m_hat / (np.sqrt(v_hat) + eps)
            opt.step(params, {name: g.copy() for name, g in grads.items()})
            for name, p in params.items():
                assert np.array_equal(p, want[name]), (t, name)

    @pytest.mark.parametrize("kind", ["adam", "sgd"])
    def test_step_allocates_no_parameter_sized_array(self, kind, rng):
        shapes = {"entity": (20000, 8), "relation": (30, 8)}
        params = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        opt = Optimizer(kind, 0.01)

        def traced_step():
            grads = {name: rng.normal(size=shape) for name, shape in shapes.items()}
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                opt.step(params, grads)
                return tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()

        # the first Adam step allocates the two moments and one chunk scratch per lane, no
        # parameter-sized scratch; the slack covers starting the lane threads
        slack = params["entity"].nbytes // 4
        moments = 2 * sum(p.nbytes for p in params.values()) if kind == "adam" else 0
        chunks = scoring.LANES * scoring.CHUNK_ENTRIES * 8 if kind == "adam" else 0
        assert traced_step() < moments + chunks + slack
        assert traced_step() < slack


GUARD_GRAPH = build_graph(
    [("a", "r", "b"), ("b", "r", "c"), ("c", "s", "a")], [], [],
    [("a", "x", 1.0), ("b", "x", 2.0), ("c", "y", 3.0)],
)


@settings(max_examples=60, deadline=None)
@given(name_index=st.integers(0, 10), position=st.integers(0, 10**6),
       bad=st.sampled_from([np.nan, np.inf, -np.inf]))
def test_non_finite_guard_flags_any_position(name_index, position, bad):
    state = training.init_state(GUARD_GRAPH, make_config(fusion="gated", aggregation="learnable",
                                                        optimizer="sgd"), None)
    params = state.parameters()
    name = list(params)[name_index % len(params)]
    params[name].reshape(-1)[position % params[name].size] = bad
    with pytest.raises(TrainingError, match=f"parameter {name} is non-finite"):
        training.optimizer_step(Optimizer("sgd", 0.1), state.zero_grads(), state)


class TestParameterCounts:
    def test_vanilla_has_base_count(self, small_graph):
        state = training.init_state(small_graph, make_config(), None)
        assert state.parameter_count() == base_parameter_count(state)
        assert base_parameter_count(state) == (
            small_graph.num_entities * 6 + small_graph.num_relations * 6
        )

    @pytest.mark.parametrize("fusion_kind", ["linear", "gated"])
    @pytest.mark.parametrize("aggregation", ["mean", "learnable"])
    def test_fusion_delta_matches_formula(self, small_graph, fusion_kind, aggregation):
        state = training.init_state(
            small_graph, make_config(fusion=fusion_kind, aggregation=aggregation), None
        )
        delta = state.parameter_count() - base_parameter_count(state)
        attrs = small_graph.num_attributes
        expected = 6 * 6 + 2 * attrs * 6 + 6 if fusion_kind == "linear" else 2 * 6 * 6 + 4 * attrs * 6 + 6
        assert delta == expected + (12 if aggregation == "learnable" else 0)

    def test_tucker_core_registered(self, small_graph):
        state = training.init_state(
            small_graph, make_config(model="tucker", dim_entity=4, dim_relation=3), None
        )
        assert state.tables.core.shape == (4, 3, 4)
        assert state.parameter_count() == base_parameter_count(state)

    def test_complex_shared_fusion_counts_once(self, small_graph):
        shared = training.init_state(
            small_graph, make_config(model="complex", fusion="linear"), None
        )
        block_scalars = 3 * 3 + 2 * small_graph.num_attributes * 3 + 3
        assert shared.parameter_count() - base_parameter_count(shared) == block_scalars


class TestTrainLoop:
    def test_loss_decreases_on_toy_graph(self, small_graph):
        _, history = train(small_graph, make_config(epochs=50, learning_rate=0.05))
        assert history["loss"][-1] < history["loss"][0]

    def test_seeded_determinism(self, small_graph):
        _, h1 = train(small_graph, make_config(epochs=5, fusion="linear"))
        _, h2 = train(small_graph, make_config(epochs=5, fusion="linear"))
        assert h1["loss"] == h2["loss"]

    def test_validation_mrr_recorded(self):
        train_triples = [("a", "r", "b"), ("b", "r", "c"), ("c", "r", "a")]
        graph = build_graph(train_triples, [("a", "r", "c")], [("b", "r", "a")], [])
        _, history = train(graph, make_config(epochs=4, valid_every=2))
        assert set(history["valid_mrr"]) == {2, 4}

    def test_fusion_without_literals_rejected(self):
        graph = build_graph([("a", "r", "b")], [], [], [])
        with pytest.raises(ConfigError, match="literal"):
            train(graph, make_config(fusion="linear"))


MODEL_DIMS = {"transe": 6, "distmult": 6, "complex": 6, "rotate": 3, "tucker": 4}  # dim_relation


class TestWorkspace:
    @pytest.mark.parametrize("model", sorted(MODEL_DIMS))
    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    @pytest.mark.parametrize("fusion_kind,aggregation", [
        pytest.param("none", "mean", id="vanilla"),
        pytest.param("linear", "median", id="linear-median"),
        pytest.param("gated", "learnable", id="gated-learnable"),
    ])
    def test_reused_workspace_equals_fresh_calls(self, small_graph, monkeypatch, model, optimizer,
                                                 fusion_kind, aggregation):
        # two query rows per block and one row per Khatri-Rao chunk: every buffer is reused within a call
        monkeypatch.setattr(scoring, "BLOCK_SCORES", 2 * small_graph.num_entities)
        config = make_config(model=model, dim_relation=MODEL_DIMS[model], fusion=fusion_kind,
                             aggregation=aggregation, optimizer=optimizer)
        reused, fresh = (training.init_state(small_graph, config, None) for _ in range(2))
        optimizers = Optimizer(optimizer, 0.05), Optimizer(optimizer, 0.05)
        workspace = training.Workspace(reused, 4)
        rng = np.random.default_rng(1)
        for _ in range(2):
            perm = rng.permutation(len(small_graph.train))
            for start in (0, 4):  # batches of 4 and 2 triples
                batch = small_graph.train[perm[start:start + 4]]
                got_loss, got = symmetric_lcwa_loss(batch, reused, workspace)
                want_loss, want = symmetric_lcwa_loss(batch, fresh, training.Workspace(fresh, len(batch)))
                assert got_loss == want_loss
                assert got.keys() == want.keys()
                for name, grad in want.items():
                    assert np.array_equal(got[name], grad), name
                training.optimizer_step(optimizers[0], got, reused)
                training.optimizer_step(optimizers[1], want, fresh)
        for name, param in fresh.parameters().items():
            assert np.array_equal(reused.parameters()[name], param), name

    @pytest.mark.parametrize("model,fusion_kind", [
        pytest.param("transe", "none", id="transe-None"), ("distmult", "linear"), ("tucker", "gated"),
    ])
    def test_steps_after_the_first_allocate_less_than_an_entity_table(self, monkeypatch, model,
                                                                     fusion_kind):
        rng = np.random.default_rng(3)
        entities = [f"e{i}" for i in range(4000)]
        # a relation per triple, so every batch of 8 spans 8 relations, and 24 attributes: the
        # learnable aggregation's (G, |A|, 11) profile block is then 8 x 2 KiB in every step
        triples = {(entities[h], f"r{i}", entities[t]) for i, (h, t) in enumerate(rng.integers(4000, size=(40, 2)))}
        literals = [(e, f"x{i % 24}", float(i % 7)) for i, e in enumerate(entities)]
        graph = build_graph(sorted(triples), [], [], literals)
        config = make_config(model=model, dim_entity=32, dim_relation=32, fusion=fusion_kind,
                             aggregation="learnable", epochs=2, batch_size=8)
        starts, peaks, carried, gathers = [], [], [], []
        loss_fn, step_fn, vectors_fn = (training.symmetric_lcwa_loss, training.optimizer_step,
                                        training.literal_vectors)

        def loss(*args):
            tracemalloc.reset_peak()
            starts.append(tracemalloc.get_traced_memory()[0])
            carried.append(0)
            return loss_fn(*args)

        def vectors(profiles, relations, *args):
            # its own peak: the step's peak so far is carried past the reset
            before, carried[-1] = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            result = vectors_fn(profiles, relations, *args)
            gathers.append((tracemalloc.get_traced_memory()[1] - before, len(relations)))
            return result

        def step(*args):
            step_fn(*args)
            peaks.append(max(tracemalloc.get_traced_memory()[1], carried[-1]) - starts[-1])

        monkeypatch.setattr(training, "symmetric_lcwa_loss", loss)
        monkeypatch.setattr(training, "optimizer_step", step)
        monkeypatch.setattr(training, "literal_vectors", vectors)
        tracemalloc.start()
        try:
            train(graph, config)
        finally:
            tracemalloc.stop()
        assert graph.num_entities == 4000 and len(peaks) == 2 * -(-len(graph.train) // 8)
        assert max(peaks[1:]) < graph.num_entities * 32 * 8
        # every step gathers the profile rows into the state's buffers: less than one block
        assert len(gathers) == (0 if fusion_kind == "none" else len(peaks))
        assert all(peak < relations * graph.num_attributes * 11 * 8 for peak, relations in gathers)

    def test_all_relation_fuse_forward_allocates_no_profile_block(self):
        # the fuse_forward of save_checkpoint and of ranking, over all |R| relations, right after
        # init_state: the learnable aggregation gathers into buffers of |R| rows built with the state
        rng = np.random.default_rng(4)
        entities = [f"e{i}" for i in range(50)]
        triples = {(entities[h], f"r{i}", entities[t]) for i, (h, t) in enumerate(rng.integers(50, size=(60, 2)))}
        literals = [(e, f"x{i % 24}", float(i % 7)) for i, e in enumerate(entities)]
        graph = build_graph(sorted(triples), [], [], literals)
        config = make_config(dim_entity=2, dim_relation=2, fusion="gated", aggregation="learnable")
        state = training.init_state(graph, config, None)
        block = graph.num_relations * graph.num_attributes * 11 * 8
        for _ in range(2):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                state.fuse_forward(np.arange(graph.num_relations))
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert peak < block

    @pytest.mark.parametrize("batch_size, live", [(6, [0]), (3, [scoring.LANES, 0])])
    def test_kernel_is_released_before_the_last_optimizer_step(self, small_graph, monkeypatch,
                                                              batch_size, live):
        # one kernel per lane
        kernels, seen = [], []

        class Recorded(scoring.GradientBlocks):
            def __init__(self, *args):
                super().__init__(*args)
                kernels.append(weakref.ref(self))

        step_fn = training.optimizer_step

        def step(*args):
            seen.append(sum(ref() is not None for ref in kernels))
            step_fn(*args)

        monkeypatch.setattr(scoring, "GradientBlocks", Recorded)
        monkeypatch.setattr(training, "optimizer_step", step)
        train(small_graph, make_config(model="transe", epochs=1, batch_size=batch_size))
        assert len(kernels) == scoring.LANES
        assert seen == live

    def test_kernel_is_released_before_each_validation(self, monkeypatch):
        graph = build_graph([("a", "r", "b"), ("b", "r", "c"), ("c", "r", "d"), ("d", "r", "a")],
                            [("a", "r", "c")], [], [])
        config = make_config(model="transe", epochs=3, batch_size=3, valid_every=1)
        kernels, seen = [], []

        class Recorded(scoring.GradientBlocks):
            def __init__(self, *args):
                super().__init__(*args)
                kernels.append(weakref.ref(self))

        evaluate_fn = evaluation.evaluate

        def evaluate(*args, **kwargs):
            seen.append(sum(ref() is not None for ref in kernels))
            return evaluate_fn(*args, **kwargs)

        want = train(graph, config)
        monkeypatch.setattr(scoring, "GradientBlocks", Recorded)
        monkeypatch.setattr(evaluation, "evaluate", evaluate)
        got = train(graph, config)
        assert seen == [0, 0, 0]
        assert got[1] == want[1] and sorted(got[1]["valid_mrr"]) == [1, 2, 3]
        for name, param in want[0].parameters().items():
            assert np.array_equal(got[0].parameters()[name], param), name

    def test_empty_training_split_is_rejected_unless_no_epoch_runs(self):
        graph = build_graph([], [("a", "r", "b")], [], [])
        with pytest.raises(ValidationError, match="split 'train' is empty"):
            train(graph, make_config(epochs=1))
        _, history = train(graph, make_config(epochs=0))
        assert history["loss"] == []


class TestCheckpoint:
    @pytest.mark.parametrize("model,fusion_kind,aggregation", [
        pytest.param("distmult", "none", "mean", id="None-mean"),
        pytest.param("distmult", "linear", "mean", id="linear-mean"),
        pytest.param("distmult", "gated", "learnable", id="gated-learnable"),
        ("complex", "linear", "mean"),
        ("tucker", "gated", "learnable"),
        ("transe", "gated", "mean"),
        ("rotate", "linear", "learnable"),
    ])
    def test_round_trip(self, small_graph, tmp_path, model, fusion_kind, aggregation):
        config = make_config(model=model, epochs=2, fusion=fusion_kind, aggregation=aggregation,
                             dim_relation=3 if model == "rotate" else 6, batch_size=len(small_graph.train))
        state, history = train(small_graph, config)
        directory = str(tmp_path / "ckpt")
        training.save_checkpoint(state, history, directory, {})
        # a batch size past |train| trains on |train|-triple batches, with a workspace of that size
        huge = str(tmp_path / "huge")
        training.save_checkpoint(*train(small_graph, dataclasses.replace(config, batch_size=10**9)), huge, {})
        params = [os.path.join("params", name) for name in os.listdir(os.path.join(directory, "params"))]
        for name in ["history.json", *params]:
            assert Path(huge, name).read_bytes() == Path(directory, name).read_bytes(), name
        # no optimizer state: nothing resumes training from a checkpoint
        assert set(os.listdir(directory)) == {"checkpoint.json", "params", "history.json", "config.json"}
        tables = {"entity", "relation"} | ({"core"} if model == "tucker" else set())
        assert {name[:-4] for name in os.listdir(os.path.join(directory, "params"))} == tables
        loaded, loaded_history = training.load_checkpoint(directory)
        assert loaded_history["loss"] == history["loss"]
        assert loaded.config == state.config
        assert loaded.fusion is None and loaded.profiles is None
        fused = state.fuse_forward(np.arange(small_graph.num_relations))[0]
        assert fused.tobytes() == loaded.tables.relation.tobytes()
        for name in tables - {"relation"}:
            np.testing.assert_array_equal(loaded.parameters()[name], state.parameters()[name])
        ranks = evaluation.rank_triples(state, small_graph, small_graph.train, "realistic")
        loaded_ranks = evaluation.rank_triples(loaded, small_graph, small_graph.train, "realistic")
        assert loaded_ranks.tobytes() == ranks.tobytes()
        if fusion_kind == "none":
            # loss continues identically after reload
            l1, _ = symmetric_lcwa_loss(small_graph.train, state,
                                        training.Workspace(state, len(small_graph.train)))
            l2, _ = symmetric_lcwa_loss(small_graph.train, loaded,
                                        training.Workspace(loaded, len(small_graph.train)))
            assert l1 == l2

    def test_fused_checkpoint_loads_and_evaluates_without_fusion_or_random_init(
            self, small_graph, tmp_path, monkeypatch):
        config = make_config(model="tucker", epochs=1, fusion="gated", aggregation="learnable")
        state, history = train(small_graph, config)
        directory = str(tmp_path / "ckpt")
        training.save_checkpoint(state, history, directory, {})
        expected = evaluation.evaluate(state, small_graph, split="train")

        def fail(*args, **kwargs):
            raise AssertionError("the load path must not call this")

        for target in ("litrel.aggregation.literal_vectors", "litrel.training.literal_vectors",
                       "numpy.random.default_rng"):
            monkeypatch.setattr(target, fail)
        for kind in fusion_mod.FUSIONS:
            monkeypatch.setitem(fusion_mod.FUSIONS, kind, fail)
        loaded, _ = training.load_checkpoint(directory)
        assert evaluation.evaluate(loaded, small_graph, split="train") == expected

    def test_atomic_overwrite(self, small_graph, tmp_path):
        config = make_config(epochs=1)
        state, history = train(small_graph, config)
        directory = str(tmp_path / "ckpt")
        training.save_checkpoint(state, history, directory, {})
        training.save_checkpoint(state, history, directory, {})  # overwrite is clean
        loaded, _ = training.load_checkpoint(directory)
        assert loaded.config.model == "distmult"

    def test_failed_swap_leaves_a_loadable_checkpoint(self, small_graph, tmp_path, monkeypatch):
        state, history = train(small_graph, make_config(epochs=1))
        directory = str(tmp_path / "ckpt")
        training.save_checkpoint(state, history, directory, {})
        saved = {name: arr.copy() for name, arr in state.parameters().items()}
        state.tables.entity += 1.0
        rename = os.rename

        def rename_fails_for_new_checkpoint(src, dst):
            if src.endswith(".tmp"):
                raise OSError("killed before the new checkpoint was in place")
            rename(src, dst)

        monkeypatch.setattr(os, "rename", rename_fails_for_new_checkpoint)
        with pytest.raises(OSError, match="killed"):
            training.save_checkpoint(state, history, directory, {})
        monkeypatch.undo()
        loaded, _ = training.load_checkpoint(directory)
        for name, arr in loaded.parameters().items():
            np.testing.assert_array_equal(arr, saved[name])
        # the next save puts the new checkpoint in place and drops the old one
        training.save_checkpoint(state, history, directory, {})
        loaded, _ = training.load_checkpoint(directory)
        np.testing.assert_array_equal(loaded.tables.entity, state.tables.entity)
        assert sorted(os.listdir(tmp_path)) == ["ckpt"]
