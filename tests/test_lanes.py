"""The lanes of the training loss, of ranking and of KNN.

Two lanes must agree with one (``scoring.LANES = 1``) up to summation
order, to 1e-12 relative, and a given number of lanes must give
bit-identical results whether the lanes run on the calling thread or on
a pool of threads, since the split into lanes depends only on the row
count and |E|.  KNN is exact, so its predictions are bit-identical for
any number of lanes and threads.
"""

import os
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import litrel
from conftest import random_graph
from litrel import scoring
from litrel.cli import main
from litrel.downstream import knn_classify
from litrel.evaluation import rank_triples
from litrel.training import Optimizer, TrainConfig, Workspace, init_state, symmetric_lcwa_loss

# model kind: (dim_entity, dim_relation)
MODEL_DIMS = {
    "transe": (6, 6),
    "distmult": (6, 6),
    "complex": (6, 6),
    "rotate": (6, 3),
    "tucker": (6, 4),
}


def make_state(model, fusion, num_entities=8, seed=3):
    dim_entity, dim_relation = MODEL_DIMS[model]
    graph = random_graph(np.random.default_rng(5), num_entities=num_entities, num_relations=4,
                         num_attributes=3, triples_per_relation=6)
    config = TrainConfig(model=model, fusion=fusion, dim_entity=dim_entity, dim_relation=dim_relation,
                         seed=seed)
    return graph, init_state(graph, config, None)


def loss_and_grads(batch, state):
    loss, grads = symmetric_lcwa_loss(batch, state, Workspace(state, len(batch)))
    return loss, {name: grad.copy() for name, grad in grads.items()}


def with_threads(monkeypatch, threads):
    monkeypatch.setattr(scoring, "lane_threads", lambda: threads)


@pytest.mark.parametrize("fusion", [pytest.param("none", id="None"), "linear", "gated"])
@pytest.mark.parametrize("model", list(MODEL_DIMS))
@pytest.mark.parametrize("rows_per_block,triples", [
    pytest.param(6, 5, id="rows-not-a-multiple-of-the-lane-block"),  # 10 rows, lane blocks of 3
    pytest.param(6, 6, id="rows-a-multiple-of-the-lane-block"),  # 12 rows, two full blocks a lane
    pytest.param(None, 3, id="smaller-than-one-lane-block"),
    pytest.param(None, 1, id="one-triple"),
])
def test_two_lanes_equal_one_lane(monkeypatch, model, fusion, rows_per_block, triples):
    graph, state = make_state(model, fusion)
    if rows_per_block is not None:
        monkeypatch.setattr(scoring, "BLOCK_SCORES", rows_per_block * graph.num_entities)
    batch = graph.train[:triples]
    loss, grads = loss_and_grads(batch, state)
    monkeypatch.setattr(scoring, "LANES", 1)
    want_loss, want = loss_and_grads(batch, state)
    assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
    assert grads.keys() == want.keys()
    for name, grad in want.items():
        assert np.abs(grads[name] - grad).max() <= 1e-12 * np.abs(grad).max(), name


@pytest.mark.parametrize("model", list(MODEL_DIMS))
def test_lane_straddling_the_tail_head_boundary(monkeypatch, model):
    # three lanes over 5 triples' 10 query rows: rows 0-3, 4-7 and 8-9, so the middle lane builds
    # the tail-side query of triple 4 and the head-side queries of triples 0-2, in lane blocks of 2
    graph, state = make_state(model, "gated")
    batch = graph.train[:5]
    monkeypatch.setattr(scoring, "LANES", 3)
    monkeypatch.setattr(scoring, "BLOCK_SCORES", 6 * graph.num_entities)
    assert scoring.cut(10, Workspace(state, len(batch)).lanes[0][0].rows)[1] == [slice(4, 6), slice(6, 8)]
    results = []
    for threads in (1, 2):
        with_threads(monkeypatch, threads)
        results.append(loss_and_grads(batch, state))
    (loss, grads), (threaded_loss, threaded) = results
    assert threaded_loss == loss
    for name, grad in grads.items():
        assert np.array_equal(threaded[name], grad), name
    monkeypatch.setattr(scoring, "LANES", 1)
    want_loss, want = loss_and_grads(batch, state)
    assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
    assert grads.keys() == want.keys()
    for name, grad in want.items():
        assert np.abs(grads[name] - grad).max() <= 1e-12 * np.abs(grad).max(), name


@pytest.mark.parametrize("model", list(MODEL_DIMS))
def test_threads_give_bit_identical_loss_gradients_and_ranks(monkeypatch, model):
    graph, state = make_state(model, "gated")
    monkeypatch.setattr(scoring, "BLOCK_SCORES", 4 * graph.num_entities)
    results = []
    for threads in (1, 2):
        with_threads(monkeypatch, threads)
        loss, grads = loss_and_grads(graph.train[:7], state)
        results.append((loss, grads, rank_triples(state, graph, graph.train, "realistic")))
    (loss, grads, ranks), (want_loss, want, want_ranks) = results
    assert loss == want_loss
    for name, grad in want.items():
        assert np.array_equal(grads[name], grad), name
    assert np.array_equal(ranks, want_ranks)


def test_two_lane_tucker_ranks_equal_serial_ranks(monkeypatch):
    # lane blocks of 128 triples whose queries take several Khatri-Rao chunks each: each lane
    # builds its queries with a model and scratch of its own, so the two threads never share one
    graph = random_graph(np.random.default_rng(5), num_entities=40, num_relations=4,
                         num_attributes=3, triples_per_relation=40)
    state = init_state(graph, TrainConfig(model="tucker", fusion="linear", dim_entity=16,
                                          dim_relation=16, seed=11), None)
    triples = np.concatenate([graph.train] * 4)
    monkeypatch.setattr(scoring, "BLOCK_SCORES", 64 * graph.num_entities)
    with_threads(monkeypatch, 1)
    serial = rank_triples(state, graph, triples, "realistic")
    with_threads(monkeypatch, 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            assert np.array_equal(rank_triples(state, graph, triples, "realistic"), serial)
    finally:
        sys.setswitchinterval(interval)


def test_more_threads_than_cores_under_a_short_switch_interval(monkeypatch):
    # four lanes on four threads, switching every microsecond: a lost write to a shared
    # buffer would change the loss, a gradient, a rank or a KNN prediction
    graph, state = make_state("transe", "linear", num_entities=30)
    monkeypatch.setattr(scoring, "LANES", 4)
    monkeypatch.setattr(scoring, "BLOCK_SCORES", 8 * graph.num_entities)
    feats, labels = state.tables.entity, np.arange(graph.num_entities) % 3
    with_threads(monkeypatch, 1)
    want_loss, want = loss_and_grads(graph.train, state)
    want_ranks = rank_triples(state, graph, graph.train, "realistic")
    want_knn = knn_classify(feats[:20], labels[:20], feats, k=3)
    with_threads(monkeypatch, 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            loss, grads = loss_and_grads(graph.train, state)
            assert loss == want_loss
            for name, grad in want.items():
                assert np.array_equal(grads[name], grad), name
            assert np.array_equal(rank_triples(state, graph, graph.train, "realistic"), want_ranks)
            assert np.array_equal(knn_classify(feats[:20], labels[:20], feats, k=3), want_knn)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("kind", ["adam", "sgd"])
def test_optimizer_steps_do_not_depend_on_lanes_or_threads(monkeypatch, kind):
    # chunks of 7 entries: 13 chunks over 4 parameters, split between the lanes
    monkeypatch.setattr(scoring, "CHUNK_ENTRIES", 7)
    rng = np.random.default_rng(13)
    shapes = {"entity": (9, 4), "relation": (3, 4), "core": (2, 3, 4), "agg.bias": (1,)}
    start = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    steps = [{name: rng.normal(size=shape) for name, shape in shapes.items()} for _ in range(3)]
    results = {}
    for lanes in (1, 2):
        monkeypatch.setattr(scoring, "LANES", lanes)
        for threads in (1, 2):
            with_threads(monkeypatch, threads)
            params, optimizer = {name: p.copy() for name, p in start.items()}, Optimizer(kind, 0.05)
            for grads in steps:
                optimizer.step(params, {name: g.copy() for name, g in grads.items()})
            results[lanes, threads] = params
    want = results[1, 1]
    assert not np.array_equal(want["entity"], start["entity"])
    for key, params in results.items():
        for name, p in params.items():
            assert np.array_equal(p, want[name]), (key, name)


def test_lanes_run_under_the_errstate_of_the_calling_thread(monkeypatch):
    with_threads(monkeypatch, 2)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        scoring.fan_out(lambda x: np.float64(1e308) * x, [1.0, 10.0])
    with np.errstate(over="ignore"):
        assert scoring.fan_out(lambda x: np.float64(1e308) * x, [1.0, 10.0]) == [1e308, np.inf]


@pytest.mark.parametrize("num_test", [
    pytest.param(1, id="one-row-empty-second-lane"),
    pytest.param(7, id="rows-not-a-multiple-of-the-lane-block"),  # lanes of 4 and 3, blocks of 3
    pytest.param(12, id="rows-a-multiple-of-the-lane-block"),
])
def test_knn_predictions_do_not_depend_on_lanes_or_threads(monkeypatch, num_test):
    # a coarse grid forces distance and vote ties between the 20 training rows
    rng = np.random.default_rng(7)
    train_feats = rng.integers(-2, 3, size=(20, 3)).astype(np.float64)
    train_labels = rng.integers(0, 3, size=20)
    test_feats = rng.integers(-2, 3, size=(num_test, 3)).astype(np.float64)
    monkeypatch.setattr(scoring, "BLOCK_SCORES", 3 * 20 // 2)  # the float32 screen's blocks: 3 rows
    results = {}
    for lanes in (1, 2):
        monkeypatch.setattr(scoring, "LANES", lanes)
        for threads in (1, 2):
            with_threads(monkeypatch, threads)
            results[lanes, threads] = knn_classify(train_feats, train_labels, test_feats, k=4)
    want = results[1, 1]
    assert want.shape == (num_test,)
    for key, got in results.items():
        assert got.dtype == want.dtype and np.array_equal(got, want), key


def write_classify_inputs(directory):
    """A 30-entity graph, its literals and node labels (20 train, 10 test) as TSV files."""
    rng = np.random.default_rng(11)
    entities = [f"e{i}" for i in range(30)]
    paths = {name: str(directory / f"{name}.tsv")
             for name in ("train", "valid", "test", "literals", "labels")}
    triples = {(entities[h], f"r{r}", entities[t])
               for h, r, t in zip(rng.integers(0, 30, 90), rng.integers(0, 3, 90), rng.integers(0, 30, 90))}
    triples = sorted(triples)
    splits = {"train": triples[:-10], "valid": triples[-10:-5], "test": triples[-5:]}
    for name, rows in splits.items():
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.writelines(f"{h}\t{r}\t{t}\n" for h, r, t in rows)
    with open(paths["literals"], "w", encoding="utf-8") as fh:
        fh.writelines(f"{e}\tsize\t{rng.normal():.6f}\n" for e in entities)
    with open(paths["labels"], "w", encoding="utf-8") as fh:
        fh.writelines(f"{e}\tc{i % 3}\t{'train' if i < 20 else 'test'}\n" for i, e in enumerate(entities))
    return paths


def test_classify_knn_writes_the_same_files_on_one_and_two_threads(monkeypatch, tmp_path):
    paths = write_classify_inputs(tmp_path)
    artifact, checkpoint = str(tmp_path / "artifact"), str(tmp_path / "checkpoint")
    assert main(["preprocess", "--train-path", paths["train"], "--valid-path", paths["valid"],
                 "--test-path", paths["test"], "--literals-path", paths["literals"],
                 "--artifact-dir", artifact]) == 0
    assert main(["--seed", "0", "train", "--artifact-dir", artifact, "--checkpoint-dir", checkpoint,
                 "--model", "distmult", "--dim-entity", "4", "--dim-relation", "4",
                 "--epochs", "3"]) == 0
    monkeypatch.setattr(scoring, "BLOCK_SCORES", 4 * 20)  # lane blocks of 2 rows: 10 test rows in 3 a lane
    outputs = {}
    for threads in (1, 2):
        with_threads(monkeypatch, threads)
        out = tmp_path / f"classify-{threads}"
        assert main(["--seed", "0", "--output-dir", str(out), "classify", "--artifact-dir", artifact,
                     "--checkpoint-dir", checkpoint, "--labels-path", paths["labels"],
                     "--classifier", "knn", "--knn-k", "3"]) == 0
        outputs[threads] = {name: (out / name).read_bytes()
                            for name in ("predictions.tsv", "classification.json")}
    assert outputs[1] == outputs[2]
    assert outputs[1]["predictions.tsv"].count(b"\n") >= 10


@pytest.mark.parametrize("model", ["transe", "tucker"])
def test_evaluate_writes_the_same_report_on_one_and_two_threads(monkeypatch, tmp_path, model):
    paths = write_classify_inputs(tmp_path)
    artifact, checkpoint = str(tmp_path / "artifact"), str(tmp_path / "checkpoint")
    assert main(["preprocess", "--train-path", paths["train"], "--valid-path", paths["valid"],
                 "--test-path", paths["test"], "--literals-path", paths["literals"],
                 "--artifact-dir", artifact]) == 0
    assert main(["--seed", "0", "train", "--artifact-dir", artifact, "--checkpoint-dir", checkpoint,
                 "--model", model, "--fusion", "linear", "--dim-entity", "4", "--dim-relation", "4",
                 "--epochs", "3"]) == 0
    monkeypatch.setattr(scoring, "BLOCK_SCORES", 30)  # ranking blocks of 2 rows: 5 test triples in 3 and 2 a lane
    outputs = {}
    for threads in (1, 2):
        with_threads(monkeypatch, threads)
        out = tmp_path / f"evaluate-{threads}"
        assert main(["--output-dir", str(out), "evaluate", "--artifact-dir", artifact,
                     "--checkpoint-dir", checkpoint, "--group-by", "frequency", "--threshold", "3"]) == 0
        outputs[threads] = {name: (out / name).read_bytes() for name in ("report.json", "report.txt")}
    assert outputs[1] == outputs[2]
    assert b'"num_triples": 5' in outputs[1]["report.json"]


def test_ranking_fans_out_once(monkeypatch):
    graph, state = make_state("tucker", "gated", num_entities=30)
    monkeypatch.setattr(scoring, "BLOCK_SCORES", 2 * graph.num_entities)  # several blocks a lane
    calls, fan_out = [], scoring.fan_out
    monkeypatch.setattr(scoring, "fan_out", lambda fn, *lanes: calls.append(fn) or fan_out(fn, *lanes))
    rank_triples(state, graph, graph.train, "realistic")
    assert len(calls) == 1


@pytest.mark.parametrize("model", list(MODEL_DIMS))
def test_ranking_lanes_build_their_own_queries(monkeypatch, model):
    graph, state = make_state(model, "linear", num_entities=30)
    monkeypatch.setattr(scoring, "BLOCK_SCORES", 2 * graph.num_entities)
    with_threads(monkeypatch, 2)
    model_class, query = scoring.MODELS[model], scoring.MODELS[model].query
    threads = []

    def recorded(self, *args):
        threads.append((threading.get_ident(), id(self)))
        return query(self, *args)

    monkeypatch.setattr(model_class, "query", recorded)
    rank_triples(state, graph, graph.train, "realistic")
    # LANES distinct lane models, none of them used on the calling thread
    assert threads and threading.get_ident() not in {ident for ident, _ in threads}
    assert len({instance for _, instance in threads}) == scoring.LANES


@pytest.mark.parametrize("model", list(MODEL_DIMS))
def test_training_lanes_build_their_own_queries(monkeypatch, model):
    graph, state = make_state(model, "linear", num_entities=30)
    monkeypatch.setattr(scoring, "BLOCK_SCORES", 2 * graph.num_entities)
    with_threads(monkeypatch, 2)
    model_class = scoring.MODELS[model]
    calls = {name: [] for name in ("query", "query_backward")}

    def recording(name):
        method = getattr(model_class, name)

        def recorded(self, *args):
            calls[name].append((threading.get_ident(), id(self)))
            return method(self, *args)
        return recorded

    for name in calls:
        monkeypatch.setattr(model_class, name, recording(name))
    loss_and_grads(graph.train, state)
    for name, made in calls.items():
        # LANES distinct lane models, none of them used on the calling thread
        assert made and threading.get_ident() not in {ident for ident, _ in made}, name
        assert len({instance for _, instance in made}) == scoring.LANES, name


def test_tucker_lanes_allocate_no_khatri_rao_chunk(monkeypatch):
    # 64 triples, so each of the two lanes builds 64 query rows of 32 x 32 Khatri-Rao entries: a
    # lane model that allocated its chunk on use would allocate 512 KiB on each lane thread
    graph = random_graph(np.random.default_rng(5), num_entities=30, num_relations=4,
                         num_attributes=3, triples_per_relation=40)
    state = init_state(graph, TrainConfig(model="tucker", fusion="linear", dim_entity=32,
                                          dim_relation=32, seed=11), None)
    batch = np.concatenate([graph.train] * 2)[:64]
    with_threads(monkeypatch, 2)
    workspace = Workspace(state, len(batch))
    for _, model in workspace.lanes:
        assert model.chunk.size <= scoring.BLOCK_SCORES // scoring.LANES
        assert model.product.size == 32 * 32 * 32
    chunk_bytes = 64 * 32 * 32 * 8
    for _ in range(2):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            symmetric_lcwa_loss(batch, state, workspace)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < chunk_bytes


@pytest.mark.parametrize("count", [0, 1, 5, 6, 7, 23])
@pytest.mark.parametrize("lanes", [1, 2, 3])
@pytest.mark.parametrize("kernel", [pytest.param(scoring.SimilarityBlocks, id="forward"),
                                    pytest.param(scoring.GradientBlocks, id="gradient")])
def test_cut_contiguous_parts_into_blocks_of_the_lane_kernels_rows(monkeypatch, count, lanes, kernel):
    # ranking and KNN cut by their float32 kernels' rows (12 over 10 entities: the budget's bytes),
    # training by its gradient kernels' rows (a LANES share of the budget: 6 // lanes)
    monkeypatch.setattr(scoring, "LANES", lanes)
    monkeypatch.setattr(scoring, "BLOCK_SCORES", 6 * 10)
    step = 12 if kernel is scoring.SimilarityBlocks else 6 // lanes
    built = scoring.lanes(kernel, "distmult", scoring.EmbeddingTables(np.zeros((10, 2)), np.zeros((1, 2))))
    assert len(built) == lanes and all(type(k) is kernel and k.rows == step for k, _ in built)
    assert len({id(k) for k, _ in built}) == len({id(m) for _, m in built}) == lanes
    got = scoring.cut(count, built[0][0].rows)
    assert len(got) == lanes
    flat = [block for lane in got for block in lane]
    assert [i for block in flat for i in range(block.start, block.stop)] == list(range(count))
    assert all(0 < block.stop - block.start <= step for block in flat)
    sizes = [sum(block.stop - block.start for block in lane) for lane in got]
    assert sizes == sorted(sizes, reverse=True) and sizes[0] - sizes[-1] <= max(1, lanes - 1)
    assert all(block.start == lane[0].start + i * step for lane in got for i, block in enumerate(lane))


def test_ranking_builds_every_tucker_lane_model_on_the_calling_thread(monkeypatch):
    # TuckER's ranking lane models get their Khatri-Rao chunk when the lanes are built, before they
    # start; they never run query_backward, so they hold no core-product buffer
    graph, state = make_state("tucker", "gated", num_entities=30)
    monkeypatch.setattr(scoring, "BLOCK_SCORES", 2 * graph.num_entities)  # several blocks a lane
    with_threads(monkeypatch, 2)
    built, models = [], set()
    init, query = scoring.TuckER.__init__, scoring.TuckER.query

    def recorded_init(self, *args):
        built.append((threading.get_ident(), self))
        init(self, *args)

    def recorded_query(self, *args):
        models.add(self)
        return query(self, *args)

    monkeypatch.setattr(scoring.TuckER, "__init__", recorded_init)
    monkeypatch.setattr(scoring.TuckER, "query", recorded_query)
    rank_triples(state, graph, graph.train, "realistic")
    assert {ident for ident, _ in built} == {threading.get_ident()}
    assert len(models) == scoring.LANES and models == {model for _, model in built}
    assert all(model.product is None for model in models)


@pytest.mark.parametrize("threads", [1, 2])
def test_fan_out_returns_the_results_in_order(monkeypatch, threads):
    with_threads(monkeypatch, threads)
    assert scoring.fan_out(lambda a, b: a * b, [1, 2, 3], [4, 5, 6]) == [4, 10, 18]


def test_fan_out_on_threads_waits_for_every_call_before_raising(monkeypatch):
    with_threads(monkeypatch, 2)
    finished = []

    def call(item):
        if item == 0:
            raise ValueError("lane 0")
        time.sleep(0.05)  # still running when lane 0 fails
        finished.append(item)

    with pytest.raises(ValueError, match="lane 0"):
        scoring.fan_out(call, [0, 1])
    assert finished == [1]


def test_lanes_stay_on_the_calling_thread_unless_blas_is_single_threaded(monkeypatch):
    monkeypatch.setattr(litrel, "SINGLE_THREADED_BLAS", False)
    assert scoring.lane_threads() == 1
    monkeypatch.setattr(litrel, "SINGLE_THREADED_BLAS", True)
    assert scoring.lane_threads() == min(scoring.LANES, len(os.sched_getaffinity(0)))


def run_python(code, **env):
    clean = {k: v for k, v in os.environ.items() if k not in litrel.BLAS_THREAD_VARIABLES}
    clean["PYTHONPATH"] = os.path.dirname(os.path.dirname(litrel.__file__))
    clean.update(env)
    result = subprocess.run([sys.executable, "-c", code], env=clean, capture_output=True,
                            text=True, timeout=60, check=True)
    return result.stdout.split()


def test_litrel_gives_blas_one_thread_before_numpy_loads():
    code = ("import litrel, os; from litrel import scoring; "
            "print(*[os.environ[v] for v in litrel.BLAS_THREAD_VARIABLES], litrel.SINGLE_THREADED_BLAS)")
    assert run_python(code) == ["1", "1", "1", "True"]
    # a setting of one's own is kept, and then BLAS runs the threads
    assert run_python(code, OPENBLAS_NUM_THREADS="2") == ["2", "1", "1", "False"]


def test_numpy_loaded_first_keeps_the_lanes_on_the_calling_thread():
    code = ("import numpy, litrel, os; from litrel import scoring; "
            "print('OPENBLAS_NUM_THREADS' in os.environ, litrel.SINGLE_THREADED_BLAS, scoring.lane_threads())")
    assert run_python(code) == ["False", "False", "1"]
