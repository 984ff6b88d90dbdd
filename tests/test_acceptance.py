"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline;
under plain ``pytest`` the test outcome itself is the pass/fail signal.
"""

import contextlib
import os
import statistics
from pathlib import Path

import numpy as np
import pytest

from conftest import exact_scores, random_graph
from litrel.aggregation import build_profiles, literal_vectors
from litrel.cli import main as cli_main
from litrel.data import build_graph
from litrel.downstream import knn_classify, micro_f1, svm_train
from litrel.evaluation import (
    compute_metrics,
    evaluate,
    group_by_correlation,
    group_by_frequency,
    rank_triples,
)
from litrel.kernels import STAT_NAMES
from litrel.training import TrainConfig, Workspace, init_state, symmetric_lcwa_loss, train


@contextlib.contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({title}): FAIL")
        raise
    print(f"criterion {number} ({title}): PASS")


# --- 1: gradient suite --------------------------------------------------

GRAD_DIMS = {  # (dim_entity, dim_relation) honoring each model's constraint
    "transe": (6, 6), "distmult": (6, 6), "complex": (6, 6),
    "rotate": (6, 3), "tucker": (6, 6),
}


def finite_difference_check(graph, config, batch, tol=1e-4):
    state = init_state(graph, config, None)
    _, grads = symmetric_lcwa_loss(batch, state, Workspace(state, len(batch)))
    params = state.parameters()
    h = 1e-6
    worst = 0.0
    for name, tensor in params.items():
        analytic = grads[name].reshape(-1)
        flat = tensor.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            plus, _ = symmetric_lcwa_loss(batch, state, Workspace(state, len(batch)))
            flat[i] = orig - h
            minus, _ = symmetric_lcwa_loss(batch, state, Workspace(state, len(batch)))
            flat[i] = orig
            numeric = (plus - minus) / (2 * h)
            scale = max(1e-5, abs(numeric), abs(analytic[i]))
            rel = abs(numeric - analytic[i]) / scale
            worst = max(worst, rel)
            assert rel <= tol, f"{config.model}/{config.fusion}/{config.aggregation} {name}[{i}]"
    return worst


def test_criterion_1_gradient_suite(rng):
    with criterion(1, "gradient suite, rel err <= 1e-4"):
        graph = random_graph(rng, num_entities=8, num_attributes=3, triples_per_relation=4)
        batch = graph.train[:3]
        worst = 0.0
        for model, (de, dr) in GRAD_DIMS.items():
            settings = [("none", "mean")]
            settings += [
                (fusion, agg)
                for fusion in ("linear", "gated")
                for agg in ("min", "mean", "mode", "learnable")
            ]
            for fusion, agg in settings:
                config = TrainConfig(
                    model=model, fusion=fusion, aggregation=agg,
                    dim_entity=de, dim_relation=dr, seed=11,
                )
                worst = max(worst, finite_difference_check(graph, config, batch))
        print(f"  worst relative error: {worst:.2e}")


# --- 2: parameter audit -------------------------------------------------

def test_criterion_2_parameter_audit(rng):
    with criterion(2, "fusion parameter counts exact"):
        grid = [(4, 1), (6, 2), (6, 3), (8, 5), (10, 4), (12, 7)]
        for dim, attrs in grid:
            graph = random_graph(rng, num_entities=6, num_attributes=attrs,
                                 literal_density=1.0)
            base = graph.num_entities * dim + graph.num_relations * dim
            for fusion in ("linear", "gated"):
                for agg in ("mean", "learnable"):
                    config = TrainConfig(model="distmult", fusion=fusion, aggregation=agg,
                                         dim_entity=dim, dim_relation=dim)
                    state = init_state(graph, config, None)
                    learnable = agg == "learnable"
                    if fusion == "linear":
                        expected = dim * dim + 2 * attrs * dim + dim
                    else:
                        expected = 2 * dim * dim + 4 * attrs * dim + dim
                    if learnable:
                        expected += 12
                    assert state.parameter_count() == base + expected


# --- 3: aggregation oracle ----------------------------------------------

def oracle_stats(values, mask):
    """Brute-force column statistics using the statistics stdlib."""
    out = np.zeros((values.shape[1], len(STAT_NAMES)))
    n = values.shape[0]
    if n == 0:
        return out

    def quantile(sorted_vals, q):
        pos = (len(sorted_vals) - 1) * q
        lo, hi = int(np.floor(pos)), int(np.ceil(pos))
        frac = pos - lo
        return sorted_vals[lo] * (1 - frac) + sorted_vals[hi] * frac

    for a in range(values.shape[1]):
        col = sorted(float(v) for v in values[:, a])
        counts = {}
        for v in col:
            counts[v] = counts.get(v, 0) + 1
        best = max(counts.values())
        mode = min(v for v, c in counts.items() if c == best)
        var = statistics.pvariance(col) if n > 1 else 0.0
        out[a] = [
            statistics.fmean(col), quantile(col, 0.5), mode, col[0], col[-1],
            sum(col), float(mask[:, a].sum()), var, var ** 0.5,
            quantile(col, 0.75) - quantile(col, 0.25), col[-1] - col[0],
        ]
    return out


def test_criterion_3_aggregation_oracle():
    with criterion(3, "aggregation statistics vs brute force"):
        master = np.random.default_rng(42)
        for trial in range(100):
            rng = np.random.default_rng(master.integers(2**31))
            graph = random_graph(
                rng,
                num_entities=int(rng.integers(3, 9)),
                num_relations=int(rng.integers(1, 4)),
                num_attributes=int(rng.integers(1, 5)),
                triples_per_relation=int(rng.integers(2, 8)),
                literal_density=float(rng.uniform(0.2, 1.0)),
            )
            profiles = build_profiles(graph)
            for rel in range(graph.num_relations):
                triples = graph.train[graph.train[:, 1] == rel]
                for side, u in zip(("head", "tail"), profiles):
                    computed = u[rel]
                    col = 0 if side == "head" else 2
                    entities = sorted(set(int(x) for x in triples[:, col]))
                    values = graph.literals.values[entities]
                    mask = graph.literals.present[entities]
                    expected = oracle_stats(values, mask)
                    np.testing.assert_allclose(computed, expected, atol=1e-9)
                weights = rng.uniform(-1, 1, size=11)
                bias = np.array([float(rng.normal())])
                l_h, l_t = literal_vectors(profiles, np.array([rel]), "learnable", weights, bias,
                                           {}, tuple(np.empty(u.shape) for u in profiles))
                direct_h = 1.0 / (1.0 + np.exp(-(profiles[0][rel] @ weights + bias[0])))
                direct_t = 1.0 / (1.0 + np.exp(-(profiles[1][rel] @ weights + bias[0])))
                np.testing.assert_allclose(l_h[0], direct_h, atol=1e-12)
                np.testing.assert_allclose(l_t[0], direct_t, atol=1e-12)


# --- 4: ranking oracle --------------------------------------------------

def exhaustive_rank(scores, true_index, filtered):
    kept = [(i, s) for i, s in enumerate(scores) if i == true_index or i not in filtered]
    ordered = sorted(kept, key=lambda pair: -pair[1])
    positions = [p + 1 for p, (i, s) in enumerate(ordered) if s == scores[true_index]]
    return (min(positions) + max(positions)) / 2.0


def test_criterion_4_ranking_oracle(monkeypatch):
    with criterion(4, "filtered ranks vs exhaustive sort"):
        from litrel import scoring

        master = np.random.default_rng(7)
        for trial in range(30):
            rng = np.random.default_rng(master.integers(2**31))
            graph = random_graph(
                rng, num_entities=int(rng.integers(3, 9)),
                triples_per_relation=int(rng.integers(3, 10)),
            )
            config = TrainConfig(model="distmult", dim_entity=4, dim_relation=4,
                                 seed=int(rng.integers(100)))
            state = init_state(graph, config, None)
            # round scores' inputs to force ties occasionally
            state.tables.entity[...] = np.round(state.tables.entity, 1)
            state.tables.relation[...] = np.round(state.tables.relation, 1)
            triples = graph.train
            known = np.concatenate([graph.train, graph.valid, graph.test]).tolist()
            r_lit = np.stack([state.fused_relation(r) for r in range(graph.num_relations)])
            # the whole split in one block, then blocks of 2 rows
            for block_scores in (scoring.BLOCK_SCORES, 2 * graph.num_entities):
                monkeypatch.setattr(scoring, "BLOCK_SCORES", block_scores)
                ranks = rank_triples(state, graph, triples, "realistic")
                # the oracle sorts the exact scores of every candidate of the very blocks the ranker
                # ranked (input order, spanning relations), each pair through the kernel's re-check
                lanes = scoring.lanes(scoring.SimilarityBlocks, config.model, state.tables)
                cuts = scoring.cut(triples.shape[0], lanes[0][0].rows)
                for (kernel, model), rows in ((lane, rows) for lane, blocks in zip(lanes, cuts) for rows in blocks):
                    start, block = rows.start, triples[rows]
                    r_rows = r_lit[block[:, 1]]
                    tail_scores, head_scores = (
                        exact_scores(kernel, model.query(state.tables, anchors, r_rows, side))
                        for anchors, side in ((block[:, 0], "tail"), (block[:, 2], "head")))
                    for k, (h, r, t) in enumerate(block.tolist()):
                        f_t = {kt for kh, kr, kt in known if (kh, kr) == (h, r)} - {t}
                        f_h = {kh for kh, kr, kt in known if (kr, kt) == (r, t)} - {h}
                        assert ranks[start + k, 1] == exhaustive_rank(tail_scores[k], t, f_t)
                        assert ranks[start + k, 0] == exhaustive_rank(head_scores[k], h, f_h)
            mrr, hits1, hits10 = compute_metrics(ranks)
            pooled = ranks.reshape(-1)  # head rank, tail rank per triple
            assert mrr == float(np.mean(1.0 / pooled))
            assert hits1 == float(np.mean(pooled <= 1))
            assert hits10 == float(np.mean(pooled <= 10))


# --- 5: synthetic correlation benefit -----------------------------------

def rents_dataset(seed=0, num_people=200, num_houses=200, band=0.05):
    """People rent exactly the houses whose rent is ~ income / 3."""
    rng = np.random.default_rng(seed)
    incomes = rng.uniform(1000.0, 10000.0, size=num_people)
    rents = rng.uniform(300.0, 3500.0, size=num_houses)
    edges = []
    for i in range(num_people):
        for j in range(num_houses):
            if abs(incomes[i] - 3.0 * rents[j]) <= band * incomes[i]:
                edges.append((f"p{i}", "rents", f"h{j}"))
    rng.shuffle(edges)
    # ring relations keep every entity inside the training vocabulary
    extra = [(f"p{i}", "knows", f"p{(i + 1) % num_people}") for i in range(num_people)]
    extra += [(f"h{j}", "near", f"h{(j + 1) % num_houses}") for j in range(num_houses)]
    n_hold = max(1, len(edges) // 10)
    test = edges[:n_hold]
    valid = edges[n_hold:2 * n_hold]
    train_edges = edges[2 * n_hold:] + extra
    literals = [(f"p{i}", "income", float(incomes[i])) for i in range(num_people)]
    literals += [(f"h{j}", "rent", float(rents[j])) for j in range(num_houses)]
    return build_graph(train_edges, valid, test, literals)


@pytest.mark.slow
def test_criterion_5_synthetic_correlation_benefit():
    with criterion(5, "literal fusion beats vanilla on correlated KG"):
        graph = rents_dataset()
        grouping = group_by_correlation(graph, threshold=0.2)
        assert grouping.partition[graph.relations.index["rents"]] == "correlated"
        for seed in (0, 1, 2):
            results = {}
            for fusion in ("none", "linear"):
                config = TrainConfig(
                    model="distmult", fusion=fusion, aggregation="mean",
                    dim_entity=16, dim_relation=16, epochs=10, batch_size=64,
                    learning_rate=0.5, optimizer="sgd", seed=seed,
                )
                state, _ = train(graph, config)
                results[fusion] = evaluate(state, graph, split="test").mrr
            print(f"  seed {seed}: vanilla {results['none']:.4f} fused {results['linear']:.4f}")
            assert results["linear"] > results["none"]


# --- 6: ablation equivalence --------------------------------------------

def test_criterion_6_ablation_equivalence(toy_graph):
    with criterion(6, "switched-off gate reproduces vanilla"):
        base = TrainConfig(model="distmult", dim_entity=6, dim_relation=6, seed=5)
        vanilla = init_state(toy_graph, base, None)
        gated_cfg = TrainConfig(model="distmult", fusion="gated", aggregation="mean",
                                dim_entity=6, dim_relation=6, seed=5)
        gated = init_state(toy_graph, gated_cfg, None)
        gated.tables.entity[...] = vanilla.tables.entity
        gated.tables.relation[...] = vanilla.tables.relation
        block = gated.fusion
        block.gate[...] = 0.0
        block.gate_bias[...] = -30.0
        for triple in toy_graph.train:
            l_v, _ = symmetric_lcwa_loss(triple[None, :], vanilla, Workspace(vanilla, 1))
            l_g, _ = symmetric_lcwa_loss(triple[None, :], gated, Workspace(gated, 1))
            assert abs(l_v - l_g) <= 1e-6


# --- 7: grouped-report identity -----------------------------------------

def test_criterion_7_grouped_report_identity(rng):
    with criterion(7, "group MRRs weighted-mean to overall MRR"):
        graph = random_graph(rng, num_entities=8, num_relations=3,
                             triples_per_relation=8)
        graph.test = graph.train[:8].copy()
        config = TrainConfig(model="distmult", dim_entity=6, dim_relation=6, seed=2)
        state = init_state(graph, config, None)
        for grouping in (
            group_by_frequency(graph, threshold_count=5),
            group_by_correlation(graph, threshold=0.2),
        ):
            report = evaluate(state, graph, grouping=grouping, split="test")
            total, weighted = 0, 0.0
            for metrics in report.group_metrics.values():
                total += metrics["num_triples"]
                if metrics["mrr"] is not None:
                    weighted += metrics["mrr"] * metrics["num_triples"]
            assert total == report.num_triples
            assert abs(weighted / total - report.mrr) <= 1e-12


# --- 8: node-classification fixture -------------------------------------

def test_criterion_8_node_classification():
    with criterion(8, "KNN and SVM micro-F1 >= 0.95 on separable classes"):
        rng = np.random.default_rng(3)
        centers = np.array([[0.0, 0.0, 0.0], [4.0, 4.0, 0.0], [-4.0, 4.0, 4.0]])
        feats, labels = [], []
        for c, center in enumerate(centers):
            feats.append(center + 0.5 * rng.normal(size=(200, 3)))
            labels.extend([c] * 200)
        feats = np.vstack(feats)
        labels = np.array(labels)
        order = rng.permutation(600)
        split = 450
        tr, te = order[:split], order[split:]
        knn_preds = knn_classify(feats[tr], labels[tr], feats[te], k=5)
        assert micro_f1(knn_preds, labels[te]) >= 0.95
        svm = svm_train(feats[tr], labels[tr], seed=0)
        svm_preds = svm.predict(feats[te])
        assert micro_f1(svm_preds, labels[te]) >= 0.95
        assert micro_f1(knn_preds, labels[te]) == float((knn_preds == labels[te]).mean())


# --- 9: pipeline determinism --------------------------------------------

def run_pipeline(dataset_dir, out_dir):
    artifact = os.path.join(out_dir, "artifact")
    checkpoint = os.path.join(out_dir, "checkpoint")
    assert cli_main([
        "preprocess",
        "--train-path", os.path.join(dataset_dir, "train.tsv"),
        "--valid-path", os.path.join(dataset_dir, "valid.tsv"),
        "--test-path", os.path.join(dataset_dir, "test.tsv"),
        "--literals-path", os.path.join(dataset_dir, "literals.tsv"),
        "--artifact-dir", artifact,
    ]) == 0
    assert cli_main([
        "--seed", "0",
        "train",
        "--artifact-dir", artifact,
        "--checkpoint-dir", checkpoint,
        "--model", "distmult", "--fusion", "linear",
        "--dim-entity", "8", "--dim-relation", "8",
        "--epochs", "4", "--learning-rate", "0.05",
    ]) == 0
    assert cli_main([
        "--output-dir", out_dir,
        "evaluate",
        "--artifact-dir", artifact,
        "--checkpoint-dir", checkpoint,
    ]) == 0
    history = Path(checkpoint, "history.json").read_bytes()
    report = Path(out_dir, "report.json").read_bytes()
    return history, report


def test_criterion_9_pipeline_determinism(tmp_path):
    with criterion(9, "identical seeds give identical traces and reports"):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        entities = [f"e{i}" for i in range(10)]
        triples = [(entities[i], "r", entities[(i + 1) % 10]) for i in range(10)]
        triples += [(entities[i], "s", entities[(i + 3) % 10]) for i in range(10)]
        (data_dir / "train.tsv").write_text(
            "".join(f"{h}\t{r}\t{t}\n" for h, r, t in triples[:16]))
        (data_dir / "valid.tsv").write_text(
            "".join(f"{h}\t{r}\t{t}\n" for h, r, t in triples[16:18]))
        (data_dir / "test.tsv").write_text(
            "".join(f"{h}\t{r}\t{t}\n" for h, r, t in triples[18:]))
        (data_dir / "literals.tsv").write_text(
            "".join(f"{e}\ta\t{100.0 + 7 * i}\n" for i, e in enumerate(entities)))
        h1, r1 = run_pipeline(str(data_dir), str(tmp_path / "run1"))
        h2, r2 = run_pipeline(str(data_dir), str(tmp_path / "run2"))
        assert h1 == h2
        assert r1 == r2
