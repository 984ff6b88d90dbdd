"""Full-scale harness: literal-fused vs vanilla models on a real dataset.

A full run trains four models end to end and can take hours depending
on the dataset size and the epoch budget; the tests only smoke-test it,
one epoch on a tiny graph (``tests/test_scripts.py``).  The success
criterion is directional: for each scoring model, the fused variant
should reach a higher filtered test MRR than its vanilla counterpart
under the identical budget.

Expected dataset layout (tab-separated)::

    <dir>/train.tsv      head<TAB>relation<TAB>tail
    <dir>/valid.tsv
    <dir>/test.tsv
    <dir>/literals.tsv   entity<TAB>attribute<TAB>numeric value

Datasets with date-typed attributes should be converted to decimals
beforehand (see ``litrel.data.date_to_decimal``).

Usage::

    python scripts/full_scale_comparison.py --data-dir path/to/dataset \
        --models transe distmult --epochs 100 --dim 200 --out results/
"""

import argparse
import json
import os
import time

from litrel.data import build_graph, load_literals, load_triples
from litrel.evaluation import evaluate
from litrel.training import TrainConfig, train


def load_dataset(data_dir):
    return build_graph(
        load_triples(os.path.join(data_dir, "train.tsv")),
        load_triples(os.path.join(data_dir, "valid.tsv")),
        load_triples(os.path.join(data_dir, "test.tsv")),
        load_literals(os.path.join(data_dir, "literals.tsv")),
    )


def run_one(graph, model, fusion, args):
    dim_relation = args.dim // 2 if model == "rotate" else args.dim
    config = TrainConfig(
        model=model,
        fusion=fusion,
        aggregation=args.aggregation,
        dim_entity=args.dim,
        dim_relation=dim_relation,
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        optimizer=args.optimizer,
        seed=args.seed,
        valid_every=args.valid_every,
    )
    start = time.time()
    state, history = train(graph, config)
    report = evaluate(state, graph, split="test")
    return {
        "model": model,
        "fusion": fusion or "none",
        "mrr": report.mrr,
        "hits_at_1": report.hits1,
        "hits_at_10": report.hits10,
        "final_loss": history["loss"][-1] if history["loss"] else None,
        "seconds": round(time.time() - start, 1),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--models", nargs="+", default=["transe", "distmult"])
    parser.add_argument("--fusion", default="linear", choices=["linear", "gated"])
    parser.add_argument("--aggregation", default="mean")
    parser.add_argument("--dim", type=int, default=200)
    parser.add_argument("--epochs", type=int, default=100)
    parser.add_argument("--batch-size", type=int, default=512)
    parser.add_argument("--learning-rate", type=float, default=1e-3)
    parser.add_argument("--optimizer", default="adam", choices=["adam", "sgd"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--valid-every", type=int, default=10)
    parser.add_argument("--out", default="comparison_results")
    args = parser.parse_args()

    graph = load_dataset(args.data_dir)
    print(
        f"loaded {graph.num_entities} entities, {graph.num_relations} relations, "
        f"{graph.num_attributes} attributes, {graph.train.shape[0]} training triples"
    )
    results = []
    for model in args.models:
        for fusion in (None, args.fusion):
            result = run_one(graph, model, fusion, args)
            results.append(result)
            print(
                f"{result['model']:>10} + {result['fusion']:<6} "
                f"MRR {result['mrr']:.4f}  H@1 {result['hits_at_1']:.4f}  "
                f"H@10 {result['hits_at_10']:.4f}  ({result['seconds']}s)"
            )

    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "results.json"), "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "results": results}, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print("\ndirectional summary (fused minus vanilla MRR):")
    ok = True
    for model in args.models:
        vanilla = next(r for r in results if r["model"] == model and r["fusion"] == "none")
        fused = next(r for r in results if r["model"] == model and r["fusion"] != "none")
        delta = fused["mrr"] - vanilla["mrr"]
        verdict = "improved" if delta > 0 else "NOT improved"
        ok = ok and delta > 0
        print(f"  {model}: {delta:+.4f} ({verdict})")
    raise SystemExit(0 if ok else 1)


if __name__ == "__main__":
    main()
