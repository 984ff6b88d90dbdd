"""Workload definitions and the seeded input generator.

Every workload is a synthetic knowledge graph with a latent cluster
structure: each entity belongs to one cluster, each relation maps the
head's cluster to a tail cluster, and a tail is drawn inside that
cluster by a popularity weight.  Numeric literals are drawn around a
per-cluster mean, so they carry signal the fused models can use, and
node labels are the cluster id modulo the number of classes.

The generator depends only on the workload and the seed, writes only
TSV files, and is not timed.  It also returns the input properties that
explain a workload's costs (sizes, relation-group sizes per batch,
filter-set sizes, entity-table bytes against the L2 cache).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    entities: int
    relations: int
    relation_zipf: float      # 0 = uniform relation frequencies
    attributes: int
    literal_density: float
    tail_zipf: float          # 0 = uniform tail popularity inside a cluster
    clusters: int
    train: int
    valid: int
    test: int
    labelled: int
    classes: int
    model: str
    fusion: str
    aggregation: str
    dim: int
    batch_size: int
    epochs: int
    learning_rate: float
    group_by: str | None
    threshold: str | None
    classifier: str
    # runs of each command per pipeline repetition; the cheap commands
    # repeat so that their medians rest on more samples
    repeats: dict[str, int]

    def cli_args(self, paths: dict[str, str]) -> dict[str, list[str]]:
        """Arguments of the four CLI commands, keyed by command.

        The program's own seed stays 0: the benchmark seed varies the inputs only.
        """
        train = [
            "--seed", "0", "train",
            "--artifact-dir", paths["artifact"], "--checkpoint-dir", paths["checkpoint"],
            "--model", self.model, "--fusion", self.fusion, "--aggregation", self.aggregation,
            "--dim-entity", str(self.dim), "--dim-relation", str(self.dim),
            "--epochs", str(self.epochs), "--batch-size", str(self.batch_size),
            "--learning-rate", repr(self.learning_rate),
        ]
        evaluate = [
            "--output-dir", paths["eval"], "evaluate",
            "--artifact-dir", paths["artifact"], "--checkpoint-dir", paths["checkpoint"],
        ]
        if self.group_by is not None:
            evaluate += ["--group-by", self.group_by, "--threshold", self.threshold]
        return {
            "preprocess": [
                "preprocess",
                "--train-path", paths["train"], "--valid-path", paths["valid"],
                "--test-path", paths["test"], "--literals-path", paths["literals"],
                "--artifact-dir", paths["artifact"],
            ],
            "train": train,
            "evaluate": evaluate,
            "classify": [
                "--seed", "0", "--output-dir", paths["classify"], "classify",
                "--artifact-dir", paths["artifact"], "--checkpoint-dir", paths["checkpoint"],
                "--labels-path", paths["labels"], "--classifier", self.classifier,
            ],
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-dense",
            why=(
                "DistMult+linear fusion, 8 uniform relations, batch 512: training's "
                "backward scoring dominates; set-up and ranking are light"
            ),
            entities=3000, relations=8, relation_zipf=0.0, attributes=6,
            literal_density=0.7, tail_zipf=0.0, clusters=30,
            train=1500, valid=50, test=600, labelled=1000, classes=4,
            model="distmult", fusion="linear", aggregation="mean", dim=64,
            batch_size=512, epochs=1, learning_rate=0.02,
            group_by=None, threshold=None, classifier="knn",
            repeats={"preprocess": 3, "train": 2, "evaluate": 3, "classify": 5},
        ),
        Workload(
            name="literal-longtail",
            why=(
                "TuckER+gated fusion, learnable aggregation, 500 Zipf relations, 40 dense "
                "attributes: column statistics, fusion and correlation grouping dominate"
            ),
            entities=3000, relations=500, relation_zipf=1.1, attributes=40,
            literal_density=0.8, tail_zipf=0.0, clusters=30,
            train=1500, valid=50, test=300, labelled=2500, classes=4,
            model="tucker", fusion="gated", aggregation="learnable", dim=32,
            batch_size=256, epochs=1, learning_rate=0.02,
            group_by="correlation", threshold="0.95", classifier="svm",
            repeats={"preprocess": 1, "train": 1, "evaluate": 2, "classify": 5},
        ),
        Workload(
            name="rank-hubs",
            why=(
                "vanilla TransE, 8000 entities with Zipf hub tails: forward-only filtered "
                "ranking on a distance model and KNN; fusion is never called"
            ),
            entities=8000, relations=20, relation_zipf=0.0, attributes=4,
            literal_density=0.7, tail_zipf=0.8, clusters=4,
            train=80, valid=8000, test=300, labelled=3000, classes=4,
            model="transe", fusion="none", aggregation="mean", dim=48,
            batch_size=256, epochs=1, learning_rate=0.02,
            group_by="frequency", threshold="5%", classifier="knn",
            repeats={"preprocess": 3, "train": 2, "evaluate": 1, "classify": 2},
        ),
    )
}

INPUT_FILES = ("train", "valid", "test", "literals", "labels")


def _zipf_weights(count: int, exponent: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, count + 1, dtype=np.float64) ** exponent
    return weights / weights.sum()


def _sample_triples(w: Workload, rng: np.random.Generator, cluster_of, members, tail_cdf):
    """Distinct (head, relation, tail) index triples, every relation in the first ones."""
    total = w.train + w.valid + w.test
    rel_p = _zipf_weights(w.relations, w.relation_zipf)
    rel_p = rel_p[rng.permutation(w.relations)]
    cluster_map = np.stack([rng.permutation(w.clusters) for _ in range(w.relations)])
    seen = set()
    triples = []
    forced = list(range(w.relations))  # one triple per relation keeps |R| exact
    while len(triples) < total:
        chunk = 4 * (total - len(triples)) + len(forced)
        rels = np.concatenate([forced, rng.choice(w.relations, size=chunk, p=rel_p)])
        forced = []
        heads = rng.integers(w.entities, size=rels.size)
        draws = rng.random(rels.size)
        for r, h, u in zip(rels.tolist(), heads.tolist(), draws.tolist()):
            c = cluster_map[r, cluster_of[h]]
            t = int(members[c][np.searchsorted(tail_cdf[c], u * tail_cdf[c][-1])])
            if (h, r, t) not in seen:
                seen.add((h, r, t))
                triples.append((h, r, t))
                if len(triples) == total:
                    break
    first = triples[:w.relations]
    rest = [triples[i] for i in w.relations + rng.permutation(total - w.relations)]
    return first + rest


def generate(w: Workload, seed: int, out_dir: str) -> dict[str, str]:
    """Write the workload's TSV inputs for ``seed``; return their paths."""
    rng = np.random.default_rng([seed, sum(map(ord, w.name))])
    cluster_of = rng.integers(w.clusters, size=w.entities)
    popularity = _zipf_weights(w.entities, w.tail_zipf)[rng.permutation(w.entities)]
    members, tail_cdf = [], []
    for c in range(w.clusters):
        ids = np.flatnonzero(cluster_of == c)
        members.append(ids)
        tail_cdf.append(np.cumsum(popularity[ids]))
    triples = _sample_triples(w, rng, cluster_of, members, tail_cdf)
    train_end = w.train
    valid_end = w.train + w.valid
    splits = {
        "train": triples[:train_end],
        "valid": triples[train_end:valid_end],
        "test": triples[valid_end:],
    }

    os.makedirs(out_dir, exist_ok=True)
    paths = {name: os.path.join(out_dir, name + ".tsv") for name in INPUT_FILES}
    for name, rows in splits.items():
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.writelines(f"e{h}\tr{r}\te{t}\n" for h, r, t in rows)

    centers = rng.uniform(0.0, 100.0, size=(w.clusters, w.attributes))
    present = rng.random((w.entities, w.attributes)) < w.literal_density
    present[~present.any(axis=1), 0] = True  # every entity enters the vocabulary
    noise = rng.normal(0.0, 5.0, size=(w.entities, w.attributes))
    values = centers[cluster_of] + noise
    with open(paths["literals"], "w", encoding="utf-8") as fh:
        for e, a in zip(*np.nonzero(present)):
            fh.write(f"e{e}\ta{a}\t{float(values[e, a])!r}\n")

    in_train = np.unique([h for h, _, _ in splits["train"]] + [t for _, _, t in splits["train"]])
    pool = in_train if in_train.size >= w.labelled else np.arange(w.entities)
    nodes = rng.choice(pool, size=w.labelled, replace=False)
    with open(paths["labels"], "w", encoding="utf-8") as fh:
        for i, node in enumerate(nodes.tolist()):
            split = "test" if i % 5 == 0 else "train"
            fh.write(f"e{node}\tc{cluster_of[node] % w.classes}\t{split}\n")
    return paths


def read_triples(path: str) -> list[tuple[str, str, str]]:
    with open(path, encoding="utf-8") as fh:
        return [tuple(line.rstrip("\n").split("\t")) for line in fh if line.strip()]


def filter_sets(paths: dict[str, str]):
    """Label-level filter sets over all three splits, read back from the TSVs."""
    tails: dict[tuple[str, str], set[str]] = {}
    heads: dict[tuple[str, str], set[str]] = {}
    for split in ("train", "valid", "test"):
        for h, r, t in read_triples(paths[split]):
            tails.setdefault((h, r), set()).add(t)
            heads.setdefault((r, t), set()).add(h)
    return tails, heads


def l2_cache_bytes() -> int | None:
    """Per-core L2 size from sysfs, or None where it is not exposed."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            with open(os.path.join(base, index, "level"), encoding="ascii") as fh:
                if fh.read().strip() != "2":
                    continue
            with open(os.path.join(base, index, "size"), encoding="ascii") as fh:
                size = fh.read().strip()
            scale = {"K": 1024, "M": 1024 ** 2}.get(size[-1], 1)
            return int(size.rstrip("KM")) * scale
    except OSError:
        return None
    return None


def input_properties(w: Workload, paths: dict[str, str], seed: int) -> dict:
    """Properties of the generated inputs that later performance claims cite."""
    train = read_triples(paths["train"])
    test = read_triples(paths["test"])
    with open(paths["literals"], encoding="utf-8") as fh:
        literal_lines = sum(1 for _ in fh)
    entities = {x for split in ("train", "valid", "test") for h, _, t in read_triples(paths[split])
                for x in (h, t)}
    with open(paths["literals"], encoding="utf-8") as fh:
        entities.update(line.split("\t", 1)[0] for line in fh)

    # Relation groups per batch, under a uniform shuffle like the trainer's.
    rels = np.array([int(r[1:]) for _, r, _ in train])
    perm = np.random.default_rng(seed).permutation(rels.size)
    group_sizes = []
    for start in range(0, rels.size, w.batch_size):
        _, counts = np.unique(rels[perm[start:start + w.batch_size]], return_counts=True)
        group_sizes.extend(counts.tolist())
    group_sizes = np.array(group_sizes)

    tails, heads = filter_sets(paths)
    filter_sizes = np.array([len(tails[(h, r)]) for h, r, _ in test]
                            + [len(heads[(r, t)]) for _, r, t in test])
    l2 = l2_cache_bytes()
    table_bytes = len(entities) * w.dim * 8
    return {
        "entities": len(entities),
        "relations": len({r for _, r, _ in train}),
        "attributes": w.attributes,
        "literal_lines": literal_lines,
        "train_triples": len(train),
        "test_triples": len(test),
        "batch_size": w.batch_size,
        "groups_per_batch_mean": group_sizes.size / -(-rels.size // w.batch_size),
        "group_size_mean": float(group_sizes.mean()),
        "group_size_p50": float(np.median(group_sizes)),
        "group_size_max": int(group_sizes.max()),
        "singleton_group_share": float((group_sizes == 1).mean()),
        "filter_set_mean": float(filter_sizes.mean()),
        "filter_set_max": int(filter_sizes.max()),
        "entity_table_bytes": table_bytes,
        "l2_bytes": l2,
        "entity_table_over_l2": table_bytes / l2 if l2 else None,
    }
