"""Training under the symmetric all-entity cross-entropy objective.

Each training triple contributes two cross-entropy terms: softmax over
the scores of all candidate tails against the true tail, and softmax
over all candidate heads against the true head.  No inverse triples are
ever materialized.  The batch loss is the mean over triples.

Gradients are computed analytically and flow into the embedding tables,
the fusion parameters and, when the learnable aggregation combination is
configured, its 12 scalars.  Everything is float64 numpy; runs are
deterministic given the seed.
"""

from __future__ import annotations

import json
import logging
import os
import shutil
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from litrel import fusion as fusion_mod
from litrel import scoring
from litrel.aggregation import (
    AGGREGATION_KINDS,
    LearnableAggregationParams,
    RelationLiteralProfile,
    build_profiles,
    literal_vectors,
    literal_vectors_backward,
)
from litrel.data import KnowledgeGraph
from litrel.errors import ConfigError, TrainingError
from litrel.kernels import NUM_STATS
from litrel.scoring import MODEL_KINDS, EmbeddingTables
from litrel.serialize import load_arrays, save_arrays

logger = logging.getLogger(__name__)

CHECKPOINT_VERSION = 1


@dataclass
class TrainConfig:
    """Declarative description of one training run."""

    model: str = "distmult"
    fusion: str | None = None            # "linear", "gated" or None (vanilla)
    aggregation: str = "mean"
    dim_entity: int = 32
    dim_relation: int = 32
    epochs: int = 100
    batch_size: int = 256
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    seed: int = 0
    transe_norm: int = 2
    l2: float = 0.0
    valid_every: int = 0                 # 0 disables periodic validation MRR
    aggregate_over_all_rows: bool = False
    multiset_rows: bool = False
    complex_separate_fusion: bool = False

    def validate(self) -> None:
        if self.model not in MODEL_KINDS:
            raise ConfigError(f"unknown model {self.model!r}")
        if self.fusion not in (None, "none", "linear", "gated"):
            raise ConfigError(f"unknown fusion kind {self.fusion!r}")
        if self.aggregation not in AGGREGATION_KINDS:
            raise ConfigError(f"unknown aggregation kind {self.aggregation!r}")
        if self.dim_entity <= 0 or self.dim_relation <= 0:
            raise ConfigError("embedding dimensions must be positive")
        if self.model in ("complex", "rotate") and self.dim_entity % 2:
            raise ConfigError(f"{self.model} requires an even entity dimension")
        if self.model == "complex" and self.dim_relation % 2:
            raise ConfigError("complex requires an even relation dimension")
        if self.model in ("transe", "distmult", "complex") and self.dim_relation != self.dim_entity:
            raise ConfigError(f"{self.model} requires dim_relation == dim_entity")
        if self.model == "rotate" and self.dim_relation != self.dim_entity // 2:
            raise ConfigError("rotate stores phase vectors: dim_relation must be dim_entity // 2")
        if self.epochs < 0 or self.batch_size <= 0:
            raise ConfigError("epochs must be >= 0 and batch_size positive")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.optimizer not in ("adam", "sgd"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.transe_norm not in (1, 2):
            raise ConfigError("transe_norm must be 1 or 2")
        if self.l2 < 0:
            raise ConfigError("l2 must be non-negative")

    @property
    def fusion_enabled(self) -> bool:
        return self.fusion not in (None, "none")


class Optimizer:
    """Adam (beta1=0.9, beta2=0.999, eps=1e-8) or plain SGD, in-place."""

    def __init__(self, kind: str, learning_rate: float):
        if kind not in ("adam", "sgd"):
            raise ConfigError(f"unknown optimizer {kind!r}")
        self.kind = kind
        self.learning_rate = learning_rate
        self.step_count = 0
        self.moment1: dict[str, np.ndarray] = {}
        self.moment2: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.step_count += 1
        if self.kind == "sgd":
            for name, p in params.items():
                p -= self.learning_rate * grads[name]
            return
        b1, b2, eps = 0.9, 0.999, 1e-8
        t = self.step_count
        for name, p in params.items():
            g = grads[name]
            if g.shape != p.shape:
                raise TrainingError(f"gradient shape mismatch for {name}: {g.shape} vs {p.shape}")
            m = self.moment1.setdefault(name, np.zeros_like(p))
            v = self.moment2.setdefault(name, np.zeros_like(p))
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            p -= self.learning_rate * m_hat / (np.sqrt(v_hat) + eps)

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {"step_count": np.array([self.step_count], dtype=np.int64)}
        for name, arr in self.moment1.items():
            out["m1." + name] = arr
        for name, arr in self.moment2.items():
            out["m2." + name] = arr
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        self.step_count = int(arrays["step_count"][0])
        for name, arr in arrays.items():
            if name.startswith("m1."):
                self.moment1[name[3:]] = arr
            elif name.startswith("m2."):
                self.moment2[name[3:]] = arr


@dataclass
class ModelState:
    """Everything trainable plus the frozen literal profiles."""

    config: TrainConfig
    tables: EmbeddingTables
    fusion_blocks: list = field(default_factory=list)
    agg_weights: np.ndarray | None = None   # (11,)
    agg_bias: np.ndarray | None = None      # (1,)
    profiles: dict[int, RelationLiteralProfile] = field(default_factory=dict)
    optimizer: Optimizer | None = None
    _model: object = None
    _static_literals: dict[int, tuple] = field(default_factory=dict)

    @property
    def model(self):
        if self._model is None:
            self._model = scoring.make_model(self.config.model, self.config.transe_norm)
        return self._model

    @property
    def learnable_aggregation(self) -> bool:
        return self.agg_weights is not None

    def agg_params(self) -> LearnableAggregationParams:
        return LearnableAggregationParams(weights=self.agg_weights, bias=self.agg_bias)

    def parameters(self) -> dict[str, np.ndarray]:
        params = {"entity": self.tables.entity, "relation": self.tables.relation}
        if self.tables.core is not None:
            params["core"] = self.tables.core
        seen = set()
        for block in self.fusion_blocks:
            if id(block) in seen:
                continue
            seen.add(id(block))
            params.update(block.parameters())
        if self.learnable_aggregation:
            params["agg.weights"] = self.agg_weights
            params["agg.bias"] = self.agg_bias
        return params

    def zero_grads(self) -> dict[str, np.ndarray]:
        return {name: np.zeros_like(p) for name, p in self.parameters().items()}

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters().values())

    def base_parameter_count(self) -> int:
        total = self.tables.entity.size + self.tables.relation.size
        if self.tables.core is not None:
            total += self.tables.core.size
        return total

    # --- literal vectors ------------------------------------------------

    def literal_vectors_for(self, relation: int):
        cfg = self.config
        if not cfg.fusion_enabled:
            return None, None
        if cfg.aggregation == "learnable":
            return literal_vectors(self.profiles[relation], "learnable", self.agg_params())
        cached = self._static_literals.get(relation)
        if cached is None:
            cached = literal_vectors(self.profiles[relation], cfg.aggregation)
            self._static_literals[relation] = cached
        return cached

    # --- fused relation vector -----------------------------------------

    def fused_relation(self, relation: int) -> np.ndarray:
        r_lit, _ = self.fuse_forward(relation)
        return r_lit

    def fuse_forward(self, relation: int):
        row = self.tables.relation[relation]
        if not self.config.fusion_enabled:
            return row.copy(), None
        l_h, l_t = self.literal_vectors_for(relation)
        if self.config.model == "complex":
            m = self.config.dim_relation // 2
            re, cache_re = self.fusion_blocks[0].forward(l_h, row[:m], l_t)
            im, cache_im = self.fusion_blocks[1].forward(l_h, row[m:], l_t)
            return np.concatenate([re, im]), (cache_re, cache_im, l_h, l_t)
        r_lit, cache = self.fusion_blocks[0].forward(l_h, row, l_t)
        return r_lit, (cache, l_h, l_t)

    def fuse_backward(self, relation: int, cache, d_r_lit, grads) -> None:
        if not self.config.fusion_enabled:
            grads["relation"][relation] += d_r_lit
            return
        if self.config.model == "complex":
            m = self.config.dim_relation // 2
            cache_re, cache_im, l_h, l_t = cache
            dlh1, drow_re, dlt1 = self.fusion_blocks[0].backward(cache_re, d_r_lit[:m], grads)
            dlh2, drow_im, dlt2 = self.fusion_blocks[1].backward(cache_im, d_r_lit[m:], grads)
            grads["relation"][relation, :m] += drow_re
            grads["relation"][relation, m:] += drow_im
            d_l_h = dlh1 + dlh2
            d_l_t = dlt1 + dlt2
        else:
            fusion_cache, l_h, l_t = cache
            d_l_h, d_row, d_l_t = self.fusion_blocks[0].backward(fusion_cache, d_r_lit, grads)
            grads["relation"][relation] += d_row
        if self.learnable_aggregation:
            d_w, d_b = literal_vectors_backward(
                self.profiles[relation], self.agg_params(), d_l_h, d_l_t
            )
            grads["agg.weights"] += d_w
            grads["agg.bias"] += d_b


def fusion_block_dim(config: TrainConfig) -> int:
    if config.model == "complex":
        return config.dim_relation // 2
    return config.dim_relation


def init_state(graph: KnowledgeGraph, config: TrainConfig,
               profiles: dict[int, RelationLiteralProfile] | None = None) -> ModelState:
    """Allocate and initialize all trainable tensors for a run."""
    config.validate()
    if config.fusion_enabled and graph.num_attributes == 0:
        raise ConfigError("fusion requires literal attributes, but the graph has none")
    rng = np.random.default_rng(config.seed)

    def glorot_rows(count, dim):
        limit = np.sqrt(6.0 / (2 * dim))
        return rng.uniform(-limit, limit, size=(count, dim))

    entity = glorot_rows(graph.num_entities, config.dim_entity)
    relation = glorot_rows(graph.num_relations, config.dim_relation)
    core = None
    if config.model == "tucker":
        core = rng.uniform(-1.0, 1.0, size=(config.dim_entity, config.dim_relation, config.dim_entity)) * 0.1
    tables = EmbeddingTables(entity=entity, relation=relation, core=core)

    state = ModelState(config=config, tables=tables)
    if config.fusion_enabled:
        if profiles is None:
            profiles = build_profiles(
                graph,
                aggregate_over_all_rows=config.aggregate_over_all_rows,
                multiset_rows=config.multiset_rows,
            )
        state.profiles = profiles
        dim = fusion_block_dim(config)
        if config.model == "complex" and config.complex_separate_fusion:
            state.fusion_blocks = [
                fusion_mod.make_fusion(config.fusion, dim, graph.num_attributes, rng, name="fusion_re"),
                fusion_mod.make_fusion(config.fusion, dim, graph.num_attributes, rng, name="fusion_im"),
            ]
        else:
            block = fusion_mod.make_fusion(config.fusion, dim, graph.num_attributes, rng)
            state.fusion_blocks = [block, block] if config.model == "complex" else [block]
        if config.aggregation == "learnable":
            state.agg_weights = rng.uniform(-0.5, 0.5, size=NUM_STATS)
            state.agg_bias = np.zeros(1)
    state.optimizer = Optimizer(config.optimizer, config.learning_rate)
    return state


def _softmax(scores):
    shifted = scores - scores.max()
    exp = np.exp(shifted)
    return exp / exp.sum()


def symmetric_lcwa_loss(batch: np.ndarray, state: ModelState):
    """Mean per-triple loss (tail-side CE + head-side CE) and its gradients.

    Returns ``(loss, grads)`` where grads maps parameter names to arrays
    matching :meth:`ModelState.parameters`.
    """
    batch = np.asarray(batch, dtype=np.int64).reshape(-1, 3)
    if batch.shape[0] == 0:
        raise ConfigError("empty batch")
    model = state.model
    tables = state.tables
    grads = state.zero_grads()
    d_core = grads.get("core")
    num_triples = batch.shape[0]
    inv_n = 1.0 / num_triples
    total = 0.0

    order = np.argsort(batch[:, 1], kind="stable")
    for rel in np.unique(batch[:, 1]):
        rows = batch[order][batch[order][:, 1] == rel]
        r_lit, cache = state.fuse_forward(int(rel))
        d_r_lit = np.zeros_like(r_lit)
        for h, _, t in rows:
            h, t = int(h), int(t)
            for anchor, target, side in ((h, t, "tail"), (t, h, "head")):
                q = model.query(tables, anchor, r_lit, side)
                p = _softmax(scoring.similarities(model.norm, q, tables.entity))
                total += -np.log(max(p[target], 1e-300))
                g = p * inv_n
                g[target] -= inv_n
                d_q = scoring.similarities_backward(model.norm, q, tables.entity, g, grads["entity"])
                d_r_lit += model.query_backward(tables, anchor, r_lit, side, d_q,
                                                grads["entity"], d_core)
        state.fuse_backward(int(rel), cache, d_r_lit, grads)

    loss = total * inv_n
    if not np.isfinite(loss):
        raise TrainingError(
            f"non-finite loss on batch starting with triple {tuple(batch[0])}; "
            f"|entity|={np.linalg.norm(tables.entity):.3e} "
            f"|relation|={np.linalg.norm(tables.relation):.3e}"
        )
    if state.config.l2 > 0:
        lam = state.config.l2
        loss += lam * (np.sum(tables.entity ** 2) + np.sum(tables.relation ** 2))
        grads["entity"] += 2 * lam * tables.entity
        grads["relation"] += 2 * lam * tables.relation
    return loss, grads


def optimizer_step(grads: dict[str, np.ndarray], state: ModelState) -> None:
    state.optimizer.step(state.parameters(), grads)


def train(graph: KnowledgeGraph, config: TrainConfig,
          profiles: dict[int, RelationLiteralProfile] | None = None):
    """Run the full optimization loop.

    Returns ``(state, history)`` where history holds the per-epoch loss
    trace and any periodic validation MRR values.
    """
    state = init_state(graph, config, profiles=profiles)
    rng = np.random.default_rng(config.seed + 1)  # separate stream from init
    n = graph.train.shape[0]
    history = {"loss": [], "valid_mrr": {}}
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            batch = graph.train[perm[start:start + config.batch_size]]
            loss, grads = symmetric_lcwa_loss(batch, state)
            optimizer_step(grads, state)
            epoch_loss += loss * batch.shape[0]
        epoch_loss /= n
        history["loss"].append(epoch_loss)
        if (
            config.valid_every > 0
            and graph.valid.shape[0] > 0
            and (epoch + 1) % config.valid_every == 0
        ):
            from litrel.evaluation import evaluate

            report = evaluate(state, graph, split="valid")
            history["valid_mrr"][epoch + 1] = report.mrr
            logger.info("epoch %d: loss %.6f valid MRR %.4f", epoch + 1, epoch_loss, report.mrr)
        else:
            logger.debug("epoch %d: loss %.6f", epoch + 1, epoch_loss)
    return state, history


# --- checkpointing ------------------------------------------------------


def save_checkpoint(state: ModelState, history: dict, directory: str) -> None:
    """Write a checkpoint directory atomically (write-then-rename)."""
    tmp = directory.rstrip("/") + ".tmp"
    if os.path.exists(tmp):
        shutil.rmtree(tmp)
    os.makedirs(tmp)
    meta = {"version": CHECKPOINT_VERSION, "config": asdict(state.config)}
    with open(os.path.join(tmp, "checkpoint.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    save_arrays(os.path.join(tmp, "params"), state.parameters())
    save_arrays(os.path.join(tmp, "optimizer"), state.optimizer.state_arrays())
    if state.profiles:
        from litrel.aggregation import save_profiles

        save_profiles(state.profiles, os.path.join(tmp, "profiles"))
    with open(os.path.join(tmp, "history.json"), "w", encoding="utf-8") as fh:
        json.dump(history, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if os.path.exists(directory):
        shutil.rmtree(directory)
    os.rename(tmp, directory)


def load_checkpoint(directory: str) -> tuple[ModelState, dict]:
    with open(os.path.join(directory, "checkpoint.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    if meta.get("version") != CHECKPOINT_VERSION:
        raise ConfigError(
            f"{directory}: checkpoint version {meta.get('version')!r} is not supported "
            f"(expected {CHECKPOINT_VERSION})"
        )
    unknown = set(meta["config"]) - {f.name for f in fields(TrainConfig)}
    if unknown:
        raise ConfigError(f"{directory}: unknown checkpoint config keys: {sorted(unknown)}")
    config = TrainConfig(**meta["config"])
    config.validate()
    params = load_arrays(os.path.join(directory, "params"))
    tables = EmbeddingTables(
        entity=params["entity"], relation=params["relation"], core=params.get("core")
    )
    state = ModelState(config=config, tables=tables)
    profile_dir = os.path.join(directory, "profiles")
    if os.path.isdir(profile_dir):
        from litrel.aggregation import load_profiles

        state.profiles = load_profiles(profile_dir)
    if config.fusion_enabled:
        rng = np.random.default_rng(config.seed)  # shapes only; overwritten below
        num_attributes = _infer_num_attributes(params, config)
        dim = fusion_block_dim(config)
        if config.model == "complex" and config.complex_separate_fusion:
            blocks = [
                fusion_mod.make_fusion(config.fusion, dim, num_attributes, rng, name="fusion_re"),
                fusion_mod.make_fusion(config.fusion, dim, num_attributes, rng, name="fusion_im"),
            ]
        else:
            block = fusion_mod.make_fusion(config.fusion, dim, num_attributes, rng)
            blocks = [block, block] if config.model == "complex" else [block]
        state.fusion_blocks = blocks
        seen = set()
        for block in blocks:
            if id(block) in seen:
                continue
            seen.add(id(block))
            for name, arr in block.parameters().items():
                arr[...] = params[name]
        if config.aggregation == "learnable":
            state.agg_weights = params["agg.weights"]
            state.agg_bias = params["agg.bias"]
    state.optimizer = Optimizer(config.optimizer, config.learning_rate)
    opt_dir = os.path.join(directory, "optimizer")
    if os.path.isdir(opt_dir):
        state.optimizer.load_state_arrays(load_arrays(opt_dir))
    with open(os.path.join(directory, "history.json"), encoding="utf-8") as fh:
        history = json.load(fh)
    return state, history


def _infer_num_attributes(params: dict[str, np.ndarray], config: TrainConfig) -> int:
    for name in ("fusion.weight", "fusion_re.weight"):
        if name in params:
            return (params[name].shape[0] - fusion_block_dim(config)) // 2
    raise ConfigError("checkpoint is missing fusion parameters")
