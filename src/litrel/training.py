"""Training under the symmetric all-entity cross-entropy objective.

Each training triple contributes two cross-entropy terms: softmax over
the scores of all candidate tails against the true tail, and softmax
over all candidate heads against the true head.  No inverse triples are
ever materialized.  The batch loss is the mean over triples.  The fused
relation rows of a batch's distinct relations come from one fusion
call; each triple side takes its relation's row, and the query rows of
the whole batch are scored as matrices against the entity table (1-vs-all
scoring), so no step runs per triple or per relation.

Gradients are computed analytically and flow into the embedding tables,
the fusion parameters and, when the learnable aggregation combination is
configured, its 12 scalars.  Everything is float64 numpy; runs are
deterministic given the seed.  A non-finite loss stops training with a
:class:`TrainingError`, and so does a non-finite gradient or updated
parameter, naming the parameter.

A fused model has one fusion block.  ComplEx runs that block on the real
and the imaginary half of each relation row (block width D_r/2, two
fusion rows per relation), so both halves share its parameters.
"""

from __future__ import annotations

import json
import logging
import math
import os
import shutil
from dataclasses import asdict, dataclass, fields
from numbers import Integral, Real

import numpy as np

from litrel import fusion as fusion_mod
from litrel import scoring
from litrel.aggregation import (
    AGGREGATION_KINDS,
    build_profiles,
    literal_vectors,
    literal_vectors_backward,
    load_profiles,
    save_profiles,
)
from litrel.data import KnowledgeGraph
from litrel.errors import ConfigError, TrainingError
from litrel.kernels import NUM_STATS
from litrel.scoring import MODEL_KINDS, EmbeddingTables
from litrel.serialize import load_arrays, save_arrays

logger = logging.getLogger(__name__)

CHECKPOINT_VERSION = 3


def check_type(name: str, value, kind: str) -> None:
    """Raise ConfigError unless ``value`` is of ``kind``: ``"int"``, ``"float"`` (finite) or ``"bool"``.

    A bool is neither an int nor a float; other kinds are not checked.
    """
    if kind == "bool" and not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    if kind == "int" and (isinstance(value, bool) or not isinstance(value, Integral)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if kind == "float" and (isinstance(value, bool) or not isinstance(value, Real)
                            or not math.isfinite(value)):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")


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

    def validate(self) -> None:
        for f in fields(self):
            check_type(f.name, getattr(self, f.name), f.type)
        if self.model not in MODEL_KINDS:
            raise ConfigError(f"unknown model {self.model!r}")
        if self.fusion not in (None, "none") + fusion_mod.FUSION_KINDS:
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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.valid_every < 0:
            raise ConfigError(f"valid_every must be >= 0, got {self.valid_every}")
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
    """Adam (beta1=0.9, beta2=0.999, eps=1e-8) or plain SGD, in-place.

    One lives for one :func:`train` call; checkpoints do not store it.
    A step computes the textbook update with ``out=`` into one scratch
    array shared by all parameters and into the gradient itself, so it
    allocates nothing after the first step and leaves the gradients
    overwritten.
    """

    def __init__(self, kind: str, learning_rate: float):
        if kind not in ("adam", "sgd"):
            raise ConfigError(f"unknown optimizer {kind!r}")
        self.kind = kind
        self.learning_rate = learning_rate
        self.step_count = 0
        self.moment1: dict[str, np.ndarray] = {}
        self.moment2: dict[str, np.ndarray] = {}
        self._scratch = np.empty(0)

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """Update ``params`` in place from ``grads``, whose arrays it consumes."""
        self.step_count += 1
        for name, p in params.items():
            if grads[name].shape != p.shape:
                raise TrainingError(f"gradient shape mismatch for {name}: {grads[name].shape} vs {p.shape}")
        if self.kind == "sgd":
            for name, p in params.items():
                g = grads[name]
                g *= self.learning_rate
                p -= g
            return
        b1, b2, eps = 0.9, 0.999, 1e-8
        t = self.step_count
        largest = max((p.size for p in params.values()), default=0)
        if self._scratch.size < largest:
            self._scratch = np.empty(largest)
        for name, p in params.items():
            g = grads[name]
            s = self._scratch[:p.size].reshape(p.shape)
            if name not in self.moment1:
                self.moment1[name], self.moment2[name] = np.zeros_like(p), np.zeros_like(p)
            m, v = self.moment1[name], self.moment2[name]
            m *= b1
            m += np.multiply(1 - b1, g, out=s)
            v *= b2
            np.multiply(1 - b2, g, out=s)
            s *= g
            v += s
            np.divide(m, 1 - b1 ** t, out=s)  # m_hat
            s *= self.learning_rate
            np.divide(v, 1 - b2 ** t, out=g)  # v_hat, in the consumed gradient
            np.sqrt(g, out=g)
            g += eps
            s /= g
            p -= s


@dataclass
class ModelState:
    """Everything trainable plus the frozen literal profiles."""

    config: TrainConfig
    tables: EmbeddingTables
    model: object                           # the scoring model of config.model
    fusion: object = None                   # LinearFusion, GatedFusion or None (vanilla)
    agg_weights: np.ndarray | None = None   # (11,)
    agg_bias: np.ndarray | None = None      # (1,)
    profiles: tuple | None = None           # (u_head, u_tail), each (|R|, |A|, 11)
    artifact: dict | None = None            # SHA-256 of the artifact's vocabulary files

    @property
    def fusion_parts(self) -> int:
        """Fusion rows per relation row (ComplEx: its real and imaginary half)."""
        return 2 if self.config.model == "complex" else 1

    @property
    def learnable_aggregation(self) -> bool:
        return self.agg_weights is not None

    def parameters(self) -> dict[str, np.ndarray]:
        params = {"entity": self.tables.entity, "relation": self.tables.relation}
        if self.tables.core is not None:
            params["core"] = self.tables.core
        if self.fusion is not None:
            params.update(self.fusion.parameters())
        if self.learnable_aggregation:
            params["agg.weights"] = self.agg_weights
            params["agg.bias"] = self.agg_bias
        return params

    def zero_grads(self) -> dict[str, np.ndarray]:
        return {name: np.zeros_like(p) for name, p in self.parameters().items()}

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters().values())

    # --- fused relation rows --------------------------------------------

    def fused_relation(self, relation: int) -> np.ndarray:
        """The (D_r,) fused vector of one relation."""
        return self.fuse_forward(np.array([relation]))[0][0]

    def fuse_forward(self, relations: np.ndarray):
        """G x D_r fused rows of the relations (an index array), plus the backward cache."""
        rows = self.tables.relation[relations]
        if self.fusion is None:
            return rows, None
        l_h, l_t = literal_vectors(self.profiles, relations, self.config.aggregation,
                                   self.agg_weights, self.agg_bias)
        parts = self.fusion_parts
        r_lit, cache = self.fusion.forward(np.repeat(l_h, parts, axis=0),
                                           rows.reshape(parts * len(rows), -1),
                                           np.repeat(l_t, parts, axis=0))
        return r_lit.reshape(rows.shape), cache

    def fuse_backward(self, relations: np.ndarray, cache, d_r_lit, grads) -> None:
        """Accumulate the gradients of the rows :meth:`fuse_forward` returned for ``relations``."""
        d_rows = d_r_lit
        if self.fusion is not None:
            parts, count = self.fusion_parts, len(d_r_lit)
            d_l_h, d_rows, d_l_t = self.fusion.backward(cache, d_r_lit.reshape(parts * count, -1), grads)
            if self.learnable_aggregation:
                d_w, d_b = literal_vectors_backward(
                    self.profiles, relations, self.agg_weights, self.agg_bias,
                    d_l_h.reshape(count, parts, -1).sum(axis=1),
                    d_l_t.reshape(count, parts, -1).sum(axis=1),
                )
                grads["agg.weights"] += d_w
                grads["agg.bias"] += d_b
        np.add.at(grads["relation"], relations, d_rows.reshape(d_r_lit.shape))


def _new_state(config: TrainConfig, num_entities: int, num_relations: int,
               num_attributes: int, profiles) -> ModelState:
    """The one constructor behind :func:`init_state` and :func:`load_checkpoint`.

    Draws from the seed's stream in a fixed order: entity rows, relation
    rows, the TuckER core, the fusion block, the learnable-aggregation
    weights.
    """
    rng = np.random.default_rng(config.seed)

    def glorot_rows(count, dim):
        limit = np.sqrt(6.0 / (2 * dim))
        return rng.uniform(-limit, limit, size=(count, dim))

    entity = glorot_rows(num_entities, config.dim_entity)
    relation = glorot_rows(num_relations, config.dim_relation)
    core = None
    if config.model == "tucker":
        core = rng.uniform(-1.0, 1.0, size=(config.dim_entity, config.dim_relation, config.dim_entity)) * 0.1
    tables = EmbeddingTables(entity=entity, relation=relation, core=core)

    model = scoring.make_model(config.model, config.transe_norm)
    state = ModelState(config=config, tables=tables, model=model, profiles=profiles)
    if config.fusion_enabled:
        dim = config.dim_relation // state.fusion_parts
        state.fusion = fusion_mod.make_fusion(config.fusion, dim, num_attributes, rng)
        if config.aggregation == "learnable":
            state.agg_weights = rng.uniform(-0.5, 0.5, size=NUM_STATS)
            state.agg_bias = np.zeros(1)
    return state


def init_state(graph: KnowledgeGraph, config: TrainConfig, profiles=None) -> ModelState:
    """Allocate and initialize all trainable tensors for a run.

    ``profiles`` is the ``(u_head, u_tail)`` pair of
    :func:`litrel.aggregation.build_profiles`, built from ``graph`` when
    not given; a vanilla model keeps none.
    """
    config.validate()
    if not config.fusion_enabled:
        profiles = None
    elif graph.num_attributes == 0:
        raise ConfigError("fusion requires literal attributes, but the graph has none")
    elif profiles is None:
        profiles = build_profiles(graph)
    return _new_state(config, graph.num_entities, graph.num_relations,
                      graph.num_attributes, profiles)


def _first_non_finite(arrays: dict[str, np.ndarray]) -> str | None:
    """Name of the first array holding a NaN or an infinity: its min or max is then not finite."""
    return next((name for name, arr in arrays.items()
                 if arr.size and not (math.isfinite(arr.min()) and math.isfinite(arr.max()))), None)


def symmetric_lcwa_loss(batch: np.ndarray, state: ModelState):
    """Mean per-triple loss (tail-side CE + head-side CE) and its gradients.

    One fusion call builds the ``r_lit`` rows of the batch's distinct
    relations, and each triple takes its relation's row for the query
    rows of both sides.  The query rows of the whole batch are scored
    against the entity table in blocks of :func:`scoring.block_rows`
    rows by one :class:`scoring.SimilarityBlocks`, with a row-wise stable
    softmax in one reused buffer; the per-row ``r_lit`` gradients
    are summed per relation with one scatter-add for one fusion backward.

    Returns ``(loss, grads)`` where grads maps parameter names to arrays
    matching :meth:`ModelState.parameters`.  A non-finite loss or
    gradient raises :class:`TrainingError`.
    """
    batch = np.asarray(batch, dtype=np.int64).reshape(-1, 3)
    if batch.shape[0] == 0:
        raise ConfigError("empty batch")
    model = state.model
    tables = state.tables
    entity = tables.entity
    grads = state.zero_grads()
    d_entity, d_core = grads["entity"], grads.get("core")
    n = batch.shape[0]
    inv_n = 1.0 / n

    relations, inverse = np.unique(batch[:, 1], return_inverse=True)
    r_lit, cache = state.fuse_forward(relations)
    r_rows = r_lit[inverse]
    sides = ((batch[:, 0], "tail"), (batch[:, 2], "head"))
    q = np.concatenate([model.query(tables, anchors, r_rows, side) for anchors, side in sides])
    targets = np.concatenate([batch[:, 2], batch[:, 0]])

    total = 0.0
    d_q = np.empty_like(q)
    step = scoring.block_rows(entity.shape[0])
    blocks = scoring.SimilarityBlocks(model.norm, entity, min(step, q.shape[0]))
    softmax = np.empty((blocks.rows, entity.shape[0]))
    for start in range(0, q.shape[0], step):
        block = slice(start, start + step)
        scores = blocks.forward(q[block])
        picked = np.arange(scores.shape[0]), targets[block]
        p = np.subtract(scores, scores.max(axis=1, keepdims=True), out=softmax[:scores.shape[0]])
        np.exp(p, out=p)
        p /= p.sum(axis=1, keepdims=True)
        total -= np.log(np.maximum(p[picked], 1e-300)).sum()
        p *= inv_n
        p[picked] -= inv_n
        blocks.backward(q[block], scores, p, d_entity, d_q[block])

    d_rows = sum(model.query_backward(tables, anchors, r_rows, side, d_q[k * n:(k + 1) * n], d_entity, d_core)
                 for k, (anchors, side) in enumerate(sides))
    d_r_lit = np.zeros_like(r_lit)
    np.add.at(d_r_lit, inverse, d_rows)
    state.fuse_backward(relations, cache, d_r_lit, grads)

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
    name = _first_non_finite(grads)
    if name is not None:
        raise TrainingError(
            f"non-finite gradient for parameter {name} on batch starting with triple "
            f"{tuple(batch[0])}"
        )
    return loss, grads


def optimizer_step(optimizer: Optimizer, grads: dict[str, np.ndarray], state: ModelState) -> None:
    """Apply one update to the parameters of ``state``, consuming ``grads``.

    A parameter that becomes non-finite raises :class:`TrainingError`.
    """
    params = state.parameters()
    optimizer.step(params, grads)
    name = _first_non_finite(params)
    if name is not None:
        raise TrainingError(
            f"parameter {name} is non-finite after optimizer step {optimizer.step_count}"
        )


def train(graph: KnowledgeGraph, config: TrainConfig, profiles=None):
    """Run the full optimization loop.

    Returns ``(state, history)`` where history holds the per-epoch loss
    trace and any periodic validation MRR values.
    """
    state = init_state(graph, config, profiles=profiles)
    optimizer = Optimizer(config.optimizer, config.learning_rate)
    rng = np.random.default_rng(config.seed + 1)  # separate stream from init
    n = graph.train.shape[0]
    history = {"loss": [], "valid_mrr": {}}
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            batch = graph.train[perm[start:start + config.batch_size]]
            loss, grads = symmetric_lcwa_loss(batch, state)
            optimizer_step(optimizer, grads, state)
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
    """Write a checkpoint directory so that an interruption leaves a valid one.

    The new checkpoint is written to ``<directory>.tmp``; the old one is
    renamed to ``<directory>.old`` before the new one is renamed into
    place, and deleted only after that.  If the process dies between the
    two renames, :func:`load_checkpoint` reads ``<directory>.old``.
    """
    base = directory.rstrip("/")
    tmp, old = base + ".tmp", base + ".old"
    if os.path.exists(tmp):
        shutil.rmtree(tmp)
    os.makedirs(tmp)
    meta = {"version": CHECKPOINT_VERSION, "config": asdict(state.config), "artifact": state.artifact}
    with open(os.path.join(tmp, "checkpoint.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    save_arrays(os.path.join(tmp, "params"), state.parameters())
    if state.profiles is not None:
        save_profiles(state.profiles, os.path.join(tmp, "profiles"))
    with open(os.path.join(tmp, "history.json"), "w", encoding="utf-8") as fh:
        json.dump(history, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if os.path.exists(directory):
        if os.path.exists(old):
            shutil.rmtree(old)
        os.rename(directory, old)
    os.rename(tmp, directory)
    if os.path.exists(old):
        shutil.rmtree(old)


def load_checkpoint(directory: str) -> tuple[ModelState, dict]:
    """Rebuild a saved state through the training constructor, then copy its arrays in.

    A stored parameter set that does not match the configured model
    name for name and shape for shape is a :class:`ConfigError`.  When
    ``directory`` is missing but an interrupted :func:`save_checkpoint`
    left ``<directory>.old``, that checkpoint is read.
    """
    if not os.path.isdir(directory):
        old = directory.rstrip("/") + ".old"
        if not os.path.isdir(old):
            raise ConfigError(f"checkpoint_dir {directory!r} does not exist")
        logger.warning("%s is missing; reading the previous checkpoint %s", directory, old)
        directory = old
    with open(os.path.join(directory, "checkpoint.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    if not isinstance(meta, dict) or not isinstance(meta.get("config"), dict):
        raise ConfigError(f"{directory}: checkpoint.json has no config object")
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
    stored = load_arrays(os.path.join(directory, "params"))
    profile_dir = os.path.join(directory, "profiles")
    num_relations = len(stored.get("relation", ()))
    profiles = load_profiles(profile_dir, num_relations) if os.path.isdir(profile_dir) else None
    if config.fusion_enabled and profiles is None:
        raise ConfigError(f"{directory}: fused checkpoint has no literal profiles")
    num_attributes = profiles[0].shape[1] if profiles is not None else 0
    state = _new_state(config, len(stored.get("entity", ())), num_relations, num_attributes, profiles)
    state.artifact = meta.get("artifact")
    params = state.parameters()
    if set(params) != set(stored):
        raise ConfigError(
            f"{directory}: checkpoint parameters do not match the {config.model} model: "
            f"missing {sorted(set(params) - set(stored))}, extra {sorted(set(stored) - set(params))}"
        )
    for name, arr in params.items():
        if stored[name].shape != arr.shape:
            raise ConfigError(
                f"{directory}: parameter {name} has shape {stored[name].shape}, expected {arr.shape}"
            )
        arr[...] = stored[name]
    with open(os.path.join(directory, "history.json"), encoding="utf-8") as fh:
        history = json.load(fh)
    return state, history
