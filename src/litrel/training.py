"""Training under the symmetric all-entity cross-entropy objective.

Each training triple contributes two cross-entropy terms: softmax over
the scores of all candidate tails against the true tail, and softmax
over all candidate heads against the true head.  No inverse triples are
ever materialized.  The batch loss is the mean over triples.  The fused
relation rows of a batch's distinct relations come from one fusion
call; each triple side takes its relation's row, and the query rows of
the whole batch are scored as matrices against the entity table (1-vs-all
scoring), so no step runs per triple or per relation.

The query rows of a batch are split into the lanes of
:func:`litrel.scoring.lanes` on two threads.  Each lane builds the
query rows of its range, scores its blocks and runs the backward of its
queries; only the relation lookup, the fusion and its backward, and the
per-relation sum of the ``r_lit`` row gradients stay on the calling
thread.  The loss calls of one run share one :class:`Workspace`: the
gradient arrays, zeroed in place each step; the lanes, whose kernels'
cached norms each step refreshes and whose score buffers also hold the
softmax, with partials of the entity and core gradients per lane; and
the query rows, their gradients and the ``r_lit`` row gradients of the
largest batch.  Each buffer is allocated at its largest size when its
owner is built and never grows, so with the state's buffers for the
learnable aggregation's gathered profile rows, a loss call allocates
nothing the size of a table or a score block.  The kernels and the
optimizer step hold no table-sized scratch: both work through their
tables in chunks of :data:`litrel.scoring.CHUNK_ENTRIES` entries, and
the optimizer step runs its chunks on the lanes too.  The workspace is
dropped after the last loss call, so the kernels' buffers are gone when
the last optimizer step runs (in a one-step run that is when Adam
allocates its moments), and before each periodic validation, whose
ranking builds its own kernels.

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

import logging
import math
import os
from dataclasses import asdict, dataclass, field, fields
from numbers import Integral, Real

import numpy as np

from litrel import fusion as fusion_mod
from litrel import scoring
from litrel.aggregation import (
    AGGREGATION_KINDS,
    build_profiles,
    literal_vectors,
    literal_vectors_backward,
)
from litrel.data import KnowledgeGraph
from litrel.errors import ConfigError, TrainingError, ValidationError
from litrel.kernels import NUM_STATS
from litrel.scoring import EmbeddingTables
from litrel.serialize import (array_fault, current, finite, load_arrays, load_json, replacing,
                             save_arrays, save_json)

logger = logging.getLogger(__name__)

CHECKPOINT_VERSION = 6


@dataclass(frozen=True)
class Key:
    """One configuration key: its kind, default, bound and command-line flag.

    ``kind`` is ``"int"``, ``"float"`` (finite), ``"path"`` (a string
    or null), ``"percent"`` (a finite number, or a string holding one
    with an optional trailing ``%``) or a tuple of the allowed values.
    A bool is neither an int nor a float.  ``bound`` is ``">= x"`` or
    ``"> x"``.  ``flag`` names the commands that take the key as
    ``--key-name``; ``"litrel"`` puts it before the command.
    """

    kind: str | tuple
    default: object = None
    bound: str | None = None
    flag: tuple[str, ...] = ()

    def check(self, name: str, value) -> None:
        """Raise ConfigError unless ``value`` is of this key's kind and within its bound."""
        kind, number = self.kind, not isinstance(value, bool) and isinstance(value, Real)
        if isinstance(kind, tuple):
            if not any(type(value) is type(allowed) and value == allowed for allowed in kind):
                raise ConfigError(f"{name} must be one of {', '.join(map(repr, kind))}, got {value!r}")
        elif kind == "int" and not (number and isinstance(value, Integral)):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        elif kind == "float" and not (number and math.isfinite(value)):
            raise ConfigError(f"{name} must be a finite number, got {value!r}")
        elif kind == "path" and value is not None and not isinstance(value, str):
            raise ConfigError(f"{name} must be a string or null, got {value!r}")
        elif kind == "percent" and value is not None:
            try:
                parsed = float(value[:-1] if isinstance(value, str) and value.endswith("%") else value)
            except (TypeError, ValueError):
                parsed = math.nan
            if isinstance(value, bool) or not math.isfinite(parsed):
                raise ConfigError(f"{name} {value!r} is not a finite number")
        if self.bound is not None:
            op, limit = self.bound.split()
            if not (value >= float(limit) if op == ">=" else value > float(limit)):
                raise ConfigError(f"{name} must be {self.bound}, got {value!r}")


def _key(kind, default, bound=None, flag=("train",)):
    """A :class:`TrainConfig` field whose metadata holds its :class:`Key`."""
    return field(default=default, metadata={"key": Key(kind, default, bound, flag)})


@dataclass(frozen=True)
class TrainConfig:
    """Declarative description of one training run; constructing an invalid one raises ConfigError."""

    model: str = _key(tuple(scoring.MODELS), "distmult")
    fusion: str = _key(("none", *fusion_mod.FUSIONS), "none")  # "none": vanilla
    aggregation: str = _key(AGGREGATION_KINDS, "mean")
    dim_entity: int = _key("int", 32, "> 0")
    dim_relation: int = _key("int", 32, "> 0")
    epochs: int = _key("int", 100, ">= 0")
    batch_size: int = _key("int", 256, "> 0")
    learning_rate: float = _key("float", 1e-3, "> 0")
    optimizer: str = _key(("adam", "sgd"), "adam")
    seed: int = _key("int", 0, ">= 0", flag=("litrel",))
    valid_every: int = _key("int", 0, ">= 0", flag=())  # 0 disables periodic validation MRR

    def __post_init__(self) -> None:
        for f in fields(self):
            f.metadata["key"].check(f.name, getattr(self, f.name))
        if self.model in ("complex", "rotate") and self.dim_entity % 2:
            raise ConfigError(f"{self.model} requires an even entity dimension")
        if self.model in ("transe", "distmult", "complex") and self.dim_relation != self.dim_entity:
            raise ConfigError(f"{self.model} requires dim_relation == dim_entity")
        if self.model == "rotate" and self.dim_relation != self.dim_entity // 2:
            raise ConfigError("rotate stores phase vectors: dim_relation must be dim_entity // 2")

    @property
    def fusion_enabled(self) -> bool:
        return self.fusion != "none"


class Optimizer:
    """Adam (beta1=0.9, beta2=0.999, eps=1e-8) or plain SGD, in-place.

    One lives for one :func:`train` call; checkpoints do not store it.
    A step cuts each flattened parameter into chunks of
    :data:`scoring.CHUNK_ENTRIES` entries and splits the chunks, in
    parameter order, into :data:`scoring.LANES` contiguous parts of about
    equal entry counts, which :func:`scoring.fan_out` runs.  Each lane computes the textbook update
    of its chunks with ``out=`` into one chunk-sized scratch array of its
    own and into the gradient itself.  The arithmetic is elementwise, so
    the result does not depend on the cut or the thread count.  The
    moments and the lanes' scratch are allocated on the calling thread at
    the first Adam step, so a step allocates nothing after the first and
    leaves the gradients overwritten.
    """

    def __init__(self, kind: str, learning_rate: float):
        self.kind = kind
        self.learning_rate = learning_rate
        self.step_count = 0
        self.moment1: dict[str, np.ndarray] = {}
        self.moment2: dict[str, np.ndarray] = {}
        self._lane_scratch: list[np.ndarray] = []

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """Update ``params`` in place from ``grads``, whose arrays it consumes."""
        self.step_count += 1
        adam = self.kind == "adam"
        if adam:
            for name, p in params.items():
                if name not in self.moment1:
                    self.moment1[name], self.moment2[name] = np.zeros_like(p), np.zeros_like(p)
            if len(self._lane_scratch) != scoring.LANES:
                self._lane_scratch = [np.empty(scoring.CHUNK_ENTRIES) for _ in range(scoring.LANES)]
        lanes, offset = [[] for _ in range(scoring.LANES)], 0
        total = sum(p.size for p in params.values())
        for name, p in params.items():
            arrays = (p, grads[name]) + ((self.moment1[name], self.moment2[name]) if adam else ())
            flat = [a.reshape(-1) for a in arrays]
            for chunk in scoring.chunks(p.size, scoring.CHUNK_ENTRIES):
                # a chunk joins the lane its first entry falls in: contiguous lanes of total / LANES entries
                lanes[(offset + chunk.start) * scoring.LANES // total].append([a[chunk] for a in flat])
            offset += p.size
        if adam:
            scoring.fan_out(self._adam, lanes, self._lane_scratch)
        else:
            scoring.fan_out(self._sgd, lanes)

    def _sgd(self, pieces) -> None:
        """SGD on one lane's ``[p, g]`` chunks."""
        for p, g in pieces:
            g *= self.learning_rate
            p -= g

    def _adam(self, pieces, scratch) -> None:
        """Adam on one lane's ``[p, g, m, v]`` chunks, with the lane's chunk scratch."""
        b1, b2, eps = 0.9, 0.999, 1e-8
        t = self.step_count
        for p, g, m, v in pieces:
            s = scratch[:p.size]
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
    """Everything trainable, plus the frozen literal profiles while training.

    A loaded checkpoint's relation rows are fused: it has no fusion block or profiles.
    """

    config: TrainConfig
    tables: EmbeddingTables
    fusion: object = None                   # LinearFusion, GatedFusion or None (vanilla)
    agg_weights: np.ndarray | None = None   # (11,)
    agg_bias: np.ndarray | None = None      # (1,)
    profiles: tuple | None = None           # (u_head, u_tail), each (|R|, |A|, 11)
    artifact: dict | None = None            # SHA-256 of the artifact's vocabulary files
    # learnable aggregation: the (u_head, u_tail) rows every fuse_forward gathers into, each (|R|, |A|, 11)
    gathered: tuple | None = field(default=None, repr=False, compare=False)

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
        """G x D_r fused rows of the relations (an index array), plus the backward cache.

        The cache is the fusion block's, which also carries the learnable
        aggregation's gathered profile rows and outputs under ``literals``;
        the rows are leading rows of :attr:`gathered`, valid until the next
        call, so even the all-relation call allocates no (|R|, |A|, 11) block.
        """
        rows = self.tables.relation[relations]
        if self.fusion is None:
            return rows, None
        literals = {}
        l_h, l_t = literal_vectors(self.profiles, relations, self.config.aggregation,
                                   self.agg_weights, self.agg_bias, literals, self.gathered)
        parts = self.fusion_parts
        r_lit, cache = self.fusion.forward(np.repeat(l_h, parts, axis=0),
                                           rows.reshape(parts * len(rows), -1),
                                           np.repeat(l_t, parts, axis=0))
        cache["literals"] = literals
        return r_lit.reshape(rows.shape), cache

    def fuse_backward(self, relations: np.ndarray, cache, d_r_lit, grads) -> None:
        """Accumulate the gradients of the rows :meth:`fuse_forward` returned for ``relations``."""
        d_rows = d_r_lit
        if self.fusion is not None:
            parts, count = self.fusion_parts, len(d_r_lit)
            d_l_h, d_rows, d_l_t = self.fusion.backward(cache, d_r_lit.reshape(parts * count, -1), grads)
            if self.learnable_aggregation:
                d_w, d_b = literal_vectors_backward(
                    cache["literals"],
                    d_l_h.reshape(count, parts, -1).sum(axis=1),
                    d_l_t.reshape(count, parts, -1).sum(axis=1),
                )
                grads["agg.weights"] += d_w
                grads["agg.bias"] += d_b
        np.add.at(grads["relation"], relations, d_rows.reshape(d_r_lit.shape))


def init_state(graph: KnowledgeGraph, config: TrainConfig, profiles) -> ModelState:
    """Allocate and initialize all trainable tensors for a run.

    ``profiles`` is the ``(u_head, u_tail)`` pair of
    :func:`litrel.aggregation.build_profiles`, built from ``graph`` when
    None; a vanilla model keeps none.  Draws from the seed's stream
    in a fixed order: entity rows, relation rows, the TuckER core, the
    fusion block, the learnable-aggregation weights.  Learnable
    aggregation also gets the buffers it gathers profile rows into.
    """
    if not config.fusion_enabled:
        profiles = None
    elif graph.num_attributes == 0:
        raise ConfigError("fusion requires literal attributes, but the graph has none")
    elif profiles is None:
        profiles = build_profiles(graph)
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

    state = ModelState(config=config, tables=tables, profiles=profiles)
    if config.fusion_enabled:
        dim = config.dim_relation // state.fusion_parts
        state.fusion = fusion_mod.FUSIONS[config.fusion](dim, graph.num_attributes, rng)
        if config.aggregation == "learnable":
            state.agg_weights = rng.uniform(-0.5, 0.5, size=NUM_STATS)
            state.agg_bias = np.zeros(1)
            state.gathered = tuple(np.empty(u.shape) for u in profiles)
    return state


def _first_non_finite(arrays: dict[str, np.ndarray]) -> str | None:
    """Name of the first array holding a NaN or an infinity."""
    return next((name for name, arr in arrays.items() if not finite(arr)), None)


class Workspace:
    """The buffers and lanes that the loss calls of one training run share.

    ``grads`` holds one gradient array per parameter of ``state``, zeroed
    at the start of every call and returned by it (the optimizer then
    consumes them).  ``lanes`` holds the :func:`scoring.lanes` of
    :class:`scoring.GradientBlocks` kernels, refreshed on every call
    because the optimizer changes the table in place, each with the
    scoring model that builds the lane's query rows and runs their
    ``query_backward``.  Each lane has a partial of the gradients that
    ``query_backward`` adds into in ``partials``: the entity gradient
    and, for TuckER, the core gradient.  The first lane's partials are
    those gradients themselves.  A kernel holds no |E| x D array, so
    besides the gradients, the table-sized arrays of a workspace are the
    ``LANES - 1`` further entity partials (and core-sized ones for
    TuckER).  Everything is built on the calling thread (see
    :class:`scoring.SimilarityBlocks` for why), and so are ``q``, ``d_q``
    and ``d_rows``: the query rows, their gradients and the per-row
    ``r_lit`` gradients, two rows for each of at most ``triples`` triples
    a loss call.  ``d_rows`` is ``q`` when D_r = D_e: a lane's ``r_lit``
    row gradients overwrite its spent query rows.
    """

    def __init__(self, state: ModelState, triples: int):
        tables = state.tables
        self.grads = state.zero_grads()
        self.lanes = scoring.lanes(scoring.GradientBlocks, state.config.model, tables)
        first = {name: self.grads[name] for name in ("entity", "core") if name in self.grads}
        self.partials = [first] + [{name: np.empty_like(g) for name, g in first.items()} for _ in self.lanes[1:]]
        rows, dim_entity, dim_relation = 2 * triples, tables.entity.shape[1], tables.relation.shape[1]
        self.q, self.d_q = np.empty((rows, dim_entity)), np.empty((rows, dim_entity))
        self.d_rows = self.q if dim_relation == dim_entity else np.empty((rows, dim_relation))

    def begin(self) -> None:
        """Make the buffers ready for a loss call."""
        for grad in self.grads.values():
            grad.fill(0.0)
        for partial in self.partials[1:]:
            for grad in partial.values():
                grad.fill(0.0)
        for blocks, _ in self.lanes:
            blocks.refresh()


def _side_runs(rows: range, n: int) -> list[tuple[slice, str]]:
    """``(rows, side)`` of each side that the query rows ``rows`` hold: rows below ``n`` are tail-side."""
    return [(slice(start, stop), side) for start, stop, side in
            ((rows.start, min(rows.stop, n), "tail"), (max(rows.start, n), rows.stop, "head")) if start < stop]


def symmetric_lcwa_loss(batch: np.ndarray, state: ModelState, workspace: Workspace):
    """Mean per-triple loss (tail-side CE + head-side CE) of an (n, 3) int64 batch and its gradients.

    One fusion call builds the ``r_lit`` rows of the batch's distinct
    relations, and each triple takes its relation's row for the query
    rows of both sides: rows ``0..n`` are the tail-side queries, rows
    ``n..2n`` the head-side ones.  The rows are cut by
    :func:`scoring.cut` at the workspace kernels' rows, and
    :func:`scoring.fan_out` runs the lanes.  Each lane builds the query
    rows of its own contiguous range with its own model, one ``query``
    call per side its range holds, scores its blocks against the entity
    table with its own kernel, taking a row-wise stable softmax in
    the kernel's upstream buffer, and runs ``query_backward`` for its
    range into its own gradient partials.  Their losses and partials are
    summed in lane order.  The per-row ``r_lit`` gradients, which the
    lanes write into disjoint rows of one array, are summed per relation
    with one scatter-add for one fusion backward on the calling thread.

    ``workspace``, a :class:`Workspace` of ``state`` for at least ``len(batch)``
    triples, holds the buffers.
    Returns ``(loss, grads)`` where grads maps parameter names to arrays
    matching :meth:`ModelState.parameters`; they are the workspace's, so
    the next call with the same workspace overwrites them.  A non-finite
    loss or gradient raises :class:`TrainingError`.
    """
    n = batch.shape[0]
    workspace.begin()
    tables = state.tables
    grads = workspace.grads
    inv_n = 1.0 / n

    relations, inverse = np.unique(batch[:, 1], return_inverse=True)
    r_lit, cache = state.fuse_forward(relations)
    anchors, targets = np.concatenate([batch[:, 0], batch[:, 2]]), np.concatenate([batch[:, 2], batch[:, 0]])
    row_relations = np.concatenate([inverse, inverse])
    q, d_q, d_rows = workspace.q[:2 * n], workspace.d_q[:2 * n], workspace.d_rows[:2 * n]

    def lane_loss(blocks, model, partial, lane) -> float:
        rows = range(lane[0].start, lane[-1].stop) if lane else range(0)
        runs = [(run, side, r_lit[row_relations[run]]) for run, side in _side_runs(rows, n)]
        for run, side, r_rows in runs:
            q[run] = model.query(tables, anchors[run], r_rows, side)
        total = 0.0
        for block in lane:
            scores = blocks.forward(q[block])
            picked = np.arange(scores.shape[0]), targets[block]
            p = np.subtract(scores, scores.max(axis=1, keepdims=True), out=blocks.upstream(scores.shape[0]))
            shifted = p[picked]
            np.exp(p, out=p)
            sums = p.sum(axis=1)
            # -log(p_picked / sum), at most the -log(1e-300) of a floored probability
            total += np.minimum(np.log(sums) - shifted, -np.log(1e-300)).sum()
            p *= (inv_n / sums)[:, None]
            p[picked] -= inv_n
            blocks.backward(q[block], scores, p, partial["entity"], d_q[block])
        blocks.flush(partial["entity"])
        for run, side, r_rows in runs:
            d_rows[run] = model.query_backward(tables, anchors[run], r_rows, side, d_q[run],
                                               partial["entity"], partial.get("core"))
        return total

    totals = scoring.fan_out(lane_loss, *zip(*workspace.lanes), workspace.partials,
                             scoring.cut(2 * n, workspace.lanes[0][0].rows))
    for partial in workspace.partials[1:]:
        for name, grad in partial.items():
            grads[name] += grad

    d_r_lit = np.zeros_like(r_lit)
    np.add.at(d_r_lit, inverse, d_rows[:n] + d_rows[n:])
    state.fuse_backward(relations, cache, d_r_lit, grads)

    loss = sum(totals) * inv_n
    if not np.isfinite(loss):
        raise TrainingError(
            f"non-finite loss on batch starting with triple {tuple(batch[0])}; "
            f"|entity|={np.linalg.norm(tables.entity):.3e} "
            f"|relation|={np.linalg.norm(tables.relation):.3e}"
        )
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

    The loss calls share one :class:`Workspace`, sized for the largest
    batch, ``min(batch_size, |train|)`` triples.  It is released after the
    last one, before the last optimizer step, and before each periodic
    validation, after which the next step builds a new one.  Returns
    ``(state, history)`` where history holds the per-epoch loss trace and
    any periodic validation MRR values.
    """
    n = graph.train.shape[0]
    if n == 0 and config.epochs > 0:
        raise ValidationError("split 'train' is empty")
    state = init_state(graph, config, profiles=profiles)
    optimizer = Optimizer(config.optimizer, config.learning_rate)
    rng = np.random.default_rng(config.seed + 1)  # separate stream from init
    history = {"loss": [], "valid_mrr": {}}
    steps = config.epochs * -(-n // config.batch_size)
    workspace = None
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            batch = graph.train[perm[start:start + config.batch_size]]
            if workspace is None:
                workspace = Workspace(state, min(config.batch_size, n))
            loss, grads = symmetric_lcwa_loss(batch, state, workspace)
            steps -= 1
            if not steps:
                workspace = None  # released before the last step (Adam's first, in a one-step run)
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

            workspace = None  # ranking builds its own kernel; the next step builds a new workspace
            report = evaluate(state, graph, split="valid")
            history["valid_mrr"][epoch + 1] = report.mrr
            logger.info("epoch %d: loss %.6f valid MRR %.4f", epoch + 1, epoch_loss, report.mrr)
        else:
            logger.debug("epoch %d: loss %.6f", epoch + 1, epoch_loss)
    return state, history


# --- checkpointing ------------------------------------------------------


def save_checkpoint(state: ModelState, history: dict, directory: str, config: dict) -> None:
    """Write the model that inference scores with, so that an interruption leaves a valid checkpoint.

    ``params/`` holds the entity table, the fused relation rows (the
    :meth:`ModelState.fuse_forward` call of ranking) and TuckER's core;
    no fusion block, aggregation weights or profiles.  The directory is
    swapped in whole by :func:`litrel.serialize.replacing`; ``config``,
    the command's effective configuration, is written next to it as
    ``config.json`` inside the same swap.
    """
    tables = state.tables
    params = {"entity": tables.entity, "relation": state.fuse_forward(np.arange(len(tables.relation)))[0]}
    if tables.core is not None:
        params["core"] = tables.core
    with replacing(directory) as tmp:
        os.makedirs(tmp)
        meta = {"version": CHECKPOINT_VERSION, "config": asdict(state.config), "artifact": state.artifact}
        save_json(os.path.join(tmp, "checkpoint.json"), meta)
        save_arrays(os.path.join(tmp, "params"), params)
        save_json(os.path.join(tmp, "history.json"), history)
        save_json(os.path.join(tmp, "config.json"), config)


def load_checkpoint(directory: str) -> tuple[ModelState, dict]:
    """The stored tables as a state without fusion block or profiles, and the history.

    The stored config must name every :class:`TrainConfig` field and no
    other key; a field it lacks is not filled with its default, since a
    default model kind would read another model's tables.  A stored
    parameter set that does not match the configured model
    name for name, or an array that is not a finite float64 array of
    the configured shape, is a :class:`ConfigError` naming it.  When
    ``directory`` is missing but an interrupted :func:`save_checkpoint`
    left ``<directory>.old``, that checkpoint is read.
    """
    found = current(directory)
    if found is None:
        raise ConfigError(f"checkpoint_dir {directory!r} does not exist")
    directory = found
    meta = load_json(os.path.join(directory, "checkpoint.json"))
    if not isinstance(meta, dict) or not isinstance(meta.get("config"), dict):
        raise ConfigError(f"{directory}: checkpoint.json has no config object")
    if meta.get("version") != CHECKPOINT_VERSION:
        raise ConfigError(
            f"{directory}: checkpoint version {meta.get('version')!r} is not supported "
            f"(expected {CHECKPOINT_VERSION}); train the model again"
        )
    names = {f.name for f in fields(TrainConfig)}
    unknown = set(meta["config"]) - names
    if unknown:
        raise ConfigError(f"{directory}: unknown checkpoint config keys: {sorted(unknown)}")
    missing = names - set(meta["config"])
    if missing:
        raise ConfigError(f"{directory}: checkpoint config lacks keys: {sorted(missing)}")
    config = TrainConfig(**meta["config"])
    stored = load_arrays(os.path.join(directory, "params"))
    d_e, d_r = config.dim_entity, config.dim_relation
    shapes = {"entity": ("|E|", d_e), "relation": ("|R|", d_r), "core": (d_e, d_r, d_e)}
    if config.model != "tucker":
        del shapes["core"]
    if set(shapes) != set(stored):
        raise ConfigError(
            f"{directory}: checkpoint parameters do not match the {config.model} model: "
            f"missing {sorted(set(shapes) - set(stored))}, extra {sorted(set(stored) - set(shapes))}"
        )
    for name, shape in shapes.items():
        fault = array_fault(stored[name], "float64", shape)
        if fault is not None:
            raise ConfigError(f"{directory}: parameter {name} {fault}")
    tables = EmbeddingTables(stored["entity"], stored["relation"], stored.get("core"))
    state = ModelState(config, tables, artifact=meta.get("artifact"))
    return state, load_json(os.path.join(directory, "history.json"))
