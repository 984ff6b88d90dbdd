"""Relation-batched training against the per-relation loop it replaced.

The reference below is that loop: the fusion runs once per relation of
a batch on (D,) vectors (ComplEx: once per half), each relation group
builds its query rows from its one ``r_lit`` vector, and each group's
query gradients are reduced to one ``r_lit`` gradient for a
per-relation fusion backward.  The batched loss and every gradient must
agree with it to 1e-12 relative.
"""

import numpy as np
import pytest

from conftest import random_graph
from litrel import scoring
from litrel.kernels import STAT_NAMES
from litrel.training import TrainConfig, init_state, symmetric_lcwa_loss

DIMS = {"transe": (6, 6), "distmult": (6, 6), "complex": (6, 6), "rotate": (6, 3), "tucker": (6, 4)}


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


# --- the per-relation reference -------------------------------------------


def reference_literals(state, rel):
    u_head, u_tail = state.profiles[0][rel], state.profiles[1][rel]
    if state.config.aggregation == "learnable":
        return (_sigmoid(u_head @ state.agg_weights + state.agg_bias),
                _sigmoid(u_tail @ state.agg_weights + state.agg_bias))
    column = STAT_NAMES.index(state.config.aggregation)
    return u_head[:, column], u_tail[:, column]


def reference_literals_backward(state, rel, d_l_h, d_l_t):
    u_head, u_tail = state.profiles[0][rel], state.profiles[1][rel]
    y_h = _sigmoid(u_head @ state.agg_weights + state.agg_bias)
    y_t = _sigmoid(u_tail @ state.agg_weights + state.agg_bias)
    g_h = d_l_h * y_h * (1.0 - y_h)
    g_t = d_l_t * y_t * (1.0 - y_t)
    return u_head.T @ g_h + u_tail.T @ g_t, g_h.sum() + g_t.sum()


def vector_fusion_forward(block, l_h, r, l_t):
    x = np.concatenate([l_h, r, l_t])
    if block.kind == "linear":
        return block.weight.T @ x + block.bias, {"x": x}
    h = np.tanh(block.weight.T @ x)
    z = _sigmoid(block.gate_head.T @ l_h + block.gate_rel.T @ r + block.gate_tail.T @ l_t
                 + block.gate_bias)
    return z * h + (1.0 - z) * r, {"x": x, "h": h, "z": z, "l_h": l_h, "r": r, "l_t": l_t}


def vector_fusion_backward(block, cache, d_r_lit, grads):
    x, a, d = cache["x"], block.num_attributes, block.dim
    if block.kind == "linear":
        grads["fusion.weight"] += np.outer(x, d_r_lit)
        grads["fusion.bias"] += d_r_lit
        d_x = block.weight @ d_r_lit
        return d_x[:a], d_x[a:a + d], d_x[a + d:]
    h, z, l_h, r, l_t = (cache[k] for k in ("h", "z", "l_h", "r", "l_t"))
    d_z = d_r_lit * (h - r)
    d_pre = d_r_lit * z * (1.0 - h * h)
    grads["fusion.weight"] += np.outer(x, d_pre)
    d_x = block.weight @ d_pre
    d_z_pre = d_z * z * (1.0 - z)
    grads["fusion.gate_head"] += np.outer(l_h, d_z_pre)
    grads["fusion.gate_rel"] += np.outer(r, d_z_pre)
    grads["fusion.gate_tail"] += np.outer(l_t, d_z_pre)
    grads["fusion.gate_bias"] += d_z_pre
    return (d_x[:a] + block.gate_head @ d_z_pre,
            d_r_lit * (1.0 - z) + d_x[a:a + d] + block.gate_rel @ d_z_pre,
            d_x[a + d:] + block.gate_tail @ d_z_pre)


def reference_fuse_forward(state, rel):
    row = state.tables.relation[rel]
    if state.fusion is None:
        return row.copy(), None
    l_h, l_t = reference_literals(state, rel)
    outputs, caches = zip(*(vector_fusion_forward(state.fusion, l_h, part, l_t)
                            for part in row.reshape(state.fusion_parts, -1)))
    return np.concatenate(outputs), caches


def reference_fuse_backward(state, rel, caches, d_r_lit, grads):
    d_row = grads["relation"][rel]
    if state.fusion is None:
        d_row += d_r_lit
        return
    parts = state.fusion_parts
    d_l_h = d_l_t = 0.0
    for cache, d_out, d_in in zip(caches, d_r_lit.reshape(parts, -1), d_row.reshape(parts, -1)):
        d_l_h_part, d_in_part, d_l_t_part = vector_fusion_backward(state.fusion, cache, d_out, grads)
        d_in += d_in_part
        d_l_h = d_l_h + d_l_h_part
        d_l_t = d_l_t + d_l_t_part
    if state.learnable_aggregation:
        d_w, d_b = reference_literals_backward(state, rel, d_l_h, d_l_t)
        grads["agg.weights"] += d_w
        grads["agg.bias"] += d_b


def reference_loss(batch, state):
    """The loss with one fusion forward, query and fusion backward per relation group."""
    model, tables = state.model, state.tables
    grads = state.zero_grads()
    d_entity, d_core = grads["entity"], grads.get("core")
    inv_n = 1.0 / batch.shape[0]
    groups, queries, targets = [], [], []
    for rel, rows in scoring.relation_groups(batch[:, 1]):
        r_lit, cache = reference_fuse_forward(state, rel)
        heads, tails = batch[rows, 0], batch[rows, 2]
        sides = ((heads, "tail"), (tails, "head"))
        queries += [model.query(tables, anchors, np.tile(r_lit, (anchors.size, 1)), side)
                    for anchors, side in sides]
        targets += [tails, heads]
        groups.append((rel, r_lit, cache, sides))
    q, targets = np.concatenate(queries), np.concatenate(targets)
    blocks = scoring.SimilarityBlocks(model.norm, tables.entity, q.shape[0])
    scores = blocks.forward(q)
    picked = np.arange(q.shape[0]), targets
    p = np.exp(scores - scores.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    loss = -np.log(p[picked]).sum() * inv_n
    p *= inv_n
    p[picked] -= inv_n
    d_q = blocks.backward(q, scores, p, d_entity)
    start = 0
    for rel, r_lit, cache, sides in groups:
        d_r_lit = np.zeros_like(r_lit)
        for anchors, side in sides:
            block = slice(start, start + anchors.size)
            rows = np.tile(r_lit, (anchors.size, 1))
            d_r_lit += model.query_backward(tables, anchors, rows, side, d_q[block], d_entity,
                                            d_core).sum(axis=0)
            start += anchors.size
        reference_fuse_backward(state, rel, cache, d_r_lit, grads)
    return loss, grads


# --- the comparison -------------------------------------------------------


def batches(graph):
    train = graph.train
    by_relation = [train[train[:, 1] == r] for r in range(graph.num_relations)]
    return {
        # a whole relation group, a singleton group, and repeated triples (repeated anchors)
        "mixed": np.concatenate([by_relation[0], by_relation[2][:1], train[:3], train[:2]]),
        "one-triple": train[:1],
        "whole-split": train,
    }


@pytest.mark.parametrize("aggregation", ["mean", "learnable"])
@pytest.mark.parametrize("fusion", [None, "linear", "gated"])
@pytest.mark.parametrize("model", list(DIMS))
def test_batched_loss_matches_per_relation_loop(model, fusion, aggregation):
    rng = np.random.default_rng(5)
    graph = random_graph(rng, num_entities=8, num_relations=4, num_attributes=3,
                         triples_per_relation=6)
    dim_entity, dim_relation = DIMS[model]
    state = init_state(graph, TrainConfig(model=model, fusion=fusion, aggregation=aggregation,
                                          dim_entity=dim_entity, dim_relation=dim_relation, seed=3))
    if state.learnable_aggregation:
        state.agg_bias[...] = 0.3
    if fusion == "gated":
        state.fusion.gate_bias[...] = rng.normal(size=state.fusion.gate_bias.shape)
    for name, batch in batches(graph).items():
        loss, grads = symmetric_lcwa_loss(batch, state)
        want_loss, want = reference_loss(batch, state)
        assert abs(loss - want_loss) <= 1e-12 * abs(want_loss), name
        assert set(grads) == set(want)
        for param, grad in want.items():
            assert np.abs(grads[param] - grad).max() <= 1e-12 * np.abs(grad).max(), (name, param)
