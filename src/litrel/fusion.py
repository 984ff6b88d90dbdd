"""Fusion of aggregated literal vectors with relation embeddings.

Given the per-relation literal vectors l_h, l_t (length |A|) and the
relation embedding r (length D), the fused embedding is

* linear:  W.T @ [l_h, r, l_t] + b
* gated:   z * tanh(W.T @ [l_h, r, l_t]) + (1 - z) * r,
           z = sigmoid(Wg_lh.T @ l_h + Wg_r.T @ r + Wg_lt.T @ l_t + bg)

Both variants are pure functions of their inputs with hand-written
backward passes; parameters are plain float64 arrays mutated only by the
optimizer.
"""

from __future__ import annotations

import numpy as np

from litrel.errors import ConfigError, ShapeError

FUSION_KINDS = ("linear", "gated")


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _glorot(rng, shape):
    fan_in, fan_out = shape[0], shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def param_count(kind: str, dim: int, num_attributes: int, learnable_aggregation: bool) -> int:
    """Trainable scalars a fusion block adds over the base model.

    linear: dim^2 + 2*|A|*dim + dim; gated: 2*dim^2 + 4*|A|*dim + dim;
    +12 when the learnable aggregation combination is enabled.
    """
    if dim <= 0 or num_attributes < 0:
        raise ConfigError("dimensions must be positive")
    if kind == "linear":
        total = dim * dim + 2 * num_attributes * dim + dim
    elif kind == "gated":
        total = 2 * dim * dim + 4 * num_attributes * dim + dim
    else:
        raise ConfigError(f"unknown fusion kind {kind!r}")
    if learnable_aggregation:
        total += 12
    return total


class LinearFusion:
    """r_lit = W.T @ [l_h, r, l_t] + b with W of shape (2|A| + D, D)."""

    kind = "linear"

    def __init__(self, dim: int, num_attributes: int, rng: np.random.Generator):
        self.dim = dim
        self.num_attributes = num_attributes
        self.weight = _glorot(rng, (2 * num_attributes + dim, dim))
        self.bias = np.zeros(dim)

    def parameters(self):
        return {"fusion.weight": self.weight, "fusion.bias": self.bias}

    def forward(self, l_h, r, l_t):
        x = _concat_checked(l_h, r, l_t, self.num_attributes, self.dim)
        r_lit = self.weight.T @ x + self.bias
        return r_lit, {"x": x}

    def backward(self, cache, d_r_lit, grads):
        x = cache["x"]
        grads["fusion.weight"] += np.outer(x, d_r_lit)
        grads["fusion.bias"] += d_r_lit
        d_x = self.weight @ d_r_lit
        a = self.num_attributes
        return d_x[:a], d_x[a:a + self.dim], d_x[a + self.dim:]


class GatedFusion:
    """Gate between the transformed literal signal and the raw embedding."""

    kind = "gated"

    def __init__(self, dim: int, num_attributes: int, rng: np.random.Generator):
        self.dim = dim
        self.num_attributes = num_attributes
        self.weight = _glorot(rng, (2 * num_attributes + dim, dim))
        self.gate_head = _glorot(rng, (num_attributes, dim))
        self.gate_rel = _glorot(rng, (dim, dim))
        self.gate_tail = _glorot(rng, (num_attributes, dim))
        self.gate_bias = np.zeros(dim)

    def parameters(self):
        return {
            "fusion.weight": self.weight,
            "fusion.gate_head": self.gate_head,
            "fusion.gate_rel": self.gate_rel,
            "fusion.gate_tail": self.gate_tail,
            "fusion.gate_bias": self.gate_bias,
        }

    def forward(self, l_h, r, l_t):
        x = _concat_checked(l_h, r, l_t, self.num_attributes, self.dim)
        h = np.tanh(self.weight.T @ x)
        z_pre = self.gate_head.T @ l_h + self.gate_rel.T @ r + self.gate_tail.T @ l_t + self.gate_bias
        z = _sigmoid(z_pre)
        r_lit = z * h + (1.0 - z) * r
        return r_lit, {"x": x, "h": h, "z": z, "l_h": l_h, "r": r, "l_t": l_t}

    def backward(self, cache, d_r_lit, grads):
        x, h, z = cache["x"], cache["h"], cache["z"]
        l_h, r, l_t = cache["l_h"], cache["r"], cache["l_t"]
        a = self.num_attributes

        d_z = d_r_lit * (h - r)
        d_h = d_r_lit * z
        d_r = d_r_lit * (1.0 - z)

        d_pre = d_h * (1.0 - h * h)
        grads["fusion.weight"] += np.outer(x, d_pre)
        d_x = self.weight @ d_pre
        d_l_h = d_x[:a].copy()
        d_r = d_r + d_x[a:a + self.dim]
        d_l_t = d_x[a + self.dim:].copy()

        d_z_pre = d_z * z * (1.0 - z)
        grads["fusion.gate_head"] += np.outer(l_h, d_z_pre)
        grads["fusion.gate_rel"] += np.outer(r, d_z_pre)
        grads["fusion.gate_tail"] += np.outer(l_t, d_z_pre)
        grads["fusion.gate_bias"] += d_z_pre
        d_l_h += self.gate_head @ d_z_pre
        d_r = d_r + self.gate_rel @ d_z_pre
        d_l_t += self.gate_tail @ d_z_pre
        return d_l_h, d_r, d_l_t


def _concat_checked(l_h, r, l_t, num_attributes, dim):
    if l_h.shape != (num_attributes,):
        raise ShapeError(f"l_h has shape {l_h.shape}, expected ({num_attributes},)")
    if l_t.shape != (num_attributes,):
        raise ShapeError(f"l_t has shape {l_t.shape}, expected ({num_attributes},)")
    if r.shape != (dim,):
        raise ShapeError(f"r has shape {r.shape}, expected ({dim},)")
    return np.concatenate([l_h, r, l_t])


def make_fusion(kind: str, dim: int, num_attributes: int, rng: np.random.Generator):
    if kind == "linear":
        return LinearFusion(dim, num_attributes, rng)
    if kind == "gated":
        return GatedFusion(dim, num_attributes, rng)
    raise ConfigError(f"unknown fusion kind {kind!r}")
