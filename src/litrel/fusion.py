"""Fusion of aggregated literal rows with relation embeddings.

The fusion runs on G stacked rows at once: given the literal rows L_h,
L_t (G x |A|) and the relation rows R (G x D), with X = [L_h, R, L_t]
(G x (2|A| + D)), the fused rows are

* linear:  X @ W + b
* gated:   Z * tanh(X @ W) + (1 - Z) * R,
           Z = sigmoid(L_h @ Wg_lh + R @ Wg_r + L_t @ Wg_lt + bg)

Both variants are pure functions of their inputs with hand-written
backward passes, in which every parameter gradient is one matrix product
summed over the rows; parameters are plain float64 arrays mutated only
by the optimizer.
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
    """R_lit = [L_h, R, L_t] @ W + b with W of shape (2|A| + D, D)."""

    kind = "linear"

    def __init__(self, dim: int, num_attributes: int, rng: np.random.Generator):
        self.dim = dim
        self.num_attributes = num_attributes
        self.weight = _glorot(rng, (2 * num_attributes + dim, dim))
        self.bias = np.zeros(dim)

    def parameters(self):
        return {"fusion.weight": self.weight, "fusion.bias": self.bias}

    def forward(self, l_h, r, l_t):
        x = _stack(l_h, r, l_t, self.num_attributes, self.dim)
        return x @ self.weight + self.bias, {"x": x}

    def backward(self, cache, d_r_lit, grads):
        x = cache["x"]
        grads["fusion.weight"] += x.T @ d_r_lit
        grads["fusion.bias"] += d_r_lit.sum(axis=0)
        return _split(d_r_lit @ self.weight.T, self.num_attributes, self.dim)


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

    def _gate(self):
        """The three gate matrices stacked like X = [L_h, R, L_t]."""
        return np.concatenate([self.gate_head, self.gate_rel, self.gate_tail])

    def forward(self, l_h, r, l_t):
        x = _stack(l_h, r, l_t, self.num_attributes, self.dim)
        h = np.tanh(x @ self.weight)
        z = _sigmoid(x @ self._gate() + self.gate_bias)
        r_lit = z * h + (1.0 - z) * r
        return r_lit, {"x": x, "h": h, "z": z}

    def backward(self, cache, d_r_lit, grads):
        x, h, z = cache["x"], cache["h"], cache["z"]
        a = self.num_attributes
        r = x[:, a:a + self.dim]

        d_pre = d_r_lit * z * (1.0 - h * h)
        d_z_pre = d_r_lit * (h - r) * z * (1.0 - z)
        grads["fusion.weight"] += x.T @ d_pre
        d_gate = x.T @ d_z_pre
        grads["fusion.gate_head"] += d_gate[:a]
        grads["fusion.gate_rel"] += d_gate[a:a + self.dim]
        grads["fusion.gate_tail"] += d_gate[a + self.dim:]
        grads["fusion.gate_bias"] += d_z_pre.sum(axis=0)
        d_l_h, d_r, d_l_t = _split(d_pre @ self.weight.T + d_z_pre @ self._gate().T, a, self.dim)
        return d_l_h, d_r + d_r_lit * (1.0 - z), d_l_t


def _stack(l_h, r, l_t, num_attributes, dim):
    """X = [L_h, R, L_t]; an operand that is not (G, width) is a ShapeError naming it."""
    rows = r.shape[0] if r.ndim == 2 else "G"
    for name, block, width in (("l_h", l_h, num_attributes), ("r", r, dim), ("l_t", l_t, num_attributes)):
        if block.shape != (rows, width):
            raise ShapeError(f"{name} has shape {block.shape}, expected ({rows}, {width})")
    return np.concatenate([l_h, r, l_t], axis=1)


def _split(d_x, num_attributes, dim):
    """Column blocks (d_L_h, d_R, d_L_t) of a gradient on X."""
    return d_x[:, :num_attributes], d_x[:, num_attributes:num_attributes + dim], d_x[:, num_attributes + dim:]


def make_fusion(kind: str, dim: int, num_attributes: int, rng: np.random.Generator):
    if kind == "linear":
        return LinearFusion(dim, num_attributes, rng)
    if kind == "gated":
        return GatedFusion(dim, num_attributes, rng)
    raise ConfigError(f"unknown fusion kind {kind!r}")
