"""Fusion of aggregated literal rows with relation embeddings.

The fusion runs on G stacked rows at once: given the literal rows L_h,
L_t (G x |A|) and the relation rows R (G x D), with X = [L_h, R, L_t]
(G x (2|A| + D)), the fused rows are

* linear:  X @ W + b
* gated:   Z * tanh(X @ W) + (1 - Z) * R,
           Z = sigmoid(X @ Wg + bg)

Both variants are pure functions of their inputs with hand-written
backward passes, in which every parameter gradient is one matrix product
summed over the rows; parameters are plain float64 arrays mutated only
by the optimizer.
"""

from __future__ import annotations

import numpy as np

from litrel.aggregation import _sigmoid


def _glorot(rng, shape):
    fan_in, fan_out = shape[0], shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class LinearFusion:
    """R_lit = [L_h, R, L_t] @ W + b with W of shape (2|A| + D, D)."""

    def __init__(self, dim: int, num_attributes: int, rng: np.random.Generator):
        self.dim = dim
        self.num_attributes = num_attributes
        self.weight = _glorot(rng, (2 * num_attributes + dim, dim))
        self.bias = np.zeros(dim)

    def parameters(self):
        return {"fusion.weight": self.weight, "fusion.bias": self.bias}

    def forward(self, l_h, r, l_t):
        x = np.concatenate([l_h, r, l_t], axis=1)
        return x @ self.weight + self.bias, {"x": x}

    def backward(self, cache, d_r_lit, grads):
        x = cache["x"]
        grads["fusion.weight"] += x.T @ d_r_lit
        grads["fusion.bias"] += d_r_lit.sum(axis=0)
        return _split(d_r_lit @ self.weight.T, self.num_attributes, self.dim)


class GatedFusion:
    """Gate between the transformed literal signal and the raw embedding.

    The gate ``Wg`` spans X = [L_h, R, L_t] like ``W``; it is initialized
    block-wise, one Glorot draw per (|A|, D), (D, D) and (|A|, D) block.
    """

    def __init__(self, dim: int, num_attributes: int, rng: np.random.Generator):
        self.dim = dim
        self.num_attributes = num_attributes
        self.weight = _glorot(rng, (2 * num_attributes + dim, dim))
        self.gate = np.concatenate([_glorot(rng, (rows, dim))
                                    for rows in (num_attributes, dim, num_attributes)])
        self.gate_bias = np.zeros(dim)

    def parameters(self):
        return {"fusion.weight": self.weight, "fusion.gate": self.gate, "fusion.gate_bias": self.gate_bias}

    def forward(self, l_h, r, l_t):
        x = np.concatenate([l_h, r, l_t], axis=1)
        h = np.tanh(x @ self.weight)
        z = _sigmoid(x @ self.gate + self.gate_bias)
        r_lit = z * h + (1.0 - z) * r
        return r_lit, {"x": x, "h": h, "z": z}

    def backward(self, cache, d_r_lit, grads):
        x, h, z = cache["x"], cache["h"], cache["z"]
        a = self.num_attributes
        r = x[:, a:a + self.dim]

        d_pre = d_r_lit * z * (1.0 - h * h)
        d_z_pre = d_r_lit * (h - r) * z * (1.0 - z)
        grads["fusion.weight"] += x.T @ d_pre
        grads["fusion.gate"] += x.T @ d_z_pre
        grads["fusion.gate_bias"] += d_z_pre.sum(axis=0)
        d_l_h, d_r, d_l_t = _split(d_pre @ self.weight.T + d_z_pre @ self.gate.T, a, self.dim)
        return d_l_h, d_r + d_r_lit * (1.0 - z), d_l_t


def _split(d_x, num_attributes, dim):
    """Column blocks (d_L_h, d_R, d_L_t) of a gradient on X."""
    return d_x[:, :num_attributes], d_x[:, num_attributes:num_attributes + dim], d_x[:, num_attributes + dim:]


# the fusion block of each fusion kind, built as ``FUSIONS[kind](dim, num_attributes, rng)``
FUSIONS = {"linear": LinearFusion, "gated": GatedFusion}
