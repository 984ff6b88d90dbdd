import numpy as np
import pytest

from litrel.errors import ConfigError, ShapeError
from litrel.fusion import GatedFusion, LinearFusion, make_fusion, param_count


def zeroed(block):
    for p in block.parameters().values():
        p[...] = 0.0
    return block


# fused rows per call: the forward pass runs on stacked rows
G = 3


def rows(rng, width):
    return rng.normal(size=(G, width))


class TestLinearFusion:
    def test_zero_weights_annihilate(self, rng):
        block = zeroed(LinearFusion(4, 2, rng))
        out, _ = block.forward(rows(rng, 2), rows(rng, 4), rows(rng, 2))
        np.testing.assert_array_equal(out, np.zeros((G, 4)))

    def test_identity_block_passes_relation_through(self, rng):
        block = zeroed(LinearFusion(3, 2, rng))
        block.weight[2:5, :] = np.eye(3)  # identity on the r block of [l_h, r, l_t]
        r = rows(rng, 3)
        out, _ = block.forward(np.ones((G, 2)), r, np.ones((G, 2)))
        np.testing.assert_allclose(out, r)

    def test_output_dimension_fixed(self, rng):
        block = LinearFusion(5, 3, rng)
        out, _ = block.forward(rows(rng, 3), rows(rng, 5), rows(rng, 3))
        assert out.shape == (G, 5)

    def test_shape_mismatch_names_operand(self, rng):
        block = LinearFusion(4, 2, rng)
        with pytest.raises(ShapeError, match="l_h"):
            block.forward(np.zeros((G, 3)), np.zeros((G, 4)), np.zeros((G, 2)))
        with pytest.raises(ShapeError, match="r has"):
            block.forward(np.zeros((G, 2)), np.zeros((G, 5)), np.zeros((G, 2)))
        with pytest.raises(ShapeError, match=r"l_t has shape \(2, 2\), expected \(3, 2\)"):
            block.forward(np.zeros((G, 2)), np.zeros((G, 4)), np.zeros((2, 2)))


class TestGatedFusion:
    def test_zero_gate_interpolates_evenly(self, rng):
        block = GatedFusion(3, 1, rng)
        block.gate_head[...] = 0
        block.gate_rel[...] = 0
        block.gate_tail[...] = 0
        block.gate_bias[...] = 0
        l_h, r, l_t = np.array([[0.4], [0.1], [0.7]]), rows(rng, 3), np.array([[0.9], [0.2], [0.5]])
        out, _ = block.forward(l_h, r, l_t)
        x = np.concatenate([l_h, r, l_t], axis=1)
        expected = 0.5 * np.tanh(x @ block.weight) + 0.5 * r
        np.testing.assert_allclose(out, expected)

    def test_hand_computed_small_case(self):
        # |A| = 1, D = 2, every weight entry 0.1, biases 0
        rng = np.random.default_rng(0)
        block = GatedFusion(2, 1, rng)
        for p in block.parameters().values():
            p[...] = 0.1
        block.gate_bias[...] = 0.0
        l_h, r, l_t = np.array([[1.0]]), np.array([[1.0, -1.0]]), np.array([[0.0]])
        # x = [1, 1, -1, 0]; W.T x = 0.1 * (1 + 1 - 1 + 0) = 0.1 per output
        # z_pre = 0.1*1 + 0.1*(1 - 1) + 0.1*0 = 0.1 per output
        z = 1.0 / (1.0 + np.exp(-0.1))
        expected = z * np.tanh(0.1) + (1 - z) * r
        out, _ = block.forward(l_h, r, l_t)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_saturated_gate_selects_literal_branch(self, rng):
        block = GatedFusion(4, 2, rng)
        l_h, r, l_t = rows(rng, 2), rows(rng, 4), rows(rng, 2)
        x = np.concatenate([l_h, r, l_t], axis=1)
        block.gate_bias[...] = 30.0
        out, _ = block.forward(l_h, r, l_t)
        np.testing.assert_allclose(out, np.tanh(x @ block.weight), atol=1e-9)
        block.gate_bias[...] = -30.0
        out, _ = block.forward(l_h, r, l_t)
        np.testing.assert_allclose(out, r, atol=1e-9)

    def test_saturated_low_gate_robust_to_gate_weights(self, rng):
        # gate weights zero, strong negative bias: output is the raw relation
        block = GatedFusion(4, 2, rng)
        block.gate_head[...] = 0
        block.gate_rel[...] = 0
        block.gate_tail[...] = 0
        block.gate_bias[...] = -30.0
        r = rows(rng, 4)
        out, _ = block.forward(rows(rng, 2), r, rows(rng, 2))
        np.testing.assert_allclose(out, r, atol=1e-9)


class TestParamCount:
    @pytest.mark.parametrize(
        "kind,dim,attrs,learnable,expected",
        [
            ("linear", 200, 7, False, 43000),
            ("gated", 200, 7, True, 85812),
            ("linear", 1, 0, False, 2),
            ("linear", 200, 7, True, 43012),
            ("gated", 200, 7, False, 85800),
        ],
    )
    def test_formula_values(self, kind, dim, attrs, learnable, expected):
        assert param_count(kind, dim, attrs, learnable) == expected

    @pytest.mark.parametrize("kind", ["linear", "gated"])
    @pytest.mark.parametrize("dim,attrs", [(1, 1), (3, 2), (8, 5), (16, 0), (7, 11), (32, 3)])
    def test_matches_allocated_scalars(self, kind, dim, attrs, rng):
        block = make_fusion(kind, dim, attrs, rng)
        allocated = sum(p.size for p in block.parameters().values())
        assert allocated == param_count(kind, dim, attrs, False)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            param_count("attention", 4, 2, False)


class TestGradients:
    @pytest.mark.parametrize("kind", ["linear", "gated"])
    def test_backward_matches_finite_differences(self, kind, rng):
        dim, attrs = 4, 3
        block = make_fusion(kind, dim, attrs, rng)
        l_h, r, l_t = rows(rng, attrs), rows(rng, dim), rows(rng, attrs)
        upstream = rows(rng, dim)

        def objective():
            out, _ = block.forward(l_h, r, l_t)
            return float(np.sum(upstream * out))

        _, cache = block.forward(l_h, r, l_t)
        grads = {name: np.zeros_like(p) for name, p in block.parameters().items()}
        d_l_h, d_r, d_l_t = block.backward(cache, upstream, grads)

        h = 1e-6
        # parameter gradients, then input gradients
        tensors = [(p, grads[name]) for name, p in block.parameters().items()]
        tensors += [(l_h, d_l_h), (r, d_r), (l_t, d_l_t)]
        for tensor, analytic in tensors:
            flat = tensor.reshape(-1)
            analytic = analytic.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                plus = objective()
                flat[i] = orig - h
                minus = objective()
                flat[i] = orig
                num = (plus - minus) / (2 * h)
                assert abs(num - analytic[i]) <= 1e-4 * max(1e-6, abs(num), abs(analytic[i]))
