import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from litrel.kernels import NUM_STATS, STAT_NAMES, column_stats


def _quantile_sorted(sorted_vals, q):
    # linear interpolation at position (n - 1) * q, numpy's default
    n = sorted_vals.shape[0]
    pos = (n - 1) * q
    lo = int(np.floor(pos))
    hi = int(np.ceil(pos))
    frac = pos - lo
    return sorted_vals[lo] * (1.0 - frac) + sorted_vals[hi] * frac


def _column_stats_py(values, mask, out):
    # explicit-loop reference for the vectorized kernel
    n, num_attrs = values.shape
    if n == 0:
        return
    for a in range(num_attrs):
        col = np.sort(values[:, a].copy())
        total = 0.0
        for i in range(n):
            total += col[i]
        mean = total / n
        var = 0.0
        for i in range(n):
            d = col[i] - mean
            var += d * d
        var /= n

        # longest run in the sorted column; first (= smallest) wins ties
        mode = col[0]
        best_len = 1
        run_len = 1
        for i in range(1, n):
            if col[i] == col[i - 1]:
                run_len += 1
                if run_len > best_len:
                    best_len = run_len
                    mode = col[i]
            else:
                run_len = 1

        count = 0.0
        for i in range(n):
            if mask[i, a]:
                count += 1.0

        out[a, 0] = mean
        out[a, 1] = _quantile_sorted(col, 0.5)
        out[a, 2] = mode
        out[a, 3] = col[0]
        out[a, 4] = col[n - 1]
        out[a, 5] = total
        out[a, 6] = count
        out[a, 7] = var
        out[a, 8] = np.sqrt(var)
        out[a, 9] = _quantile_sorted(col, 0.75) - _quantile_sorted(col, 0.25)
        out[a, 10] = col[n - 1] - col[0]


def loop_stats(values, mask):
    out = np.zeros((values.shape[1], NUM_STATS), dtype=np.float64)
    _column_stats_py(values, mask, out)
    return out


def random_case(rng, rows, cols, density=0.7):
    values = rng.normal(size=(rows, cols))
    mask = rng.random(size=(rows, cols)) < density
    values = np.where(mask, values, 0.0)
    return np.ascontiguousarray(values), np.ascontiguousarray(mask)


class TestStatLayout:
    def test_names_and_count(self):
        assert len(STAT_NAMES) == NUM_STATS == 11
        assert STAT_NAMES[0] == "mean"
        assert STAT_NAMES[-1] == "range"

    def test_output_shape(self, rng):
        values, mask = random_case(rng, 9, 4)
        assert column_stats(values, mask).shape == (4, NUM_STATS)


class TestPathEquivalence:
    def test_loop_and_numpy_paths_agree(self, rng):
        for rows, cols in [(1, 1), (2, 3), (7, 5), (40, 8)]:
            values, mask = random_case(rng, rows, cols)
            np.testing.assert_allclose(
                loop_stats(values, mask), column_stats(values, mask), atol=1e-12
            )

    def test_agreement_with_ties_and_empty_columns(self, rng):
        # coarse values force mode ties; low density forces empty columns
        values = rng.integers(0, 3, size=(20, 6)).astype(np.float64) / 10.0
        mask = np.ascontiguousarray(rng.random(size=(20, 6)) < 0.3)
        values = np.ascontiguousarray(np.where(mask, values, 0.0))
        np.testing.assert_allclose(
            loop_stats(values, mask), column_stats(values, mask), atol=1e-12
        )

    def test_non_contiguous_and_integer_inputs_coerced(self, rng):
        values, mask = random_case(rng, 3, 15)
        # transposed views are not C-contiguous; 0/1 integers stand in for bools
        out = column_stats(values.T, mask.T.astype(np.int64))
        expected = loop_stats(np.ascontiguousarray(values.T), np.ascontiguousarray(mask.T))
        np.testing.assert_allclose(out, expected, atol=1e-12)


class TestKnownValues:
    def test_two_row_example(self):
        values = np.array([[0.2], [0.4]])
        mask = np.ones((2, 1), dtype=bool)
        out = column_stats(values, mask)[0]
        expected = {
            "mean": 0.3, "median": 0.3, "mode": 0.2, "min": 0.2, "max": 0.4,
            "sum": 0.6, "count": 2.0, "variance": 0.01, "std": 0.1,
            "iqr": 0.1, "range": 0.2,
        }
        for name, value in expected.items():
            assert out[STAT_NAMES.index(name)] == pytest.approx(value, abs=1e-12), name

    def test_empty_column_all_zero(self):
        values = np.zeros((3, 2))
        mask = np.zeros((3, 2), dtype=bool)
        mask[:, 0] = True
        out = column_stats(values, mask)
        np.testing.assert_array_equal(out[1], np.zeros(NUM_STATS))
        assert out[0, STAT_NAMES.index("count")] == 3.0


@st.composite
def populations(draw):
    """(values, mask) with n in 1..40 rows and 0..8 columns.

    Values are either coarse (five levels, so the mode ties often) or
    drawn from [0, 1]; each column is kept as drawn, made all equal, or
    emptied (no present cell, every value 0).
    """
    n = draw(st.integers(1, 40))
    num_attrs = draw(st.integers(0, 8))
    coarse = draw(st.booleans())
    elements = (st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]) if coarse
                else st.floats(0.0, 1.0, allow_subnormal=False))
    values = draw(hnp.arrays(np.float64, (n, num_attrs), elements=elements))
    mask = draw(hnp.arrays(np.bool_, (n, num_attrs)))
    for a in range(num_attrs):
        layout = draw(st.sampled_from(["drawn", "all equal", "empty"]))
        if layout == "all equal":
            values[:, a] = values[0, a]
            mask[:, a] = True
        elif layout == "empty":
            mask[:, a] = False
    return np.where(mask, values, 0.0), mask


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(populations())
    def test_matches_loop_reference(self, case):
        values, mask = case
        np.testing.assert_allclose(column_stats(values, mask), loop_stats(values, mask), atol=1e-12)

    @pytest.mark.parametrize("coarse", [False, True])
    def test_median_and_iqr_bit_identical_to_np_quantile(self, rng, coarse):
        median, iqr = STAT_NAMES.index("median"), STAT_NAMES.index("iqr")
        for rows in range(1, 50):
            values = rng.normal(size=(rows, 7))
            if coarse:
                values = np.round(values * 2) + 3.0  # ties, no signed zeros
            out = column_stats(values, np.ones(values.shape, dtype=bool))
            q25, q50, q75 = (np.quantile(values, q, axis=0) for q in (0.25, 0.5, 0.75))
            np.testing.assert_array_equal(out[:, median], q50)
            np.testing.assert_array_equal(out[:, iqr], q75 - q25)

    def test_no_columns_is_empty(self):
        assert column_stats(np.zeros((5, 0)), np.zeros((5, 0), dtype=bool)).shape == (0, NUM_STATS)
