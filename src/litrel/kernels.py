"""The column-statistics kernel behind literal profiles, in numpy.

Profile building computes 11 descriptive statistics per attribute column
for every relation's head and tail populations, which is the dominant
preprocessing cost on real datasets.  One :func:`column_stats` call
computes them for every population at once: the populations are
consecutive segments of ``rows``, the indices of their literal rows, cut
at ``starts``.  The segments are taken a window at a time, the ones
starting within the same :data:`BLOCK_CELLS` cells, and only a window's
rows are gathered, so the kernel's temporaries stay within a few times
that budget, or one longer segment.  Segments are independent, so the
windowing changes no result.  Conventions:

* statistic column order: mean, median, mode, min, max, sum, count,
  variance, std, iqr, range
* mode: most frequent value, ties broken toward the smallest value
* median / IQR quantiles: linear interpolation at position (n - 1) * q
* variance: population variance (divide by n); std = sqrt(variance)
* count: number of present (masked) cells only
* signed zeros: -0.0 and 0.0 compare equal, so either may be reported
  where both occur (normalized literals never hold -0.0)

Within a window, segments whose lengths round up to the same power of
two are copied into one (segments, |A|, longest length) block, padded
with NaN (which sorts last), and sorted along the last axis with one
``np.sort``; a window has at most log2(n) + 1 such blocks, and padding
at most doubles the cells sorted.  Every order statistic is read from a
sorted block at per-segment offsets:

* min and max are a segment's first and last sorted values, range
  their difference;
* median and IQR interpolate between the two values around (n - 1) * q
  in numpy's own form ``a + (b - a) * t``, or ``b - (b - a) * (1 - t)``
  when t >= 0.5, so they are bit-identical to ``np.quantile``;
* the mode comes from run lengths: a run starts at a row's first
  value or where a value differs from the one before it, the gaps
  between the flat positions of consecutive run starts are the run
  lengths, and ``argmax`` over a row picks its longest run, the first
  (smallest value) on ties.

sum, count, mean and variance are ``np.add.reduceat`` sums over the
unsorted rows of each segment.
"""

from __future__ import annotations

import numpy as np

STAT_NAMES = (
    "mean", "median", "mode", "min", "max", "sum",
    "count", "variance", "std", "iqr", "range",
)
NUM_STATS = len(STAT_NAMES)

# Cells per window of segments: 2 MiB of float64 values.
BLOCK_CELLS = 1 << 18


def using_numba() -> bool:
    """Always False: the statistics kernel is numpy only.

    Kept so that environment records written by benchmark harnesses keep
    the field they report.
    """
    return False


def column_stats(values: np.ndarray, mask: np.ndarray, rows: np.ndarray,
                 starts: np.ndarray) -> np.ndarray:
    """Per-column statistics of each row segment.

    Parameters
    ----------
    values : float64 array, shape (N, |A|)
        Finite, normalized literal rows (absent cells hold 0).
    mask : bool array, shape (N, |A|)
        Presence mask aligned with ``values``; feeds only ``count``.
    rows : int64 array, shape (n,)
        The rows of ``values`` and ``mask`` that the populations consist
        of, in order (a row may repeat).
    starts : int64 array, shape (S,)
        The first position in ``rows`` of each population: increasing
        from 0, and every segment non-empty.

    Returns
    -------
    float64 array of shape (S, |A|, 11) in ``STAT_NAMES`` order.
    """
    num_attrs = values.shape[1]
    out = np.zeros((len(starts), num_attrs, NUM_STATS))
    if len(starts) and num_attrs:
        # windows of consecutive segments starting within the same BLOCK_CELLS cells
        first = np.flatnonzero(np.diff(starts // max(1, BLOCK_CELLS // num_attrs), prepend=-1))
        for lo, hi in zip(first, np.append(first[1:], len(starts))):
            begin, end = starts[lo], starts[hi] if hi < len(starts) else len(rows)
            pick = rows[begin:end]
            _segment_stats(values[pick], mask[pick], starts[lo:hi] - begin, out[lo:hi])
    return out


def _segment_stats(values, mask, starts, out) -> None:
    """Fill ``out`` (S, |A|, 11) with the statistics of each segment; see the module docstring."""
    lengths = np.diff(starts, append=len(values))
    sums = np.add.reduceat(values, starts, axis=0)
    mean = sums / lengths[:, None]
    squares = np.repeat(mean, lengths, axis=0)
    np.subtract(values, squares, out=squares)
    squares *= squares
    out[..., 0] = mean
    out[..., 5] = sums
    out[..., 6] = np.add.reduceat(mask, starts, axis=0, dtype=np.int64)
    out[..., 7] = np.add.reduceat(squares, starts, axis=0) / lengths[:, None]
    out[..., 8] = np.sqrt(out[..., 7])
    # segments whose lengths round up to the same power of two share one sorted block
    buckets = np.ceil(np.log2(lengths))
    for bucket in np.unique(buckets):
        segments = np.flatnonzero(buckets == bucket)
        _order_stats(values, starts[segments], lengths[segments], segments, out)
    out[..., 10] = out[..., 4] - out[..., 3]


def _order_stats(values, starts, lengths, segments, out) -> None:
    """Median, mode, min, max and IQR of k segments into ``out[segments]``.

    The segments' columns are copied into one (k, |A|, W) block, W the
    longest length, padded with NaN (which sorts last and equals
    nothing) and sorted along the last axis.
    """
    k, width = len(starts), lengths.max()
    valid = np.arange(width) < lengths[:, None]
    block = np.full((k, width, values.shape[1]), np.nan)
    block[valid] = values[(starts[:, None] + np.arange(width))[valid]]
    block = np.sort(block.transpose(0, 2, 1), axis=2)

    def at(i):
        """The (k, |A|) values at sorted position ``i`` (k,) of each segment."""
        return block[np.arange(k), :, i]

    def quantile(q):
        position = (lengths - 1) * q
        lo = position.astype(np.int64)
        t = (position - lo)[:, None]
        a, b = at(lo), at(np.minimum(lo + 1, lengths - 1))
        diff = b - a
        return np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)

    # run lengths at the run starts, 0 elsewhere; every row of the block starts a run
    run_start = np.ones(block.shape, dtype=bool)
    np.not_equal(block[..., 1:], block[..., :-1], out=run_start[..., 1:])
    flat = np.flatnonzero(run_start)
    runs = np.zeros(block.shape, dtype=np.int64)
    runs.flat[flat] = np.diff(flat, append=runs.size)
    runs *= valid[:, None, :]
    best = runs.argmax(axis=2)[..., None]  # the longest run, the first (smallest value) on ties
    out[segments, :, 1] = quantile(0.5)
    out[segments, :, 2] = np.take_along_axis(block, best, axis=2)[..., 0]
    out[segments, :, 3] = block[..., 0]
    out[segments, :, 4] = at(lengths - 1)
    out[segments, :, 9] = quantile(0.75) - quantile(0.25)
