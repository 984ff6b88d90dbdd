"""The column-statistics kernel behind literal profiles, in numpy.

Profile building computes 11 descriptive statistics per attribute column
for every relation's head and tail populations, which is the dominant
preprocessing cost on real datasets.  One :func:`column_stats` call
computes them for every population at once: the populations are
consecutive row segments of one block, cut at ``starts``.  Conventions:

* statistic column order: mean, median, mode, min, max, sum, count,
  variance, std, iqr, range
* mode: most frequent value, ties broken toward the smallest value
* median / IQR quantiles: linear interpolation at position (n - 1) * q
* variance: population variance (divide by n); std = sqrt(variance)
* count: number of present (masked) cells only
* an empty row population (n = 0, or no columns) yields all-zero statistics
* signed zeros: -0.0 and 0.0 compare equal, so either may be reported
  where both occur (normalized literals never hold -0.0)

Segments whose lengths round up to the same power of two are copied
into one (segments, |A|, longest length) block, padded with NaN (which
sorts last), and sorted along the last axis with one ``np.sort``; there
are at most log2(n) + 1 such blocks, and padding at most doubles the
cells sorted.  Every order statistic is read from a sorted block at
per-segment offsets:

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
unsorted rows of each segment.  A segment may also stand for ``zeros``
all-zero rows that the block leaves out (values must then be >= 0, so
that those rows sort first): they enter the order statistics and the
mode through the offsets, the mean and variance through n, and add
nothing to sum or count.
"""

from __future__ import annotations

import numpy as np

STAT_NAMES = (
    "mean", "median", "mode", "min", "max", "sum",
    "count", "variance", "std", "iqr", "range",
)
NUM_STATS = len(STAT_NAMES)


def using_numba() -> bool:
    """Always False: the statistics kernel is numpy only.

    Kept so that environment records written by benchmark harnesses keep
    the field they report.
    """
    return False


def column_stats(values: np.ndarray, mask: np.ndarray, starts: np.ndarray | None = None,
                 zeros: np.ndarray | None = None) -> np.ndarray:
    """Per-column statistics of one row population, or of each row segment.

    Parameters
    ----------
    values : float64 array, shape (n, |A|)
        Finite, normalized literal rows of the populations (absent cells hold 0).
    mask : bool array, shape (n, |A|)
        Presence mask aligned with ``values``; feeds only ``count``.
    starts : int array, shape (S,), optional
        The first row of each population: increasing from 0, and every
        segment non-empty.  Without it all rows are one population.
    zeros : int array, shape (S,), optional
        All-zero absent rows each population holds beyond its rows in
        ``values``; requires ``values >= 0``.

    Returns
    -------
    float64 array of shape (|A|, 11) in ``STAT_NAMES`` order without
    ``starts``, else (S, |A|, 11).
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    mask = np.ascontiguousarray(mask, dtype=bool)
    n, num_attrs = values.shape
    single = starts is None
    starts = np.zeros(min(n, 1), dtype=np.intp) if single else np.asarray(starts, dtype=np.intp)
    zeros = np.zeros(len(starts), dtype=np.int64) if zeros is None else np.asarray(zeros, np.int64)
    out = np.zeros((1 if single else len(starts), num_attrs, NUM_STATS))
    if len(starts) and num_attrs:
        _segment_stats(values, mask, starts, zeros, out)
    return out[0] if single else out


def _segment_stats(values, mask, starts, zeros, out) -> None:
    """Fill ``out`` (S, |A|, 11) with the statistics of each segment; see the module docstring."""
    lengths = np.diff(starts, append=len(values))
    sizes = lengths + zeros
    sums = np.add.reduceat(values, starts, axis=0)
    mean = sums / sizes[:, None]
    squares = np.repeat(mean, lengths, axis=0)
    np.subtract(values, squares, out=squares)
    squares *= squares
    squares = np.add.reduceat(squares, starts, axis=0) + zeros[:, None] * mean * mean
    out[..., 0] = mean
    out[..., 5] = sums
    out[..., 6] = np.add.reduceat(mask, starts, axis=0, dtype=np.int64)
    out[..., 7] = squares / sizes[:, None]
    out[..., 8] = np.sqrt(out[..., 7])
    # segments whose lengths round up to the same power of two share one sorted block
    buckets = np.ceil(np.log2(lengths))
    for bucket in np.unique(buckets):
        segments = np.flatnonzero(buckets == bucket)
        _order_stats(values, starts[segments], lengths[segments], zeros[segments], segments, out)
    out[..., 10] = out[..., 4] - out[..., 3]


def _order_stats(values, starts, lengths, zeros, segments, out) -> None:
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
    sizes = lengths + zeros

    def at(i):
        """The (k, |A|) values at sorted position ``i`` (k,) of each population, zero rows first."""
        return np.where((i < zeros)[:, None], 0.0, block[np.arange(k), :, np.maximum(i - zeros, 0)])

    def quantile(q):
        position = (sizes - 1) * q
        lo = position.astype(np.int64)
        t = (position - lo)[:, None]
        a, b = at(lo), at(np.minimum(lo + 1, sizes - 1))
        diff = b - a
        return np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)

    # run lengths at the run starts, 0 elsewhere; every row of the block starts a run
    run_start = np.ones(block.shape, dtype=bool)
    np.not_equal(block[..., 1:], block[..., :-1], out=run_start[..., 1:])
    flat = np.flatnonzero(run_start)
    runs = np.zeros(block.shape, dtype=np.int64)
    runs.flat[flat] = np.diff(flat, append=runs.size)
    runs *= valid[:, None, :]
    first = block[..., 0]
    runs[..., 0] += np.where(first == 0, zeros[:, None], 0)  # the zero rows join a leading zero run
    best = runs.argmax(axis=2)[..., None]  # the longest run, the first (smallest value) on ties
    mode = np.take_along_axis(block, best, axis=2)[..., 0]
    alone = (first != 0) & (zeros[:, None] >= np.take_along_axis(runs, best, axis=2)[..., 0])
    out[segments, :, 1] = quantile(0.5)
    out[segments, :, 2] = np.where(alone, 0.0, mode)  # a run of zero rows alone, as long or longer
    out[segments, :, 3] = at(np.zeros_like(sizes))
    out[segments, :, 4] = at(sizes - 1)
    out[segments, :, 9] = quantile(0.75) - quantile(0.25)
