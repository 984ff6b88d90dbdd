"""The column-statistics kernel behind literal profiles, in numpy.

Profile building computes 11 descriptive statistics per attribute column
for every relation's head and tail populations, which is the dominant
preprocessing cost on real datasets.  Conventions:

* statistic column order: mean, median, mode, min, max, sum, count,
  variance, std, iqr, range
* mode: most frequent value, ties broken toward the smallest value
* median / IQR quantiles: linear interpolation at position (n - 1) * q
* variance: population variance (divide by n); std = sqrt(variance)
* count: number of present (masked) cells only
* an empty row population (n = 0, or no columns) yields all-zero statistics
* signed zeros: -0.0 and 0.0 compare equal, so either may be reported
  where both occur (normalized literals never hold -0.0)

A population is sorted once, ``np.sort(values, axis=0)``, and every
order statistic is read from that sorted block ``s``:

* min and max are its first and last rows, range their difference;
* median and IQR interpolate between the two rows around (n - 1) * q in
  numpy's own form ``a + (b - a) * t``, or ``b - (b - a) * (1 - t)``
  when t >= 0.5, so they are bit-identical to ``np.quantile``;
* the mode comes from the run lengths of the whole block at once: a run
  starts where ``s[i] != s[i - 1]`` down a column, the gaps between the
  flat positions of consecutive run starts are the run lengths, and
  ``argmax`` picks each column's longest run, the first (smallest
  value) on ties.

mean, sum, variance and count are plain numpy reductions over the
unsorted rows.
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


def _quantile(s: np.ndarray, q: float) -> np.ndarray:
    """Per-column quantile ``q`` of a block sorted along axis 0, as ``np.quantile``."""
    position = (s.shape[0] - 1) * q
    lo = int(position)
    t = position - lo
    a, b = s[lo], s[min(lo + 1, s.shape[0] - 1)]
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


def _mode(s: np.ndarray) -> np.ndarray:
    """Per-column most frequent value of a block sorted along axis 0, smallest on ties."""
    n, num_attrs = s.shape
    starts = np.empty((num_attrs, n), dtype=bool)   # column-major: one row per column
    starts[:, 0] = True
    np.not_equal(s[1:].T, s[:-1].T, out=starts[:, 1:])
    flat = np.flatnonzero(starts)
    runs = np.zeros((num_attrs, n), dtype=np.int64)
    runs.flat[flat] = np.diff(flat, append=starts.size)
    return s[runs.argmax(axis=1), np.arange(num_attrs)]


def column_stats(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per-column statistics of a row population.

    Parameters
    ----------
    values : float64 array, shape (n, |A|)
        Normalized literal rows of the population (absent cells hold 0).
    mask : bool array, shape (n, |A|)
        Presence mask aligned with ``values``; feeds only ``count``.

    Returns
    -------
    float64 array of shape (|A|, 11) in ``STAT_NAMES`` order.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    mask = np.ascontiguousarray(mask, dtype=bool)
    out = np.zeros((values.shape[1], NUM_STATS), dtype=np.float64)
    if values.shape[0] == 0:
        return out
    s = np.sort(values, axis=0)
    out[:, 0] = values.mean(axis=0)
    out[:, 1] = _quantile(s, 0.5)
    out[:, 2] = _mode(s)
    out[:, 3] = s[0]
    out[:, 4] = s[-1]
    out[:, 5] = values.sum(axis=0)
    out[:, 6] = mask.sum(axis=0)
    out[:, 7] = values.var(axis=0)
    out[:, 8] = np.sqrt(out[:, 7])
    out[:, 9] = _quantile(s, 0.75) - _quantile(s, 0.25)
    out[:, 10] = out[:, 4] - out[:, 3]
    return out
