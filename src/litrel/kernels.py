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
* an empty row population yields all-zero statistics
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
    n = values.shape[0]
    if n == 0:
        return out
    out[:, 0] = values.mean(axis=0)
    out[:, 1] = np.quantile(values, 0.5, axis=0)
    out[:, 3] = values.min(axis=0)
    out[:, 4] = values.max(axis=0)
    out[:, 5] = values.sum(axis=0)
    out[:, 6] = mask.sum(axis=0)
    out[:, 7] = values.var(axis=0)
    out[:, 8] = np.sqrt(out[:, 7])
    out[:, 9] = np.quantile(values, 0.75, axis=0) - np.quantile(values, 0.25, axis=0)
    out[:, 10] = out[:, 4] - out[:, 3]
    for a in range(values.shape[1]):
        uniques, counts = np.unique(values[:, a], return_counts=True)
        out[a, 2] = uniques[np.argmax(counts)]  # uniques sorted: ties -> smallest
    return out
