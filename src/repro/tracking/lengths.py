"""Fiber-length statistics (paper Fig 5 and § IV-B).

The paper's key empirical observation: the number of steps per
streamline is exponentially distributed (a straight line in the semi-log
histogram).  This module produces the three Fig 5 series — histogram,
"cumulative" distribution ``P(L > x)``, and the semi-log view — plus a
maximum-likelihood exponential fit with goodness-of-fit checks used to
*verify* the observation on our phantoms rather than assume it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TrackingError

__all__ = [
    "ExponentialFit",
    "fit_exponential",
    "length_histogram",
    "cumulative_lengths",
    "semilog_series",
]


@dataclass(frozen=True)
class ExponentialFit:
    """MLE exponential fit of fiber lengths.

    Attributes
    ----------
    rate:
        ``lambda`` of ``p(x) = lambda * exp(-lambda x)``; MLE is
        ``1 / mean``.
    mean:
        Sample mean length.
    n:
        Number of fibers fitted.
    ks_statistic, ks_pvalue:
        Kolmogorov-Smirnov test of the sample against the fitted
        exponential.
    r_squared:
        Coefficient of determination of the semi-log regression — the
        paper's "straight line in the semi-log plot" criterion,
        quantified.
    """

    rate: float
    mean: float
    n: int
    ks_statistic: float
    ks_pvalue: float
    r_squared: float

    @property
    def looks_exponential(self) -> bool:
        """The Fig 5 claim: near-linear semi-log histogram (R^2 >= 0.9)."""
        return self.r_squared >= 0.9


def fit_exponential(
    lengths: np.ndarray,
    min_length: float = 1.0,
    truncate_at: float | None = None,
) -> ExponentialFit:
    """Fit lengths with an exponential law.

    Parameters
    ----------
    lengths:
        Per-fiber step counts (any non-negative values).
    min_length:
        Fibers shorter than this are dropped — immediately terminated
        threads (seed in a hostile voxel) are a point mass the continuous
        model does not describe.
    truncate_at:
        Drop fibers at or above this (e.g. ``max_steps``, where the step
        budget clips the tail into an artificial spike).
    """
    # Imported here, not at module level: scipy.stats is ~50 MB of
    # address space that every forked worker would otherwise inherit,
    # and this fit is its only user (docs/parallelism.md, "Lean workers").
    from scipy import stats

    x = np.asarray(lengths, dtype=np.float64).ravel()
    if x.size == 0:
        raise TrackingError("no lengths to fit")
    if np.any(x < 0):
        raise TrackingError("lengths must be >= 0")
    keep = x >= min_length
    if truncate_at is not None:
        keep &= x < truncate_at
    x = x[keep]
    if x.size < 10:
        raise TrackingError(
            f"only {x.size} lengths remain after filtering; need >= 10"
        )
    shifted = x - min_length  # exponential support starts at the floor
    mean = float(shifted.mean())
    if mean <= 0:
        raise TrackingError("degenerate length distribution (all equal)")
    rate = 1.0 / mean
    ks = stats.kstest(shifted, "expon", args=(0.0, mean))

    # Semi-log linearity of the histogram.  Bins with very few counts
    # scatter enormously in log space (Poisson noise on the tail) without
    # carrying evidence against exponentiality, so the regression uses
    # bins holding at least 5 observations — the standard rule for
    # log-count fits (the paper's Fig 5(c) likewise reads the line off
    # the populated bins).
    hist, edges = np.histogram(shifted, bins=min(40, max(5, x.size // 50)))
    centers = 0.5 * (edges[:-1] + edges[1:])
    pos = hist >= 5
    if pos.sum() >= 3:
        slope, intercept, r, *_ = stats.linregress(centers[pos], np.log(hist[pos]))
        r2 = float(r**2)
    else:
        pos = hist > 0
        if pos.sum() >= 3:
            r = stats.linregress(centers[pos], np.log(hist[pos])).rvalue
            r2 = float(r**2)
        else:
            r2 = 0.0
    return ExponentialFit(
        rate=rate,
        mean=mean,
        n=int(x.size),
        ks_statistic=float(ks.statistic),
        ks_pvalue=float(ks.pvalue),
        r_squared=r2,
    )


def length_histogram(
    lengths: np.ndarray, bins: int = 50
) -> tuple[np.ndarray, np.ndarray]:
    """Fig 5(a): histogram counts and bin centers."""
    x = np.asarray(lengths, dtype=np.float64).ravel()
    if x.size == 0:
        raise TrackingError("no lengths to histogram")
    hist, edges = np.histogram(x, bins=bins)
    return hist, 0.5 * (edges[:-1] + edges[1:])


def cumulative_lengths(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fig 5(b): the survival curve ``P(L > x)`` at each distinct length.

    Returns ``(x, p)`` with ``x`` sorted ascending.  This is also Fig 6's
    load curve: at iteration ``x``, ``p * n`` threads are still tracking.
    """
    x = np.sort(np.asarray(lengths, dtype=np.float64).ravel())
    if x.size == 0:
        raise TrackingError("no lengths")
    n = x.size
    p = 1.0 - np.arange(1, n + 1) / n
    return x, p


def semilog_series(
    lengths: np.ndarray, bins: int = 50
) -> tuple[np.ndarray, np.ndarray]:
    """Fig 5(c): bin centers and ``log(count)`` for non-empty bins."""
    hist, centers = length_histogram(lengths, bins)
    pos = hist > 0
    return centers[pos], np.log(hist[pos])
