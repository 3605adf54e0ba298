"""Measurement likelihood for the Bayesian model.

Behrens et al. (2003) model the observed intensities as the predicted
signal plus i.i.d. Gaussian noise:

.. math::

    Y_i \\sim \\mathcal{N}(\\mu_i(\\omega),\\ \\sigma^2)

(at the SNR of diffusion acquisitions the Rician magnitude distribution is
well approximated by a Gaussian).  The noise level ``sigma`` is a sampled
parameter; together with the 8 signal parameters of the two-fiber model
this gives the paper's 9-parameter state.
"""

from __future__ import annotations

import numpy as np
from scipy.special import i0e

from repro.errors import ModelError

__all__ = ["gaussian_loglike", "gaussian_loglike_sse", "rician_loglike"]

_LOG_2PI = float(np.log(2.0 * np.pi))


def gaussian_loglike(
    data: np.ndarray, mu: np.ndarray, sigma: np.ndarray
) -> np.ndarray:
    """Per-voxel Gaussian log-likelihood.

    Parameters
    ----------
    data, mu:
        ``(n_voxels, n_meas)`` observed and predicted signals.
    sigma:
        ``(n_voxels,)`` noise standard deviations (must be positive where
        evaluated; non-positive entries yield ``-inf``).

    Returns
    -------
    numpy.ndarray
        ``(n_voxels,)`` log-likelihood values.
    """
    data = np.asarray(data, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    if data.shape != mu.shape:
        raise ModelError(f"data {data.shape} and mu {mu.shape} shapes differ")
    if sigma.shape != data.shape[:1]:
        raise ModelError(
            f"sigma must have shape {data.shape[:1]}, got {sigma.shape}"
        )
    return gaussian_loglike_sse(np.sum((data - mu) ** 2, axis=1), sigma, data.shape[1])


def gaussian_loglike_sse(sse: np.ndarray, sigma: np.ndarray, m: int) -> np.ndarray:
    """:func:`gaussian_loglike` from the per-voxel sum of squared
    residuals ``sse`` over ``m`` measurements (a sigma-only change
    reuses it)."""
    ok = sigma > 0
    safe = np.where(ok, sigma, 1.0)
    ll = -0.5 * m * _LOG_2PI - m * np.log(safe) - sse / (2.0 * safe**2)
    return np.where(ok, ll, -np.inf)


def rician_loglike(
    data: np.ndarray, mu: np.ndarray, sigma: np.ndarray
) -> np.ndarray:
    """Per-voxel *Rician* log-likelihood (exact magnitude-image model).

    MR magnitude data follows the Rice distribution

    .. math::

        p(y | \\mu, \\sigma) = \\frac{y}{\\sigma^2}
            \\exp\\!\\left(-\\frac{y^2 + \\mu^2}{2\\sigma^2}\\right)
            I_0\\!\\left(\\frac{y \\mu}{\\sigma^2}\\right)

    The paper (following Behrens 2003) uses the Gaussian approximation,
    which is excellent above SNR ~ 3; this exact form is provided as an
    extension so the approximation can be tested rather than assumed
    (``LogPosterior(noise_model="rician")``).  Uses the exponentially
    scaled Bessel function ``i0e`` for overflow-free evaluation.

    Shapes as in :func:`gaussian_loglike`; negative data values (which a
    true magnitude image cannot contain) yield ``-inf``.
    """
    data = np.asarray(data, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    if data.shape != mu.shape:
        raise ModelError(f"data {data.shape} and mu {mu.shape} shapes differ")
    if sigma.shape != data.shape[:1]:
        raise ModelError(
            f"sigma must have shape {data.shape[:1]}, got {sigma.shape}"
        )
    ok = sigma > 0
    safe = np.where(ok, sigma, 1.0)[:, None]
    y = data
    m = np.abs(mu)
    # log p = log y - 2 log sigma - (y^2 + mu^2)/(2 sigma^2) + log I0(y mu / sigma^2)
    # with log I0(x) = log(i0e(x)) + |x|.
    z = y * m / safe**2
    with np.errstate(divide="ignore", invalid="ignore"):
        ll_terms = (
            np.log(np.maximum(y, 0.0))
            - 2.0 * np.log(safe)
            - (y**2 + m**2) / (2.0 * safe**2)
            + np.log(i0e(z))
            + np.abs(z)
        )
    ll_terms = np.where(y > 0, ll_terms, -np.inf)
    ll = ll_terms.sum(axis=1)
    return np.where(ok, ll, -np.inf)
