"""The vectorized Metropolis-Hastings parameter update (paper § III-A2).

One call performs the paper's "MH step" for a single parameter index
across *all voxels simultaneously* — the SIMD lane structure of the GPU
kernel (one thread per voxel).  Three uniforms are consumed per voxel per
call: two through Box-Muller for the Gaussian proposal increment, one for
the accept test, matching the paper's random-number accounting
(``... * NumParameters * 3``).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.rng.tausworthe import HybridTaus
from repro.telemetry import get_registry

__all__ = ["mh_parameter_update"]


def mh_parameter_update(
    log_posterior: Callable[[np.ndarray], np.ndarray],
    params: np.ndarray,
    current_lp: np.ndarray,
    param_index: int,
    proposal_sigma: np.ndarray,
    rng: HybridTaus,
    proposal: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One MH accept/reject step for one parameter across all voxels.

    Parameters
    ----------
    log_posterior:
        Maps ``(n_vox, n_params)`` states to ``(n_vox,)`` log densities;
        or an incremental target with ``propose(proposal, param_index)``
        (the same densities, for a proposal that differs from ``params``
        in ``param_index`` only) and ``commit(accepted)``, called once
        the decisions are made (a
        :class:`~repro.models.posterior.CompartmentCache`).
    params:
        Current states, modified **in place** where proposals are accepted.
    current_lp:
        ``(n_vox,)`` cached log-posterior of ``params`` (updated in place).
    param_index:
        Which flat parameter to perturb.
    proposal_sigma:
        ``(n_vox,)`` Gaussian proposal widths for this parameter.
    rng:
        Per-voxel random streams (``rng.n_threads == n_vox``).
    proposal:
        Optional scratch buffer equal to ``params`` on entry; it is left
        equal to the updated ``params`` on return, so a sampler can
        reuse one buffer for a whole run instead of copying the full
        state on every call.  ``log_posterior`` must not modify its
        argument.  Omitted, a fresh copy of ``params`` is used.

    Returns
    -------
    (accepted, current_lp):
        ``accepted`` is the ``(n_vox,)`` boolean decision vector;
        ``current_lp`` is the updated cache (same array as passed in).

    Notes
    -----
    The proposal is symmetric, so the MH ratio reduces to the posterior
    ratio ``r = P(omega') / P(omega)``; acceptance with probability
    ``min(r, 1)`` is implemented as ``log u < lp' - lp``.  Voxels whose
    current state already has ``-inf`` posterior (possible only at a bad
    init) accept any finite proposal.
    """
    step = rng.normal() * proposal_sigma
    u = rng.uniform()

    if proposal is None:
        proposal = params.copy()
    proposal[:, param_index] += step
    incremental = hasattr(log_posterior, "propose")
    if incremental:
        prop_lp = log_posterior.propose(proposal, param_index)
    else:
        prop_lp = log_posterior(proposal)

    with np.errstate(invalid="ignore"):
        log_ratio = prop_lp - current_lp
    # -inf current posterior: accept anything finite.
    log_ratio = np.where(np.isneginf(current_lp) & np.isfinite(prop_lp), np.inf, log_ratio)
    accepted = np.log(np.maximum(u, 1e-300)) < log_ratio

    if incremental:
        log_posterior.commit(accepted)
    params[accepted, param_index] = proposal[accepted, param_index]
    current_lp[accepted] = prop_lp[accepted]
    proposal[:, param_index] = params[:, param_index]

    # Proposal/accept counts are pure functions of the chain, so they
    # belong to the manifest's deterministic section.
    registry = get_registry()
    registry.count("mcmc.proposals", params.shape[0])
    registry.count("mcmc.accepts", int(np.count_nonzero(accepted)))
    return accepted, current_lp
