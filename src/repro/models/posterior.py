"""The per-voxel log-posterior the MCMC stage samples (paper Eq. 2).

:class:`ParameterLayout` fixes the flat ordering of the 9 parameters
(``N = 2``) inside the per-voxel state vector, and :class:`LogPosterior`
evaluates ``log P(omega | Y, M) = log P(Y | omega, M) + log P(omega | M)``
for *all voxels at once* — the lockstep structure the GPU kernel runs with
one thread per voxel.  :class:`CompartmentCache` evaluates the same
density one perturbed parameter at a time, for the MCMC sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config.spec import NOISE_MODELS
from repro.errors import DataError, ModelError
from repro.io.gradients import GradientTable
from repro.models.likelihood import (
    gaussian_loglike,
    gaussian_loglike_sse,
    rician_loglike,
)
from repro.models.multi_fiber import MultiFiberModel
from repro.models.priors import MultiFiberPriors
from repro.models.tensor import TensorModel
from repro.utils.geometry import cartesian_to_spherical, spherical_to_cartesian

__all__ = ["ParameterLayout", "LogPosterior", "CompartmentCache"]


@dataclass(frozen=True)
class ParameterLayout:
    """Flat ordering of the multi-fiber state vector.

    For ``n_fibers = N`` the layout is::

        [ s0, d, sigma, f_1..f_N, theta_1..theta_N, phi_1..phi_N ]

    giving ``3 + 3N`` parameters — 9 for the paper's ``N = 2``.
    """

    n_fibers: int = 2

    def __post_init__(self) -> None:
        if self.n_fibers < 1:
            raise ModelError(f"n_fibers must be >= 1, got {self.n_fibers}")

    @property
    def n_params(self) -> int:
        """Total scalar parameters per voxel."""
        return 3 + 3 * self.n_fibers

    @property
    def names(self) -> tuple[str, ...]:
        """Parameter names in flat order."""
        n = self.n_fibers
        return (
            ("s0", "d", "sigma")
            + tuple(f"f{j + 1}" for j in range(n))
            + tuple(f"theta{j + 1}" for j in range(n))
            + tuple(f"phi{j + 1}" for j in range(n))
        )

    # Slices into the flat axis.
    @property
    def s0(self) -> int:
        return 0

    @property
    def d(self) -> int:
        return 1

    @property
    def sigma(self) -> int:
        return 2

    @property
    def f(self) -> slice:
        return slice(3, 3 + self.n_fibers)

    @property
    def theta(self) -> slice:
        return slice(3 + self.n_fibers, 3 + 2 * self.n_fibers)

    @property
    def phi(self) -> slice:
        return slice(3 + 2 * self.n_fibers, 3 + 3 * self.n_fibers)

    def is_angular(self, index: int) -> bool:
        """Is flat parameter ``index`` an angle (theta or phi)?"""
        return index >= 3 + self.n_fibers

    def unpack(self, params: np.ndarray) -> dict[str, np.ndarray]:
        """Split ``(n_vox, n_params)`` into named arrays (views)."""
        if params.ndim != 2 or params.shape[1] != self.n_params:
            raise DataError(
                f"params must be (n_vox, {self.n_params}), got {params.shape}"
            )
        return {
            "s0": params[:, self.s0],
            "d": params[:, self.d],
            "sigma": params[:, self.sigma],
            "f": params[:, self.f],
            "theta": params[:, self.theta],
            "phi": params[:, self.phi],
        }


class LogPosterior:
    """Vectorized log-posterior of the multi-fiber model over a voxel block.

    Parameters
    ----------
    gtab:
        Acquisition scheme.
    data:
        ``(n_voxels, n_meas)`` measured signal for the voxels being fit.
    priors:
        Prior configuration; defaults to :class:`MultiFiberPriors`.
    n_fibers:
        Number of stick compartments (paper: 2).
    noise_model:
        ``"gaussian"`` (the paper's approximation) or ``"rician"`` (the
        exact magnitude-image likelihood).
    """

    def __init__(
        self,
        gtab: GradientTable,
        data: np.ndarray,
        priors: MultiFiberPriors | None = None,
        n_fibers: int = 2,
        noise_model: str = "gaussian",
    ) -> None:
        if noise_model not in NOISE_MODELS:
            raise ModelError(f"unknown noise_model {noise_model!r}")
        self.noise_model = noise_model
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2:
            raise DataError(f"data must be (n_voxels, n_meas), got {data.shape}")
        if data.shape[1] != len(gtab):
            raise DataError(
                f"data has {data.shape[1]} measurements, table has {len(gtab)}"
            )
        self.gtab = gtab
        self.data = data
        self.layout = ParameterLayout(n_fibers)
        self.model = MultiFiberModel(n_fibers)
        self.priors = priors if priors is not None else MultiFiberPriors()

    @property
    def n_voxels(self) -> int:
        """Number of voxels in the block."""
        return self.data.shape[0]

    def rows(self, lo: int, hi: int) -> "LogPosterior":
        """The posterior of voxels ``[lo, hi)`` alone (same scheme, priors,
        and noise model; the signal rows are a view, not a copy)."""
        return LogPosterior(
            self.gtab,
            self.data[lo:hi],
            priors=self.priors,
            n_fibers=self.layout.n_fibers,
            noise_model=self.noise_model,
        )

    def __call__(self, params: np.ndarray) -> np.ndarray:
        """``(n_vox,)`` log-posterior (up to a constant) at ``params``."""
        p = self.layout.unpack(np.asarray(params, dtype=np.float64))
        lp = self.priors.log_prior(
            p["s0"], p["d"], p["sigma"], p["f"], p["theta"], p["phi"]
        )
        finite = np.isfinite(lp)
        if not finite.any():
            return lp
        # Skip the likelihood where the prior already vetoed the state:
        # the GPU kernel evaluates lanes unconditionally, but -inf + x is
        # still -inf, so computing only the finite rows is an exact
        # host-side optimization.
        mu = self.model.predict(
            self.gtab,
            s0=p["s0"][finite],
            d=p["d"][finite],
            f=p["f"][finite],
            theta=p["theta"][finite],
            phi=p["phi"][finite],
        )
        loglike = gaussian_loglike if self.noise_model == "gaussian" else rician_loglike
        ll = loglike(self.data[finite], mu, p["sigma"][finite])
        out = lp
        out[finite] += ll
        return out

    # -- initialization -----------------------------------------------------

    def initial_params(self, jitter: float = 0.0, seed: int = 0) -> np.ndarray:
        """A data-informed starting state for the chain.

        ``S0`` comes from the mean b=0 signal, ``d`` from a mono-exponential
        fit of the spherical-mean signal, ``sigma`` from the residual scale,
        and the first fiber direction from a tensor fit's principal
        eigenvector (Behrens et al. seed their chain the same way).  A
        second fiber starts orthogonal to the first with a small fraction.
        With ``jitter > 0`` Gaussian perturbations of that relative scale
        are added (useful for multi-chain diagnostics).
        """
        gtab, data = self.gtab, self.data
        n = self.n_voxels
        b0 = gtab.b0_mask
        if b0.any():
            s0 = data[:, b0].mean(axis=1)
        else:
            s0 = data.max(axis=1)
        s0 = np.maximum(s0, 1e-3)

        dw = ~b0
        if dw.any():
            mean_dw = np.maximum(data[:, dw].mean(axis=1), 1e-6)
            b_mean = gtab.bvals[dw].mean()
            d = -np.log(np.minimum(mean_dw / s0, 0.999)) / b_mean
        else:
            d = np.full(n, 1e-3)
        d = np.clip(d, 1e-5, self.priors.d_max * 0.99)

        # Principal direction from a tensor fit (robust, cheap).
        try:
            tfit = TensorModel().fit(gtab, data)
            theta1, phi1 = cartesian_to_spherical(tfit.principal_direction)
        except Exception:
            theta1 = np.full(n, np.pi / 2)
            phi1 = np.zeros(n)

        sigma = np.maximum(0.05 * s0, 1e-3)

        layout = self.layout
        params = np.zeros((n, layout.n_params))
        params[:, layout.s0] = s0
        params[:, layout.d] = d
        params[:, layout.sigma] = sigma
        f = params[:, layout.f]
        theta = params[:, layout.theta]
        phi = params[:, layout.phi]
        f[:, 0] = 0.4
        theta[:, 0] = theta1
        phi[:, 0] = phi1
        for j in range(1, layout.n_fibers):
            f[:, j] = 0.1
            # Start subsequent fibers orthogonal-ish to the first.
            theta[:, j] = np.mod(theta1 + np.pi / 2, np.pi)
            theta[:, j] = np.clip(theta[:, j], 0.05, np.pi - 0.05)
            phi[:, j] = phi1 + np.pi / 2

        theta[:, 0] = np.clip(theta[:, 0], 0.05, np.pi - 0.05)
        if jitter > 0:
            rng = np.random.default_rng(seed)
            scale = np.abs(params) * jitter + 1e-12
            params = params + rng.normal(size=params.shape) * scale
            params[:, layout.s0] = np.abs(params[:, layout.s0])
            params[:, layout.d] = np.clip(
                np.abs(params[:, layout.d]), 1e-6, self.priors.d_max * 0.99
            )
            params[:, layout.sigma] = np.abs(params[:, layout.sigma]) + 1e-6
            params[:, layout.f] = np.clip(params[:, layout.f], 0.0, 0.45)
        return params


class CompartmentCache:
    """A chain's model terms, so one MH step recomputes only what it moves.

    The sweep perturbs one flat parameter per step.  The cache holds the
    current state's ball ``exp(-b d)`` and ``b d`` ``(n, m)``, the squared
    gradient projections ``dot2`` and the sticks ``(n, N, m)``, the mix
    ``(n, m)``, and the per-voxel SSE (gaussian) or the predicted signal
    ``mu`` (rician).  :meth:`propose` recomputes by parameter:

    ===================  ==========================================
    ``s0``               ``mu = s0 * mix`` from the cached mix
    ``sigma``            the likelihood alone, from the cached SSE / mu
    ``d``                ball and every stick from the cached ``dot2``
    ``f_j``              the mix from the cached ball and sticks
    ``theta_j/phi_j``    ``dot2`` and stick ``j``, then the mix
    ===================  ==========================================

    and the prior in full.  Each term is the same array expression, on
    the same contiguous layout, as in :meth:`LogPosterior.__call__`, so
    ``propose(proposal, k)`` equals ``posterior(proposal)`` bitwise: the
    full call stays the executable spec.  :meth:`commit` copies the
    accepted rows of the proposed terms into the cache.  Rows the prior
    vetoes are ``-inf`` (their terms are computed but never committed).
    The cache is a pure function of the state, so it is rebuilt from the
    state rather than checkpointed.
    """

    def __init__(self, posterior: LogPosterior, params: np.ndarray) -> None:
        self.posterior = posterior
        self._b = posterior.gtab.bvals[None, :]
        self._gaussian = posterior.noise_model == "gaussian"
        p = posterior.layout.unpack(np.asarray(params, dtype=np.float64))
        # Rows the prior vetoes may overflow; their terms never reach an
        # lp, so the warnings are noise.
        with np.errstate(all="ignore"):
            self.bd = self._b * p["d"][:, None]
            self.ball = np.exp(-self.bd)
            dirs = spherical_to_cartesian(
                np.ascontiguousarray(p["theta"]), np.ascontiguousarray(p["phi"])
            )
            self.dot2 = np.einsum("vnj,mj->vnm", dirs, posterior.gtab.bvecs) ** 2
            self.sticks = np.exp(-self.bd[:, None, :] * self.dot2)
            self.mix = self._mix(p["f"], self.ball, self.sticks)
            self.fit = self._fit(p["s0"], self.mix)
        self._pending: list[tuple[np.ndarray, np.ndarray]] = []

    @staticmethod
    def _mix(f: np.ndarray, ball: np.ndarray, sticks: np.ndarray) -> np.ndarray:
        f = np.ascontiguousarray(f)
        f_iso = 1.0 - f.sum(axis=1)
        return f_iso[:, None] * ball + np.einsum("vn,vnm->vm", f, sticks)

    def _fit(self, s0: np.ndarray, mix: np.ndarray) -> np.ndarray:
        """SSE ``(n,)`` (gaussian) or ``mu`` ``(n, m)`` (rician)."""
        mu = np.ascontiguousarray(s0)[:, None] * mix
        if self._gaussian:
            return np.sum((self.posterior.data - mu) ** 2, axis=1)
        return mu

    def propose(self, proposal: np.ndarray, index: int) -> np.ndarray:
        """``(n_vox,)`` log-posterior of ``proposal``, which differs from
        the cached state in flat parameter ``index`` only."""
        post = self.posterior
        lay = post.layout
        p = lay.unpack(proposal)
        lp = post.priors.log_prior(
            p["s0"], p["d"], p["sigma"], p["f"], p["theta"], p["phi"]
        )
        finite = np.isfinite(lp)
        self._pending = []
        if not finite.any():
            return lp
        new: dict[str, np.ndarray] = {}
        with np.errstate(all="ignore"):
            if index == lay.d:
                new["bd"] = bd = self._b * p["d"][:, None]
                new["ball"] = np.exp(-bd)
                new["sticks"] = np.exp(-bd[:, None, :] * self.dot2)
                new["mix"] = self._mix(p["f"], new["ball"], new["sticks"])
            elif lay.is_angular(index):
                j = (index - lay.theta.start) % lay.n_fibers
                dirs = spherical_to_cartesian(
                    np.ascontiguousarray(p["theta"][:, j]),
                    np.ascontiguousarray(p["phi"][:, j]),
                )
                dot2 = np.einsum("vj,mj->vm", dirs, post.gtab.bvecs) ** 2
                self._pending.append((self.dot2[:, j], dot2))
                new["sticks"] = self.sticks.copy()
                new["sticks"][:, j] = np.exp(-self.bd * dot2)
                new["mix"] = self._mix(p["f"], self.ball, new["sticks"])
            elif lay.f.start <= index < lay.f.stop:
                new["mix"] = self._mix(p["f"], self.ball, self.sticks)
            if index != lay.sigma:
                new["fit"] = self._fit(p["s0"], new.get("mix", self.mix))
            fit = new.get("fit", self.fit)
            if self._gaussian:
                ll = gaussian_loglike_sse(fit, p["sigma"], post.data.shape[1])
            else:
                ll = rician_loglike(post.data, fit, p["sigma"])
        self._pending += [(getattr(self, name), arr) for name, arr in new.items()]
        np.add(lp, ll, out=lp, where=finite)
        return lp

    def commit(self, accepted: np.ndarray) -> None:
        """Copy the accepted rows of the last :meth:`propose` into the cache."""
        for dst, src in self._pending:
            np.copyto(dst, src, where=accepted.reshape((-1,) + (1,) * (dst.ndim - 1)))
        self._pending = []
