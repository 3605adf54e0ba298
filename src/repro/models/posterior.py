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
    gaussian_sigma_terms,
    rician_loglike,
)
from repro.models.multi_fiber import MultiFiberModel, gradient_projection
from repro.models.priors import MultiFiberPriors
from repro.models.tensor import TensorModel
from repro.utils.geometry import cartesian_to_spherical

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


#: Rows of :attr:`CompartmentCache.support`: one support flag per prior term.
_S0, _D, _SIGMA, _F, _THETA = range(5)


class CompartmentCache:
    """A chain's model and prior terms, so one MH step recomputes only
    what it moves.

    The sweep perturbs one flat parameter per step.  For the current
    state the cache holds the likelihood terms

    * ``neg_bd = -b d``, the ball ``exp(-b d)`` and the isotropic term
      ``iso = f_iso * ball``, each ``(n, m)``;
    * the squared gradient projections ``dot2`` and the sticks
      ``(n, N, m)``, and the mix ``(n, m)``;
    * the per-voxel SSE and ``sigma_terms`` (gaussian), or the predicted
      signal ``mu`` (rician; ``sigma_terms`` is ``None``);

    and the terms of :meth:`MultiFiberPriors.log_prior`

    * ``support`` ``(5, n)``, one flag per term (``s0``, ``d``,
      ``sigma``, ``f``, ``theta``; ``True`` outside the support), and
      the per-fiber ``poles`` ``(n, N)`` behind the ``theta`` flag;
    * ``neg_log_sigma = 0 - log sigma``, ``log_sin = log|sin theta|``
      ``(n, N)`` with its row sums ``log_sin_sum``, and the ARD sum
      ``ard_sum`` (``None`` without ARD);
    * ``prior_body``, those real terms combined, and ``prior``, the
      log-prior itself.

    :meth:`propose` recomputes by parameter:

    ===========  ==========================================  =====================
    parameter    likelihood                                  prior
    ===========  ==========================================  =====================
    ``s0``       ``mu = s0 * mix`` from the cached mix       its flag
    ``sigma``    ``sigma_terms``, with the cached SSE / mu   its flag, ``-log sigma``
    ``d``        ``-b d``, ball, iso, every stick from       its flag
                 the cached ``dot2``, then the mix
    ``f_j``      iso, then the mix                           its flag, the ARD sum
    ``theta_j``  ``dot2`` and stick ``j``, then the mix      its flag, ``log_sin[:, j]``
    ``phi_j``    ``dot2`` and stick ``j``, then the mix      cached
    ===========  ==========================================  =====================

    Each term is the same array expression as in
    :meth:`LogPosterior.__call__` and ``log_prior`` (the projection is
    the model's own :func:`gradient_projection`), and the terms are
    combined in the same order, so ``propose(proposal, k)`` equals
    ``posterior(proposal)`` bitwise: the full call stays the executable
    spec.  Sticks are proposed into a second ``(n, N, m)`` buffer that
    mirrors ``sticks``, so an angle step writes one fiber's column and
    the mix reads the same full layout.  :meth:`commit` copies the
    accepted rows of the proposed terms into the cache, then restores
    the mirror.  Rows the prior vetoes are ``-inf`` (their terms are
    computed but never committed).  The cache is a pure function of the
    state, so it is rebuilt from the state rather than checkpointed.
    """

    def __init__(self, posterior: LogPosterior, params: np.ndarray) -> None:
        self.posterior = posterior
        lay = posterior.layout
        priors = posterior.priors
        n, m = posterior.data.shape
        n_fib = lay.n_fibers
        self._b = posterior.gtab.bvals[None, :]
        self._g = np.ascontiguousarray(posterior.gtab.bvecs.T)
        self._gaussian = posterior.noise_model == "gaussian"
        self._m = m
        self._f = lay.f
        self._theta0 = lay.theta.start
        self._phi0 = lay.phi.start
        self._ard = priors.ard and n_fib > 1
        cls = type(self)
        self._steps = (
            [(cls._s0_step, 0), (cls._d_step, 0), (cls._sigma_step, 0)]
            + [(cls._f_step, j) for j in range(n_fib)]
            + [(cls._theta_step, j) for j in range(n_fib)]
            + [(cls._phi_step, j) for j in range(n_fib)]
        )
        # Scratch for the proposed projection and a second (n, m)
        # operand; the stick mirror is built with the sticks below.
        self._dot2_new = np.empty((n, m))
        self._tmp = np.empty((n, m))
        self._reject = np.zeros(n, dtype=bool)
        self._pending: list[tuple[np.ndarray, np.ndarray]] = []
        self._restore: list[tuple[np.ndarray, np.ndarray]] = []

        p = lay.unpack(np.asarray(params, dtype=np.float64))
        # Rows the prior vetoes may overflow; their terms never reach an
        # lp, so the warnings are noise.
        with np.errstate(all="ignore"):
            self.neg_bd = np.negative(self._b * p["d"][:, None])
            self.ball = np.exp(self.neg_bd)
            theta = np.ascontiguousarray(p["theta"])
            phi = np.ascontiguousarray(p["phi"])
            sin_t = np.sin(theta)
            self.dot2 = gradient_projection(
                sin_t * np.cos(phi), sin_t * np.sin(phi), np.cos(theta), self._g
            )
            np.square(self.dot2, out=self.dot2)
            self.sticks = np.exp(self.neg_bd[:, None, :] * self.dot2)
            self._sticks_new = self.sticks.copy()
            f = np.ascontiguousarray(p["f"])
            f_sum = f.sum(axis=1)
            self.iso = (1.0 - f_sum)[:, None] * self.ball
            self.mix = self._mix(self.iso, f, self.sticks)
            self.fit = self._fit(p["s0"], self.mix)
            self.sigma_terms = (
                gaussian_sigma_terms(p["sigma"], m) if self._gaussian else None
            )

            abs_sin = np.abs(sin_t)
            self.poles = abs_sin <= 0.0
            self.support = np.stack([
                self._s0_flag(p["s0"]),
                self._d_flag(p["d"]),
                self._sigma_flag(p["sigma"]),
                self._f_flag(f, f_sum),
                self.poles.any(axis=1),
            ])
            self.neg_log_sigma = 0.0 - np.log(p["sigma"])
            self.log_sin = np.log(np.where(abs_sin > 0.0, abs_sin, 1.0))
            self.log_sin_sum = self.log_sin.sum(axis=1)
            self.ard_sum = self._ard_sum(f)
            self.prior_body = self._body(
                self.neg_log_sigma, self.log_sin_sum, self.ard_sum
            )
            self.prior = np.where(self.support.any(axis=0), -np.inf, self.prior_body)

    # -- the prior's terms (``MultiFiberPriors.log_prior``, split up) ------

    def _s0_flag(self, s0: np.ndarray) -> np.ndarray:
        return (s0 <= 0) | (s0 > self.posterior.priors.s0_max)

    def _d_flag(self, d: np.ndarray) -> np.ndarray:
        return (d <= 0) | (d > self.posterior.priors.d_max)

    def _sigma_flag(self, sigma: np.ndarray) -> np.ndarray:
        lo, hi = self.posterior.priors.sigma_bounds
        return (sigma < lo) | (sigma > hi)

    @staticmethod
    def _f_flag(f: np.ndarray, f_sum: np.ndarray) -> np.ndarray:
        return np.any(f < 0.0, axis=1) | (f_sum > 1.0)

    def _ard_sum(self, f: np.ndarray) -> np.ndarray | None:
        if not self._ard:
            return None
        f_sec = np.maximum(f[:, 1:], self.posterior.priors.f_min_ard)
        return np.log(f_sec).sum(axis=1)

    @staticmethod
    def _body(
        neg_log_sigma: np.ndarray, log_sin_sum: np.ndarray, ard_sum: np.ndarray | None
    ) -> np.ndarray:
        body = neg_log_sigma + log_sin_sum
        if ard_sum is not None:
            body -= ard_sum
        return body

    def _prior(
        self, row: int, flag: np.ndarray, body: np.ndarray | None = None
    ) -> np.ndarray:
        """The log-prior with support flag ``row`` set to ``flag`` and,
        if given, the real terms' sum set to ``body``; staged for
        :meth:`commit`."""
        support = self.support.copy()
        support[row] = flag
        if body is None:
            body = self.prior_body
        else:
            self._pending.append((self.prior_body, body))
        prior = np.where(support.any(axis=0), -np.inf, body)
        self._pending += [(self.support[row], flag), (self.prior, prior)]
        return prior

    # -- the likelihood's terms -------------------------------------------

    @staticmethod
    def _mix(iso: np.ndarray, f: np.ndarray, sticks: np.ndarray) -> np.ndarray:
        mix = np.einsum("vn,vnm->vm", f, sticks)
        return np.add(iso, mix, out=mix)

    def _fit(self, s0: np.ndarray, mix: np.ndarray) -> np.ndarray:
        """SSE ``(n,)`` (gaussian) or ``mu`` ``(n, m)`` (rician)."""
        if not self._gaussian:
            return s0[:, None] * mix
        mu = np.multiply(s0[:, None], mix, out=self._tmp)
        np.subtract(self.posterior.data, mu, out=mu)
        return np.square(mu, out=mu).sum(axis=1)

    def _refit(self, p: np.ndarray, mix: np.ndarray) -> np.ndarray:
        """The fit of ``mix`` at the proposal's ``s0``, with ``mix``
        (when new) staged."""
        if mix is not self.mix:
            self._pending.append((self.mix, mix))
        fit = self._fit(p[:, 0], mix)
        self._pending.append((self.fit, fit))
        return fit

    def _lp(
        self, prior: np.ndarray, p: np.ndarray, fit: np.ndarray,
        sigma_terms: tuple | None = None,
    ) -> np.ndarray:
        """``prior`` plus the likelihood of ``fit`` where the prior is
        finite."""
        finite = np.isfinite(prior)
        lp = prior.copy()
        if not finite.any():
            return lp
        if self._gaussian:
            ll = gaussian_loglike_sse(
                fit, p[:, 2], self._m, sigma_terms or self.sigma_terms
            )
        else:
            ll = rician_loglike(self.posterior.data, fit, p[:, 2])
        np.add(lp, ll, out=lp, where=finite)
        return lp

    # -- one step per kind of parameter -------------------------------------
    # A proposal's columns 0, 1, 2 are s0, d and sigma (ParameterLayout).

    def _s0_step(self, p: np.ndarray, _: int) -> np.ndarray:
        prior = self._prior(_S0, self._s0_flag(p[:, 0]))
        return self._lp(prior, p, self._refit(p, self.mix))

    def _d_step(self, p: np.ndarray, _: int) -> np.ndarray:
        d = p[:, 1]
        prior = self._prior(_D, self._d_flag(d))
        neg_bd = np.negative(self._b * d[:, None])
        ball = np.exp(neg_bd)
        sticks = self._sticks_new
        np.exp(np.multiply(neg_bd[:, None, :], self.dot2, out=sticks), out=sticks)
        f = np.ascontiguousarray(p[:, self._f])
        iso = (1.0 - f.sum(axis=1))[:, None] * ball
        self._pending += [
            (self.neg_bd, neg_bd), (self.ball, ball), (self.iso, iso),
            (self.sticks, sticks),
        ]
        self._restore.append((sticks, self.sticks))
        return self._lp(prior, p, self._refit(p, self._mix(iso, f, sticks)))

    def _sigma_step(self, p: np.ndarray, _: int) -> np.ndarray:
        sigma = p[:, 2]
        neg_log_sigma = 0.0 - np.log(sigma)
        self._pending.append((self.neg_log_sigma, neg_log_sigma))
        body = self._body(neg_log_sigma, self.log_sin_sum, self.ard_sum)
        prior = self._prior(_SIGMA, self._sigma_flag(sigma), body)
        terms = None
        if self._gaussian:
            terms = gaussian_sigma_terms(sigma, self._m)
            self._pending += list(zip(self.sigma_terms, terms))
        return self._lp(prior, p, self.fit, terms)

    def _f_step(self, p: np.ndarray, _: int) -> np.ndarray:
        f = np.ascontiguousarray(p[:, self._f])
        f_sum = f.sum(axis=1)
        body = None
        if self._ard:
            ard_sum = self._ard_sum(f)
            self._pending.append((self.ard_sum, ard_sum))
            body = self._body(self.neg_log_sigma, self.log_sin_sum, ard_sum)
        prior = self._prior(_F, self._f_flag(f, f_sum), body)
        iso = (1.0 - f_sum)[:, None] * self.ball
        self._pending.append((self.iso, iso))
        return self._lp(prior, p, self._refit(p, self._mix(iso, f, self.sticks)))

    def _theta_step(self, p: np.ndarray, j: int) -> np.ndarray:
        theta = p[:, self._theta0 + j]
        sin_t = np.sin(theta)
        abs_sin = np.abs(sin_t)
        poles = self.poles.copy()
        poles[:, j] = abs_sin <= 0.0
        log_sin = self.log_sin.copy()
        log_sin[:, j] = np.log(np.where(abs_sin > 0.0, abs_sin, 1.0))
        log_sin_sum = log_sin.sum(axis=1)
        self._pending += [
            (self.poles, poles), (self.log_sin, log_sin),
            (self.log_sin_sum, log_sin_sum),
        ]
        body = self._body(self.neg_log_sigma, log_sin_sum, self.ard_sum)
        prior = self._prior(_THETA, poles.any(axis=1), body)
        return self._lp(prior, p, self._angle_fit(p, j, theta, sin_t))

    def _phi_step(self, p: np.ndarray, j: int) -> np.ndarray:
        theta = p[:, self._theta0 + j]
        return self._lp(self.prior, p, self._angle_fit(p, j, theta, np.sin(theta)))

    def _angle_fit(
        self, p: np.ndarray, j: int, theta: np.ndarray, sin_t: np.ndarray
    ) -> np.ndarray:
        """Fiber ``j``'s projection and stick, then the mix and its fit."""
        phi = p[:, self._phi0 + j]
        dot2 = gradient_projection(
            sin_t * np.cos(phi), sin_t * np.sin(phi), np.cos(theta), self._g,
            out=self._dot2_new, scratch=self._tmp,
        )
        np.square(dot2, out=dot2)
        stick = self._sticks_new[:, j]
        np.exp(np.multiply(self.neg_bd, dot2, out=stick), out=stick)
        self._pending += [(self.dot2[:, j], dot2), (self.sticks[:, j], stick)]
        self._restore.append((stick, self.sticks[:, j]))
        f = np.ascontiguousarray(p[:, self._f])
        return self._refit(p, self._mix(self.iso, f, self._sticks_new))

    # -- the protocol the MH step drives ----------------------------------

    def propose(self, proposal: np.ndarray, index: int) -> np.ndarray:
        """``(n_vox,)`` log-posterior of ``proposal``, which differs from
        the cached state in flat parameter ``index`` only.  A proposal
        that was not committed is rejected first."""
        if self._pending or self._restore:
            self.commit(self._reject)
        step, j = self._steps[index]
        with np.errstate(all="ignore"):
            return step(self, proposal, j)

    def commit(self, accepted: np.ndarray) -> None:
        """Copy the accepted rows of the last :meth:`propose` into the
        cache, and make the stick mirror equal the sticks again."""
        masks = (None, accepted, accepted[:, None], accepted[:, None, None])
        for dst, src in self._pending:
            np.copyto(dst, src, where=masks[dst.ndim])
        for dst, src in self._restore:
            np.copyto(dst, src)
        self._pending = []
        self._restore = []
