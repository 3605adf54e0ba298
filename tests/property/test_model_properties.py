"""Property-based tests for diffusion models, priors, and the posterior."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io import GradientTable
from repro.models import (
    MultiFiberModel,
    MultiFiberPriors,
    TensorModel,
    gaussian_loglike,
)
from repro.utils.geometry import fibonacci_sphere


def make_gtab(n_dwi=16, n_b0=2, b=1000.0):
    bvals = np.concatenate([np.zeros(n_b0), np.full(n_dwi, b)])
    bvecs = np.concatenate([np.zeros((n_b0, 3)), fibonacci_sphere(n_dwi)])
    return GradientTable(bvals, bvecs)


GTAB = make_gtab()

voxel_params = st.fixed_dictionaries(
    {
        "s0": st.floats(1.0, 1e4),
        "d": st.floats(1e-5, 5e-3),
        "f1": st.floats(0.0, 0.6),
        "f2": st.floats(0.0, 0.35),
        "theta1": st.floats(0.05, np.pi - 0.05),
        "theta2": st.floats(0.05, np.pi - 0.05),
        "phi1": st.floats(0.0, 2 * np.pi),
        "phi2": st.floats(0.0, 2 * np.pi),
    }
)


class TestSignalProperties:
    @given(p=voxel_params)
    @settings(max_examples=60)
    def test_signal_bounded_by_s0(self, p):
        mu = MultiFiberModel(2).predict(
            GTAB,
            s0=np.array([p["s0"]]),
            d=np.array([p["d"]]),
            f=np.array([[p["f1"], p["f2"]]]),
            theta=np.array([[p["theta1"], p["theta2"]]]),
            phi=np.array([[p["phi1"], p["phi2"]]]),
        )
        assert np.all(mu > 0.0)
        assert np.all(mu <= p["s0"] * (1 + 1e-12))
        # b=0 columns equal S0 exactly.
        np.testing.assert_allclose(mu[0, GTAB.b0_mask], p["s0"], rtol=1e-12)

    @given(p=voxel_params)
    @settings(max_examples=60)
    def test_signal_monotone_in_diffusivity(self, p):
        def predict(d):
            return MultiFiberModel(2).predict(
                GTAB,
                s0=np.array([p["s0"]]),
                d=np.array([d]),
                f=np.array([[p["f1"], p["f2"]]]),
                theta=np.array([[p["theta1"], p["theta2"]]]),
                phi=np.array([[p["phi1"], p["phi2"]]]),
            )

        lo = predict(p["d"])
        hi = predict(p["d"] * 2.0)
        dw = ~GTAB.b0_mask
        assert np.all(hi[0, dw] <= lo[0, dw] + 1e-12)

    @given(
        s0=st.floats(1.0, 1e4),
        d=st.floats(1e-5, 5e-3),
        f=st.floats(0.0, 0.9),
        theta=st.floats(0.05, np.pi - 0.05),
        phi=st.floats(0.0, 2 * np.pi),
    )
    @settings(max_examples=60)
    def test_ball_stick_between_ball_and_b0(self, s0, d, f, theta, phi):
        mu = MultiFiberModel(n_fibers=1).predict(
            GTAB,
            s0=np.array([s0]),
            d=np.array([d]),
            f=np.array([[f]]),
            theta=np.array([[theta]]),
            phi=np.array([[phi]]),
        )
        dw = ~GTAB.b0_mask
        ball = s0 * np.exp(-GTAB.bvals[dw] * d)
        # The stick attenuates at most as much as the ball along any
        # gradient (its exponent is scaled by a squared cosine <= 1).
        assert np.all(mu[0, dw] >= ball - 1e-9)
        assert np.all(mu[0, dw] <= s0 + 1e-9)

    @given(
        s0=st.floats(10.0, 1e3),
        d=st.floats(1e-4, 3e-3),
    )
    @settings(max_examples=30)
    def test_tensor_fit_round_trip(self, s0, d):
        # Isotropic tensors of any physical scale are recovered exactly
        # from noiseless data.
        tensors = (np.eye(3) * d)[None]
        mu = TensorModel().predict(GTAB, s0=np.array([s0]), tensors=tensors)
        fit = TensorModel().fit(GTAB, mu)
        np.testing.assert_allclose(fit.tensors, tensors, atol=d * 1e-6)
        np.testing.assert_allclose(fit.s0, [s0], rtol=1e-8)


class TestPosteriorProperties:
    @given(p=voxel_params, sigma=st.floats(0.1, 100.0))
    @settings(max_examples=60)
    def test_prior_finite_iff_in_support(self, p, sigma):
        priors = MultiFiberPriors()
        lp = priors.log_prior(
            s0=np.array([p["s0"]]),
            d=np.array([p["d"]]),
            sigma=np.array([sigma]),
            f=np.array([[p["f1"], p["f2"]]]),
            theta=np.array([[p["theta1"], p["theta2"]]]),
            phi=np.array([[p["phi1"], p["phi2"]]]),
        )
        in_support = (
            0 < p["s0"] <= priors.s0_max
            and 0 < p["d"] <= priors.d_max
            and p["f1"] >= 0
            and p["f2"] >= 0
            and p["f1"] + p["f2"] <= 1.0
        )
        assert np.isfinite(lp[0]) == in_support

    @given(
        scale=st.floats(0.1, 10.0),
        n=st.integers(1, 5),
        m=st.integers(1, 20),
    )
    @settings(max_examples=40)
    def test_loglike_maximized_at_mu(self, scale, n, m):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(n, m)) * scale
        sigma = np.full(n, scale)
        at_data = gaussian_loglike(data, data, sigma)
        off = gaussian_loglike(data, data + scale, sigma)
        assert np.all(at_data >= off)

    @given(factor=st.floats(1.1, 10.0))
    @settings(max_examples=40)
    def test_loglike_scale_equivariance(self, factor):
        # Scaling data, mu and sigma together shifts the loglike by
        # -m*log(factor) exactly (change of variables).
        rng = np.random.default_rng(1)
        data = rng.normal(size=(3, 8))
        mu = rng.normal(size=(3, 8))
        sigma = np.array([0.5, 1.0, 2.0])
        base = gaussian_loglike(data, mu, sigma)
        scaled = gaussian_loglike(data * factor, mu * factor, sigma * factor)
        np.testing.assert_allclose(
            scaled, base - 8 * np.log(factor), rtol=1e-9, atol=1e-9
        )
