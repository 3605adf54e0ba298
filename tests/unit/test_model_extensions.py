"""Tests for the model extensions: the Rician likelihood."""

import numpy as np
import pytest
from scipy.stats import rice

from repro.errors import ModelError
from repro.io import GradientTable
from repro.models import LogPosterior, MultiFiberModel, gaussian_loglike, rician_loglike
from repro.utils.geometry import fibonacci_sphere


@pytest.fixture
def gtab():
    bvals = np.concatenate([np.zeros(3), np.full(28, 1000.0)])
    bvecs = np.concatenate([np.zeros((3, 3)), fibonacci_sphere(28)])
    return GradientTable(bvals, bvecs)


class TestRicianLoglike:
    def test_matches_scipy_rice(self):
        rng = np.random.default_rng(0)
        mu = np.abs(rng.normal(10, 2, size=(3, 6)))
        sigma = np.array([1.0, 2.0, 0.5])
        data = np.abs(rng.normal(10, 2, size=(3, 6)))
        ll = rician_loglike(data, mu, sigma)
        expect = np.array(
            [
                rice.logpdf(data[i], mu[i] / sigma[i], scale=sigma[i]).sum()
                for i in range(3)
            ]
        )
        np.testing.assert_allclose(ll, expect, rtol=1e-10)

    def test_high_snr_approaches_gaussian(self):
        # At SNR 100 the Rician and Gaussian log-likelihood differences
        # across nearby mu values agree closely.
        rng = np.random.default_rng(1)
        mu = np.full((1, 20), 1000.0)
        data = mu + rng.normal(scale=10.0, size=mu.shape)
        sigma = np.array([10.0])
        dg = gaussian_loglike(data, mu, sigma) - gaussian_loglike(
            data, mu * 1.01, sigma
        )
        dr = rician_loglike(data, mu, sigma) - rician_loglike(
            data, mu * 1.01, sigma
        )
        np.testing.assert_allclose(dr, dg, rtol=0.02)

    def test_low_snr_differs_from_gaussian(self):
        # Near zero signal the Rician density is Rayleigh-like and the
        # Gaussian approximation is visibly wrong.
        data = np.full((1, 50), 1.2)
        sigma = np.array([1.0])
        mu0 = np.zeros((1, 50))
        g = gaussian_loglike(data, mu0, sigma)
        r = rician_loglike(data, mu0, sigma)
        assert abs(float(g[0] - r[0])) > 1.0

    def test_nonpositive_data_is_minus_inf(self):
        ll = rician_loglike(
            np.array([[0.0, 1.0]]), np.ones((1, 2)), np.array([1.0])
        )
        assert np.isneginf(ll[0])

    def test_nonpositive_sigma_is_minus_inf(self):
        ll = rician_loglike(np.ones((1, 2)), np.ones((1, 2)), np.array([0.0]))
        assert np.isneginf(ll[0])

    def test_overflow_free_at_huge_snr(self):
        ll = rician_loglike(
            np.array([[1e6]]), np.array([[1e6]]), np.array([1.0])
        )
        assert np.isfinite(ll[0])

    def test_shape_validation(self):
        with pytest.raises(ModelError):
            rician_loglike(np.ones((1, 2)), np.ones((1, 3)), np.ones(1))
        with pytest.raises(ModelError):
            rician_loglike(np.ones((1, 2)), np.ones((1, 2)), np.ones(2))


class TestRicianPosterior:
    def test_noise_model_option(self, gtab):
        rng = np.random.default_rng(2)
        model = MultiFiberModel(2)
        mu = model.predict(
            gtab,
            s0=np.full(3, 500.0),
            d=np.full(3, 1e-3),
            f=np.tile([0.5, 0.1], (3, 1)),
            theta=np.tile([1.2, 0.4], (3, 1)),
            phi=np.tile([0.3, 2.0], (3, 1)),
        )
        data = np.abs(mu + rng.normal(scale=20.0, size=mu.shape))
        g = LogPosterior(gtab, data, noise_model="gaussian")
        r = LogPosterior(gtab, data, noise_model="rician")
        params = g.initial_params()
        lg, lr = g(params), r(params)
        assert np.all(np.isfinite(lg)) and np.all(np.isfinite(lr))
        assert not np.allclose(lg, lr)

    def test_unknown_noise_model_rejected(self, gtab):
        with pytest.raises(ModelError):
            LogPosterior(gtab, np.ones((1, 31)), noise_model="poisson")

    def test_rician_sampler_runs(self, gtab):
        from repro.mcmc import MCMCConfig, MCMCSampler

        rng = np.random.default_rng(3)
        model = MultiFiberModel(2)
        mu = model.predict(
            gtab,
            s0=np.full(2, 500.0),
            d=np.full(2, 1e-3),
            f=np.tile([0.5, 0.0], (2, 1)),
            theta=np.tile([np.pi / 2, 1.0], (2, 1)),
            phi=np.tile([0.0, 1.0], (2, 1)),
        )
        data = np.abs(mu + rng.normal(scale=10.0, size=mu.shape))
        post = LogPosterior(gtab, data, noise_model="rician")
        res = MCMCSampler(MCMCConfig(n_burnin=30, n_samples=5)).run(post)
        assert np.all(np.isfinite(post(res.samples[-1])))

    def test_scalar_lockstep_agree_rician(self, gtab):
        from repro.mcmc import MCMCConfig, MCMCSampler

        rng = np.random.default_rng(4)
        data = np.abs(rng.normal(300, 30, size=(2, 31)))
        post = LogPosterior(gtab, data, noise_model="rician")
        cfg = MCMCConfig(n_burnin=10, n_samples=3, sample_interval=1)
        lock = MCMCSampler(cfg).run(post)
        scal = MCMCSampler(cfg).run_scalar(post)
        np.testing.assert_allclose(lock.samples, scal.samples, rtol=1e-10)
