"""Unit tests for priors, likelihood, layout, and posterior."""

import numpy as np
import pytest

from repro.errors import DataError, ModelError
from repro.io import GradientTable
from repro.models import (
    CompartmentCache,
    LogPosterior,
    MultiFiberModel,
    MultiFiberPriors,
    ParameterLayout,
    gaussian_loglike,
)
from repro.utils.geometry import fibonacci_sphere


@pytest.fixture
def gtab():
    bvals = np.concatenate([np.zeros(3), np.full(30, 1000.0)])
    bvecs = np.concatenate([np.zeros((3, 3)), fibonacci_sphere(30)])
    return GradientTable(bvals, bvecs)


def synth_signal(gtab, n=8, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    model = MultiFiberModel(2)
    true = dict(
        s0=rng.uniform(90, 110, n),
        d=rng.uniform(8e-4, 1.5e-3, n),
        f=np.stack([rng.uniform(0.3, 0.5, n), rng.uniform(0.05, 0.2, n)], axis=1),
        theta=rng.uniform(0.3, np.pi - 0.3, (n, 2)),
        phi=rng.uniform(0, 2 * np.pi, (n, 2)),
    )
    mu = model.predict(gtab, **true)
    if noise:
        mu = mu + rng.normal(scale=noise, size=mu.shape)
    return mu, true


class TestLayout:
    def test_paper_has_nine_parameters(self):
        assert ParameterLayout(2).n_params == 9

    def test_names_order(self):
        names = ParameterLayout(2).names
        assert names == (
            "s0", "d", "sigma", "f1", "f2", "theta1", "theta2", "phi1", "phi2",
        )

    def test_slices_partition(self):
        lay = ParameterLayout(3)
        idx = [lay.s0, lay.d, lay.sigma]
        idx += list(range(*lay.f.indices(lay.n_params)))
        idx += list(range(*lay.theta.indices(lay.n_params)))
        idx += list(range(*lay.phi.indices(lay.n_params)))
        assert sorted(idx) == list(range(lay.n_params))

    def test_is_angular(self):
        lay = ParameterLayout(2)
        assert not lay.is_angular(lay.s0)
        assert not lay.is_angular(4)  # f2
        assert lay.is_angular(5) and lay.is_angular(8)

    def test_unpack_views(self):
        lay = ParameterLayout(2)
        p = np.arange(18, dtype=float).reshape(2, 9)
        u = lay.unpack(p)
        assert u["s0"][0] == 0.0 and u["sigma"][1] == 11.0
        u["f"][0, 0] = -99.0
        assert p[0, 3] == -99.0  # views, not copies

    def test_unpack_rejects_bad_shape(self):
        with pytest.raises(DataError):
            ParameterLayout(2).unpack(np.zeros((2, 8)))

    def test_rejects_zero_fibers(self):
        with pytest.raises(ModelError):
            ParameterLayout(0)


class TestGaussianLoglike:
    def test_matches_scipy(self):
        from scipy.stats import norm

        rng = np.random.default_rng(0)
        data = rng.normal(size=(3, 10))
        mu = rng.normal(size=(3, 10))
        sigma = np.array([0.5, 1.0, 2.0])
        ll = gaussian_loglike(data, mu, sigma)
        expect = np.array(
            [norm.logpdf(data[i], mu[i], sigma[i]).sum() for i in range(3)]
        )
        np.testing.assert_allclose(ll, expect, rtol=1e-12)

    def test_nonpositive_sigma_is_minus_inf(self):
        ll = gaussian_loglike(np.zeros((2, 4)), np.zeros((2, 4)), np.array([0.0, -1.0]))
        assert np.all(np.isneginf(ll))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ModelError):
            gaussian_loglike(np.zeros((2, 4)), np.zeros((2, 5)), np.ones(2))
        with pytest.raises(ModelError):
            gaussian_loglike(np.zeros((2, 4)), np.zeros((2, 4)), np.ones(3))


class TestPriors:
    def make_args(self, n=4):
        return dict(
            s0=np.full(n, 100.0),
            d=np.full(n, 1e-3),
            sigma=np.full(n, 5.0),
            f=np.tile([0.4, 0.2], (n, 1)),
            theta=np.full((n, 2), np.pi / 2),
            phi=np.zeros((n, 2)),
        )

    def test_valid_state_is_finite(self):
        lp = MultiFiberPriors().log_prior(**self.make_args())
        assert np.all(np.isfinite(lp))

    @pytest.mark.parametrize(
        "key,value",
        [
            ("s0", -1.0),
            ("d", -1e-3),
            ("d", 0.5),
            ("sigma", 0.0),
        ],
    )
    def test_out_of_support_scalar(self, key, value):
        args = self.make_args()
        args[key] = args[key].copy()
        args[key][0] = value
        lp = MultiFiberPriors().log_prior(**args)
        assert np.isneginf(lp[0]) and np.isfinite(lp[1])

    def test_fraction_simplex(self):
        args = self.make_args()
        args["f"] = args["f"].copy()
        args["f"][0] = [0.7, 0.5]  # sums over 1
        args["f"][1] = [-0.1, 0.2]
        lp = MultiFiberPriors().log_prior(**args)
        assert np.isneginf(lp[0]) and np.isneginf(lp[1]) and np.isfinite(lp[2])

    def test_sin_theta_prior(self):
        args = self.make_args()
        lp_equator = MultiFiberPriors().log_prior(**args)
        args2 = dict(args)
        args2["theta"] = np.full((4, 2), 0.1)
        lp_pole = MultiFiberPriors().log_prior(**args2)
        assert np.all(lp_pole < lp_equator)

    def test_exact_pole_is_zero_density(self):
        args = self.make_args()
        args["theta"] = args["theta"].copy()
        args["theta"][0, 0] = 0.0
        lp = MultiFiberPriors().log_prior(**args)
        assert np.isneginf(lp[0])

    def test_jeffreys_sigma(self):
        args = self.make_args()
        lp1 = MultiFiberPriors().log_prior(**args)
        args2 = dict(args)
        args2["sigma"] = args["sigma"] * 2
        lp2 = MultiFiberPriors().log_prior(**args2)
        np.testing.assert_allclose(lp1 - lp2, np.log(2.0), rtol=1e-12)

    def test_ard_penalizes_secondary_fraction(self):
        args = self.make_args()
        base = MultiFiberPriors(ard=True).log_prior(**args)
        args2 = dict(args)
        args2["f"] = np.tile([0.4, 0.4], (4, 1))
        bigger = MultiFiberPriors(ard=True).log_prior(**args2)
        assert np.all(bigger < base)

    def test_ard_floor_keeps_finite(self):
        args = self.make_args()
        args["f"] = np.tile([0.4, 0.0], (4, 1))
        lp = MultiFiberPriors(ard=True).log_prior(**args)
        assert np.all(np.isfinite(lp))

    def test_bad_config_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            MultiFiberPriors(s0_max=0.0)
        with pytest.raises(ConfigurationError):
            MultiFiberPriors(sigma_bounds=(1.0, 0.5))


class TestLogPosterior:
    def test_shapes_and_finiteness(self, gtab):
        data, _ = synth_signal(gtab, n=6, noise=1.0)
        post = LogPosterior(gtab, data)
        params = post.initial_params()
        assert params.shape == (6, 9)
        lp = post(params)
        assert lp.shape == (6,)
        assert np.all(np.isfinite(lp))

    def test_truth_beats_perturbation(self, gtab):
        data, true = synth_signal(gtab, n=5, noise=0.5)
        post = LogPosterior(gtab, data)
        lay = post.layout
        params = np.zeros((5, 9))
        params[:, lay.s0] = true["s0"]
        params[:, lay.d] = true["d"]
        params[:, lay.sigma] = 0.5
        params[:, lay.f] = true["f"]
        params[:, lay.theta] = true["theta"]
        params[:, lay.phi] = true["phi"]
        lp_true = post(params)
        worse = params.copy()
        worse[:, lay.d] *= 3.0
        assert np.all(post(worse) < lp_true)

    def test_prior_veto_propagates(self, gtab):
        data, _ = synth_signal(gtab, n=3)
        post = LogPosterior(gtab, data)
        params = post.initial_params()
        params[1, post.layout.d] = -1.0
        lp = post(params)
        assert np.isneginf(lp[1])
        assert np.isfinite(lp[0]) and np.isfinite(lp[2])

    def test_all_vetoed_short_circuit(self, gtab):
        data, _ = synth_signal(gtab, n=2)
        post = LogPosterior(gtab, data)
        params = post.initial_params()
        params[:, post.layout.sigma] = -1.0
        assert np.all(np.isneginf(post(params)))

    def test_initial_params_within_support(self, gtab):
        data, _ = synth_signal(gtab, n=10, noise=2.0)
        post = LogPosterior(gtab, data)
        lp = post(post.initial_params())
        assert np.all(np.isfinite(lp))

    def test_initial_params_jitter_reproducible(self, gtab):
        data, _ = synth_signal(gtab, n=4, noise=1.0)
        post = LogPosterior(gtab, data)
        a = post.initial_params(jitter=0.05, seed=1)
        b = post.initial_params(jitter=0.05, seed=1)
        c = post.initial_params(jitter=0.05, seed=2)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_initial_direction_matches_tensor(self, gtab):
        # Single dominant fiber along +x: theta1 ~ pi/2, phi1 ~ 0 (mod pi).
        model = MultiFiberModel(2)
        mu = model.predict(
            gtab,
            s0=np.array([100.0]),
            d=np.array([1e-3]),
            f=np.array([[0.6, 0.0]]),
            theta=np.array([[np.pi / 2, 1.0]]),
            phi=np.array([[0.0, 1.0]]),
        )
        post = LogPosterior(gtab, mu)
        p = post.initial_params()
        from repro.utils.geometry import spherical_to_cartesian

        v = spherical_to_cartesian(
            p[0, post.layout.theta][0], p[0, post.layout.phi][0]
        )
        assert abs(v[0]) > 0.99

    def test_rejects_bad_data(self, gtab):
        with pytest.raises(DataError):
            LogPosterior(gtab, np.zeros(5))
        with pytest.raises(DataError):
            LogPosterior(gtab, np.zeros((2, 7)))


def _walk_posterior(gtab, n_fibers, noise_model, ard, n=24):
    data, _ = synth_signal(gtab, n=n, noise=2.0)
    return LogPosterior(
        gtab,
        np.abs(data),  # a magnitude image, so the rician likelihood is finite
        priors=MultiFiberPriors(ard=ard),
        n_fibers=n_fibers,
        noise_model=noise_model,
    )


def _assert_same_terms(a, b):
    for name in ("bd", "ball", "dot2", "sticks", "mix", "fit"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestCompartmentCache:
    """The incremental terms give the full evaluation's ``lp``, bitwise."""

    @pytest.mark.parametrize("n_fibers", [1, 2, 3])
    @pytest.mark.parametrize("noise_model", ["gaussian", "rician"])
    @pytest.mark.parametrize("ard", [False, True])
    def test_random_walk_matches_full_evaluation(
        self, gtab, n_fibers, noise_model, ard
    ):
        post = _walk_posterior(gtab, n_fibers, noise_model, ard)
        lay = post.layout
        params = post.initial_params()
        params[0, lay.d] = -2e-4  # chain 0 starts at -inf (prior veto)
        lp = post(params)
        assert np.isneginf(lp[0]) and np.isfinite(lp[1:]).all()
        cache = CompartmentCache(post, params)
        rng = np.random.default_rng(n_fibers)
        # Wide steps, so many proposals leave the prior's support.
        scale = np.abs(params).mean(axis=0) * 0.3
        vetoed = 0
        n_sweeps = 12
        for sweep in range(n_sweeps):
            if sweep == n_sweeps // 2:
                # A resume rebuilds the cache from the state alone.
                fresh = CompartmentCache(post, params)
                _assert_same_terms(cache, fresh)
                cache = fresh
            for k in range(lay.n_params):
                proposal = params.copy()
                proposal[:, k] += rng.normal(size=post.n_voxels) * scale[k]
                got = cache.propose(proposal, k)
                want = post(proposal)
                assert np.array_equal(got, want), (sweep, lay.names[k])
                vetoed += int(np.isneginf(want).sum())
                accepted = np.isfinite(want) & (
                    (rng.random(post.n_voxels) < 0.6) | np.isneginf(lp)
                )
                cache.commit(accepted)
                params[accepted, k] = proposal[accepted, k]
                lp[accepted] = want[accepted]
        assert vetoed > 0
        assert np.isfinite(lp[0])  # the vetoed chain escaped
        _assert_same_terms(cache, CompartmentCache(post, params))

    def test_all_vetoed_proposal(self, gtab):
        post = _walk_posterior(gtab, 2, "gaussian", False, n=3)
        params = post.initial_params()
        cache = CompartmentCache(post, params)
        proposal = params.copy()
        proposal[:, post.layout.sigma] = -1.0
        assert np.all(np.isneginf(cache.propose(proposal, post.layout.sigma)))
        cache.commit(np.zeros(3, dtype=bool))
        _assert_same_terms(cache, CompartmentCache(post, params))

    @pytest.mark.parametrize("noise_model", ["gaussian", "rician"])
    def test_sampler_matches_full_evaluation_sweep(
        self, gtab, noise_model, monkeypatch
    ):
        """The sampler's cached sweep equals the same sweep driven by the
        plain ``LogPosterior`` callable: samples, histories, counters."""
        from repro.mcmc import MCMCConfig, MCMCSampler
        from repro.mcmc import sampler as sampler_mod
        from repro.telemetry import MetricsRegistry, use_registry

        post = _walk_posterior(gtab, 2, noise_model, True, n=10)
        cfg = MCMCConfig(n_burnin=15, n_samples=4, sample_interval=2, adapt_every=5)

        def run():
            reg = MetricsRegistry()
            with use_registry(reg):
                res = MCMCSampler(cfg).run(post, blocks=[(0, 4), (4, 10)])
            counters = reg.snapshot()["counters"]
            return res, {k: v for k, v in counters.items() if k.startswith("mcmc.")}

        cached, cached_counters = run()
        monkeypatch.setattr(sampler_mod, "CompartmentCache", lambda p, _: p)
        full, full_counters = run()
        assert np.array_equal(cached.samples, full.samples)
        assert cached.block_histories == full.block_histories
        assert cached_counters == full_counters
