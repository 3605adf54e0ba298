"""Unit tests for the MCMC engine (repro.mcmc)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, DataError, SamplerError
from repro.io import GradientTable
from repro.mcmc import (
    AdaptiveProposals,
    MCMCConfig,
    MCMCResult,
    MCMCSampler,
    mh_parameter_update,
)
from repro.models import FiberStack, LogPosterior, MultiFiberModel
from repro.rng import seed_streams
from repro.utils.geometry import fibonacci_sphere


@pytest.fixture
def gtab():
    bvals = np.concatenate([np.zeros(2), np.full(24, 1000.0)])
    bvecs = np.concatenate([np.zeros((2, 3)), fibonacci_sphere(24)])
    return GradientTable(bvals, bvecs)


def make_posterior(gtab, n=4, seed=0, sigma=5.0):
    rng = np.random.default_rng(seed)
    model = MultiFiberModel(2)
    mu = model.predict(
        gtab,
        s0=np.full(n, 100.0),
        d=np.full(n, 1e-3),
        f=np.tile([0.55, 0.0], (n, 1)),
        theta=np.tile([np.pi / 2, 1.0], (n, 1)),
        phi=np.tile([0.0, 1.0], (n, 1)),
    )
    data = mu + rng.normal(scale=sigma, size=mu.shape)
    return LogPosterior(gtab, data)


class TestConfig:
    def test_n_loops_formula(self):
        cfg = MCMCConfig(n_burnin=500, n_samples=250, sample_interval=2)
        assert cfg.n_loops == 1000

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_burnin=-1),
            dict(n_samples=0),
            dict(sample_interval=0),
            dict(adapt_every=0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            MCMCConfig(**kwargs)


class TestAdaptiveProposals:
    def test_initial_validation(self):
        with pytest.raises(ConfigurationError):
            AdaptiveProposals(np.zeros((2, 3)))
        with pytest.raises(ConfigurationError):
            AdaptiveProposals(np.ones(3))
        with pytest.raises(ConfigurationError):
            AdaptiveProposals(np.ones((2, 3)), min_sigma=1.0, max_sigma=0.5)

    def test_all_accept_grows_sigma(self):
        p = AdaptiveProposals(np.ones((2, 1)))
        for _ in range(10):
            p.record(0, np.array([True, True]))
        p.adapt()
        assert np.all(p.sigma > 1.0)

    def test_all_reject_shrinks_sigma(self):
        p = AdaptiveProposals(np.ones((2, 1)))
        for _ in range(10):
            p.record(0, np.array([False, False]))
        p.adapt()
        assert np.all(p.sigma < 1.0)

    def test_balanced_keeps_sigma(self):
        p = AdaptiveProposals(np.ones((1, 1)))
        for i in range(10):
            p.record(0, np.array([i % 2 == 0]))
        p.adapt()
        np.testing.assert_allclose(p.sigma, 1.0)

    def test_window_reset_after_adapt(self):
        p = AdaptiveProposals(np.ones((1, 1)))
        p.record(0, np.array([True]))
        rates = p.adapt()
        assert rates[0, 0] == 1.0
        assert p.window_acceptance()[0, 0] == 0.0

    def test_clamping(self):
        p = AdaptiveProposals(np.ones((1, 1)), min_sigma=0.9, max_sigma=1.1)
        for _ in range(100):
            p.record(0, np.array([True]))
        p.adapt()
        assert p.sigma[0, 0] == 1.1

    def test_default_initial_sigma_floor(self):
        sig = AdaptiveProposals.default_initial_sigma(np.zeros((2, 3)), rel=0.1)
        assert np.all(sig > 0)


class TestMHUpdate:
    def test_targets_standard_normal(self):
        # 1-D Gaussian target, many parallel lanes: the empirical law of
        # accepted states must match N(0, 1).
        n = 512

        def logp(x):
            return -0.5 * x[:, 0] ** 2

        params = np.zeros((n, 1))
        lp = logp(params)
        rng = seed_streams(n, seed=0)
        draws = []
        for _ in range(600):
            _, lp = mh_parameter_update(logp, params, lp, 0, np.full(n, 2.4), rng)
            draws.append(params[:, 0].copy())
        x = np.concatenate(draws[100:])
        assert abs(x.mean()) < 0.02
        assert abs(x.std() - 1.0) < 0.02

    def test_accept_updates_in_place(self):
        def logp(x):
            return np.zeros(x.shape[0])  # flat target: accept everything

        n = 8
        params = np.zeros((n, 2))
        lp = logp(params)
        rng = seed_streams(n, seed=1)
        acc, lp = mh_parameter_update(logp, params, lp, 1, np.ones(n), rng)
        assert acc.all()
        assert np.all(params[:, 1] != 0.0)
        assert np.all(params[:, 0] == 0.0)  # untouched parameter

    def test_reject_keeps_state(self):
        def logp(x):
            # Anything but exactly zero is vetoed.
            return np.where(x[:, 0] == 0.0, 0.0, -np.inf)

        n = 8
        params = np.zeros((n, 1))
        lp = logp(params)
        rng = seed_streams(n, seed=2)
        acc, _ = mh_parameter_update(logp, params, lp, 0, np.ones(n), rng)
        assert not acc.any()
        np.testing.assert_array_equal(params, 0.0)

    def test_escape_from_minus_inf(self):
        def logp(x):
            return np.where(np.abs(x[:, 0]) < 10.0, 0.0, -np.inf)

        n = 4
        params = np.full((n, 1), 100.0)  # vetoed start
        lp = logp(params)
        rng = seed_streams(n, seed=3)
        for _ in range(600):
            _, lp = mh_parameter_update(logp, params, lp, 0, np.full(n, 60.0), rng)
        assert np.all(np.abs(params[:, 0]) < 10.0)


class TestSampler:
    def test_shapes_and_counters(self, gtab):
        post = make_posterior(gtab, n=3)
        cfg = MCMCConfig(n_burnin=20, n_samples=5, sample_interval=2, adapt_every=10)
        res = MCMCSampler(cfg).run(post)
        assert res.samples.shape == (5, 3, 9)
        assert res.n_loops == 30
        assert len(res.acceptance_history) == 3
        assert res.wall_seconds > 0

    def test_samples_have_positive_posterior(self, gtab):
        post = make_posterior(gtab, n=3)
        cfg = MCMCConfig(n_burnin=20, n_samples=5, sample_interval=1)
        res = MCMCSampler(cfg).run(post)
        for s in range(5):
            assert np.all(np.isfinite(post(res.samples[s])))

    def test_recovers_dominant_direction(self, gtab):
        # True fiber is +x; posterior mean direction must align with it.
        post = make_posterior(gtab, n=4, sigma=2.0)
        cfg = MCMCConfig(n_burnin=150, n_samples=30, sample_interval=2)
        res = MCMCSampler(cfg).run(post)
        lay = post.layout
        from repro.utils.geometry import spherical_to_cartesian

        theta = res.samples[:, :, lay.theta][:, :, 0]
        phi = res.samples[:, :, lay.phi][:, :, 0]
        v = spherical_to_cartesian(theta, phi)
        align = np.abs(v[..., 0])  # |x component|
        assert align.mean() > 0.95

    def test_recovers_fraction_and_sigma(self, gtab):
        post = make_posterior(gtab, n=4, sigma=2.0)
        cfg = MCMCConfig(n_burnin=200, n_samples=40, sample_interval=2)
        res = MCMCSampler(cfg).run(post)
        lay = post.layout
        f1 = res.samples[:, :, 3]
        assert abs(f1.mean() - 0.55) < 0.1
        sig = res.samples[:, :, lay.sigma]
        assert 1.0 < sig.mean() < 4.0

    def test_acceptance_rate_in_band(self, gtab):
        post = make_posterior(gtab, n=4)
        cfg = MCMCConfig(n_burnin=200, n_samples=10, sample_interval=1, adapt_every=25)
        res = MCMCSampler(cfg).run(post)
        # After adaptation the rate should sit near 25-50 % (paper's band);
        # allow slack around the band edges.
        late = np.mean(res.acceptance_history[-3:])
        assert 0.15 < late < 0.65

    def test_deterministic_given_seed(self, gtab):
        post = make_posterior(gtab, n=2)
        cfg = MCMCConfig(n_burnin=10, n_samples=3, sample_interval=1, seed=5)
        a = MCMCSampler(cfg).run(post)
        b = MCMCSampler(cfg).run(post)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_seed_changes_chain(self, gtab):
        post = make_posterior(gtab, n=2)
        a = MCMCSampler(MCMCConfig(n_burnin=10, n_samples=3, seed=1)).run(post)
        b = MCMCSampler(MCMCConfig(n_burnin=10, n_samples=3, seed=2)).run(post)
        assert not np.array_equal(a.samples, b.samples)

    def test_scalar_matches_lockstep(self, gtab):
        # The CPU (per-voxel loop) and GPU (lockstep) executions must
        # produce identical chains: same math, same per-voxel streams.
        post = make_posterior(gtab, n=3)
        cfg = MCMCConfig(n_burnin=15, n_samples=4, sample_interval=2, adapt_every=5)
        lock = MCMCSampler(cfg).run(post)
        scal = MCMCSampler(cfg).run_scalar(post)
        np.testing.assert_allclose(lock.samples, scal.samples, rtol=1e-10)

    def test_bad_initial_shape_rejected(self, gtab):
        post = make_posterior(gtab, n=3)
        with pytest.raises(SamplerError):
            MCMCSampler(MCMCConfig(n_burnin=1, n_samples=1)).run(
                post, initial=np.zeros((2, 9))
            )

    def test_bad_rng_lanes_rejected(self, gtab):
        post = make_posterior(gtab, n=3)
        with pytest.raises(SamplerError):
            MCMCSampler(MCMCConfig(n_burnin=1, n_samples=1)).run(
                post, rng=seed_streams(7)
            )

    def test_all_vetoed_init_raises(self, gtab):
        post = make_posterior(gtab, n=2)
        bad = post.initial_params()
        bad[:, post.layout.sigma] = -1.0
        with pytest.raises(SamplerError, match="zero posterior"):
            MCMCSampler(MCMCConfig(n_burnin=1, n_samples=1)).run(post, initial=bad)


    def test_shared_proposal_buffer_is_bit_identical(self):
        # A reused buffer gives the same chain as a fresh copy per call,
        # and is left equal to the updated state.
        def logp(x):
            return -0.5 * (x**2).sum(axis=1)

        n = 16
        runs = []
        for reuse in (False, True):
            params = np.zeros((n, 3))
            lp = logp(params)
            rng = seed_streams(n, seed=4)
            buf = params.copy() if reuse else None
            for i in range(30):
                _, lp = mh_parameter_update(
                    logp, params, lp, i % 3, np.ones(n), rng, buf
                )
                if reuse:
                    np.testing.assert_array_equal(buf, params)
            runs.append(params)
        np.testing.assert_array_equal(runs[0], runs[1])


class TestBlockBatch:
    CFG = MCMCConfig(n_burnin=10, n_samples=3, sample_interval=2, adapt_every=4)

    def test_batch_is_bitwise_separate_runs(self, gtab):
        from repro.rng import block_streams
        from repro.telemetry import MetricsRegistry, use_registry

        post = make_posterior(gtab, n=7)
        blocks = [(0, 2), (2, 3), (3, 7)]
        batch_reg = MetricsRegistry()
        with use_registry(batch_reg):
            batch = MCMCSampler(self.CFG).run(
                post, rng=block_streams(7, 0, 7), blocks=blocks
            )
        single_reg = MetricsRegistry()
        with use_registry(single_reg):
            singles = [
                MCMCSampler(self.CFG).run(
                    post.rows(a, b), rng=block_streams(7, a, b)
                )
                for a, b in blocks
            ]
        np.testing.assert_array_equal(
            batch.samples, np.concatenate([r.samples for r in singles], axis=1)
        )
        assert batch.block_histories == [r.acceptance_history for r in singles]
        assert batch_reg.snapshot()["counters"] == single_reg.snapshot()["counters"]

    def test_batch_checkpoints_resume_per_block(self, gtab):
        post = make_posterior(gtab, n=5)
        blocks = [(0, 3), (3, 5)]
        full = MCMCSampler(self.CFG).run(post, blocks=blocks)
        part = MCMCSampler(self.CFG).run(post, blocks=blocks, stop_after_loop=7)
        assert part.checkpoint is None
        assert [c.params.shape[0] for c in part.block_checkpoints] == [3, 2]
        resumed = MCMCSampler(self.CFG).run(
            post, checkpoint=part.block_checkpoints
        )
        assert resumed.block_checkpoints == []
        np.testing.assert_array_equal(full.samples, resumed.samples)
        assert full.block_histories == resumed.block_histories

    @pytest.mark.parametrize(
        "blocks", [[(0, 2), (3, 5)], [(0, 2), (2, 4)], [(0, 0), (0, 5)]]
    )
    def test_blocks_must_tile(self, gtab, blocks):
        post = make_posterior(gtab, n=5)
        with pytest.raises(SamplerError, match="tile"):
            MCMCSampler(self.CFG).run(post, blocks=blocks)

    def test_mixed_loop_checkpoints_rejected(self, gtab):
        post = make_posterior(gtab, n=4)
        a = MCMCSampler(self.CFG).run(post.rows(0, 2), stop_after_loop=4)
        b = MCMCSampler(self.CFG).run(post.rows(2, 4), stop_after_loop=6)
        with pytest.raises(SamplerError, match="one loop"):
            MCMCSampler(self.CFG).run(post, checkpoint=[a.checkpoint, b.checkpoint])


class TestToFiberFields:
    def test_scatter_into_mask(self, gtab):
        post = make_posterior(gtab, n=3)
        cfg = MCMCConfig(n_burnin=30, n_samples=4, sample_interval=1)
        res = MCMCSampler(cfg).run(post)
        mask = np.zeros((3, 2, 2), dtype=bool)
        mask[0, 0, 0] = mask[1, 1, 1] = mask[2, 0, 1] = True
        fields = FiberStack.from_posterior(res.samples, mask, post.layout)
        assert len(fields) == 4
        fld = fields[0]
        assert fld.shape3 == (3, 2, 2)
        assert fld.n_fibers == 2
        assert fld.f[0, 0, 0, 0] > 0  # dominant fiber present
        assert fld.f[0, 1, 0, 0] == 0  # outside mask untouched

    def test_threshold_zeroes_weak_fibers(self, gtab):
        post = make_posterior(gtab, n=2)
        res = MCMCResult(
            samples=np.zeros((1, 2, 9)),
            n_loops=1,
            n_voxels=2,
            n_params=9,
        )
        res.samples[0, :, 3] = 0.5  # f1 strong
        res.samples[0, :, 4] = 0.01  # f2 below threshold
        res.samples[0, :, 5:7] = np.pi / 2
        mask = np.ones((2, 1, 1), dtype=bool)
        fields = FiberStack.from_posterior(
            res.samples, mask, post.layout, f_threshold=0.05
        )
        assert np.all(fields[0].f[..., 1] == 0.0)
        assert np.all(fields[0].f[..., 0] == 0.5)

    def test_mask_size_mismatch(self, gtab):
        post = make_posterior(gtab, n=3)
        res = MCMCSampler(MCMCConfig(n_burnin=2, n_samples=1)).run(post)
        with pytest.raises(DataError):
            FiberStack.from_posterior(
                res.samples, np.ones((2, 2, 2), bool), post.layout
            )
