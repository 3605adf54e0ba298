"""Tests for sampler checkpoint/resume (repro.mcmc.checkpoint).

Includes the store-backed regression scenario: a ``bedpost`` run killed
mid-sampling resumes from its on-disk checkpoint and reproduces the
uninterrupted posterior bit for bit (counters included).
"""

import json

import numpy as np
import pytest

from repro.errors import SamplerError
from repro.io import GradientTable
from repro.mcmc import MCMCConfig, MCMCSampler, SamplerCheckpoint
from repro.models import LogPosterior, MultiFiberModel
from repro.rng import seed_streams
from repro.utils.geometry import fibonacci_sphere


@pytest.fixture
def posterior():
    bvals = np.concatenate([np.zeros(2), np.full(20, 1000.0)])
    bvecs = np.concatenate([np.zeros((2, 3)), fibonacci_sphere(20)])
    gtab = GradientTable(bvals, bvecs)
    rng = np.random.default_rng(0)
    mu = MultiFiberModel(2).predict(
        gtab,
        s0=np.full(3, 100.0),
        d=np.full(3, 1e-3),
        f=np.tile([0.5, 0.0], (3, 1)),
        theta=np.tile([np.pi / 2, 1.0], (3, 1)),
        phi=np.tile([0.0, 1.0], (3, 1)),
    )
    return LogPosterior(gtab, mu + rng.normal(scale=4.0, size=mu.shape))


CFG = MCMCConfig(n_burnin=20, n_samples=6, sample_interval=2, adapt_every=7)


class TestCheckpointResume:
    def test_resume_is_bit_identical(self, posterior):
        full = MCMCSampler(CFG).run(posterior)

        part = MCMCSampler(CFG).run(posterior, stop_after_loop=13)
        assert part.checkpoint is not None
        assert part.n_loops == 13
        resumed = MCMCSampler(CFG).run(posterior, checkpoint=part.checkpoint)
        assert resumed.checkpoint is None
        np.testing.assert_array_equal(full.samples, resumed.samples)
        np.testing.assert_allclose(
            full.acceptance_history, resumed.acceptance_history
        )

    def test_pause_mid_sampling_phase(self, posterior):
        full = MCMCSampler(CFG).run(posterior)
        part = MCMCSampler(CFG).run(posterior, stop_after_loop=26)
        assert part.samples.shape[0] == 3  # loops 22, 24, 26 recorded
        resumed = MCMCSampler(CFG).run(posterior, checkpoint=part.checkpoint)
        np.testing.assert_array_equal(full.samples, resumed.samples)

    def test_double_pause(self, posterior):
        full = MCMCSampler(CFG).run(posterior)
        a = MCMCSampler(CFG).run(posterior, stop_after_loop=9)
        b = MCMCSampler(CFG).run(
            posterior, checkpoint=a.checkpoint, stop_after_loop=25
        )
        c = MCMCSampler(CFG).run(posterior, checkpoint=b.checkpoint)
        np.testing.assert_array_equal(full.samples, c.samples)

    def test_save_load_round_trip(self, posterior, tmp_path):
        full = MCMCSampler(CFG).run(posterior)
        part = MCMCSampler(CFG).run(posterior, stop_after_loop=15)
        path = tmp_path / "ckpt.npz"
        part.checkpoint.save(path)
        restored = SamplerCheckpoint.load(path)
        resumed = MCMCSampler(CFG).run(posterior, checkpoint=restored)
        np.testing.assert_array_equal(full.samples, resumed.samples)

    def test_stop_at_end_yields_no_checkpoint(self, posterior):
        res = MCMCSampler(CFG).run(posterior, stop_after_loop=CFG.n_loops)
        assert res.checkpoint is None
        assert res.samples.shape[0] == CFG.n_samples

    def test_validation(self, posterior):
        with pytest.raises(SamplerError, match="outside"):
            MCMCSampler(CFG).run(posterior, stop_after_loop=1000)
        part = MCMCSampler(CFG).run(posterior, stop_after_loop=10)
        with pytest.raises(SamplerError, match="not both"):
            MCMCSampler(CFG).run(
                posterior,
                checkpoint=part.checkpoint,
                rng=seed_streams(3),
            )
        with pytest.raises(SamplerError, match="outside"):
            MCMCSampler(CFG).run(
                posterior, checkpoint=part.checkpoint, stop_after_loop=5
            )

    def test_checkpoint_shape_validation(self, posterior):
        part = MCMCSampler(CFG).run(posterior, stop_after_loop=10)
        ck = part.checkpoint
        with pytest.raises(SamplerError):
            SamplerCheckpoint(
                params=ck.params,
                log_posterior=ck.log_posterior[:-1],
                rng_state=ck.rng_state,
                proposal_sigma=ck.proposal_sigma,
                window_accepted=ck.window_accepted,
                window_rejected=ck.window_rejected,
                loop=ck.loop,
                taken=ck.taken,
                samples=ck.samples,
            )
        with pytest.raises(SamplerError):
            SamplerCheckpoint(
                params=ck.params,
                log_posterior=ck.log_posterior,
                rng_state=ck.rng_state,
                proposal_sigma=ck.proposal_sigma,
                window_accepted=ck.window_accepted,
                window_rejected=ck.window_rejected,
                loop=-1,
                taken=ck.taken,
                samples=ck.samples,
            )


class TestAtomicSaveLoad:
    def test_save_leaves_no_tmp(self, posterior, tmp_path):
        part = MCMCSampler(CFG).run(posterior, stop_after_loop=15)
        path = tmp_path / "ckpt.npz"
        part.checkpoint.save(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.npz"]

    def test_overwrite_is_atomic(self, posterior, tmp_path):
        a = MCMCSampler(CFG).run(posterior, stop_after_loop=9)
        path = tmp_path / "ckpt.npz"
        a.checkpoint.save(path)
        b = MCMCSampler(CFG).run(
            posterior, checkpoint=a.checkpoint, stop_after_loop=25
        )
        b.checkpoint.save(path)
        assert SamplerCheckpoint.load(path).loop == 25
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.npz"]

    def test_rng_state_round_trips_exactly(self, posterior, tmp_path):
        part = MCMCSampler(CFG).run(posterior, stop_after_loop=15)
        path = tmp_path / "ckpt.npz"
        part.checkpoint.save(path)
        restored = SamplerCheckpoint.load(path)
        assert restored.rng_state.dtype == part.checkpoint.rng_state.dtype
        np.testing.assert_array_equal(
            restored.rng_state, part.checkpoint.rng_state
        )

    def test_save_is_uncompressed(self, posterior, tmp_path):
        import zipfile

        part = MCMCSampler(CFG).run(posterior, stop_after_loop=15)
        path = tmp_path / "ckpt.npz"
        part.checkpoint.save(path)
        with zipfile.ZipFile(path) as zf:
            assert {i.compress_type for i in zf.infolist()} == {zipfile.ZIP_STORED}

    def test_compressed_checkpoint_still_loads(self, posterior, tmp_path):
        # Checkpoints were once written with savez_compressed; one left on
        # disk by such a run must still resume bit-identically.
        ck = MCMCSampler(CFG).run(posterior, stop_after_loop=15).checkpoint
        path = tmp_path / "ckpt.npz"
        np.savez_compressed(
            path,
            params=ck.params,
            log_posterior=ck.log_posterior,
            rng_state=ck.rng_state,
            proposal_sigma=ck.proposal_sigma,
            window_accepted=ck.window_accepted,
            window_rejected=ck.window_rejected,
            loop=np.int64(ck.loop),
            taken=np.int64(ck.taken),
            samples=ck.samples,
            acceptance_history=np.asarray(ck.acceptance_history),
            total_accepts=np.int64(ck.total_accepts),
        )
        restored = SamplerCheckpoint.load(path)
        assert (restored.loop, restored.total_accepts) == (ck.loop, ck.total_accepts)
        resumed = MCMCSampler(CFG).run(posterior, checkpoint=restored)
        full = MCMCSampler(CFG).run(posterior)
        np.testing.assert_array_equal(full.samples, resumed.samples)

    def test_corrupt_file_raises_sampler_error(self, posterior, tmp_path):
        path = tmp_path / "ckpt.npz"
        path.write_bytes(b"definitely not an npz archive")
        with pytest.raises(SamplerError, match="corrupt"):
            SamplerCheckpoint.load(path)

        part = MCMCSampler(CFG).run(posterior, stop_after_loop=15)
        part.checkpoint.save(path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])  # truncated mid-write
        with pytest.raises(SamplerError, match="corrupt"):
            SamplerCheckpoint.load(path)


@pytest.fixture(scope="module")
def phantom():
    from repro.data import dataset1

    return dataset1(scale=0.15, snr=40.0)


def _bedpost_cfg():
    from repro.pipeline import BedpostConfig

    return BedpostConfig(mcmc=CFG)


class TestInterruptedBedpostResume:
    """Regression: checkpoint/resume through an injected interrupt."""

    def _baseline(self, phantom):
        from repro.pipeline import bedpost
        from repro.telemetry import MetricsRegistry, use_registry

        registry = MetricsRegistry()
        with use_registry(registry):
            result = bedpost(
                phantom.dwi, phantom.gtab, phantom.mask, _bedpost_cfg()
            )
        return result, registry

    def _det(self, registry):
        snap = registry.snapshot()
        return json.dumps(
            {"counters": snap["counters"], "histograms": snap["histograms"]},
            sort_keys=True,
        )

    def test_resume_after_interrupt_is_bit_identical(self, phantom, tmp_path):
        from repro.pipeline import bedpost
        from repro.store import ArtifactStore
        from repro.telemetry import MetricsRegistry, use_registry

        baseline, base_reg = self._baseline(phantom)
        store = ArtifactStore(tmp_path / "store")

        def die_on_first_checkpoint(block_start, loop):
            raise KeyboardInterrupt("simulated ctrl-c")

        with pytest.raises(KeyboardInterrupt):
            bedpost(
                phantom.dwi,
                phantom.gtab,
                phantom.mask,
                _bedpost_cfg(),
                store=store,
                checkpoint_every=10,
                on_checkpoint=die_on_first_checkpoint,
            )
        # The chain state survived the crash...
        ckpts = list((store.root / "checkpoints").rglob("block_*.npz"))
        assert len(ckpts) == 1
        assert SamplerCheckpoint.load(ckpts[0]).loop == 10

        # ...and the rerun resumes from it instead of restarting.
        registry = MetricsRegistry()
        with use_registry(registry):
            resumed = bedpost(
                phantom.dwi,
                phantom.gtab,
                phantom.mask,
                _bedpost_cfg(),
                store=store,
                checkpoint_every=10,
            )
        assert not resumed.served_from_store
        np.testing.assert_array_equal(baseline.samples, resumed.samples)
        np.testing.assert_allclose(
            baseline.acceptance_history, resumed.acceptance_history
        )
        # Replayed loop counters make the deterministic telemetry match
        # an uninterrupted run exactly.
        assert self._det(registry) == self._det(base_reg)
        # Publishing cleared the now-superseded checkpoints.
        assert not list((store.root / "checkpoints").rglob("block_*.npz"))

        # A third run is a pure store hit with the same bits.
        warm_reg = MetricsRegistry()
        with use_registry(warm_reg):
            warm = bedpost(
                phantom.dwi,
                phantom.gtab,
                phantom.mask,
                _bedpost_cfg(),
                store=store,
            )
        assert warm.served_from_store
        np.testing.assert_array_equal(baseline.samples, warm.samples)
        assert self._det(warm_reg) == self._det(base_reg)

    def test_corrupt_checkpoint_restarts_cleanly(self, phantom, tmp_path):
        from repro.pipeline import bedpost
        from repro.store import ArtifactStore

        baseline, _ = self._baseline(phantom)
        store = ArtifactStore(tmp_path / "store")
        with pytest.raises(KeyboardInterrupt):
            bedpost(
                phantom.dwi,
                phantom.gtab,
                phantom.mask,
                _bedpost_cfg(),
                store=store,
                checkpoint_every=10,
                on_checkpoint=lambda s, c: (_ for _ in ()).throw(
                    KeyboardInterrupt()
                ),
            )
        (ckpt,) = (store.root / "checkpoints").rglob("block_*.npz")
        blob = ckpt.read_bytes()
        ckpt.write_bytes(blob[: len(blob) // 2])

        resumed = bedpost(
            phantom.dwi,
            phantom.gtab,
            phantom.mask,
            _bedpost_cfg(),
            store=store,
            checkpoint_every=10,
        )
        np.testing.assert_array_equal(baseline.samples, resumed.samples)

    def test_workflow_threads_spec_cadence(self, phantom, tmp_path, monkeypatch):
        # Regression: run_workflow must pass runtime.checkpoint_every_loops
        # down to bedpost — with the fixture's 32-loop chain, a checkpoint
        # at loop 10 only exists if the spec's cadence (not the 250-loop
        # default) reached the sampler.
        from repro.config import RunSpec
        from repro.mcmc import SamplerCheckpoint
        from repro.pipeline import run_workflow

        spec = RunSpec.from_dict(
            {
                "sampling": CFG.to_spec_dict(),
                "tracking": {"max_steps": 32},
                "runtime": {"checkpoint_every_loops": 10},
                "telemetry": {"store": str(tmp_path / "store")},
            }
        )
        saved = []
        orig_save = SamplerCheckpoint.save

        def save_and_die(self, path):
            orig_save(self, path)
            saved.append(self.loop)
            raise KeyboardInterrupt("simulated ctrl-c")

        monkeypatch.setattr(SamplerCheckpoint, "save", save_and_die)
        with pytest.raises(KeyboardInterrupt):
            run_workflow(
                phantom, fit_mask=phantom.mask, seed_mask=phantom.mask, spec=spec
            )
        assert saved == [10]
        monkeypatch.undo()

        resumed = run_workflow(
            phantom, fit_mask=phantom.mask, seed_mask=phantom.mask, spec=spec
        )
        assert resumed.cache["sampling_hit"] is False
        baseline, _ = self._baseline(phantom)
        np.testing.assert_array_equal(baseline.samples, resumed.bedpost.samples)


def _die_after_save(block_start, loop):
    """Crash hook for TestShardedInterruptResume — module-level so it can
    cross the worker process boundary under any start method."""
    raise KeyboardInterrupt("simulated ctrl-c")


class TestShardedInterruptResume:
    """PR-8 regression: an interrupted *sharded* bedpost run resumes from
    its per-block checkpoints bit-identically — and the checkpoint files
    are interchangeable between the serial and sharded paths."""

    BLOCK_VOXELS = 200

    def _cfg(self, n_workers=2):
        from repro.pipeline import BedpostConfig

        return BedpostConfig(
            mcmc=CFG,
            block_voxels=self.BLOCK_VOXELS,
            n_workers=n_workers,
            max_retries=1,
        )

    def _det(self, registry):
        snap = registry.snapshot()
        return json.dumps(
            {"counters": snap["counters"], "histograms": snap["histograms"]},
            sort_keys=True,
        )

    def _run(self, phantom, cfg, **kwargs):
        from repro.pipeline import bedpost
        from repro.telemetry import MetricsRegistry, use_registry

        registry = MetricsRegistry()
        with use_registry(registry):
            result = bedpost(
                phantom.dwi, phantom.gtab, phantom.mask, cfg, **kwargs
            )
        return result, registry

    def test_sharded_interrupt_resumes_bit_identical(self, phantom, tmp_path):
        from repro.pipeline import bedpost
        from repro.store import ArtifactStore

        baseline, base_reg = self._run(phantom, self._cfg())
        store = ArtifactStore(tmp_path / "store")

        # Every worker-side checkpoint save is followed by a crash; the
        # supervisor's retries each advance one chunk through the saved
        # state until the escalation ladder reaches the in-parent serial
        # fallback, where the real KeyboardInterrupt finally propagates.
        with pytest.raises(KeyboardInterrupt):
            bedpost(
                phantom.dwi,
                phantom.gtab,
                phantom.mask,
                self._cfg(),
                store=store,
                checkpoint_every=10,
                on_checkpoint=_die_after_save,
            )
        ckpts = list((store.root / "checkpoints").rglob("block_*.npz"))
        assert ckpts, "workers checkpointed before dying"
        assert max(SamplerCheckpoint.load(p).loop for p in ckpts) >= 10

        resumed, reg = self._run(
            phantom, self._cfg(), store=store, checkpoint_every=10
        )
        assert not resumed.served_from_store
        np.testing.assert_array_equal(baseline.samples, resumed.samples)
        assert baseline.acceptance_history == resumed.acceptance_history
        assert self._det(reg) == self._det(base_reg)
        # Publishing cleared the now-superseded checkpoints.
        assert not list((store.root / "checkpoints").rglob("block_*.npz"))

    def test_serial_interrupt_resumes_sharded(self, phantom, tmp_path):
        from repro.pipeline import bedpost
        from repro.store import ArtifactStore

        baseline, base_reg = self._run(phantom, self._cfg(n_workers=1))
        store = ArtifactStore(tmp_path / "store")
        # Interrupt the *serial* path at its first checkpoint...
        with pytest.raises(KeyboardInterrupt):
            bedpost(
                phantom.dwi,
                phantom.gtab,
                phantom.mask,
                self._cfg(n_workers=1),
                store=store,
                checkpoint_every=10,
                on_checkpoint=_die_after_save,
            )
        assert list((store.root / "checkpoints").rglob("block_*.npz"))

        # ...and resume it *sharded*: the files are keyed by global voxel
        # start, so the worker pool picks up the serial run's state.
        resumed, reg = self._run(
            phantom, self._cfg(n_workers=2), store=store, checkpoint_every=10
        )
        np.testing.assert_array_equal(baseline.samples, resumed.samples)
        assert self._det(reg) == self._det(base_reg)


class TestMixedLoopResume:
    """One task's blocks checkpointed at different loops (a crash between
    a batch's per-block saves) resume as per-loop batches, bit-identical
    to an uninterrupted run."""

    BLOCK_VOXELS = 9

    def _tasks(self, phantom, n_shards, **kwargs):
        from repro.mcmc.shards import make_block_tasks

        flat = phantom.dwi.data.reshape(-1, phantom.dwi.data.shape[-1])
        data = flat[np.flatnonzero(phantom.mask.reshape(-1))]
        n_vox = data.shape[0]
        blocks = [
            (s, min(s + self.BLOCK_VOXELS, n_vox))
            for s in range(0, n_vox, self.BLOCK_VOXELS)
        ][:4]
        return make_block_tasks(
            data, blocks, n_shards, n_total_voxels=n_vox, mcmc=CFG,
            n_fibers=2, ard=False, noise_model="gaussian", gtab=phantom.gtab,
            **kwargs,
        )

    def _run(self, task):
        from repro.mcmc.shards import run_blocks
        from repro.telemetry import MetricsRegistry, use_registry

        registry = MetricsRegistry()
        with use_registry(registry):
            payload = run_blocks(task)
        snap = registry.snapshot()
        det = json.dumps(
            {"counters": snap["counters"], "histograms": snap["histograms"]},
            sort_keys=True,
        )
        return payload, det

    def _assert_same(self, a, b):
        (pa, det_a), (pb, det_b) = a, b
        np.testing.assert_array_equal(pa["samples"], pb["samples"])
        assert len(pa["histories"]) == len(pb["histories"])
        for ha, hb in zip(pa["histories"], pb["histories"]):
            np.testing.assert_array_equal(ha, hb)
        assert det_a == det_b

    @staticmethod
    def _crash_at(loop):
        def hook(block_start, at):
            if at == loop:
                raise KeyboardInterrupt("simulated ctrl-c")

        return hook

    def test_blocks_at_loops_10_20_missing_and_corrupt(self, phantom, tmp_path):
        from repro.mcmc.shards import block_checkpoint_name

        (task,) = self._tasks(phantom, 1)
        baseline = self._run(task)

        ckpt_dir = str(tmp_path)
        singles = self._tasks(phantom, 4, ckpt_dir=ckpt_dir, checkpoint_every=10)
        for single, loop in ((singles[0], 10), (singles[1], 20), (singles[3], 10)):
            single.on_checkpoint = self._crash_at(loop)
            with pytest.raises(KeyboardInterrupt):
                self._run(single)
        starts = [start for start, _ in task.blocks]
        corrupt = tmp_path / block_checkpoint_name(starts[3])
        corrupt.write_bytes(corrupt.read_bytes()[:100])
        assert [
            SamplerCheckpoint.load(tmp_path / block_checkpoint_name(s)).loop
            for s in starts[:2]
        ] == [10, 20]
        assert not (tmp_path / block_checkpoint_name(starts[2])).exists()

        (resumable,) = self._tasks(
            phantom, 1, ckpt_dir=ckpt_dir, checkpoint_every=10
        )
        self._assert_same(self._run(resumable), baseline)

    @pytest.mark.chaos
    def test_crash_after_first_per_block_save(self, phantom, tmp_path):
        (task,) = self._tasks(phantom, 1)
        baseline = self._run(task)

        ckpt_dir = str(tmp_path)
        (crashing,) = self._tasks(
            phantom, 1, ckpt_dir=ckpt_dir, checkpoint_every=10,
            on_checkpoint=self._crash_at(20),
        )
        # Each crash lands right after the first of a batch's loop-20
        # saves, so one more block reaches loop 20 per attempt while the
        # rest stay at 10 and the next attempt resumes two loop groups.
        expected = ([20, 10, 10, 10], [20, 20, 10, 10], [20, 20, 20, 10])
        for loops in expected:
            with pytest.raises(KeyboardInterrupt):
                self._run(crashing)
            files = sorted(tmp_path.glob("block_*.npz"))
            assert [SamplerCheckpoint.load(f).loop for f in files] == loops

        (resumable,) = self._tasks(
            phantom, 1, ckpt_dir=ckpt_dir, checkpoint_every=10
        )
        self._assert_same(self._run(resumable), baseline)
