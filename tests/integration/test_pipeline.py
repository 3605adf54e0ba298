"""Integration tests: the two-stage workflow end to end on phantoms."""

from dataclasses import asdict

import numpy as np
import pytest

from repro.config import RunSpec
from repro.data import dataset1, make_gradient_table, rasterize_bundles, straight_bundle, synthesize_dwi
from repro.errors import DataError
from repro.mcmc import MCMCConfig
from repro.pipeline import BedpostConfig, bedpost, run_workflow
from repro.tracking import (
    ProbtrackConfig,
    TerminationCriteria,
    UniformStrategy,
    probabilistic_streamlining,
)
from repro.utils.geometry import spherical_to_cartesian


@pytest.fixture(scope="module")
def small_phantom():
    """A tiny straight-bundle acquisition the MCMC can fit quickly."""
    shape = (10, 6, 6)
    b = straight_bundle([1, 3, 3], [8, 3, 3], radius=1.5, weight=0.6)
    field = rasterize_bundles(shape, [b], mask=np.ones(shape, bool))
    gtab = make_gradient_table(n_directions=24, n_b0=2)
    dwi = synthesize_dwi(field, gtab, s0=1000.0, snr=50.0, seed=0)
    # Only fit the bundle voxels: keeps the integration test fast.
    mask = field.f[..., 0] > 0
    return dwi, gtab, mask, field


FAST_MCMC = MCMCConfig(n_burnin=120, n_samples=8, sample_interval=2, adapt_every=30)


class TestBedpost:
    def test_produces_fields_and_recovers_direction(self, small_phantom):
        dwi, gtab, mask, truth = small_phantom
        res = bedpost(dwi, gtab, mask, BedpostConfig(mcmc=FAST_MCMC))
        assert len(res.fields) == 8
        assert res.n_voxels == int(mask.sum())
        # Only ~2 wavefronts of voxels: the device model is mostly idle,
        # so the speedup is modest here (full occupancy is exercised at
        # paper scale in the Table III tests/benches).
        assert res.speedup > 1.0
        assert res.wall_seconds > 0

        # Posterior-mean dominant direction at the bundle core ~ +/-x.
        lay = res.layout
        theta = res.samples[:, :, lay.theta][..., 0]
        phi = res.samples[:, :, lay.phi][..., 0]
        v = spherical_to_cartesian(theta, phi)
        assert np.abs(v[..., 0]).mean() > 0.9

    def test_fields_structure(self, small_phantom):
        dwi, gtab, mask, truth = small_phantom
        res = bedpost(dwi, gtab, mask, BedpostConfig(mcmc=FAST_MCMC))
        fld = res.fields[0]
        assert fld.shape3 == dwi.shape3
        assert fld.n_fibers == 2
        # Fractions live only inside the mask.
        assert np.all(fld.f[~mask] == 0.0)
        assert fld.f[mask][:, 0].mean() > 0.2

    def test_blocking_invariance(self, small_phantom):
        dwi, gtab, mask, _ = small_phantom
        cfg_one = BedpostConfig(mcmc=FAST_MCMC, block_voxels=10_000)
        cfg_blk = BedpostConfig(mcmc=FAST_MCMC, block_voxels=7)
        a = bedpost(dwi, gtab, mask, cfg_one)
        b = bedpost(dwi, gtab, mask, cfg_blk)
        np.testing.assert_allclose(a.samples, b.samples, rtol=1e-10)

    def test_acceptance_adapts_into_band(self, small_phantom):
        dwi, gtab, mask, _ = small_phantom
        res = bedpost(dwi, gtab, mask, BedpostConfig(mcmc=FAST_MCMC))
        assert len(res.acceptance_history) >= 2
        assert 0.1 < res.acceptance_history[-1] < 0.7

    def test_empty_mask_rejected(self, small_phantom):
        dwi, gtab, _, _ = small_phantom
        with pytest.raises(DataError):
            bedpost(dwi, gtab, np.zeros(dwi.shape3, bool))

    def test_mask_shape_rejected(self, small_phantom):
        dwi, gtab, _, _ = small_phantom
        with pytest.raises(DataError):
            bedpost(dwi, gtab, np.ones((2, 2, 2), bool))


class TestWorkflow:
    def test_full_pipeline_tracks_the_bundle(self, small_phantom):
        dwi, gtab, mask, truth = small_phantom
        res = bedpost(dwi, gtab, mask, BedpostConfig(mcmc=FAST_MCMC))
        pt_cfg = ProbtrackConfig(
            criteria=TerminationCriteria(
                max_steps=80, min_dot=0.7, step_length=0.4
            ),
        )
        pt = probabilistic_streamlining(res.fields, config=pt_cfg)
        # Streamlines seeded in the bundle must travel along it.
        assert pt.run.lengths.mean() > 3.0
        assert pt.run.longest_fiber > 8
        p = pt.connectivity_probability
        assert p.nnz > 0
        # Seed voxels connect to their along-bundle neighbors with high
        # probability.
        assert p.max() == 1.0

    def test_run_workflow_on_dataset_replica(self):
        ph = dataset1(scale=0.14, snr=40.0)
        # Restrict stage 1 to fiber voxels to keep runtime modest.
        wm = ph.wm_mask
        assert wm.sum() > 20
        bp_cfg = BedpostConfig(
            mcmc=MCMCConfig(n_burnin=80, n_samples=5, sample_interval=1)
        )
        from repro.pipeline.workflow import WorkflowResult
        from repro.pipeline import bedpost as bp_fn

        bp = bp_fn(ph.dwi, ph.gtab, wm, bp_cfg)
        pt = probabilistic_streamlining(
            bp.fields,
            config=ProbtrackConfig(
                criteria=TerminationCriteria(
                    max_steps=60, min_dot=0.7, step_length=0.4
                ),
                strategy=UniformStrategy(10),
            ),
        )
        wf = WorkflowResult(bedpost=bp, probtrack=pt)
        report = wf.report()
        assert "stage 1" in report and "stage 2" in report
        assert "speedup" in report
        assert pt.run.total_steps > 0

    def test_workflow_report_surfaces_fault_recovery(self):
        ph = dataset1(scale=0.14, snr=40.0)
        bp_cfg = BedpostConfig(
            mcmc=MCMCConfig(n_burnin=40, n_samples=4, sample_interval=1)
        )
        from repro.pipeline import bedpost as bp_fn
        from repro.pipeline.workflow import WorkflowResult
        from repro.runtime.faults import FaultPlan
        from repro.runtime.supervisor import RetryPolicy

        bp = bp_fn(ph.dwi, ph.gtab, ph.wm_mask, bp_cfg)
        pt = probabilistic_streamlining(
            bp.fields,
            config=ProbtrackConfig(
                criteria=TerminationCriteria(
                    max_steps=60, min_dot=0.7, step_length=0.4
                ),
                strategy=UniformStrategy(10),
                n_workers=2,
                supervision=RetryPolicy(fault_plan=FaultPlan.parse("crash:0")),
            ),
        )
        report = WorkflowResult(bedpost=bp, probtrack=pt).report()
        assert "fault tolerance (tracking shards)" in report
        assert "retries         1" in report
        assert "shard 0 attempt 0: crash" in report

    def test_run_workflow_helper(self, small_phantom):
        # run_workflow() accepts a Phantom; build one from the fixture.
        from repro.data.phantoms import Phantom

        dwi, gtab, mask, truth = small_phantom
        ph = Phantom(dwi=dwi, gtab=gtab, truth=truth, name="tiny")
        spec = RunSpec.from_dict({
            "sampling": asdict(FAST_MCMC),
            "tracking": {"max_steps": 50, "min_dot": 0.7, "step_length": 0.4},
        })
        wf = run_workflow(ph, spec=spec, seed_mask=truth.f[..., 0] > 0)
        assert wf.bedpost.n_voxels == int(ph.mask.sum())
        assert wf.probtrack.run.n_seeds == int((truth.f[..., 0] > 0).sum())
