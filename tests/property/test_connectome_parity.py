"""Connectome-stage behaviour: a fold over stage 2's own endpoints.

* a unidirectional matrix equals the matrix folded from scalar
  re-tracked lines — the executable spec the stage used to run;
* it is bit-identical for any tracking worker count and under injected
  tracking shard faults (the endpoints ride the same supervised merge
  as lengths and reasons);
* a bidirectional run counts the two ends of each streamline;
* stage 3 tracks nothing;
* a warm store run serves the identical matrix, an atlas-only spec
  change reuses stages 1-2 and recomputes only the connectome, and a
  tracking entry written without endpoints is a miss.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.baselines import cpu_probabilistic_tracking
from repro.config import RunSpec
from repro.connectome import build_atlas, endpoint_connectome
from repro.models.fields import FiberField
from repro.pipeline.connectome import compute_connectome
from repro.runtime.faults import FaultPlan
from repro.runtime.supervisor import RetryPolicy
from repro.tracking import ProbtrackConfig, probabilistic_streamlining
from repro.tracking.criteria import TerminationCriteria


def _bent_field(tilt, shape=(12, 8, 8)):
    """Two-population field with enough structure to cross ROIs."""
    f = np.zeros(shape + (2,))
    f[..., 0] = 0.55
    f[..., 1] = 0.25
    d = np.zeros(shape + (2, 3))
    d[..., 0, :] = np.array([1.0, tilt, 0.0]) / np.hypot(1.0, tilt)
    d[..., 1, 1] = 1.0  # along y
    return FiberField(f=f, directions=d, mask=np.ones(shape, bool))


def _scalar_counts(fields, seeds, criteria, atlas_name, interpolation="trilinear",
                   min_steps=0):
    """The executable spec: re-track every (sample, seed) with the scalar
    tracker and fold each line's (seed, last point) pair."""
    cpu = cpu_probabilistic_tracking(
        fields, seeds, criteria, interpolation=interpolation,
        keep_streamlines=True,
    )
    lines = [line for sample in cpu.streamlines for line in sample]
    return endpoint_connectome(
        np.array([line.points[0] for line in lines]),
        np.array([line.points[-1] for line in lines]),
        np.array([line.n_steps for line in lines]),
        build_atlas(atlas_name, fields[0].shape3),
        min_steps=min_steps,
    )


@pytest.fixture(scope="module")
def tracked_inputs():
    # Three samples, so sample-targeted faults like "corrupt:s2" have a
    # target under a 2-worker pool.
    fields = [_bent_field(0.0), _bent_field(0.15), _bent_field(-0.1)]
    xs, ys, zs = np.meshgrid(
        np.arange(1.0, 11.0, 1.0),
        np.arange(1.0, 7.0, 1.5),
        np.arange(1.0, 7.0, 1.5),
        indexing="ij",
    )
    seeds = np.stack([xs, ys, zs], axis=-1).reshape(-1, 3)
    criteria = TerminationCriteria(max_steps=40, step_length=0.5)
    return fields, seeds, criteria


def _connectome(tracked_inputs, atlas="octant", **cfg):
    fields, seeds, criteria = tracked_inputs
    pt = probabilistic_streamlining(
        fields, ProbtrackConfig(criteria=criteria, **cfg), seeds=seeds
    )
    return pt, compute_connectome(pt, fields[0].shape3, atlas)


class TestWorkerParity:
    @pytest.mark.parametrize("n_workers", [2, 4])
    def test_matrix_bit_identical_across_worker_counts(
        self, tracked_inputs, n_workers
    ):
        _, serial = _connectome(tracked_inputs, n_workers=1)
        _, sharded = _connectome(tracked_inputs, n_workers=n_workers)
        np.testing.assert_array_equal(serial.counts, sharded.counts)
        assert serial.n_streamlines == sharded.n_streamlines
        assert serial.graph == sharded.graph
        spec_counts, spec_n = _scalar_counts(*tracked_inputs, "octant")
        np.testing.assert_array_equal(sharded.counts, spec_counts)
        assert sharded.n_streamlines == spec_n

    def test_matrix_symmetric_and_consistent(self, tracked_inputs):
        fields, seeds, _ = tracked_inputs
        _, res = _connectome(tracked_inputs, atlas="grid2", n_workers=2)
        np.testing.assert_array_equal(res.counts, res.counts.T)
        assert int(np.triu(res.counts).sum()) == res.n_streamlines
        # Every (sample, seed) streamline passes the default filter.
        assert res.n_streamlines == len(fields) * seeds.shape[0]


class TestFaultRecoveryParity:
    @pytest.mark.parametrize(
        "plan_text", ["crash:0", "crash:0,corrupt:1", "corrupt:s2"]
    )
    def test_injected_faults_recover_bit_identically(
        self, tracked_inputs, plan_text
    ):
        _, clean = _connectome(tracked_inputs, n_workers=2)
        pt, faulty = _connectome(
            tracked_inputs,
            n_workers=2,
            supervision=RetryPolicy(fault_plan=FaultPlan.parse(plan_text)),
        )
        np.testing.assert_array_equal(clean.counts, faulty.counts)
        assert pt.run.supervision is not None
        assert pt.run.supervision.n_failures >= 1


class TestBidirectional:
    """A straight x bundle seeded mid-bundle, over three x slabs: the
    seeds sit in the middle slab, the two ends in the outer ones."""

    @pytest.fixture(scope="class")
    def tracked(self):
        from repro.data import rasterize_bundles, straight_bundle

        shape = (12, 5, 5)
        b = straight_bundle([0.5, 2, 2], [10.5, 2, 2], radius=1.2, weight=0.7)
        field = rasterize_bundles(shape, [b], mask=np.ones(shape, bool))
        seeds = np.array([[5.0, 2.0, 2.0], [6.0, 2.0, 2.0], [5.0, 2.0, 3.0]])
        cfg = ProbtrackConfig(
            criteria=TerminationCriteria(max_steps=60, step_length=0.5),
            bidirectional=True,
        )
        pt = probabilistic_streamlining([field, field], cfg, seeds=seeds)
        return pt, shape

    def test_counts_end_to_end_pairs(self, tracked):
        pt, shape = tracked
        n_seeds = pt.seeds.shape[0]
        assert pt.run.endpoints.shape == (2, 2 * n_seeds, 3)
        res = compute_connectome(pt, shape, "slabs3")
        expected = np.zeros((3, 3), dtype=np.int64)
        expected[0, 2] = expected[2, 0] = 2 * n_seeds
        np.testing.assert_array_equal(res.counts, expected)
        assert res.n_streamlines == 2 * n_seeds

    def test_min_steps_uses_total_length(self, tracked):
        pt, shape = tracked
        n_seeds = pt.seeds.shape[0]
        fwd, bwd = pt.run.lengths[:, :n_seeds], pt.run.lengths[:, n_seeds:]
        total = fwd + bwd
        floor = int(total.min())
        # Neither half alone reaches the floor; the whole streamline does.
        assert (fwd < floor).all() and (bwd < floor).all()
        kept = compute_connectome(pt, shape, "slabs3", min_steps=floor)
        assert kept.n_streamlines == total.size
        dropped = compute_connectome(
            pt, shape, "slabs3", min_steps=int(total.max()) + 1
        )
        assert dropped.n_streamlines == 0


@pytest.fixture(scope="module")
def phantom():
    from repro.data import (
        make_gradient_table,
        rasterize_bundles,
        straight_bundle,
        synthesize_dwi,
    )
    from repro.data.phantoms import Phantom

    shape = (8, 5, 5)
    b = straight_bundle([1, 2, 2], [6, 2, 2], radius=1.2, weight=0.6)
    field = rasterize_bundles(shape, [b], mask=np.ones(shape, bool))
    gtab = make_gradient_table(n_directions=12, n_b0=1)
    dwi = synthesize_dwi(field, gtab, s0=1000.0, snr=50.0, seed=0)
    ph = Phantom(dwi=dwi, gtab=gtab, truth=field, name="tiny")
    return ph, field.f[..., 0] > 0


def _spec(atlas, store=None, **tracking):
    doc = {
        "sampling": {"n_burnin": 20, "n_samples": 2, "sample_interval": 1},
        "tracking": {"max_steps": 10, **tracking},
        "connectome": {"atlas": atlas},
    }
    if store is not None:
        doc["telemetry"] = {"store": str(store)}
    return RunSpec.from_dict(doc)


class TestWorkflowSpec:
    @pytest.mark.parametrize(
        "interpolation,min_steps",
        [("trilinear", 0), ("nearest", 3)],
    )
    def test_matches_scalar_retracking(self, phantom, interpolation, min_steps):
        from repro.pipeline import run_workflow

        ph, mask = phantom
        spec = _spec(
            "grid2",
            max_steps=30,
            step_length=0.5,
            interpolation=interpolation,
        )
        spec = spec.with_overrides({"connectome.min_steps": min_steps})
        res = run_workflow(ph, spec=spec, fit_mask=mask)
        counts, n = _scalar_counts(
            res.bedpost.fields,
            res.probtrack.seeds,
            ProbtrackConfig.from_run_spec(spec).criteria,
            "grid2",
            interpolation=interpolation,
            min_steps=min_steps,
        )
        np.testing.assert_array_equal(res.connectome.counts, counts)
        assert res.connectome.n_streamlines == n

    def test_stage_three_calls_no_tracker(self, phantom, monkeypatch):
        import repro.baselines
        import repro.baselines.cpu_reference
        from repro.pipeline import run_workflow
        from repro.tracking.executor import SegmentedTracker

        def _refuse(*args, **kwargs):
            raise AssertionError("the connectome stage must not track")

        monkeypatch.setattr(
            repro.baselines.cpu_reference, "cpu_probabilistic_tracking", _refuse
        )
        monkeypatch.setattr(
            repro.baselines, "cpu_probabilistic_tracking", _refuse
        )
        runs = []
        real_run = SegmentedTracker.run

        def _counting_run(self, *args, **kwargs):
            runs.append(1)
            return real_run(self, *args, **kwargs)

        monkeypatch.setattr(SegmentedTracker, "run", _counting_run)
        ph, mask = phantom
        res = run_workflow(ph, spec=_spec("octant"), fit_mask=mask)
        assert res.connectome is not None
        assert len(runs) == 1  # stage 2's serial run, nothing after it


class TestStoreParity:
    def test_cold_warm_and_atlas_sweep(self, phantom, tmp_path_factory):
        from repro.pipeline import run_workflow

        ph, mask = phantom
        store = tmp_path_factory.mktemp("store")

        cold = run_workflow(ph, spec=_spec("octant", store), fit_mask=mask)
        assert cold.cache["connectome_hit"] is False
        conn = cold.connectome
        assert conn is not None

        # Warm: every stage served, matrix bit-identical.
        warm = run_workflow(ph, spec=_spec("octant", store), fit_mask=mask)
        assert warm.cache["sampling_hit"] is True
        assert warm.cache["tracking_hit"] is True
        assert warm.cache["connectome_hit"] is True
        np.testing.assert_array_equal(warm.connectome.counts, conn.counts)
        assert warm.connectome.graph == conn.graph

        # Atlas-only change: stages 1-2 hit, connectome recomputes.
        sweep = run_workflow(ph, spec=_spec("slabs2", store), fit_mask=mask)
        assert sweep.cache["sampling_hit"] is True
        assert sweep.cache["tracking_hit"] is True
        assert sweep.cache["connectome_hit"] is False
        assert sweep.connectome.atlas.name == "slabs2"

        # The store now holds one sampling, one tracking, and two
        # connectome entries — the sweep reused everything upstream.
        from repro.store import ArtifactStore

        by_stage = {}
        for e in ArtifactStore(store).ls():
            by_stage.setdefault(e["stage"], []).append(e)
        assert len(by_stage["sampling"]) == 1
        assert len(by_stage["tracking"]) == 1
        assert len(by_stage["connectome"]) == 2

    def test_tracking_entry_without_endpoints_misses(
        self, phantom, tmp_path_factory
    ):
        """An entry in the previous layout (schema ``/1``, no endpoints
        array) is recomputed, never served."""
        from repro.pipeline import run_workflow
        from repro.store import ArtifactStore

        ph, mask = phantom
        store = tmp_path_factory.mktemp("store")
        cold = run_workflow(ph, spec=_spec("octant", store), fit_mask=mask)

        entry_dir = ArtifactStore(store).entry_dir(
            "tracking", cold.cache["stage_keys"]["tracking"]
        )
        arrays = entry_dir / "arrays.npz"
        with np.load(arrays) as blob:
            old = {k: blob[k] for k in blob.files if k != "endpoints"}
        np.savez_compressed(arrays, **old)
        doc = json.loads((entry_dir / "entry.json").read_text())
        payload = arrays.read_bytes()
        doc["files"]["arrays.npz"] = {
            "sha256": hashlib.sha256(payload).hexdigest(),
            "bytes": len(payload),
        }
        doc["schema"] = "repro.store.entry/1"
        (entry_dir / "entry.json").write_text(json.dumps(doc))

        rerun = run_workflow(ph, spec=_spec("octant", store), fit_mask=mask)
        assert rerun.cache["sampling_hit"] is True
        assert rerun.cache["tracking_hit"] is False
        np.testing.assert_array_equal(
            rerun.probtrack.run.endpoints, cold.probtrack.run.endpoints
        )
        np.testing.assert_array_equal(
            rerun.connectome.counts, cold.connectome.counts
        )

    def test_atlas_none_skips_stage(self, phantom):
        from repro.pipeline import run_workflow

        ph, mask = phantom
        res = run_workflow(ph, spec=_spec("none"), fit_mask=mask)
        assert res.connectome is None
        assert "connectome" not in res.outcomes
