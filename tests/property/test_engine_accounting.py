"""The executor's modeled accounting is Algorithm 1's, rebuilt from lengths.

The tracking stage executes every shard-local sample as one fused
lockstep batch, yet its modeled output — the ``KernelLaunch`` records,
the event timeline, and the device residency — must be exactly what the
paper's per-sample schedule (Algorithm 1) would charge for the same
streamlines.  That schedule is a function of the measured per-thread
step counts alone, so this suite rebuilds it from the run's *own*
``lengths`` and ``reasons`` with a small executable spec and requires
bit-for-bit equality, over the option grid and for any worker count:

* a lane executes ``length + 1`` kernel iterations (it runs the
  iteration in which it decides to stop), except a lane stopped by the
  step budget, which executes exactly ``length``;
* it takes part in segment ``i`` iff it executed more than the
  segment's offset, and executes ``clip(total - offset, 0, d_i)`` there;
* a born-dead seed (no population at the seed) never launches;
* under ``"sorted"`` every sample after the first launches its rows in
  the stable order of sample 0's lengths.
"""

import json

import numpy as np
import pytest

from repro.data import dataset1
from repro.errors import TrackingError
from repro.gpu.presets import PHENOM_X4, RADEON_5870
from repro.gpu.simulator import kernel_time, reduction_time, transfer_time
from repro.models.fields import FiberField
from repro.telemetry import (
    MetricsRegistry,
    build_manifest,
    deterministic_sections,
    use_registry,
)
from repro.tracking import (
    ProbtrackConfig,
    SegmentedTracker,
    StopReason,
    TerminationCriteria,
    probabilistic_streamlining,
    table2_strategy,
)
from repro.utils.geometry import normalize
from tests.tracking_spec import KERNEL_LOOKUP, SpecStackLookup

N_SAMPLES = 5
CRITERIA = TerminationCriteria(max_steps=64, min_dot=0.8, step_length=0.2)


@pytest.fixture(scope="module")
def fields():
    """Small pseudo-posterior sample volumes (perturbed ground truth)."""
    phantom = dataset1(scale=0.15, snr=40.0)
    truth = phantom.truth
    rng = np.random.default_rng(7)
    out = []
    for _ in range(N_SAMPLES):
        has_fiber = truth.f > 0
        noise = rng.normal(scale=0.15, size=truth.directions.shape)
        dirs = normalize(truth.directions + noise * has_fiber[..., None])
        out.append(
            FiberField(
                f=truth.f.copy(),
                directions=dirs * has_fiber[..., None],
                mask=truth.mask.copy(),
            )
        )
    return out


def run(fields, n_workers=1, **kw):
    """One tracking run under a fresh registry -> (result, manifest)."""
    cfg = ProbtrackConfig(criteria=CRITERIA, n_workers=n_workers, **kw)
    registry = MetricsRegistry()
    with use_registry(registry):
        result = probabilistic_streamlining(fields, config=cfg)
    return result, build_manifest(registry, meta={})


# -- executable spec ---------------------------------------------------------


def born_dead(fields, seeds):
    """``(n_samples, n_seeds)``: no population at the seed voxel."""
    vox = np.rint(seeds).astype(int)
    return np.stack(
        [~(f.f[vox[:, 0], vox[:, 1], vox[:, 2]] > 0).any(axis=1) for f in fields]
    )


def spec_schedule(result, fields, order, overlap):
    """Algorithm 1's launches, events, and peak bytes for ``result``."""
    run_ = result.run
    n_samples, n_rows = run_.lengths.shape
    seeds = result.seeds
    dead = born_dead(fields, seeds)
    if n_rows != seeds.shape[0]:  # bidirectional: the seed list, twice
        dead = np.concatenate([dead, dead], axis=1)
    segments = table2_strategy().segments(CRITERIA.max_steps)
    offsets = np.concatenate(([0], np.cumsum(segments)[:-1]))

    launches, events = [], []
    image_bytes = int(np.prod(fields[0].shape3)) * fields[0].n_fibers * 16
    for g in range(n_samples):
        stream = g % 2 if overlap else 0
        events.append(
            ("transfer", f"sample{g}:images",
             transfer_time(image_bytes, RADEON_5870), stream)
        )
        rows = np.arange(n_rows)
        if order == "sorted" and g > 0:
            rows = np.argsort(run_.lengths[0], kind="stable")
        lengths = run_.lengths[g, rows]
        total = np.where(
            run_.reasons[g, rows] == StopReason.MAX_STEPS, lengths, lengths + 1
        )
        total = total[~dead[g, rows]]
        for i, (offset, d) in enumerate(zip(offsets, segments)):
            present = total > offset
            if not present.any():
                break
            executed = np.clip(total[present] - offset, 0, d)
            label = f"sample{g}:seg{i}"
            n = int(present.sum())
            k_sec = kernel_time(executed, RADEON_5870)
            launches.append((label, n, d, int(executed.sum()), k_sec))
            events += [
                ("transfer", f"{label}:down", transfer_time(n * 28, RADEON_5870), stream),
                ("kernel", label, k_sec, stream),
                ("transfer", f"{label}:up", transfer_time(n * 32, RADEON_5870), stream),
                ("reduction", f"{label}:compact", reduction_time(n, PHENOM_X4), stream),
            ]
    resident = min(2 if overlap else 1, n_samples)
    return launches, events, n_rows * 60 + resident * image_bytes


def observed(result):
    run_ = result.run
    launches = [
        (k.label, k.n_threads, k.max_iterations, k.executed_iterations, k.seconds)
        for k in run_.launches
    ]
    events = [
        (e.kind, e.label, e.seconds, e.stream)
        for e in run_.timeline.events
        if e.kind != "retry"
    ]
    return launches, events, run_.peak_device_bytes


# -- tests -------------------------------------------------------------------


@pytest.mark.parametrize("interpolation", ["trilinear", "nearest", "trilinear-reference"])
@pytest.mark.parametrize("overlap", [False, True])
@pytest.mark.parametrize("bidirectional", [False, True])
@pytest.mark.parametrize("order", ["natural", "sorted"])
def test_matches_spec(fields, order, bidirectional, overlap, interpolation, monkeypatch):
    """``"trilinear-reference"`` runs the trilinear mode on the spec lookup
    (per-sample ``trilinear_lookup_reference``) and must also reproduce
    the packed lookup's lengths and stop reasons."""
    packed = None
    spec = None
    if interpolation == "trilinear-reference":
        packed, _ = run(fields, order=order, bidirectional=bidirectional, overlap=overlap)
        spec = SpecStackLookup()
        monkeypatch.setattr(KERNEL_LOOKUP, spec)
        interpolation = "trilinear"
    result, manifest = run(
        fields,
        order=order,
        bidirectional=bidirectional,
        overlap=overlap,
        interpolation=interpolation,
    )
    if packed is not None:
        assert spec.calls > 0
        assert np.array_equal(result.run.lengths, packed.run.lengths)
        assert np.array_equal(result.run.reasons, packed.run.reasons)
    launches, events, peak = spec_schedule(result, fields, order, overlap)
    assert observed(result) == (launches, events, peak)
    counters = manifest["counters"]
    assert counters["tracking.kernel_launches"] == len(launches)
    assert counters["tracking.compactions"] == len(launches)
    assert counters["tracking.steps"] == sum(k[3] for k in launches)


@pytest.mark.parametrize("n_workers", [1, 2, 4])
@pytest.mark.parametrize("bidirectional", [False, True])
@pytest.mark.parametrize("order", ["natural", "sorted"])
def test_sharded_matches_spec(fields, order, bidirectional, n_workers):
    """Sharding keeps the per-sample accounting: launches and events in
    global sample order.  The merge re-tags each shard onto its own
    stream pair, so only the stream parity is the serial one."""
    result, _ = run(
        fields, n_workers, order=order, bidirectional=bidirectional
    )
    launches, events, peak = spec_schedule(result, fields, order, False)
    got_launches, got_events, got_peak = observed(result)
    assert got_launches == launches
    assert [(k, lab, sec, st % 2) for k, lab, sec, st in got_events] == events
    assert got_peak == peak


def test_deterministic_sections_worker_invariant(fields):
    """Sharding stacks different sample subsets, yet the deterministic
    telemetry section stays bit-identical."""
    base = None
    for n_workers in (1, 2, 4):
        _, manifest = run(fields, n_workers)
        det = json.dumps(deterministic_sections(manifest), sort_keys=True)
        if base is None:
            base = det
        else:
            assert det == base, f"n_workers={n_workers} drifted"


def test_single_sample_matches_spec(fields):
    result, _ = run(fields[:1])
    assert observed(result) == spec_schedule(result, fields[:1], "natural", False)


def test_mixed_grid_shapes_rejected(fields):
    small = FiberField(
        f=fields[0].f[:-1].copy(),
        directions=fields[0].directions[:-1].copy(),
        mask=fields[0].mask[:-1].copy(),
    )
    seeds = np.array([[2.0, 2.0, 2.0]])
    with pytest.raises(TrackingError, match="homogeneous"):
        SegmentedTracker().run([fields[0], small], seeds, CRITERIA, table2_strategy())
