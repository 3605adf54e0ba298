"""Worker-count invariance of the telemetry deterministic section.

The contract of :mod:`repro.telemetry`: counters registered
``deterministic=True`` and all histograms are pure functions of the
work performed, so the manifest's deterministic section is bit-identical
between a serial run and any ``n_workers`` — worker shards count into
fresh local registries whose snapshots merge in task order.  Measured
state (timers, spans, gauges, ops counters) is exempt.
"""

import json

import numpy as np
import pytest

from repro.data import dataset1
from repro.models.fields import FiberField
from repro.telemetry import (
    MetricsRegistry,
    build_manifest,
    deterministic_sections,
    use_registry,
)
from repro.tracking import (
    ProbtrackConfig,
    TerminationCriteria,
    probabilistic_streamlining,
)
from repro.utils.geometry import normalize

N_SAMPLES = 4


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


def run_with_metrics(fields, n_workers, order="natural"):
    """One tracking run under a fresh registry; returns its manifest."""
    cfg = ProbtrackConfig(
        criteria=TerminationCriteria(max_steps=64, min_dot=0.8, step_length=0.2),
        order=order,
        n_workers=n_workers,
    )
    registry = MetricsRegistry()
    with use_registry(registry):
        probabilistic_streamlining(fields, config=cfg)
    return build_manifest(registry, meta={"n_workers": n_workers})


@pytest.mark.parametrize("order", ["natural", "sorted"])
def test_deterministic_sections_bit_identical(fields, order):
    serial = run_with_metrics(fields, 1, order)
    base = json.dumps(deterministic_sections(serial), sort_keys=True)
    for n_workers in (2, 4):
        parallel = run_with_metrics(fields, n_workers, order)
        got = json.dumps(deterministic_sections(parallel), sort_keys=True)
        assert got == base, f"n_workers={n_workers} drifted from serial"


def test_deterministic_counters_cover_the_hot_path(fields):
    doc = run_with_metrics(fields, 2)
    for name in (
        "tracking.steps",
        "tracking.kernel_launches",
        "tracking.compactions",
        "tracking.threads_retired",
        "probtrack.seeds_launched",
        "probtrack.samples_tracked",
    ):
        assert doc["counters"][name] > 0, name
    hist = doc["histograms"]["tracking.streamline_steps"]
    assert sum(hist["counts"]) == hist["n"] > 0


@pytest.mark.parametrize("n_workers", [1, 2, 4])
def test_worker_cost_rides_in_task_snapshots(fields, n_workers):
    """Each task's CPU and minor faults fold into the parent as measured
    state; the deterministic section stays the serial run's."""
    doc = run_with_metrics(fields, n_workers)
    cpu = doc["timers"]["runtime.worker_cpu_s"]
    assert cpu["count"] >= 1 and cpu["total_s"] > 0
    assert doc["ops"]["runtime.worker_minflt"] > 0
    det = deterministic_sections(doc)
    assert not [k for k in det["counters"] if k.startswith("runtime.worker_")]
    serial = deterministic_sections(run_with_metrics(fields, 1))
    assert json.dumps(det, sort_keys=True) == json.dumps(serial, sort_keys=True)


def test_worker_spans_merge_into_parent(fields):
    cfg = ProbtrackConfig(
        criteria=TerminationCriteria(max_steps=64, min_dot=0.8, step_length=0.2),
        n_workers=2,
    )
    registry = MetricsRegistry()
    with use_registry(registry):
        probabilistic_streamlining(fields, config=cfg)
    workers = {s.worker for s in registry.spans}
    assert 0 in workers, "parent-side spans present"
    assert workers - {0}, "worker shard spans merged back"
    # Every worker span's parent index stays inside the span list.
    for i, s in enumerate(registry.spans):
        assert s.parent is None or 0 <= s.parent < i


@pytest.mark.parametrize(
    "plan",
    [
        pytest.param("crash:0", id="retry"),
        # Sample 1 crashes on every attempt: its shard re-shards and the
        # single-sample subtask falls back to the parent.
        pytest.param("crash:s1:*", id="reshard"),
        # Every pool attempt of both shards crashes.
        pytest.param("crash:0:*,crash:1:*", id="exhaustion"),
    ],
)
def test_retries_do_not_perturb_deterministic_section(fields, plan):
    """A recovered shard must count its work exactly once."""
    from repro.runtime.faults import FaultPlan
    from repro.runtime.supervisor import RetryPolicy

    serial = run_with_metrics(fields, 1)
    cfg = ProbtrackConfig(
        criteria=TerminationCriteria(max_steps=64, min_dot=0.8, step_length=0.2),
        n_workers=2,
        supervision=RetryPolicy(fault_plan=FaultPlan.parse(plan)),
    )
    registry = MetricsRegistry()
    with use_registry(registry):
        probabilistic_streamlining(fields, config=cfg)
    doc = build_manifest(registry, meta={})
    assert json.dumps(deterministic_sections(doc), sort_keys=True) == json.dumps(
        deterministic_sections(serial), sort_keys=True
    )
    assert doc["ops"]["runtime.retries"] >= 1
    assert doc["ops"]["runtime.failures.crash"] >= 1
