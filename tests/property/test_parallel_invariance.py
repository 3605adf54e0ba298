"""Worker-count invariance of the process execution backend.

The determinism contract of :mod:`repro.runtime`: for any ``n_workers``
(one included: it is the executor's one-task case, not a separate
path), the merged output is bit-identical to the tracking kernel called
directly — one ``SegmentedTracker.run`` over the whole stack — in
``lengths``, ``reasons``, ``endpoints``, connectivity
``probability()``, and the modeled schedule: the exact event log,
launches, ``peak_device_bytes`` and ``cpu_seconds``.  Exercised over the
order/overlap/bidirectional option grid, including the ``"sorted"``
policy whose launch order depends on the globally-first sample, which
the merged model sees whichever shard tracked it.
"""

import numpy as np
import pytest

from repro.data import dataset1
from repro.models.fields import FiberField
from repro.tracking import (
    ProbtrackConfig,
    TerminationCriteria,
    probabilistic_streamlining,
)
from repro.utils.geometry import normalize
from tests.stage_reference import direct_tracking

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


def config(n_workers, order="natural", overlap=False, bidirectional=False):
    return ProbtrackConfig(
        criteria=TerminationCriteria(max_steps=200, min_dot=0.8, step_length=0.2),
        order=order,
        overlap=overlap,
        bidirectional=bidirectional,
        n_workers=n_workers,
    )


def run(fields, n_workers, order="natural", overlap=False, bidirectional=False):
    cfg = config(n_workers, order, overlap, bidirectional)
    return probabilistic_streamlining(fields, config=cfg)


def direct(fields, order="natural", overlap=False, bidirectional=False):
    return direct_tracking(fields, config(1, order, overlap, bidirectional))


def assert_matches(ref, result):
    assert np.array_equal(ref.run.lengths, result.run.lengths)
    assert np.array_equal(ref.run.reasons, result.run.reasons)
    assert np.array_equal(ref.run.endpoints, result.run.endpoints)
    diff = ref.connectivity.probability() != result.connectivity.probability()
    assert diff.nnz == 0


@pytest.mark.parametrize(
    "order,overlap,bidirectional",
    [
        ("natural", False, False),
        ("sorted", False, False),
        ("sorted", True, False),
        ("natural", False, True),
        ("sorted", False, True),
    ],
)
def test_worker_count_invariance(fields, order, overlap, bidirectional):
    ref = direct(fields, order, overlap, bidirectional)
    base_totals = ref.run.timeline.totals()
    for n_workers in (1, 2, 4):
        result = run(fields, n_workers, order, overlap, bidirectional)
        assert_matches(ref, result)
        totals = result.run.timeline.totals()
        for kind in ("kernel", "transfer", "reduction"):
            assert totals[kind] == base_totals[kind], kind
        # The schedule is modeled once over the merged rows: the direct
        # run's own event log, on the same streams, in the same order,
        # with its launches and whole-stack residency.
        assert result.run.timeline.events == ref.run.timeline.events
        assert result.run.launches == ref.run.launches
        assert result.run.peak_device_bytes == ref.run.peak_device_bytes
        assert ref.run.cpu_seconds == result.run.cpu_seconds
        assert result.run.worker_walls, "every run records its part walls"
        assert (result.run.supervision is None) == (n_workers == 1)


def test_single_sample_degrades_to_serial(fields):
    ref = direct(fields[:1])
    for n_workers in (1, 4):
        assert_matches(ref, run(fields[:1], n_workers))


def test_workers_exceeding_samples_clamped_and_logged(fields, caplog):
    """Regression: n_workers > n_samples must clamp, log once, and stay
    bit-identical — never spawn idle workers or fail."""
    import logging

    ref = direct(fields[:3])
    with caplog.at_level(logging.INFO, logger="repro.runtime.stage"):
        parallel = run(fields[:3], 8)
    clamp_logs = [m for m in caplog.messages if "clamping n_workers" in m]
    assert len(clamp_logs) == 1
    assert_matches(ref, parallel)
