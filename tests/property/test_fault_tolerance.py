"""Chaos tests: recovered runs are bit-identical to the tracking kernel.

Hypothesis generates arbitrary :class:`FaultPlan`s — crashes, hangs, and
corrupted payloads at arbitrary shards/attempts — and the property is
always the same: after supervised recovery, ``lengths``, stop
``reasons``, and the sparse connectivity matrix match one in-process
``tracker.run`` over the whole stack bit for bit, for ``n_workers`` in
{1, 2, 4} (a fault plan reaches the supervisor at one worker too) and
across the sorted/overlap/bidirectional option grid.  A
pool-exhaustion scenario (every attempt of every shard crashes) must
demonstrably complete via the serial fallback.

The fields are deliberately tiny (a straight-fiber corridor phantom) so
each recovered run costs fractions of a second; hang cases pair a small
injected sleep with a smaller ``shard_timeout_s``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.models.fields import FiberField
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.runtime.supervisor import RetryPolicy
from repro.tracking import (
    ProbtrackConfig,
    TerminationCriteria,
    probabilistic_streamlining,
)
from repro.utils.geometry import normalize
from tests.stage_reference import direct_tracking

pytestmark = pytest.mark.chaos

N_SAMPLES = 4
SHAPE = (10, 6, 4)


@pytest.fixture(scope="module")
def fields():
    """Tiny straight-fiber corridor, perturbed per sample."""
    base_dir = np.zeros(SHAPE + (2, 3))
    f = np.zeros(SHAPE + (2,))
    f[1:9, 2:4, 1:3, 0] = 0.6
    base_dir[1:9, 2:4, 1:3, 0] = (1.0, 0.0, 0.0)
    mask = f[..., 0] > 0
    rng = np.random.default_rng(11)
    out = []
    for _ in range(N_SAMPLES):
        noise = rng.normal(scale=0.12, size=base_dir.shape)
        dirs = normalize(base_dir + noise * (f > 0)[..., None])
        out.append(
            FiberField(f=f.copy(), directions=dirs * (f > 0)[..., None],
                       mask=mask.copy())
        )
    return out


@pytest.fixture(scope="module")
def seed_mask():
    m = np.zeros(SHAPE, dtype=bool)
    m[2:5, 2:4, 1:3] = True
    return m


def config(n_workers, plan=None, timeout=None, order="natural",
           overlap=False, bidirectional=False):
    return ProbtrackConfig(
        criteria=TerminationCriteria(max_steps=40, min_dot=0.7, step_length=0.25),
        order=order,
        overlap=overlap,
        bidirectional=bidirectional,
        n_workers=n_workers,
        supervision=RetryPolicy(
            fault_plan=plan, shard_timeout_s=timeout, max_retries=2
        ),
    )


def run(fields, seed_mask, n_workers, plan=None, timeout=None,
        order="natural", overlap=False, bidirectional=False):
    cfg = config(n_workers, plan, timeout, order, overlap, bidirectional)
    return probabilistic_streamlining(fields, config=cfg, seed_mask=seed_mask)


_serial_cache = {}


def serial_reference(fields, seed_mask, order="natural", overlap=False,
                     bidirectional=False):
    """The kernel called directly over the whole stack (cached per mode)."""
    key = (order, overlap, bidirectional)
    if key not in _serial_cache:
        cfg = config(1, order=order, overlap=overlap,
                     bidirectional=bidirectional)
        _serial_cache[key] = direct_tracking(fields, cfg, seed_mask)
    return _serial_cache[key]


def assert_bit_identical(serial, recovered):
    assert np.array_equal(serial.run.lengths, recovered.run.lengths)
    assert np.array_equal(serial.run.reasons, recovered.run.reasons)
    diff = serial.connectivity.probability() != recovered.connectivity.probability()
    assert diff.nnz == 0
    s_tot = serial.run.timeline.totals()
    r_tot = recovered.run.timeline.totals()
    for kind in ("kernel", "transfer", "reduction"):
        assert s_tot[kind] == r_tot[kind], kind


fault_specs = st.builds(
    FaultSpec,
    kind=st.sampled_from(["crash", "corrupt"]),
    shard=st.integers(min_value=0, max_value=3),
    attempt=st.sampled_from([0, 0, 1, -1]),
)
fault_plans = st.lists(fault_specs, min_size=1, max_size=4).map(
    lambda specs: FaultPlan(faults=tuple(specs))
)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(plan=fault_plans, n_workers=st.sampled_from([1, 2, 4]))
def test_any_crash_corrupt_plan_recovers_bit_identical(
        fields, seed_mask, plan, n_workers):
    serial = serial_reference(fields, seed_mask)
    recovered = run(fields, seed_mask, n_workers, plan=plan)
    assert_bit_identical(serial, recovered)
    # Any fault that actually fired must appear in the report.
    sup = recovered.run.supervision
    if sup is not None and sup.n_failures:
        assert sup.n_retries + len(sup.fallbacks) + len(sup.reshards) > 0


@pytest.mark.parametrize("n_workers", [1, 2, 4])
def test_hang_fault_times_out_and_recovers(fields, seed_mask, n_workers):
    plan = FaultPlan.parse("hang:0", hang_seconds=5.0)
    serial = serial_reference(fields, seed_mask)
    recovered = run(fields, seed_mask, n_workers, plan=plan, timeout=0.75)
    assert_bit_identical(serial, recovered)
    sup = recovered.run.supervision
    assert sup.failure_counts() == {"timeout": 1}


@pytest.mark.parametrize(
    "order,overlap,bidirectional",
    [
        ("sorted", False, False),
        ("sorted", True, False),
        ("natural", False, True),
        ("sorted", False, True),
    ],
)
def test_recovery_across_mode_grid(fields, seed_mask, order, overlap,
                                   bidirectional):
    plan = FaultPlan.parse("crash:0,corrupt:1")
    serial = serial_reference(fields, seed_mask, order, overlap, bidirectional)
    recovered = run(fields, seed_mask, 2, plan=plan, order=order,
                    overlap=overlap, bidirectional=bidirectional)
    assert_bit_identical(serial, recovered)
    assert recovered.run.supervision.n_failures == 2


@pytest.mark.parametrize("n_workers", [1, 2, 4])
def test_pool_exhaustion_completes_via_serial_fallback(
        fields, seed_mask, n_workers):
    # Every attempt of every shard crashes: the pool is useless, the
    # supervisor re-shards, the re-shards crash too, and every piece of
    # work must complete through the in-parent serial fallback.
    plan = FaultPlan.parse(
        ",".join(f"crash:{s}:*" for s in range(n_workers)))
    serial = serial_reference(fields, seed_mask)
    recovered = run(fields, seed_mask, n_workers, plan=plan)
    assert_bit_identical(serial, recovered)
    sup = recovered.run.supervision
    assert sup.fallbacks, "expected at least one serial fallback"
    if n_workers < N_SAMPLES:  # multi-sample shards get re-sharded first
        assert sup.reshards, "expected re-sharding before fallback"
    # Retry timeline events carry the recovery story.
    retry_events = [e for e in recovered.run.timeline.events
                    if e.kind == "retry"]
    assert len(retry_events) == sup.n_failures


def test_exhaustion_raises_when_fallback_disabled(fields, seed_mask):
    plan = FaultPlan.parse("crash:0:*,crash:1:*")
    from repro.errors import PoolExhaustedError

    cfg = ProbtrackConfig(
        criteria=TerminationCriteria(max_steps=40, min_dot=0.7, step_length=0.25),
        n_workers=2,
        supervision=RetryPolicy(
            fault_plan=plan, fallback_to_serial=False, max_retries=1
        ),
    )
    with pytest.raises(PoolExhaustedError):
        probabilistic_streamlining(fields, config=cfg, seed_mask=seed_mask)


def test_sample_targeted_fault_only_poisons_its_shard(fields, seed_mask):
    # Sample-index targeting: whichever shard owns global sample 3
    # fails persistently; re-sharding isolates the poisoned sample and
    # the rest of the shard recovers on the pool.
    plan = FaultPlan.parse("crash:s3:*")
    serial = serial_reference(fields, seed_mask)
    recovered = run(fields, seed_mask, 2, plan=plan)
    assert_bit_identical(serial, recovered)
    sup = recovered.run.supervision
    assert sup.reshards == [1]
    assert sup.fallbacks == [1]  # only the poisoned single-sample piece
