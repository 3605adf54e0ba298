"""Chaos tests for sharded bedpost: recovery stays bit-identical.

Reuses the PR-2 fault grammar (``kind:target[:attempt]``, with ``sN``
targets addressing *global serial-block indices* for this stage) against
the voxel-block shards: block crashes, hangs killed by the watchdog,
corrupted payloads caught by validation, re-shard isolation of a
poisoned block, and pool exhaustion completing via the in-parent serial
fallback.  After every recovery the posterior samples and deterministic
counters must match the sampling kernel called directly (one task
holding every block) bit for bit — at one worker too, where a fault
plan reaches the supervisor like at any other count.
"""

import json

import numpy as np
import pytest

from repro.data import dataset1
from repro.errors import PoolExhaustedError
from repro.mcmc import MCMCConfig
from repro.pipeline import BedpostConfig, bedpost
from repro.runtime.faults import FaultPlan
from repro.runtime.supervisor import RetryPolicy
from repro.telemetry import MetricsRegistry, use_registry
from tests.stage_reference import direct_bedpost

pytestmark = pytest.mark.chaos

FAST = MCMCConfig(n_burnin=12, n_samples=3, sample_interval=2, adapt_every=7)
BLOCK_VOXELS = 11


@pytest.fixture(scope="module")
def phantom():
    return dataset1(scale=0.15, snr=40.0)


def config(n_workers, plan=None, timeout=None, fallback=True, max_retries=2):
    return BedpostConfig(
        mcmc=FAST,
        block_voxels=BLOCK_VOXELS,
        n_workers=n_workers,
        supervision=RetryPolicy(
            fault_plan=plan,
            shard_timeout_s=timeout,
            fallback_to_serial=fallback,
            max_retries=max_retries,
        ),
    )


def run(phantom, n_workers, plan=None, timeout=None, fallback=True,
        max_retries=2):
    cfg = config(n_workers, plan, timeout, fallback, max_retries)
    registry = MetricsRegistry()
    with use_registry(registry):
        result = bedpost(phantom.dwi, phantom.gtab, phantom.mask, cfg)
    snap = registry.snapshot()
    det = json.dumps(
        {"counters": snap["counters"], "histograms": snap["histograms"]},
        sort_keys=True,
    )
    return result, det


_serial_cache = {}


def serial_reference(phantom):
    """``(samples, history, det)`` of the kernel called directly."""
    if "ref" not in _serial_cache:
        _serial_cache["ref"] = direct_bedpost(
            phantom.dwi, phantom.gtab, phantom.mask, config(1)
        )
    return _serial_cache["ref"]


def assert_bit_identical(serial, recovered):
    samples, history, det = serial
    r_result, r_det = recovered
    np.testing.assert_array_equal(samples, r_result.samples)
    assert history == r_result.acceptance_history
    assert det == r_det


@pytest.mark.parametrize(
    "plan_text,n_failures",
    [
        ("crash:0", 1),
        ("corrupt:1", 1),
        ("crash:0,corrupt:1", 2),
        ("crash:1,crash:1:1", 2),  # two consecutive attempts of one shard
    ],
)
def test_crash_corrupt_plans_recover_bit_identical(phantom, plan_text,
                                                   n_failures):
    serial = serial_reference(phantom)
    recovered = run(phantom, 2, plan=FaultPlan.parse(plan_text))
    assert_bit_identical(serial, recovered)
    sup = recovered[0].supervision
    assert sup.n_failures == n_failures
    assert sup.n_retries == n_failures and not sup.fallbacks


def test_hang_fault_times_out_and_recovers(phantom):
    plan = FaultPlan.parse("hang:0", hang_seconds=30.0)
    serial = serial_reference(phantom)
    recovered = run(phantom, 2, plan=plan, timeout=20.0)
    assert_bit_identical(serial, recovered)
    assert recovered[0].supervision.failure_counts() == {"timeout": 1}


def test_block_targeted_fault_is_isolated_by_resharding(phantom):
    # Global block 2's owner crashes on every pooled attempt; re-sharding
    # must confine the poison to the single-block subtask, which then
    # completes through the serial fallback.
    serial = serial_reference(phantom)
    n_blocks = -(-serial[0].shape[1] // BLOCK_VOXELS)
    assert n_blocks >= 4, "fixture must give several blocks"
    recovered = run(phantom, 2, plan=FaultPlan.parse("crash:s2:*"))
    assert_bit_identical(serial, recovered)
    sup = recovered[0].supervision
    assert sup.reshards == [0]  # block 2 lives in the first of 2 shards
    assert sup.fallbacks == [0]


def test_pool_exhaustion_completes_via_serial_fallback(phantom):
    plan = FaultPlan.parse("crash:0:*,crash:1:*")
    serial = serial_reference(phantom)
    recovered = run(phantom, 2, plan=plan)
    assert_bit_identical(serial, recovered)
    sup = recovered[0].supervision
    assert sup.fallbacks, "expected at least one serial fallback"
    assert sup.reshards, "multi-block shards re-shard before falling back"


@pytest.mark.parametrize("plan_text", ["crash:0", "corrupt:0", "crash:0:*"])
def test_one_worker_plans_recover_bit_identical(phantom, plan_text):
    # One worker is one task holding every block: a fault plan still
    # reaches the supervisor, and a task that always crashes re-shards
    # into single blocks and completes through the serial fallback.
    serial = serial_reference(phantom)
    recovered = run(phantom, 1, plan=FaultPlan.parse(plan_text))
    assert_bit_identical(serial, recovered)
    sup = recovered[0].supervision
    assert sup.n_shards == 1 and sup.n_failures >= 1
    if plan_text.endswith("*"):
        assert sup.reshards == [0]
        assert sup.fallbacks and set(sup.fallbacks) == {0}


def test_exhaustion_raises_when_fallback_disabled(phantom):
    plan = FaultPlan.parse("crash:0:*,crash:1:*")
    with pytest.raises(PoolExhaustedError):
        run(phantom, 2, plan=plan, fallback=False, max_retries=1)
