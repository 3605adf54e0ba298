"""Chaos tests for sharded bedpost: recovery stays bit-identical.

Reuses the PR-2 fault grammar (``kind:target[:attempt]``, with ``sN``
targets addressing *global serial-block indices* for this stage) against
the voxel-block shards: block crashes, hangs killed by the watchdog,
corrupted payloads caught by validation, re-shard isolation of a
poisoned block, and pool exhaustion completing via the in-parent serial
fallback.  After every recovery the posterior samples and deterministic
counters must match the serial run bit for bit.
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

pytestmark = pytest.mark.chaos

FAST = MCMCConfig(n_burnin=12, n_samples=3, sample_interval=2, adapt_every=7)
BLOCK_VOXELS = 11


@pytest.fixture(scope="module")
def phantom():
    return dataset1(scale=0.15, snr=40.0)


def run(phantom, n_workers, plan=None, timeout=None, fallback=True,
        max_retries=2):
    cfg = BedpostConfig(
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
    if "ref" not in _serial_cache:
        _serial_cache["ref"] = run(phantom, 1)
    return _serial_cache["ref"]


def assert_bit_identical(serial, recovered):
    s_result, s_det = serial
    r_result, r_det = recovered
    np.testing.assert_array_equal(s_result.samples, r_result.samples)
    assert s_result.acceptance_history == r_result.acceptance_history
    assert s_det == r_det


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
    n_blocks = -(-serial[0].n_voxels // BLOCK_VOXELS)
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


def test_exhaustion_raises_when_fallback_disabled(phantom):
    plan = FaultPlan.parse("crash:0:*,crash:1:*")
    with pytest.raises(PoolExhaustedError):
        run(phantom, 2, plan=plan, fallback=False, max_retries=1)
