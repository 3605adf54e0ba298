"""Shard payload integrity: the transport digest and both stages' validators.

Two independent checks stand between a worker and the deterministic
merge.  The supervisor's transport digest (``sha256`` of the pickled
payload, recomputed by :class:`~repro.runtime.supervisor.ProcessLauncher`)
catches bytes damaged in transit for every stage alike; the ``corrupt``
fault flips one of those bytes, so it exercises only the digest.  Each
stage's semantic validator (``_validate_shard_payload`` for tracking,
``_validate_block_payload`` for sampling) catches payloads that unpickle
fine but cannot be a genuine ``run`` output; they are tested directly
here, on genuine payloads and on mangled copies of them.
"""

import dataclasses

import numpy as np
import pytest

import repro.tracking.shards as tracking_shards
from repro.data import dataset1
from repro.errors import ShardResultError
from repro.mcmc import MCMCConfig
from repro.mcmc.shards import (
    _validate_block_payload,
    make_block_tasks,
    run_blocks,
)
from repro.models.fields import FiberField, FiberStack
from repro.runtime.faults import FaultPlan
from repro.runtime.stage import StageShard, _pool_context
from repro.runtime.supervisor import ProcessLauncher, RetryPolicy, ShardSupervisor
from repro.tracking import (
    ProbtrackConfig,
    TerminationCriteria,
    probabilistic_streamlining,
    seeds_from_mask,
)
from repro.tracking.executor import SegmentedTracker
from repro.tracking.segmentation import table2_strategy
from repro.utils.geometry import normalize

SHAPE = (10, 6, 4)
CRITERIA = TerminationCriteria(max_steps=40, min_dot=0.7, step_length=0.25)
FAST = MCMCConfig(n_burnin=12, n_samples=3, sample_interval=2, adapt_every=7)


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
    for _ in range(3):
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


# -- the tracking validator --------------------------------------------------


@pytest.fixture(scope="module")
def shard_task(fields, seed_mask):
    stack = FiberStack.from_fields(fields)
    seeds = seeds_from_mask(seed_mask)
    return tracking_shards.ShardTask(
        tracker=SegmentedTracker(),
        stack=stack,
        seeds=seeds,
        criteria=CRITERIA,
        strategy=table2_strategy(),
        order="natural",
        overlap=False,
        heading_signs=None,
        sort_key=None,
        sample_offset=0,
        connectivity_spec=(len(seeds), int(np.prod(stack.shape3)), None),
    )


@pytest.fixture(scope="module")
def shard_payload(shard_task):
    return tracking_shards._run_shard(shard_task)


class TestTrackingValidator:
    def test_genuine_payload_passes(self, shard_task, shard_payload):
        result, pairs = shard_payload
        assert result.lengths.max() > 0 and len(pairs) == len(shard_task.stack)
        tracking_shards._validate_shard_payload(shard_task, shard_payload)

    def test_negated_lengths_rejected(self, shard_task, shard_payload):
        result, pairs = shard_payload
        bad = dataclasses.replace(result, lengths=-result.lengths - 1)
        with pytest.raises(ShardResultError, match="negative"):
            tracking_shards._validate_shard_payload(
                shard_task, (bad, pairs))

    def test_dropped_visit_pair_row_rejected(self, shard_task, shard_payload):
        result, pairs = shard_payload
        with pytest.raises(ShardResultError, match="visit-pair"):
            tracking_shards._validate_shard_payload(
                shard_task, (result, pairs[:-1]))


# -- the sampling validator --------------------------------------------------


@pytest.fixture(scope="module")
def block_task():
    phantom = dataset1(scale=0.15, snr=40.0)
    flat = phantom.dwi.data.reshape(-1, phantom.dwi.data.shape[-1])
    rows = flat[np.flatnonzero(phantom.mask.reshape(-1))[:22]]
    (task,) = make_block_tasks(
        rows, [(0, 11), (11, 22)], 1,
        n_total_voxels=22, mcmc=FAST, n_fibers=2, ard=False,
        noise_model="gaussian", gtab=phantom.gtab,
    )
    return task


@pytest.fixture(scope="module")
def block_payload(block_task):
    return run_blocks(block_task)


class TestBlockValidator:
    def test_genuine_payload_passes(self, block_task, block_payload):
        result = block_payload
        assert len(result["histories"]) == len(block_task.blocks) == 2
        _validate_block_payload(block_task, block_payload)

    def test_truncated_voxel_column_rejected(self, block_task, block_payload):
        result = block_payload
        bad = dict(result, samples=result["samples"][:, :-1, :])
        with pytest.raises(ShardResultError, match="samples must be"):
            _validate_block_payload(block_task, bad)

    def test_dropped_history_rejected(self, block_task, block_payload):
        result = block_payload
        bad = dict(result, histories=result["histories"][:-1])
        with pytest.raises(ShardResultError, match="histories"):
            _validate_block_payload(block_task, bad)


# -- the transport digest (real worker processes) ----------------------------


def _toy_run(task):
    """A stage with no validator: only the digest can catch damage."""
    return {"task": task, "values": np.random.default_rng(task).normal(size=(64, 3))}


TOY = StageShard(stage="toy", unit="item", run=_toy_run)


@pytest.mark.chaos
def test_corrupt_fault_is_caught_by_the_digest():
    policy = RetryPolicy(base_delay_s=0.0, fault_plan=FaultPlan.parse("corrupt:0"))
    supervisor = ShardSupervisor(
        policy, max_workers=2, launcher=ProcessLauncher(_pool_context())
    )
    outputs = [None, None]

    def keep(index, parts):
        outputs[index] = parts

    report = supervisor.run_tasks([0, 1], TOY, keep)
    assert report.failure_counts() == {"corrupt": 1}
    (bad,) = report.failed_attempts()
    assert (bad.shard, bad.attempt, bad.via) == (0, 0, "pool")
    assert report.n_retries == 1 and not report.fallbacks
    for task, parts in enumerate(outputs):
        (payload,) = parts
        expected = _toy_run(task)
        assert payload["task"] == task
        assert payload["values"].tobytes() == expected["values"].tobytes()


def _streamline(fields, seed_mask, n_workers, plan=None):
    cfg = ProbtrackConfig(
        criteria=CRITERIA,
        n_workers=n_workers,
        supervision=RetryPolicy(fault_plan=plan),
    )
    return probabilistic_streamlining(fields, config=cfg, seed_mask=seed_mask)


@pytest.mark.chaos
def test_tracking_corrupt_shard_recovers_bit_identical(
        fields, seed_mask, monkeypatch):
    # The damaged payload is rejected by the digest before it is ever
    # unpickled, so the stage's validator sees genuine payloads only.
    validated = []
    real = tracking_shards.TRACKING_SHARD

    def spy(task, payload):
        validated.append(task.sample_offset)
        real.validate(task, payload)

    monkeypatch.setattr(
        tracking_shards, "TRACKING_SHARD",
        dataclasses.replace(real, validate=spy),
    )
    serial = _streamline(fields, seed_mask, 1)
    recovered = _streamline(fields, seed_mask, 2, FaultPlan.parse("corrupt:0"))
    sup = recovered.run.supervision
    assert sup.failure_counts() == {"corrupt": 1}
    assert [a.outcome for a in sup.attempts if a.shard == 0] == ["corrupt", "ok"]
    assert sorted(validated) == [0, 2]  # one genuine payload per shard
    assert recovered.run.lengths.tobytes() == serial.run.lengths.tobytes()
    assert recovered.run.reasons.tobytes() == serial.run.reasons.tobytes()
    diff = serial.connectivity.probability() != recovered.connectivity.probability()
    assert diff.nnz == 0
