"""Sample sharding of the tracking stage.

The paper's tracking stage is embarrassingly parallel across posterior
sample volumes — streamlines never communicate, and per-sample outputs
(length rows, iteration totals, visit sets) combine by concatenation.
This module expresses that as an instance of the stage-generic
:class:`~repro.runtime.stage.StageShard` contract
(:data:`TRACKING_SHARD`, the same shape as
:mod:`repro.mcmc.shards`), and :func:`run_sharded` drives it through a
:class:`~repro.runtime.stage.StageShardExecutor`: the supervised pool
with timeouts, deterministic retry, re-sharding, and in-parent serial
fallback.  Every run goes through it: at one worker the whole stack is
one task, which the executor runs in-parent unless a fault plan asks
for supervision.

Determinism contract
--------------------
For any worker count, every output — ``lengths``, ``reasons``,
``endpoints``, connectivity counts, the timeline's events and streams,
the launches, ``cpu_seconds`` and ``peak_device_bytes`` — is
**bit-identical** to one :meth:`SegmentedTracker.run` over the whole
stack:

* the parent checks residency and plans the segments once; shards run
  only the functional kernel (:meth:`SegmentedTracker.track`) over
  contiguous sample views of the one
  :class:`~repro.models.fields.FiberStack` (:func:`partition_seeds`) —
  a task pickles only its own samples;
* merging (:func:`merge_shard_results`) concatenates the shards' rows
  in global sample order, and the model runs once in the parent over
  the merged iteration counts, so the schedule (labels, streams, the
  ``"sorted"`` launch order, residency) never depends on the sharding;
* workers' connectivity pair-sets fold in that same sample order
  (integer count addition is associative).

Because :func:`_run_shard` is a pure function of its :class:`ShardTask`,
*where* a shard finally succeeds cannot change its payload — so a
recovered merge stays bit-identical to a clean run.  See
:mod:`repro.runtime.supervisor` and :mod:`repro.runtime.faults`.  The
runtime runs every shard under a fresh metrics registry and merges the
snapshots in task order, so the stage sees bare payloads only.
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import ShardResultError, TrackingError
from repro.gpu.multigpu import partition_seeds
from repro.models.fields import FiberField, FiberStack
from repro.runtime.stage import StageShard, StageShardExecutor
from repro.runtime.supervisor import RetryPolicy
from repro.telemetry import get_registry
from repro.tracking.connectivity import ConnectivityAccumulator
from repro.tracking.criteria import TerminationCriteria
from repro.tracking.executor import SegmentedTracker, TrackedRows, TrackingRunResult
from repro.tracking.segmentation import SegmentationStrategy

__all__ = ["ShardTask", "TRACKING_SHARD", "merge_shard_results", "run_sharded"]


@dataclass
class ShardTask:
    """One worker's picklable work unit: a contiguous sample shard."""

    tracker: SegmentedTracker
    #: A view of the shard's samples; pickling it ships only their bytes.
    stack: FiberStack
    seeds: np.ndarray
    criteria: TerminationCriteria
    #: The run's segment plan, made once in the parent.
    segments: list[int]
    heading_signs: np.ndarray | None
    #: Global index of ``stack[0]``: the coordinate ``sN`` fault
    #: targets address.
    sample_offset: int
    #: (n_seeds, n_voxels, seed_map) when the parent accumulates
    #: connectivity; None otherwise.
    connectivity_spec: tuple[int, int, np.ndarray | None] | None


def _run_shard(
    task: ShardTask,
) -> tuple[TrackedRows, list[np.ndarray] | None]:
    """Worker entry point: track one shard; return its rows and visits.

    Top-level (hence picklable under every start method) and free of
    parent state: the worker rebuilds its own accumulator and ships back
    the per-sample deduplicated pair arrays for the parent to absorb.
    """
    acc = None
    if task.connectivity_spec is not None:
        n_seeds, n_voxels, seed_map = task.connectivity_spec
        acc = ConnectivityAccumulator(n_seeds, n_voxels, seed_map=seed_map)
    rows = task.tracker.track(
        task.stack,
        task.seeds,
        task.criteria,
        task.segments,
        connectivity=acc,
        heading_signs=task.heading_signs,
    )
    pairs = acc.sample_pairs() if acc is not None else None
    return rows, pairs


# -- supervisor seams --------------------------------------------------------
# Top-level (picklable) hooks the ShardSupervisor uses to run, check,
# and split shard payloads.


def _shard_samples(task: ShardTask) -> range:
    """Global sample indices a task covers (for sample-targeted faults)."""
    return range(task.sample_offset, task.sample_offset + len(task.stack))


def _split_shard_task(task: ShardTask) -> list[ShardTask]:
    """Re-shard: one single-sample subtask per sample, offsets preserved."""
    return [
        dataclasses.replace(
            task, stack=task.stack[i : i + 1], sample_offset=task.sample_offset + i
        )
        for i in range(len(task.stack))
    ]


def _validate_shard_payload(task: ShardTask, payload) -> None:
    """Reject payloads that cannot be a genuine ``_run_shard`` output.

    A real payload always passes (the checks restate ``_run_shard``'s
    own postconditions), so validation can never misclassify an honest
    shard — it only catches corrupted or truncated results before they
    would silently poison the deterministic merge.
    """
    def _bad(msg: str) -> ShardResultError:
        return ShardResultError(f"corrupt shard payload: {msg}")

    if not isinstance(payload, tuple) or len(payload) != 2:
        raise _bad(f"expected (rows, pairs) tuple, got {type(payload).__name__}")
    result, pairs = payload
    n_samples, n_seeds = len(task.stack), task.seeds.shape[0]
    lengths = getattr(result, "lengths", None)
    if not isinstance(lengths, np.ndarray) or lengths.shape != (n_samples, n_seeds):
        raise _bad(
            f"lengths must be ({n_samples}, {n_seeds}), got "
            f"{getattr(lengths, 'shape', None)}"
        )
    for name in ("reasons", "iterations"):
        value = getattr(result, name, None)
        if not isinstance(value, np.ndarray) or value.shape != lengths.shape:
            raise _bad(f"{name} shape does not match lengths")
    endpoints = getattr(result, "endpoints", None)
    if (
        not isinstance(endpoints, np.ndarray)
        or endpoints.shape != (n_samples, n_seeds, 3)
    ):
        raise _bad(
            f"endpoints must be ({n_samples}, {n_seeds}, 3), got "
            f"{getattr(endpoints, 'shape', None)}"
        )
    if lengths.min(initial=0) < 0:
        raise _bad("negative streamline lengths")
    if lengths.max(initial=0) > task.criteria.max_steps:
        raise _bad(f"lengths exceed the {task.criteria.max_steps}-step budget")
    if task.connectivity_spec is not None:
        if not isinstance(pairs, list) or len(pairs) != n_samples:
            raise _bad(
                f"expected {n_samples} per-sample visit-pair arrays, "
                f"got {len(pairs) if isinstance(pairs, list) else type(pairs).__name__}"
            )
    elif pairs is not None:
        raise _bad("unexpected visit pairs for a connectivity-free run")


#: The tracking stage expressed as an instance of the stage-generic
#: sharding contract (:mod:`repro.runtime.stage`): contiguous sample
#: shards, re-shardable to single samples, with ``sN`` fault targets
#: addressing global sample indices.
TRACKING_SHARD = StageShard(
    stage="tracking",
    unit="sample",
    run=_run_shard,
    validate=_validate_shard_payload,
    split=_split_shard_task,
    units=_shard_samples,
)


def run_sharded(
    tracker: SegmentedTracker,
    fields: FiberStack | Sequence[FiberField],
    seeds: np.ndarray,
    criteria: TerminationCriteria,
    strategy: SegmentationStrategy,
    *,
    n_workers: int,
    connectivity: ConnectivityAccumulator | None = None,
    order: str = "natural",
    overlap: bool = False,
    heading_signs: np.ndarray | None = None,
    policy: RetryPolicy | None = None,
) -> TrackingRunResult:
    """Shard the samples across worker processes, merge in sample order.

    ``n_workers`` is the pool size; shards never outnumber samples (a
    larger request is clamped to the shardable sample count).  At one
    worker the whole stack is one task, run in-parent unless ``policy``
    carries a fault plan.  ``policy`` is the supervision contract
    (retries, deadline, serial fallback, fault plan; default
    :class:`RetryPolicy`).
    """
    stack = FiberStack.from_fields(fields)
    if connectivity is not None and not (
        hasattr(connectivity, "sample_pairs") and hasattr(connectivity, "absorb")
    ):
        raise TrackingError(
            "sharded tracking requires a mergeable connectivity "
            "accumulator (sample_pairs()/absorb()); got "
            f"{type(connectivity).__name__}"
        )

    t0 = time.perf_counter()
    segments = tracker.plan(stack, seeds, criteria, strategy, order, overlap)
    executor = StageShardExecutor(n_workers, policy)
    n_shards = executor.plan_shards(TRACKING_SHARD, stack.n_samples)
    connectivity_spec = None
    if connectivity is not None:
        connectivity_spec = (
            connectivity.n_seeds,
            connectivity.n_voxels,
            connectivity.seed_map,
        )
    tasks = [
        ShardTask(
            tracker=tracker,
            stack=stack[sl],
            seeds=seeds,
            criteria=criteria,
            segments=segments,
            heading_signs=heading_signs,
            sample_offset=sl.start,
            connectivity_spec=connectivity_spec,
        )
        for sl in partition_seeds(stack.n_samples, n_shards)
    ]

    # Streaming in-task-order merge: each shard's connectivity pairs are
    # folded into the parent as the executor delivers them — in task
    # order regardless of completion order, re-sharded subtasks in
    # sample order — so global sample order is preserved and peak
    # parent memory stays bounded.
    parts: list[TrackedRows] = []

    def _absorb(index: int, outs: list) -> None:
        for rows, pairs in outs:
            parts.append(rows)
            if connectivity is not None:
                connectivity.absorb(pairs)

    report = executor.run(TRACKING_SHARD, tasks, _absorb)
    with get_registry().span("runtime.merge", n_parts=len(parts)):
        result = tracker.model(
            merge_shard_results(parts), stack, segments, order, overlap
        )
    result.wall_seconds = time.perf_counter() - t0
    result.worker_walls = [p.wall_seconds for p in parts]
    result.supervision = report
    # Each failed attempt becomes a "retry" event with its measured wall
    # seconds, on a negative stream and the "supervisor" resource, so the
    # kernel/transfer/reduction totals never move.
    if report is not None:
        for a in report.failed_attempts():
            result.timeline.add(
                "retry",
                f"shard{a.shard}:attempt{a.attempt}:{a.outcome}",
                a.seconds,
                stream=-(a.shard + 1),
            )
    return result


def merge_shard_results(parts: list[TrackedRows]) -> TrackedRows:
    """Concatenate shard rows (already in global sample order) into one.

    Each array is row-stacked in sample order, so the merged rows are
    the whole-stack kernel's; the schedule is modeled afterwards, once,
    over them (:meth:`SegmentedTracker.model`).
    """
    if not parts:
        raise ValueError("nothing to merge")
    return TrackedRows(
        lengths=np.concatenate([p.lengths for p in parts]),
        reasons=np.concatenate([p.reasons for p in parts]),
        endpoints=np.concatenate([p.endpoints for p in parts]),
        iterations=np.concatenate([p.iterations for p in parts]),
    )
