"""Sample sharding of the tracking stage.

The paper's tracking stage is embarrassingly parallel across posterior
sample volumes — streamlines never communicate, and per-sample outputs
(length rows, visit sets, modeled events) combine by concatenation.
This module expresses that as an instance of the stage-generic
:class:`~repro.runtime.stage.StageShard` contract
(:data:`TRACKING_SHARD`, the same shape as
:mod:`repro.mcmc.shards`), and :func:`run_sharded` drives it through a
:class:`~repro.runtime.stage.StageShardExecutor`: the supervised pool
with timeouts, deterministic retry, re-sharding, and in-parent serial
fallback.  A one-worker run needs none of it and calls
:meth:`SegmentedTracker.run` directly.

Determinism contract
--------------------
For any worker count, ``lengths``, ``reasons``, ``endpoints``,
connectivity counts, and per-kind timeline totals are **bit-identical**
to the serial path:

* samples are sharded contiguously (:func:`partition_seeds`) as views
  of the one :class:`~repro.models.fields.FiberStack` — a task pickles
  only its own samples — and each shard is told its global
  ``sample_offset``, so every per-sample computation, label, and stream
  parity matches the serial run;
* the ``"sorted"`` order policy depends on the first sample's lengths,
  so sample 0 runs in-parent first and its length row becomes every
  shard's explicit ``sort_key`` — each shard then applies the exact
  permutation the serial path would;
* merging concatenates rows/events/launches in global sample order and
  folds worker connectivity pair-sets in that same order (integer count
  addition is associative), so even float summation order is preserved.

Because :func:`_run_shard` is a pure function of its :class:`ShardTask`,
*where* a shard finally succeeds cannot change its payload — so a
recovered merge stays bit-identical to a clean run.  See
:mod:`repro.runtime.supervisor` and :mod:`repro.runtime.faults`.
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
from repro.runtime.merge import merge_shard_results
from repro.runtime.stage import StageShard, StageShardExecutor
from repro.runtime.supervisor import RetryPolicy
from repro.telemetry import MetricsRegistry, get_registry, use_registry
from repro.tracking.connectivity import ConnectivityAccumulator
from repro.tracking.criteria import TerminationCriteria
from repro.tracking.executor import SegmentedTracker, TrackingRunResult
from repro.tracking.segmentation import SegmentationStrategy

__all__ = ["ShardTask", "TRACKING_SHARD", "run_sharded"]


@dataclass
class ShardTask:
    """One worker's picklable work unit: a contiguous sample shard."""

    tracker: SegmentedTracker
    #: A view of the shard's samples; pickling it ships only their bytes.
    stack: FiberStack
    seeds: np.ndarray
    criteria: TerminationCriteria
    strategy: SegmentationStrategy
    order: str
    overlap: bool
    headings: np.ndarray | None
    heading_signs: np.ndarray | None
    sort_key: np.ndarray | None
    sample_offset: int
    #: (n_seeds, n_voxels, seed_map) when the parent accumulates
    #: connectivity; None otherwise.
    connectivity_spec: tuple[int, int, np.ndarray | None] | None


def _run_shard(
    task: ShardTask,
) -> tuple[TrackingRunResult, list[np.ndarray] | None, dict]:
    """Worker entry point: run one shard; return result, visits, metrics.

    Top-level (hence picklable under every start method) and free of
    parent state: the worker rebuilds its own accumulator and ships back
    the per-sample deduplicated pair arrays for the parent to absorb.
    The shard's telemetry runs against a **fresh local registry** (never
    the fork-inherited parent state) whose snapshot rides back with the
    payload, so the parent can merge shard metrics in task order — the
    same discipline that keeps lengths/connectivity bit-identical.
    """
    acc = None
    if task.connectivity_spec is not None:
        n_seeds, n_voxels, seed_map = task.connectivity_spec
        acc = ConnectivityAccumulator(n_seeds, n_voxels, seed_map=seed_map)
    local = MetricsRegistry()
    with use_registry(local):
        result = task.tracker.run(
            task.stack,
            task.seeds,
            task.criteria,
            task.strategy,
            connectivity=acc,
            order=task.order,
            overlap=task.overlap,
            headings=task.headings,
            heading_signs=task.heading_signs,
            sort_key=task.sort_key,
            sample_offset=task.sample_offset,
        )
    pairs = acc.sample_pairs() if acc is not None else None
    return result, pairs, local.snapshot()


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

    if not isinstance(payload, tuple) or len(payload) != 3:
        raise _bad(
            f"expected (result, pairs, metrics) tuple, got {type(payload).__name__}"
        )
    result, pairs, metrics = payload
    if not isinstance(metrics, dict):
        raise _bad(f"metrics snapshot must be a dict, got {type(metrics).__name__}")
    n_samples, n_seeds = len(task.stack), task.seeds.shape[0]
    lengths = getattr(result, "lengths", None)
    reasons = getattr(result, "reasons", None)
    if not isinstance(lengths, np.ndarray) or lengths.shape != (n_samples, n_seeds):
        raise _bad(
            f"lengths must be ({n_samples}, {n_seeds}), got "
            f"{getattr(lengths, 'shape', None)}"
        )
    if not isinstance(reasons, np.ndarray) or reasons.shape != lengths.shape:
        raise _bad("reasons shape does not match lengths")
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
    headings: np.ndarray | None = None,
    heading_signs: np.ndarray | None = None,
    policy: RetryPolicy | None = None,
) -> TrackingRunResult:
    """Shard the samples across worker processes, merge in sample order.

    ``n_workers`` is the pool size; shards never outnumber samples (a
    larger request is clamped to the shardable sample count).
    ``policy`` is the supervision contract (retries, deadline, serial
    fallback, fault plan; default :class:`RetryPolicy`).
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

    registry = get_registry()
    t0 = time.perf_counter()

    # Phase 1 ("sorted" only): the permutation of samples 1.. depends
    # on sample 0's measured lengths, so sample 0 runs in-parent and
    # its row becomes every shard's explicit sort_key.
    phase0: TrackingRunResult | None = None
    sort_key = None
    shard_stack = stack
    first_shard_sample = 0
    if order == "sorted":
        phase0 = tracker.run(
            stack[:1],
            seeds,
            criteria,
            strategy,
            connectivity=connectivity,
            order=order,
            overlap=overlap,
            headings=headings,
            heading_signs=heading_signs,
        )
        sort_key = phase0.lengths[0]
        shard_stack = stack[1:]
        first_shard_sample = 1
        if not shard_stack.n_samples:
            phase0.wall_seconds = time.perf_counter() - t0
            return phase0

    executor = StageShardExecutor(n_workers, policy)
    n_shards = executor.plan_shards(TRACKING_SHARD, shard_stack.n_samples)
    tasks = []
    for sl in partition_seeds(shard_stack.n_samples, n_shards):
        tasks.append(
            ShardTask(
                tracker=tracker,
                stack=shard_stack[sl],
                seeds=seeds,
                criteria=criteria,
                strategy=strategy,
                order=order,
                overlap=overlap,
                headings=headings,
                heading_signs=heading_signs,
                sort_key=sort_key,
                sample_offset=first_shard_sample + sl.start,
                connectivity_spec=(
                    (
                        connectivity.n_seeds,
                        connectivity.n_voxels,
                        connectivity.seed_map,
                    )
                    if connectivity is not None
                    else None
                ),
            )
        )

    # Streaming in-task-order merge: each shard's result rows,
    # connectivity pairs, and telemetry snapshot are folded into the
    # parent as the stage executor delivers them — in task order
    # regardless of completion order, re-sharded subtasks in sample
    # order — so global sample order, and therefore the deterministic
    # merge (integer counter/bucket addition in a fixed order), is
    # preserved and peak parent memory stays bounded.
    parts = [phase0] if phase0 is not None else []
    worker_slot = 0

    def _absorb(index: int, outs: list) -> None:
        nonlocal worker_slot
        for result, pairs, metrics in outs:
            parts.append(result)
            if connectivity is not None:
                connectivity.absorb(pairs)
            registry.merge_snapshot(metrics, worker=worker_slot + 1)
            worker_slot += 1

    with registry.span("runtime.shards", n_shards=n_shards, order=order):
        report = executor.run(
            TRACKING_SHARD, tasks, _absorb, inline_single=phase0 is None
        )

    with registry.span("runtime.merge", n_parts=len(parts)):
        return merge_shard_results(
            parts,
            tracker.host,
            wall_seconds=time.perf_counter() - t0,
            supervision=report,
        )
