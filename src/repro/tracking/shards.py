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
fallback.  Every run goes through it: at one worker the whole stack is
one task, which the executor runs in-parent unless a fault plan asks
for supervision.

Determinism contract
--------------------
For any worker count, ``lengths``, ``reasons``, ``endpoints``,
connectivity counts, and per-kind timeline totals are **bit-identical**
to one :meth:`SegmentedTracker.run` over the whole stack:

* samples are sharded contiguously (:func:`partition_seeds`) as views
  of the one :class:`~repro.models.fields.FiberStack` — a task pickles
  only its own samples — and each shard is told its global
  ``sample_offset``, so every per-sample computation, label, and stream
  parity matches the whole-stack run;
* the ``"sorted"`` order policy depends on the first sample's lengths,
  so a run that really shards (more than one worker and more than one
  sample) tracks sample 0 in-parent first and its length row becomes
  every shard's explicit ``sort_key`` — each shard then applies the
  exact permutation the whole-stack run would;
* merging (:func:`merge_shard_results`) concatenates rows/events/
  launches in global sample order and folds worker connectivity
  pair-sets in that same order (integer count addition is associative),
  so even float summation order is preserved.

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
from repro.gpu.device import HostSpec
from repro.gpu.multigpu import partition_seeds
from repro.gpu.timeline import Timeline
from repro.models.fields import FiberField, FiberStack
from repro.runtime.stage import StageShard, StageShardExecutor
from repro.runtime.supervisor import RetryPolicy, SupervisorReport
from repro.telemetry import get_registry
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
    heading_signs: np.ndarray | None
    sort_key: np.ndarray | None
    sample_offset: int
    #: (n_seeds, n_voxels, seed_map) when the parent accumulates
    #: connectivity; None otherwise.
    connectivity_spec: tuple[int, int, np.ndarray | None] | None


def _run_shard(
    task: ShardTask,
) -> tuple[TrackingRunResult, list[np.ndarray] | None]:
    """Worker entry point: run one shard; return its result and visits.

    Top-level (hence picklable under every start method) and free of
    parent state: the worker rebuilds its own accumulator and ships back
    the per-sample deduplicated pair arrays for the parent to absorb.
    """
    acc = None
    if task.connectivity_spec is not None:
        n_seeds, n_voxels, seed_map = task.connectivity_spec
        acc = ConnectivityAccumulator(n_seeds, n_voxels, seed_map=seed_map)
    result = task.tracker.run(
        task.stack,
        task.seeds,
        task.criteria,
        task.strategy,
        connectivity=acc,
        order=task.order,
        overlap=task.overlap,
        heading_signs=task.heading_signs,
        sort_key=task.sort_key,
        sample_offset=task.sample_offset,
    )
    pairs = acc.sample_pairs() if acc is not None else None
    return result, pairs


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
        raise _bad(f"expected (result, pairs) tuple, got {type(payload).__name__}")
    result, pairs = payload
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

    # Phase 1 ("sorted" runs that really shard): the permutation of
    # samples 1.. depends on sample 0's measured lengths, so sample 0
    # runs in-parent and its row becomes every shard's explicit
    # sort_key.  A one-task run sorts inside its own tracker.run.
    phase0: TrackingRunResult | None = None
    sort_key = None
    shard_stack = stack
    first_shard_sample = 0
    if order == "sorted" and n_workers > 1 and stack.n_samples > 1:
        phase0 = tracker.run(
            stack[:1],
            seeds,
            criteria,
            strategy,
            connectivity=connectivity,
            order=order,
            overlap=overlap,
            heading_signs=heading_signs,
        )
        sort_key = phase0.lengths[0]
        shard_stack = stack[1:]
        first_shard_sample = 1

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

    # Streaming in-task-order merge: each shard's result rows and
    # connectivity pairs are folded into the parent as the executor
    # delivers them — in task order regardless of completion order,
    # re-sharded subtasks in sample order — so global sample order is
    # preserved and peak parent memory stays bounded.
    parts = [phase0] if phase0 is not None else []

    def _absorb(index: int, outs: list) -> None:
        for result, pairs in outs:
            parts.append(result)
            if connectivity is not None:
                connectivity.absorb(pairs)

    report = executor.run(TRACKING_SHARD, tasks, _absorb)
    with get_registry().span("runtime.merge", n_parts=len(parts)):
        return merge_shard_results(
            parts,
            tracker.host,
            wall_seconds=time.perf_counter() - t0,
            supervision=report,
        )


def merge_shard_results(
    parts: list[TrackingRunResult],
    host: HostSpec,
    wall_seconds: float,
    supervision: SupervisorReport | None = None,
) -> TrackingRunResult:
    """Merge shard results (already in global sample order) into one.

    A shard told its global ``sample_offset`` produces rows, labels and
    stream parities bit-identical to the matching slice of a
    whole-stack run, so merging is concatenation in sample order:

    * ``lengths`` / ``reasons`` / ``endpoints`` — row-stacked blocks (a
      lone part's arrays, timeline and launches are taken as they are,
      not copied);
    * timeline events and ``KernelLaunch`` records — concatenated, so
      event seconds, order and per-kind totals equal the whole-stack
      log; each shard's events move onto a per-worker stream pair so
      :meth:`Timeline.overlapped_end` models the pool's concurrency;
    * ``peak_device_bytes`` — the max over shards (every worker models
      the same device).  Under the Fig 8 ``overlap`` scheme a
      multi-sample run keeps two sample images resident, so a one-sample
      shard
      reports a lower peak: peak memory is a per-worker footprint, not
      part of the bit-identity contract;
    * ``cpu_seconds`` — recomputed from the merged integer lengths,
      hence bitwise the whole-stack value.

    ``supervision`` (the run's
    :class:`~repro.runtime.supervisor.SupervisorReport`) rides on the
    result, and each failed attempt becomes a ``"retry"`` event with its
    measured wall seconds, on a negative stream and the ``"supervisor"``
    resource so the kernel/transfer/reduction totals never move.
    """
    if not parts:
        raise ValueError("nothing to merge")

    def _rows(arrays: list[np.ndarray]) -> np.ndarray:
        return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)

    lengths = _rows([p.lengths for p in parts])
    reasons = _rows([p.reasons for p in parts])
    endpoints = _rows([p.endpoints for p in parts])

    if len(parts) == 1:
        timeline, launches = parts[0].timeline, parts[0].launches
    else:
        timeline = Timeline()
        launches = []
        for slot, part in enumerate(parts):
            for ev in part.timeline.events:
                # A tracker.run uses stream parity 0/1 (the overlap
                # scheme); slot * 2 keeps that parity while separating
                # workers.
                timeline.add(
                    ev.kind, ev.label, ev.seconds,
                    stream=slot * 2 + (ev.stream % 2),
                )
            launches.extend(part.launches)

    if supervision is not None:
        for a in supervision.failed_attempts():
            timeline.add(
                "retry",
                f"shard{a.shard}:attempt{a.attempt}:{a.outcome}",
                a.seconds,
                stream=-(a.shard + 1),
            )

    return TrackingRunResult(
        lengths=lengths,
        reasons=reasons,
        endpoints=endpoints,
        timeline=timeline,
        launches=launches,
        cpu_seconds=float(lengths.sum()) * host.seconds_per_iteration,
        wall_seconds=wall_seconds,
        peak_device_bytes=max(p.peak_device_bytes for p in parts),
        worker_walls=[p.wall_seconds for p in parts],
        supervision=supervision,
    )
