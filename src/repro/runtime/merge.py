"""Deterministic merging of per-shard tracking results.

Sharded tracking (:mod:`repro.tracking.shards`) slices the sample-volume
list into contiguous shards and runs each through the ordinary
:class:`SegmentedTracker`.  Because a
shard is told its global ``sample_offset``, its rows, labels, and stream
parities are bit-identical to the corresponding slice of a serial run —
so merging is pure concatenation in global sample order:

* ``lengths`` / ``reasons`` / ``endpoints`` — row-stacked shard blocks;
* timeline events — concatenated shard logs.  Event *seconds* and order
  match the serial log exactly (float summation order is preserved, so
  per-kind totals are bitwise equal); each shard's events are re-tagged
  onto a per-worker stream pair so :meth:`Timeline.overlapped_end`
  models the concurrency the worker pool actually has;
* ``KernelLaunch`` records — concatenated in the same order;
* ``peak_device_bytes`` — the max over shards (every worker models the
  *same* device; shards time-slice it rather than summing footprints).
  Note one sharding artifact: under the Fig 8 ``overlap`` scheme the
  serial path keeps *two* sample images resident, so a shard holding a
  single sample reports a lower peak than the serial run would — peak
  memory is a per-worker footprint, not part of the bit-identity
  contract (lengths, reasons, connectivity, per-kind timeline totals);
* ``cpu_seconds`` — recomputed from the merged lengths, which equals the
  serial value bitwise because the lengths are integers.

Connectivity counts are merged separately via
:meth:`ConnectivityAccumulator.absorb` (see :mod:`repro.tracking.shards`); integer
count addition is associative, so those too are exact.

Supervision (retries, re-shards, serial fallbacks) is surfaced two ways:
the :class:`~repro.runtime.supervisor.SupervisorReport` rides on the
merged result's ``supervision`` field, and every *failed* attempt is
appended to the merged timeline as a ``"retry"`` event carrying the
attempt's measured wall seconds.  Retry events live on dedicated
negative streams and the ``"supervisor"`` resource, so they never
perturb the kernel/transfer/reduction totals of the bit-identity
contract.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.device import HostSpec
from repro.gpu.timeline import Timeline
from repro.tracking.executor import TrackingRunResult

__all__ = ["merge_shard_results"]


def merge_shard_results(
    parts: list[TrackingRunResult],
    host: HostSpec,
    wall_seconds: float,
    supervision=None,
) -> TrackingRunResult:
    """Merge shard results (already in global sample order) into one.

    Parameters
    ----------
    parts:
        One :class:`TrackingRunResult` per shard, ordered so that
        concatenating their sample rows reproduces the global sample
        order.  (:func:`~repro.tracking.shards.run_sharded` guarantees this: shards are contiguous
        slices of the field list; a re-sharded task contributes its
        single-sample parts in sample order.)
    host:
        The host model, for recomputing the scalar-CPU comparison time.
    wall_seconds:
        The parent's measured wall-clock for the whole parallel run.
    supervision:
        Optional :class:`~repro.runtime.supervisor.SupervisorReport`
        from the fault-tolerance layer; failed attempts become
        ``"retry"`` timeline events.
    """
    if not parts:
        raise ValueError("nothing to merge")

    lengths = np.concatenate([p.lengths for p in parts], axis=0)
    reasons = np.concatenate([p.reasons for p in parts], axis=0)
    endpoints = np.concatenate([p.endpoints for p in parts], axis=0)

    timeline = Timeline()
    launches = []
    for slot, part in enumerate(parts):
        for ev in part.timeline.events:
            # Serial runs use stream parity 0/1 (the overlap scheme);
            # slot * 2 keeps that parity while separating workers.
            timeline.add(
                ev.kind, ev.label, ev.seconds, stream=slot * 2 + (ev.stream % 2)
            )
        launches.extend(part.launches)

    if supervision is not None:
        for a in supervision.failed_attempts():
            # Negative streams + the "supervisor" resource: visible in
            # traces, invisible to the kernel/transfer/reduction totals.
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
