"""Stage-generic shard execution: one contract for every pipeline stage.

PRs 1–2 built a supervised, fault-tolerant, deterministically-merging
process pool — but hardwired to *tracking sample* shards.  Both paper
stages are embarrassingly parallel (bedpost MCMC across voxels, tracking
across sample volumes), so this module factors the stage-independent
machinery out into two pieces:

* :class:`StageShard` — a stage's sharding contract: the picklable pure
  ``run`` function plus the supervisor seams (payload validation,
  re-shard splitting, and the global unit range each task covers).
  Transport integrity is not a seam: the supervisor checks every
  payload's digest the same way for every stage.  The tracking
  instance lives in :mod:`repro.tracking.shards`; the bedpost
  voxel-block instance in :mod:`repro.mcmc.shards`.
* :class:`StageShardExecutor` — the execution policy (pool size plus one
  :class:`~repro.runtime.supervisor.RetryPolicy`) applied to any stage's
  task list, with the shared worker-clamp warning, the
  ``runtime.shards`` span, and a **streaming in-task-order merge**:
  completed task payloads are handed to the caller's ``consume``
  callback as soon as every earlier task has completed, instead of
  gathering the whole result set first.  Out-of-order completions are
  buffered only until the gap fills, so peak parent memory is bounded
  by the completion skew, not the run size.

The runtime, not the stage, owns each task's telemetry: every task runs
under a fresh registry, and its snapshot is merged into the parent's in
task order just before ``consume`` sees the task's bare payloads.

Determinism is unchanged from the sample-sharding design: tasks are
pure functions of their payloads, the supervisor reassembles re-sharded
parts in unit order, and snapshots and payloads arrive in task order
regardless of completion order — so the counter merge and any in-order
fold (array scatter, connectivity absorb) are bit-identical for every
worker count and under every recovery path.
"""

from __future__ import annotations

import logging
import multiprocessing as mp
import os
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ConfigurationError
from repro.runtime.supervisor import (
    ProcessLauncher,
    RetryPolicy,
    ShardSupervisor,
    SupervisorReport,
    _run_scoped,
    _TaskOrder,
)
from repro.telemetry import get_registry

__all__ = ["StageShard", "StageShardExecutor", "default_workers"]

log = logging.getLogger(__name__)


def default_workers() -> int:
    """A sensible pool size for this machine: ``cpu_count - 1``, min 1.

    Leaving one core keeps the merging parent (and the user's shell)
    responsive while the pool is saturated.
    """
    return max(1, (os.cpu_count() or 2) - 1)


def _pool_context() -> mp.context.BaseContext:
    """``fork`` where available (cheap, inherits loaded NumPy), else default."""
    if "fork" in mp.get_all_start_methods():
        return mp.get_context("fork")
    return mp.get_context()


@dataclass(frozen=True)
class StageShard:
    """One pipeline stage's sharding contract.

    Parameters
    ----------
    stage:
        Stage name (``"tracking"``, ``"sampling"``) — used in log and
        telemetry labels only, never in store keys.
    unit:
        Human label for the shardable unit (``"sample"``,
        ``"voxel block"``), used by the shared clamp warning.
    run:
        **Top-level, picklable** pure function of one task returning its
        payload.  Purity is the determinism argument: where the task
        finally succeeds (pool / re-shard / in-parent fallback) cannot
        change its payload.
    validate:
        ``(task, payload) -> None`` raising
        :class:`~repro.errors.ShardResultError` on payloads that cannot
        be genuine ``run`` outputs.  A real payload must always pass.
    split:
        ``task -> [subtasks]`` for re-shard escalation: one single-unit
        subtask per unit, unit order preserved.
    units:
        ``task -> range`` of the *global* unit indices the task covers —
        the coordinate system of ``sN`` fault targets.
    """

    stage: str
    unit: str
    run: Callable[[Any], Any]
    validate: Callable[[Any, Any], None] | None = None
    split: Callable[[Any], list[Any]] | None = None
    units: Callable[[Any], range] | None = None

    def unit_range(self, task: Any) -> range:
        """Global unit indices covered by ``task`` (empty if unknown)."""
        return self.units(task) if self.units is not None else range(0)


class StageShardExecutor:
    """Execution policy for one stage's shard tasks.

    Owns pool sizing (with the once-per-executor clamp warning), the
    supervised run, and the streaming in-task-order hand-off of each
    task's telemetry and payloads to the caller's merge.

    ``n_workers`` is the pool size and ``policy`` the supervision
    contract (:class:`~repro.runtime.supervisor.RetryPolicy`: retries,
    deadline, serial fallback, fault plan).  ``launcher_factory`` is a
    test seam returning a launcher per run (defaults to a fresh
    :class:`~repro.runtime.supervisor.ProcessLauncher`).
    """

    def __init__(
        self,
        n_workers: int,
        policy: RetryPolicy | None = None,
        launcher_factory: Callable[[], Any] | None = None,
    ) -> None:
        if n_workers < 1:
            raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers
        self.policy = policy if policy is not None else RetryPolicy()
        self.launcher_factory = launcher_factory
        self._clamp_logged = False

    def plan_shards(self, shard: StageShard, n_units: int) -> int:
        """Pool size for ``n_units`` shardable units, clamped to the work.

        Shards never outnumber units; an oversized request is counted
        (``runtime.worker_clamps`` ops counter) and logged once per
        executor, with the stage's own unit label.
        """
        if n_units < 1:
            raise ConfigurationError(
                f"{shard.stage}: need at least one {shard.unit} to shard"
            )
        if self.n_workers <= n_units:
            return self.n_workers
        get_registry().count("runtime.worker_clamps", 1, deterministic=False)
        if not self._clamp_logged:
            log.info(
                "clamping n_workers=%d to %d shardable %s(s)",
                self.n_workers,
                n_units,
                shard.unit,
            )
            self._clamp_logged = True
        return n_units

    def run(
        self,
        shard: StageShard,
        tasks: list[Any],
        consume: Callable[[int, list[Any]], None],
    ) -> SupervisorReport | None:
        """Run ``tasks`` under supervision, streaming payloads in order.

        ``consume(task_index, parts)`` receives every task's ordered
        payload parts (one element normally; one per unit after a
        re-shard) **in task order** — task ``i`` is delivered only once
        tasks ``0..i-1`` have been; later completions buffer until the
        gap fills.  Each part's telemetry snapshot is merged into the
        active registry first, with ``worker = part ordinal + 1``.
        Exceptions raised by ``consume`` abort in-flight work and
        propagate.

        A single task with no fault plan runs in-parent (bit-identical
        by purity; nothing to fork for) and no report is returned.
        """
        if not tasks:
            raise ConfigurationError(f"{shard.stage}: no shard tasks to run")
        with get_registry().span(
            "runtime.shards", n_shards=len(tasks), stage=shard.stage
        ):
            if len(tasks) == 1 and self.policy.fault_plan is None:
                result = _run_scoped(shard.run, tasks[0])
                _TaskOrder(1, consume).store((0, 0), result)
                return None
            launcher = (
                self.launcher_factory()
                if self.launcher_factory is not None
                else ProcessLauncher(_pool_context())
            )
            supervisor = ShardSupervisor(
                policy=self.policy,
                max_workers=min(self.n_workers, len(tasks)),
                launcher=launcher,
            )
            return supervisor.run_tasks(tasks, shard, consume)
