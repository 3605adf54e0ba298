"""Unit tests for the stage-generic shard executor (repro.runtime.stage).

Everything runs through :class:`InlineLauncher` via the executor's
``launcher_factory`` seam — scripted outcomes, fake clock, no real
processes — so the streaming in-task-order merge, the shared clamp
warning, and re-shard part ordering are tested in isolation from any
particular pipeline stage.  The one exception drives both stages end to
end at one worker, to show a fault plan reaches the supervisor there.
"""

import logging

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.runtime import StageShard, StageShardExecutor, default_workers
from repro.runtime.faults import FaultPlan
from repro.runtime.supervisor import InlineLauncher, RetryPolicy

pytestmark = pytest.mark.chaos


def _double(task):
    """Toy stage: a task is a list of global unit indices."""
    return [x * 2 for x in task]


#: Tasks are lists of consecutive ints whose values ARE their global
#: unit indices, so ``units`` needs no side table.
TOY = StageShard(
    stage="toy",
    unit="item",
    run=_double,
    split=lambda t: [[x] for x in t],
    units=lambda t: range(t[0], t[0] + len(t)),
)


class ReversedLauncher(InlineLauncher):
    """Resolves queued attempts in *reverse* start order — the adversarial
    completion order for the executor's in-order streaming gate."""

    def poll(self, jobs, timeout):
        return list(reversed(super().poll(jobs, timeout)))


def run_executor(tasks, script=None, *, n_workers=4, launcher_cls=InlineLauncher,
                 **kwargs):
    executor = StageShardExecutor(
        n_workers,
        RetryPolicy(**kwargs),
        launcher_factory=lambda: launcher_cls(script or {}),
    )
    consumed = []
    report = executor.run(
        TOY, tasks, lambda i, parts: consumed.append((i, parts))
    )
    return consumed, report


class TestDefaultWorkers:
    def test_at_least_one(self):
        assert default_workers() >= 1

    def test_executor_rejects_bad_pool_size(self):
        with pytest.raises(ConfigurationError):
            StageShardExecutor(0)


class TestPlanShards:
    def test_clamps_to_unit_count(self):
        executor = StageShardExecutor(8)
        assert executor.plan_shards(TOY, 3) == 3
        assert StageShardExecutor(2).plan_shards(TOY, 3) == 2

    def test_zero_units_rejected(self):
        with pytest.raises(ConfigurationError, match="toy"):
            StageShardExecutor(2).plan_shards(TOY, 0)

    def test_clamp_logged_once_with_stage_unit(self, caplog):
        executor = StageShardExecutor(8)
        with caplog.at_level(logging.INFO, logger="repro.runtime.stage"):
            executor.plan_shards(TOY, 3)
            executor.plan_shards(TOY, 2)
        clamps = [m for m in caplog.messages if "clamping n_workers" in m]
        assert len(clamps) == 1
        assert "item" in clamps[0]


class TestStreamingOrder:
    def test_payloads_consumed_in_task_order(self):
        tasks = [[0], [1], [2], [3]]
        consumed, report = run_executor(tasks)
        assert consumed == [(i, [[2 * i]]) for i in range(4)]
        assert report.n_failures == 0

    def test_adversarial_completion_order_still_streams_in_order(self):
        # ReversedLauncher completes task 3 first: the executor must
        # buffer 3, 2, 1 and flush the moment task 0 lands.
        tasks = [[0], [1], [2], [3]]
        consumed, _ = run_executor(tasks, launcher_cls=ReversedLauncher)
        assert [i for i, _ in consumed] == [0, 1, 2, 3]

    def test_retried_task_gates_later_completions(self):
        # Task 0 crashes once; tasks 1-2 complete first but must wait.
        tasks = [[0], [1], [2]]
        consumed, report = run_executor(tasks, {(0, 0): "crash"})
        assert [i for i, _ in consumed] == [0, 1, 2]
        assert report.n_retries == 1

    def test_reshard_parts_arrive_in_unit_order(self):
        # Every pooled attempt of the 3-unit task fails; the re-shard's
        # single-unit payloads must be delivered as one ordered part list.
        script = {(0, a): "crash" for a in range(3)}
        consumed, report = run_executor([[0, 1, 2], [3]], script, max_retries=2)
        assert consumed == [(0, [[0], [2], [4]]), (1, [[6]])]
        assert report.reshards == [0]

    def test_consume_exception_propagates(self):
        executor = StageShardExecutor(2, launcher_factory=InlineLauncher)

        def boom(i, parts):
            raise RuntimeError("merge failed")

        with pytest.raises(RuntimeError, match="merge failed"):
            executor.run(TOY, [[0], [1]], boom)

    def test_empty_task_list_rejected(self):
        with pytest.raises(ConfigurationError, match="no shard tasks"):
            run_executor([])


class TestInlineSingleTask:
    def test_single_task_runs_in_parent(self):
        def throwing_factory():
            raise AssertionError("no launcher should be built")

        executor = StageShardExecutor(4, launcher_factory=throwing_factory)
        consumed = []
        report = executor.run(
            TOY, [[0, 1]], lambda i, parts: consumed.append((i, parts))
        )
        assert report is None
        assert consumed == [(0, [[0, 2]])]

    def test_fault_plan_disables_the_inline_shortcut(self):
        # A fault plan must reach the supervisor even for one task.
        executor = StageShardExecutor(
            4,
            RetryPolicy(fault_plan=FaultPlan.parse("crash:0")),
            launcher_factory=InlineLauncher,
        )
        consumed = []
        report = executor.run(
            TOY, [[0, 1]], lambda i, parts: consumed.append((i, parts))
        )
        assert report is not None
        assert report.n_failures == 1
        assert consumed == [(0, [[0, 2]])]

    def test_one_worker_stages_honour_a_fault_plan(self):
        # A one-worker stage is the executor's one-task case, so a fault
        # plan reaches the supervisor there too: each stage recovers its
        # crashed task and returns what the fault-free run returns.
        from repro.config import RunSpec
        from repro.data import dataset1
        from repro.pipeline import run_workflow

        phantom = dataset1(scale=0.14, snr=40.0)

        def run(fault_plan):
            return run_workflow(phantom, RunSpec.from_dict({
                "sampling": {"n_burnin": 4, "n_samples": 2,
                             "sample_interval": 1},
                "tracking": {"max_steps": 30},
                "runtime": {"n_workers": 1, "bedpost_workers": 1,
                            "fault_plan": fault_plan},
            }))

        clean, faulted = run(None), run("crash:0")
        assert clean.bedpost.supervision is None
        assert clean.probtrack.run.supervision is None
        for sup in (faulted.bedpost.supervision,
                    faulted.probtrack.run.supervision):
            assert sup is not None
            assert sup.summary() == (
                "1 shards: recovered 1 failed attempts (1 crash); "
                "1 retries, 0 re-shards, 0 serial fallbacks"
            )
        np.testing.assert_array_equal(
            clean.bedpost.samples, faulted.bedpost.samples
        )
        np.testing.assert_array_equal(
            clean.probtrack.run.lengths, faulted.probtrack.run.lengths
        )
