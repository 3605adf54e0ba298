"""Unit tests for the shard supervisor: policy, taxonomy, escalation.

Everything here runs through :class:`InlineLauncher` — scripted outcomes
on a fake clock — so the retry/backoff/fallback state machine is tested
without spawning a single real process.
"""

import numpy as np
import pytest

from repro.config.spec import RuntimeSpec
from repro.errors import (
    ConfigurationError,
    PoolExhaustedError,
    ShardCrashError,
    ShardError,
    ShardResultError,
    ShardTimeoutError,
)
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.runtime.stage import StageShard
from repro.runtime.supervisor import InlineLauncher, RetryPolicy, ShardSupervisor

pytestmark = pytest.mark.chaos


def run_tasks(tasks, script=None, *, policy=None, fallback=True, plan=None,
              split=None, samples=None, validate=None, run=None,
              max_workers=2):
    launcher = InlineLauncher(script or {})
    sup = ShardSupervisor(
        policy=policy or RetryPolicy(
            max_retries=2, base_delay_s=0.0,
            fallback_to_serial=fallback, fault_plan=plan,
        ),
        max_workers=max_workers,
        launcher=launcher,
    )
    runner = StageShard(
        stage="test",
        unit="task",
        run=run or (lambda task: ("payload", task)),
        validate=validate,
        split=split,
        units=samples,
    )
    outputs = [None] * len(tasks)

    def keep(index, parts):
        outputs[index] = parts

    report = sup.run_tasks(tasks, runner, keep)
    return outputs, report, launcher


class TestRetryPolicy:
    def test_schedule_is_deterministic_from_seed(self):
        a = RetryPolicy(max_retries=5, seed=42)
        b = RetryPolicy(max_retries=5, seed=42)
        for shard in range(4):
            assert a.schedule(shard) == b.schedule(shard)

    def test_different_seeds_and_shards_give_different_jitter(self):
        a = RetryPolicy(max_retries=4, seed=1)
        b = RetryPolicy(max_retries=4, seed=2)
        assert a.schedule(0) != b.schedule(0)
        assert a.schedule(0) != a.schedule(1)

    def test_cap_respected(self):
        p = RetryPolicy(max_retries=20, base_delay_s=0.1, max_delay_s=0.75)
        for attempt in range(1, 21):
            assert 0.0 <= p.delay(3, attempt) <= 0.75

    def test_exponential_growth_before_cap(self):
        p = RetryPolicy(max_retries=4, base_delay_s=0.1, max_delay_s=100.0,
                        jitter=0.0)
        sched = p.schedule(0)
        assert sched == pytest.approx([0.1, 0.2, 0.4, 0.8])

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy().delay(0, 0)
        for timeout in (0.0, -2.0):
            with pytest.raises(ConfigurationError):
                RetryPolicy(shard_timeout_s=timeout)

    def test_from_runtime_defaults_and_hang_rule(self):
        assert RetryPolicy.from_runtime(RuntimeSpec()) == RetryPolicy()
        plain = RetryPolicy.from_runtime(RuntimeSpec(fault_plan="hang:0"))
        assert plain.fault_plan.hang_seconds == 30.0
        timed = RetryPolicy.from_runtime(
            RuntimeSpec(fault_plan="hang:0", shard_timeout_s=1.5))
        assert timed.fault_plan.hang_seconds == 6.0
        policy = RetryPolicy.from_runtime(
            RuntimeSpec(max_retries=4, fallback_to_serial=False,
                        fault_plan="crash:0,corrupt:s3:*"))
        assert (policy.max_retries, policy.fallback_to_serial) == (4, False)
        assert policy.fault_plan.faults == FaultPlan.parse(
            "crash:0,corrupt:s3:*").faults


class TestErrorTaxonomy:
    def test_failure_kinds_map_to_shard_error_subclasses(self):
        # Each outcome a ShardAttempt records names one ShardError subclass.
        kinds = {
            ShardCrashError: "crash",
            ShardTimeoutError: "timeout",
            ShardResultError: "corrupt",
            PoolExhaustedError: "exhausted",
        }
        for cls, kind in kinds.items():
            assert issubclass(cls, ShardError)
            assert cls.kind == kind
            assert cls("x", shard=3, attempt=1).kind == kind

    def test_shard_errors_are_catchable_as_repro_errors(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            raise ShardTimeoutError("deadline", shard=1, attempt=2)


class TestSupervisorStateMachine:
    def test_clean_run_single_attempt_each(self):
        outputs, report, launcher = run_tasks(["a", "b", "c"])
        assert outputs == [[("payload", "a")], [("payload", "b")],
                           [("payload", "c")]]
        assert report.n_failures == 0
        assert report.n_retries == 0
        assert not report.fallbacks and not report.reshards
        assert sorted(launcher.launches) == [(0, 0, "ok"), (1, 0, "ok"),
                                             (2, 0, "ok")]

    def test_transient_failure_is_retried_and_recovers(self):
        outputs, report, _ = run_tasks(
            ["a", "b"], {(0, 0): "crash"})
        assert outputs[0] == [("payload", "a")]
        assert report.n_failures == 1
        assert report.n_retries == 1
        assert report.failure_counts() == {"crash": 1}
        assert not report.fallbacks

    def test_backoff_schedule_followed_deterministically(self):
        policy = RetryPolicy(max_retries=2, base_delay_s=0.25, seed=9)
        _, report, launcher = run_tasks(
            ["a"], {(0, 0): "timeout", (0, 1): "timeout"}, policy=policy)
        waited = [a.backoff_s for a in report.attempts if a.backoff_s > 0]
        assert waited == policy.schedule(0)[: len(waited)]
        # The fake clock actually slept those delays (in order).
        assert launcher.slept == pytest.approx(waited)

    def test_exhaustion_triggers_serial_fallback(self):
        script = {(0, a): "crash" for a in range(3)}
        outputs, report, _ = run_tasks(["a", "b"], script)
        assert outputs[0] == [("payload", "a")]  # recovered in-parent
        assert outputs[1] == [("payload", "b")]
        assert report.fallbacks == [0]
        assert report.n_failures == 3
        serial = [a for a in report.attempts if a.via == "serial"]
        assert len(serial) == 1 and serial[0].outcome == "ok"

    def test_exhaustion_without_fallback_raises_pool_exhausted(self):
        script = {(0, a): "timeout" for a in range(3)}
        with pytest.raises(PoolExhaustedError) as err:
            run_tasks(["a"], script, fallback=False)
        assert err.value.shard == 0

    def test_reshard_subtasks_are_not_retries(self):
        # One real retry (shard 0, attempt 1) before the re-shard; the
        # four single-sample subtask launches are counted by reshards.
        script = {(0, 0): "crash", (0, 1): "crash"}
        outputs, report, _ = run_tasks(
            [[0, 1, 2, 3], [4, 5]],
            script,
            policy=RetryPolicy(max_retries=1, base_delay_s=0.0),
            split=lambda t: [[u] for u in t],
            samples=lambda t: t,
        )
        assert report.n_retries == 1
        assert report.reshards == [0]
        assert outputs[0] == [("payload", [u]) for u in range(4)]
        assert "1 retries, 1 re-shards" in report.summary()

    def test_reshard_splits_before_serial_fallback(self):
        # Task "ab" covers samples 0-1; every pooled attempt of the
        # original shard fails, then the re-shard stage gets one attempt
        # per single-sample subtask (attempt index 3) which succeeds.
        script = {(0, 0): "crash", (0, 1): "crash", (0, 2): "crash"}
        outputs, report, _ = run_tasks(
            ["ab"],
            script,
            split=lambda t: [t[0], t[1]],
            samples=lambda t: range(len(t)),
        )
        assert report.reshards == [0]
        assert not report.fallbacks
        assert outputs[0] == [("payload", "a"), ("payload", "b")]

    def test_corrupt_result_detected_by_validation(self):
        # The first run returns a payload its validator rejects; the
        # rejection is recorded as "corrupt" and the retry recovers.
        calls = []

        def run(task):
            calls.append(task)
            return ("payload", task + ("!" if len(calls) == 1 else ""))

        def validate(task, payload):
            if payload[1].endswith("!"):
                raise ShardResultError("mangled")

        outputs, report, _ = run_tasks(["a"], validate=validate, run=run)
        assert report.failure_counts() == {"corrupt": 1}
        assert outputs[0] == [("payload", "a")]

    def test_scripted_corrupt_is_an_outcome_that_is_retried(self):
        # A digest mismatch reaches the supervisor as outcome "corrupt";
        # no payload is handed to the validator.
        seen = []
        outputs, report, _ = run_tasks(
            ["a"], {(0, 0): "corrupt"},
            validate=lambda task, payload: seen.append(payload))
        assert report.failure_counts() == {"corrupt": 1}
        assert report.n_retries == 1
        assert seen == [("payload", "a")]
        assert outputs[0] == [("payload", "a")]

    def test_fault_plan_drives_inline_outcomes(self):
        plan = FaultPlan(faults=(FaultSpec(kind="crash", shard=1),))
        outputs, report, _ = run_tasks(["a", "b"], plan=plan)
        failed = report.failed_attempts()
        assert [a.shard for a in failed] == [1]
        assert outputs[1] == [("payload", "b")]

    def test_outputs_in_task_order_not_completion_order(self):
        # Shard 0 needs two retries; shard 1 completes immediately —
        # outputs must still line up with task order.
        script = {(0, 0): "crash", (0, 1): "crash"}
        outputs, _, _ = run_tasks(["a", "b"], script)
        assert outputs == [[("payload", "a")], [("payload", "b")]]

    def test_requires_launcher(self):
        with pytest.raises(ConfigurationError):
            ShardSupervisor().run_tasks(
                ["a"], StageShard(stage="test", unit="task", run=lambda t: t),
                lambda index, parts: None,
            )

    def test_invalid_supervisor_config(self):
        with pytest.raises(ConfigurationError):
            ShardSupervisor(RetryPolicy(shard_timeout_s=0.0))
        with pytest.raises(ConfigurationError):
            ShardSupervisor(max_workers=0)


class TestSupervisorReport:
    def test_summary_mentions_kind_counts(self):
        script = {(0, 0): "crash", (1, 0): "timeout"}
        _, report, _ = run_tasks(["a", "b"], script)
        text = report.summary()
        assert "1 crash" in text and "1 timeout" in text
        assert "2 retries" in text

    def test_clean_summary(self):
        _, report, _ = run_tasks(["a"])
        assert "no failures" in report.summary()


class TestFaultPlanParsing:
    def test_parse_shard_sample_and_attempt_forms(self):
        plan = FaultPlan.parse("crash:0,hang:1:*,corrupt:s3:2")
        crash, hang, corrupt = plan.faults
        assert (crash.kind, crash.shard, crash.attempt) == ("crash", 0, 0)
        assert (hang.kind, hang.shard, hang.attempt) == ("hang", 1, -1)
        assert (corrupt.kind, corrupt.sample, corrupt.attempt) == ("corrupt", 3, 2)

    def test_lookup_semantics(self):
        plan = FaultPlan.parse("crash:0,hang:1:*,corrupt:s3")
        assert plan.lookup(0, range(0, 2), 0).kind == "crash"
        assert plan.lookup(0, range(0, 2), 1) is None      # attempt 0 only
        assert plan.lookup(1, range(2, 4), 5).kind == "hang"  # every attempt
        assert plan.lookup(2, range(2, 4), 0).kind == "corrupt"  # sample 3
        assert plan.lookup(2, range(4, 6), 0) is None

    def test_parse_rejects_garbage(self):
        for bad in ("", "explode:0", "crash", "crash:x", "crash:0:y"):
            with pytest.raises(ConfigurationError):
                FaultPlan.parse(bad)

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="crash")  # no target
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="crash", shard=0, sample=1)  # two targets
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="crash", shard=-2)

    def test_rng_jitter_inputs_are_valid(self):
        # default_rng must accept the [seed, shard, attempt] triple.
        v = float(np.random.default_rng([0, 0, 1]).random())
        assert 0.0 <= v < 1.0
