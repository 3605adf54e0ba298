"""Shard supervision: timeouts, retries, re-sharding, serial fallback.

PR 1's process backend ran its shards through a bare
``ProcessPoolExecutor`` — one crashed or hung worker killed the whole
tracking run.  :class:`ShardSupervisor` replaces that with a supervised
pool built for long sweeps:

* every shard runs in its **own worker process** with an optional
  per-shard deadline (``shard_timeout_s``), so a hung worker is killed
  and retried instead of stalling the run;
* failures are classified into the :mod:`repro.errors` taxonomy —
  :class:`~repro.errors.ShardCrashError` (process died or raised),
  :class:`~repro.errors.ShardTimeoutError` (deadline exceeded),
  :class:`~repro.errors.ShardResultError` (payload failed its transport
  digest or the stage's validator);
* failed shards are retried up to ``RetryPolicy.max_retries`` times with
  capped exponential backoff and **seeded, deterministic jitter** — the
  same seed always yields the same delay schedule, so chaos tests are
  reproducible;
* a shard that exhausts its retries is **re-sharded**: split into
  single-unit subtasks (one tracking sample, or one bedpost voxel
  block — see :mod:`repro.runtime.stage`), each given one fresh process
  attempt on the surviving pool (a fault pinned to one unit no longer
  poisons its shard-mates);
* work that still fails degrades to an **in-parent serial run** of the
  very same task (the stage's own serial code path), unless
  ``fallback_to_serial=False``, in which case
  :class:`~repro.errors.PoolExhaustedError` propagates.

One frozen :class:`RetryPolicy` carries the whole supervision contract
(retries, backoff, deadline, fallback, fault plan) from the run spec's
``runtime`` section to the supervisor; both sharded stages hold it as
their ``supervision`` field.

Determinism: a shard task is a pure function of its inputs, so *where*
it finally succeeds — first try, third retry, re-shard, or in-parent —
cannot change its payload.  Every execution site runs the task through
:func:`_run_scoped`, under a fresh metrics registry whose snapshot rides
back with the payload, and the supervisor delivers payloads and folds
snapshots in task order (never completion order), so the stage's merge
and the deterministic telemetry stay bit-identical to a clean serial
run.

Transport integrity: a worker ships ``sha256(blob) + blob`` of its
pickled payload and the launcher recomputes the digest, so a payload
damaged on the way back is an outcome ``"corrupt"`` whatever the stage.

Fault injection (:class:`~repro.runtime.faults.FaultPlan`) is applied by
the *worker entry point*, never by the in-parent fallback: the fallback
runs the real code, which is what guarantees forward progress.  The
``corrupt`` fault flips one byte of the pickled payload after hashing,
so it exercises exactly the digest check.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import resource
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _conn_wait
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.errors import ConfigurationError, PoolExhaustedError, ShardResultError
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.telemetry import MetricsRegistry, get_registry, use_registry

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.config.spec import RuntimeSpec
    from repro.runtime.stage import StageShard

__all__ = [
    "RetryPolicy",
    "ShardAttempt",
    "SupervisorReport",
    "ShardSupervisor",
    "ProcessLauncher",
    "InlineLauncher",
]

#: Cap on a single blocking poll, so queued retries start on time even
#: while another shard is mid-flight.
_POLL_CAP_S = 0.5


@dataclass(frozen=True)
class RetryPolicy:
    """The supervision contract of a sharded stage, validated once.

    ``max_retries`` failed pool attempts per shard are retried before
    re-sharding; ``shard_timeout_s`` is the per-attempt deadline (None
    disables the hang watchdog); ``fallback_to_serial`` runs exhausted
    work in-parent instead of raising
    :class:`~repro.errors.PoolExhaustedError`; ``fault_plan`` injects
    deterministic test faults (None in production).

    The delay before retry ``attempt`` (1-based) of shard ``shard`` is::

        min(max_delay_s, base_delay_s * 2**(attempt-1)) * (1 - jitter * u)

    where ``u ~ U[0, 1)`` is drawn from ``default_rng([seed, shard,
    attempt])`` — a pure function of the policy seed and the retry
    coordinates, so the whole schedule is reproducible and two shards
    never share jitter.
    """

    max_retries: int = 2
    base_delay_s: float = 0.05
    max_delay_s: float = 1.0
    jitter: float = 0.5
    seed: int = 0
    shard_timeout_s: float | None = None
    fallback_to_serial: bool = True
    fault_plan: FaultPlan | None = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ConfigurationError("backoff delays must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if self.shard_timeout_s is not None and self.shard_timeout_s <= 0:
            raise ConfigurationError(
                f"shard_timeout_s must be > 0 or None, got {self.shard_timeout_s}"
            )

    @classmethod
    def from_runtime(cls, runtime: "RuntimeSpec") -> "RetryPolicy":
        """The policy a run spec's ``runtime`` section describes.

        An injected hang sleeps 4x the timeout, else 30 s, so it never
        outlives a missing timeout by more than that.
        """
        timeout = runtime.shard_timeout_s
        plan = None
        if runtime.fault_plan:
            plan = FaultPlan.parse(
                runtime.fault_plan,
                hang_seconds=timeout * 4 if timeout else 30.0,
            )
        return cls(
            max_retries=runtime.max_retries,
            shard_timeout_s=timeout,
            fallback_to_serial=runtime.fallback_to_serial,
            fault_plan=plan,
        )

    def delay(self, shard: int, attempt: int) -> float:
        """Seconds to wait before launching retry ``attempt`` (>= 1)."""
        if attempt < 1:
            raise ConfigurationError(f"attempt must be >= 1, got {attempt}")
        base = min(self.max_delay_s, self.base_delay_s * 2.0 ** (attempt - 1))
        u = float(np.random.default_rng([self.seed, shard, attempt]).random())
        return base * (1.0 - self.jitter * u)

    def schedule(self, shard: int) -> list[float]:
        """The full deterministic delay schedule for one shard."""
        return [self.delay(shard, a) for a in range(1, self.max_retries + 1)]


@dataclass(frozen=True)
class ShardAttempt:
    """One recorded execution attempt of one shard.

    ``via`` records the execution stage: ``"pool"`` (supervised worker
    process), ``"reshard"`` (single-sample subtask after retry
    exhaustion), or ``"serial"`` (in-parent fallback).
    """

    shard: int
    attempt: int
    outcome: str  # "ok" | "crash" | "timeout" | "corrupt"
    seconds: float
    via: str = "pool"
    backoff_s: float = 0.0


@dataclass
class SupervisorReport:
    """What the supervisor did: every attempt, re-shard, and fallback."""

    n_shards: int = 0
    attempts: list[ShardAttempt] = field(default_factory=list)
    reshards: list[int] = field(default_factory=list)
    fallbacks: list[int] = field(default_factory=list)

    @property
    def n_retries(self) -> int:
        """Pool launches beyond each shard's first attempt.

        Re-shard subtask launches are not retries: :attr:`reshards`
        already counts them.
        """
        return sum(1 for a in self.attempts if a.attempt > 0 and a.via == "pool")

    @property
    def n_failures(self) -> int:
        """Total failed attempts across every shard."""
        return sum(1 for a in self.attempts if a.outcome != "ok")

    def failure_counts(self) -> dict[str, int]:
        """Failures by taxonomy kind (crash / timeout / corrupt)."""
        out: dict[str, int] = {}
        for a in self.attempts:
            if a.outcome != "ok":
                out[a.outcome] = out.get(a.outcome, 0) + 1
        return out

    def failed_attempts(self) -> list[ShardAttempt]:
        """The attempts that did not return a valid payload."""
        return [a for a in self.attempts if a.outcome != "ok"]

    def summary(self) -> str:
        """One-line account, e.g. for CLI output."""
        if not self.n_failures:
            return f"{self.n_shards} shards, no failures"
        kinds = ", ".join(
            f"{n} {k}" for k, n in sorted(self.failure_counts().items())
        )
        return (
            f"{self.n_shards} shards: recovered {self.n_failures} failed "
            f"attempts ({kinds}); {self.n_retries} retries, "
            f"{len(self.reshards)} re-shards, "
            f"{len(self.fallbacks)} serial fallbacks"
        )


def _run_scoped(run: Callable[[Any], Any], task: Any) -> tuple[Any, dict]:
    """Run one task under a fresh registry: ``(payload, snapshot)``.

    The one way a shard task runs — in a worker, in a launcher, in the
    serial fallback, or as the executor's single in-parent task — so no
    stage counts into whatever registry a forked worker inherited, and
    the parent folds every task's telemetry the same way.

    The snapshot also carries what the task cost the process running
    it, from ``getrusage`` at entry and exit: CPU seconds as the timer
    ``runtime.worker_cpu_s`` and minor page faults as the ops counter
    ``runtime.worker_minflt`` (measured, so not deterministic).
    """
    local = MetricsRegistry()
    before = resource.getrusage(resource.RUSAGE_SELF)
    with use_registry(local):
        payload = run(task)
    after = resource.getrusage(resource.RUSAGE_SELF)
    local.add_time(
        "runtime.worker_cpu_s",
        (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime),
    )
    local.count(
        "runtime.worker_minflt",
        after.ru_minflt - before.ru_minflt,
        deterministic=False,
    )
    return payload, local.snapshot()


class _TaskOrder:
    """The one task-order buffer: fold and deliver tasks in task order.

    Results land keyed by ``(task_index, part_index)`` slots, in any
    completion order, as :func:`_run_scoped` pairs.  Once every earlier
    task has been delivered and a task has all its expected parts, their
    snapshots merge into the active registry in part order, tagged
    ``worker = part ordinal + 1`` across the run, and the bare payloads
    go to ``deliver(index, payloads)`` and are released — so parent
    memory is bounded by the completion skew, not the run size.
    """

    def __init__(
        self, n_tasks: int, deliver: Callable[[int, list[Any]], None]
    ) -> None:
        self.parts: list[dict[int, tuple[Any, dict]]] = [{} for _ in range(n_tasks)]
        self.expected = [1] * n_tasks
        self.deliver = deliver
        self.next_task = 0
        self.n_folded = 0

    def store(self, slot: tuple[int, int], result: tuple[Any, dict]) -> None:
        """Record one part; deliver every task it completes, in order."""
        index, part = slot
        self.parts[index][part] = result
        registry = get_registry()
        while (
            self.next_task < len(self.parts)
            and len(self.parts[self.next_task]) == self.expected[self.next_task]
        ):
            index = self.next_task
            done, self.parts[index] = self.parts[index], {}
            self.next_task += 1
            payloads = []
            for k in sorted(done):
                payload, snapshot = done[k]
                self.n_folded += 1
                registry.merge_snapshot(snapshot, worker=self.n_folded)
                payloads.append(payload)
            self.deliver(index, payloads)

    def reshard(self, index: int, n_parts: int) -> None:
        """A task now completes only once all ``n_parts`` subtasks land."""
        self.expected[index] = n_parts


class _Job:
    """Mutable bookkeeping for one in-flight (or queued) attempt."""

    __slots__ = (
        "shard", "task", "samples", "attempt", "stage", "slot",
        "not_before", "backoff_s", "process", "conn", "started", "deadline",
    )

    def __init__(self, shard, task, samples, attempt, stage, slot,
                 not_before=0.0, backoff_s=0.0):
        self.shard = shard
        self.task = task
        self.samples = samples
        self.attempt = attempt
        self.stage = stage  # "pool" | "reshard"
        self.slot = slot    # (task_index, part_index)
        self.not_before = not_before
        self.backoff_s = backoff_s
        self.process = None
        self.conn = None
        self.started = 0.0
        self.deadline = None


#: Message tags on a worker's result pipe: a digest-framed payload, or
#: the text of an exception the task raised.
_PAYLOAD, _RAISED = b"p", b"r"
_DIGEST_BYTES = hashlib.sha256().digest_size


def _worker_entry(conn, run_fn, task, fault_kind, hang_seconds):
    """Worker process entry: apply any injected fault, run, ship payload.

    The payload travels as ``sha256(blob) + blob`` of its pickle, which
    :meth:`ProcessLauncher.poll` checks.  Crashes are simulated with
    ``os._exit`` (no exception, no cleanup — the closest a test can get
    to a segfault); hangs sleep until the supervisor's deadline kills
    the process; corruption runs the *real* task and flips one byte of
    the blob after hashing, exercising the digest check.
    """
    try:
        if fault_kind == "hang":
            time.sleep(hang_seconds)
        if fault_kind == "crash":
            os._exit(13)
        blob = pickle.dumps(_run_scoped(run_fn, task))
        digest = hashlib.sha256(blob).digest()
        if fault_kind == "corrupt":
            blob = bytearray(blob)
            blob[len(blob) // 2] ^= 0xFF
        conn.send_bytes(_PAYLOAD + digest + blob)
    except BaseException as exc:  # noqa: BLE001 — report, then die
        try:
            conn.send_bytes(_RAISED + f"{type(exc).__name__}: {exc}".encode())
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass


def _receive(conn) -> tuple[str, Any]:
    """Read one worker message; check a payload against its digest."""
    try:
        message = memoryview(conn.recv_bytes())
    except (EOFError, OSError):
        return "crash", "result pipe closed unexpectedly"
    if message[:1] != _PAYLOAD:
        return "crash", bytes(message[1:]).decode(errors="replace")
    digest = message[1 : 1 + _DIGEST_BYTES]
    blob = message[1 + _DIGEST_BYTES :]
    if hashlib.sha256(blob).digest() != digest:
        return "corrupt", "payload digest mismatch"
    return "ok", pickle.loads(blob)


class ProcessLauncher:
    """Run attempts in dedicated worker processes (the real launcher)."""

    def __init__(self, ctx) -> None:
        self.ctx = ctx

    def now(self) -> float:
        """Monotonic wall-clock, the time base for deadlines/backoff."""
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        """Block for a backoff delay (no-op for non-positive delays)."""
        if seconds > 0:
            time.sleep(seconds)

    def start(self, job: _Job, runner: StageShard,
              fault: FaultSpec | None, hang_seconds: float,
              timeout_s: float | None) -> None:
        """Spawn a worker process for one attempt and arm its deadline."""
        recv_conn, send_conn = self.ctx.Pipe(duplex=False)
        proc = self.ctx.Process(
            target=_worker_entry,
            args=(
                send_conn,
                runner.run,
                job.task,
                fault.kind if fault is not None else None,
                hang_seconds,
            ),
            daemon=True,
        )
        proc.start()
        send_conn.close()
        job.process = proc
        job.conn = recv_conn
        job.started = self.now()
        job.deadline = None if timeout_s is None else job.started + timeout_s

    def poll(self, jobs: list[_Job], timeout: float | None) -> list[tuple]:
        """Wait for activity; return ``(job, outcome, payload_or_msg)``.

        ``outcome`` is ``"ok"``, ``"crash"``, ``"timeout"``, or
        ``"corrupt"`` (the payload failed its digest) — the stage's
        semantic validation of an ``"ok"`` payload is the supervisor's
        job, not the launcher's.
        """
        handles = [j.conn for j in jobs] + [j.process.sentinel for j in jobs]
        _conn_wait(handles, timeout=timeout)
        finished = []
        now = self.now()
        for job in jobs:
            outcome = None
            payload = None
            # Liveness is snapshotted BEFORE the pipe check: a worker
            # that was already dead here had finished its final send, so
            # its payload is visible to poll().  The reverse order races
            # — pipe empty, send lands, sentinel fires — and misreads a
            # clean exit as a crash, discarding a good payload.
            dead = not job.process.is_alive()
            if job.conn.poll():
                outcome, payload = _receive(job.conn)
            elif dead:
                outcome, payload = "crash", f"worker exit code {job.process.exitcode}"
            elif job.deadline is not None and now >= job.deadline:
                job.process.kill()
                outcome = "timeout"
                payload = f"no result within {job.deadline - job.started:.3f}s"
            if outcome is not None:
                self._reap(job)
                finished.append((job, outcome, payload))
        return finished

    def _reap(self, job: _Job) -> None:
        """Join, close, and forget a job's process — idempotent."""
        try:
            job.process.join(timeout=1.0)
            if job.process.is_alive():
                job.process.kill()
                job.process.join(timeout=1.0)
        except ValueError:
            pass  # process object already closed
        finally:
            try:
                job.conn.close()
            except Exception:
                pass
            try:
                job.process.close()
            except ValueError:
                pass  # still running after kill — leave it to the OS

    def abort(self, jobs: list[_Job]) -> None:
        """Kill and reap every in-flight job (shutdown path)."""
        for job in jobs:
            try:
                job.process.kill()
            except Exception:
                pass
            self._reap(job)


class InlineLauncher:
    """Synchronous scripted launcher for unit tests — no processes.

    ``script`` maps ``(shard, attempt)`` to an outcome: ``"ok"``,
    ``"crash"``, ``"timeout"``, or ``"corrupt"`` (missing keys mean
    "ok").  Time is simulated: ``sleep`` advances a fake clock, so
    backoff schedules can be asserted without real waiting.
    """

    def __init__(self, script: dict[tuple[int, int], str] | None = None) -> None:
        self.script = dict(script or {})
        self.clock = 0.0
        self.launches: list[tuple[int, int, str]] = []
        self.slept: list[float] = []
        self._pending: list[tuple[_Job, StageShard]] = []

    def now(self) -> float:
        """The fake clock's current reading."""
        return self.clock

    def sleep(self, seconds: float) -> None:
        """Advance the fake clock; records the delay for assertions."""
        if seconds > 0:
            self.slept.append(seconds)
            self.clock += seconds

    def start(self, job, runner, fault, hang_seconds, timeout_s) -> None:
        """Queue one attempt with its scripted (or injected) outcome."""
        kind = self.script.get((job.shard, job.attempt), "ok")
        if fault is not None:  # a FaultPlan overrides the script
            kind = fault.kind if fault.kind != "hang" else "timeout"
        self.launches.append((job.shard, job.attempt, kind))
        job.started = self.clock
        self._pending.append((job, runner, kind))

    def poll(self, jobs, timeout) -> list[tuple]:
        """Resolve every queued attempt synchronously, in start order."""
        finished = []
        for job, runner, kind in self._pending:
            if kind == "ok":
                finished.append((job, "ok", _run_scoped(runner.run, job.task)))
            else:
                finished.append((job, kind, f"scripted {kind}"))
            self.clock += 0.001
        self._pending = []
        return finished

    def abort(self, jobs) -> None:
        """Drop queued attempts (shutdown path)."""
        self._pending = []


class ShardSupervisor:
    """Run shard tasks under timeout/retry/fallback supervision.

    Parameters
    ----------
    policy:
        The supervision contract (see :class:`RetryPolicy`): retries and
        their deterministic backoff, the per-attempt deadline, serial
        fallback, and any injected fault plan.
    max_workers:
        Concurrent attempt cap (usually the executor's pool size).
    launcher:
        Execution seam — :class:`ProcessLauncher` in production,
        :class:`InlineLauncher` in unit tests.
    """

    def __init__(
        self,
        policy: RetryPolicy | None = None,
        max_workers: int = 1,
        launcher=None,
    ) -> None:
        if max_workers < 1:
            raise ConfigurationError(f"max_workers must be >= 1, got {max_workers}")
        self.policy = policy if policy is not None else RetryPolicy()
        self.max_workers = max_workers
        self.launcher = launcher

    # -- public entry -------------------------------------------------------

    def run_tasks(
        self,
        tasks: list[Any],
        runner: StageShard,
        on_task_done: Callable[[int, list[Any]], None],
    ) -> SupervisorReport:
        """Execute every task, delivering payloads in task order.

        ``on_task_done(i, parts)`` receives task ``i``'s ordered payloads
        (one element normally; one per unit if the task was re-sharded)
        once tasks ``0..i-1`` have been delivered, whatever the
        completion order; each part's telemetry snapshot is folded into
        the active registry just before.  A callback exception aborts
        in-flight work and propagates, like any supervisor failure.
        """
        if self.launcher is None:
            raise ConfigurationError("ShardSupervisor needs a launcher")
        report = SupervisorReport(n_shards=len(tasks))
        outputs = _TaskOrder(len(tasks), on_task_done)
        queue: deque[_Job] = deque(
            _Job(
                shard=i,
                task=task,
                samples=runner.unit_range(task),
                attempt=0,
                stage="pool",
                slot=(i, 0),
            )
            for i, task in enumerate(tasks)
        )
        running: list[_Job] = []
        try:
            while queue or running:
                now = self.launcher.now()
                self._start_eligible(queue, running, runner, now, outputs, report)
                if running:
                    finished = self.launcher.poll(
                        running, self._poll_timeout(queue, running, now)
                    )
                    # Drop the whole batch from the running set *before*
                    # handling: poll() already reaped these jobs, and
                    # _handle may raise (PoolExhaustedError), after which
                    # abort() must only see genuinely in-flight jobs.
                    for job, _, _ in finished:
                        running.remove(job)
                    for job, outcome, payload in finished:
                        self._handle(
                            job, outcome, payload, runner, queue, outputs, report
                        )
                elif queue:
                    nxt = min(j.not_before for j in queue)
                    self.launcher.sleep(max(0.0, nxt - now))
        except BaseException:
            self.launcher.abort(running)
            raise
        # Every task completed (a failure would have raised), and
        # delivery is monotone — so nothing can still be buffered.
        assert outputs.next_task == len(tasks)
        self._record_telemetry(report)
        return report

    @staticmethod
    def _record_telemetry(report: SupervisorReport) -> None:
        """Fold the run's supervision story into operational counters.

        Retries, timeouts, and fallbacks depend on scheduling accidents
        (and on injected faults), so every counter here is registered
        with ``deterministic=False`` — visible in the manifest's ``ops``
        section, excluded from the bit-identity contract.
        """
        registry = get_registry()
        ops = dict(deterministic=False)
        registry.count("runtime.shards_supervised", report.n_shards, **ops)
        registry.count("runtime.shard_attempts", len(report.attempts), **ops)
        registry.count("runtime.retries", report.n_retries, **ops)
        registry.count("runtime.reshards", len(report.reshards), **ops)
        registry.count("runtime.fallbacks", len(report.fallbacks), **ops)
        for kind, n in report.failure_counts().items():
            registry.count(f"runtime.failures.{kind}", n, **ops)

    # -- scheduling ---------------------------------------------------------

    def _start_eligible(self, queue, running, runner, now, outputs, report) -> None:
        """Launch queued jobs whose backoff elapsed, up to the pool cap."""
        if not queue:
            return
        eligible = [j for j in queue if j.not_before <= now]
        for job in eligible:
            if len(running) >= self.max_workers:
                break
            queue.remove(job)
            plan = self.policy.fault_plan
            fault = None
            hang = 0.0
            if plan is not None:
                fault = plan.lookup(job.shard, job.samples, job.attempt)
                hang = plan.hang_seconds
            try:
                self.launcher.start(
                    job, runner, fault, hang, self.policy.shard_timeout_s
                )
            except OSError as exc:
                # Could not even spawn a worker (fd/pid pressure): treat
                # it as a crash of this attempt so the ladder — retry,
                # re-shard, serial fallback — still applies.
                job.started = now
                self._handle(job, "crash", f"spawn failed: {exc}", runner,
                             queue, outputs, report)
                continue
            running.append(job)

    def _poll_timeout(self, queue, running, now) -> float:
        """How long the next poll may block: nearest deadline or backoff."""
        bounds = [_POLL_CAP_S]
        for job in running:
            if job.deadline is not None:
                bounds.append(max(0.0, job.deadline - now))
        for job in queue:
            bounds.append(max(0.0, job.not_before - now))
        return min(bounds)

    # -- outcome handling ---------------------------------------------------

    def _handle(self, job, outcome, payload, runner, queue, outputs, report):
        """Record one finished attempt; store its payload or escalate."""
        now = self.launcher.now()
        seconds = max(0.0, now - job.started)
        if outcome == "ok":
            error = self._validate(job, payload, runner)
            if error is None:
                report.attempts.append(ShardAttempt(
                    shard=job.shard, attempt=job.attempt, outcome="ok",
                    seconds=seconds, via=job.stage, backoff_s=job.backoff_s,
                ))
                outputs.store(job.slot, payload)
                return
            outcome, payload = "corrupt", str(error)
        report.attempts.append(ShardAttempt(
            shard=job.shard, attempt=job.attempt, outcome=outcome,
            seconds=seconds, via=job.stage, backoff_s=job.backoff_s,
        ))
        self._escalate(job, outcome, str(payload), runner, queue, outputs, report)

    def _validate(self, job, result, runner) -> ShardResultError | None:
        """Check a :func:`_run_scoped` result: its snapshot, then the
        stage's payload validator; return the error instead of raising."""
        framed = isinstance(result, tuple) and len(result) == 2
        snapshot = result[1] if framed else None
        if not isinstance(snapshot, dict):
            return ShardResultError(
                f"shard {job.shard} metrics snapshot must be a dict, got "
                f"{type(snapshot).__name__}",
                shard=job.shard, attempt=job.attempt,
            )
        if runner.validate is None:
            return None
        try:
            runner.validate(job.task, result[0])
        except ShardResultError as exc:
            return exc
        except Exception as exc:  # validator found garbage it couldn't parse
            return ShardResultError(
                f"shard {job.shard} payload failed validation: {exc}",
                shard=job.shard, attempt=job.attempt,
            )
        return None

    def _escalate(self, job, outcome, message, runner, queue, outputs, report):
        """Failed attempt: retry, re-shard, or fall back to serial."""
        retry_budget_left = job.stage == "pool" and job.attempt < self.policy.max_retries
        if retry_budget_left:
            backoff = self.policy.delay(job.shard, job.attempt + 1)
            queue.append(_Job(
                shard=job.shard, task=job.task, samples=job.samples,
                attempt=job.attempt + 1, stage=job.stage, slot=job.slot,
                not_before=self.launcher.now() + backoff, backoff_s=backoff,
            ))
            return
        if (
            job.stage == "pool"
            and runner.split is not None
            and len(job.samples) > 1
        ):
            # Retry budget exhausted: re-shard onto the surviving pool —
            # one single-sample subtask each, one fresh attempt apiece.
            subtasks = runner.split(job.task)
            report.reshards.append(job.shard)
            outputs.reshard(job.slot[0], len(subtasks))
            for k, sub in enumerate(subtasks):
                queue.append(_Job(
                    shard=job.shard, task=sub,
                    samples=runner.unit_range(sub),
                    attempt=job.attempt + 1, stage="reshard",
                    slot=(job.slot[0], k),
                ))
            return
        if not self.policy.fallback_to_serial:
            raise PoolExhaustedError(
                f"shard {job.shard} failed every attempt (last: {outcome}: "
                f"{message}) and serial fallback is disabled",
                shard=job.shard, attempt=job.attempt,
            )
        # Guaranteed forward progress: run the real task in-parent (no
        # fault injection — the fallback IS the serial code path).
        t0 = self.launcher.now()
        result = _run_scoped(runner.run, job.task)
        report.attempts.append(ShardAttempt(
            shard=job.shard, attempt=job.attempt + 1, outcome="ok",
            seconds=max(0.0, self.launcher.now() - t0), via="serial",
        ))
        report.fallbacks.append(job.shard)
        outputs.store(job.slot, result)

