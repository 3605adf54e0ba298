"""The long-running tractography service: queue, scheduler, result cache.

:class:`TractographyService` closes the loop the config and store layers
were built for: a validated :class:`~repro.config.spec.RunSpec` is a
wire-format job description, its content hash is a cache key, and the
artifact store already memoizes both pipeline stages — so identical
requests (the common case under heavy traffic) are served without
recomputation, at two levels:

1. **Result cache** — an exact :func:`~repro.service.jobs.job_key` match
   against a completed job serves that job's stored manifest straight
   from disk, with no compute, no phantom synthesis, and no new worker.
2. **Stage store** — a *new* job whose spec shares stage subtrees with
   earlier work (e.g. a tracking sweep over one sampling config) runs as
   a warm :func:`~repro.pipeline.run_workflow`: the PR-7 store serves
   the matching stages bit-identically and only the rest computes.

Admission is explicitly bounded (:class:`~repro.service.scheduler.
BoundedJobQueue` — overload rejects, never silently queues), duplicate
in-flight submissions coalesce onto the running job, and every job
record persists through the store directory, so the whole queue state
survives a service restart: interrupted jobs requeue, completed jobs
keep serving their manifests.

Execution happens in one non-daemonic child process per job (the
:mod:`~repro.service.worker` entry point), supervised by a single
scheduler thread.  The thread has no tick: it blocks until a child
exits or a submit, requeue or stop writes to its wake pipe.  Each child
builds its own phantom, so a large dataset costs the job, not the
service, and the builds of concurrent jobs run in parallel.  Child
processes make cancellation honest — a running job is terminated, and
the store's atomic publish guarantees the kill cannot corrupt stage
artifacts.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import time
import weakref
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _conn_wait

from repro.errors import JobStateError, UnknownJobError
from repro.runtime.stage import default_workers
from repro.service.jobs import (
    JobRecord,
    JobStore,
    default_dataset,
    job_key,
    parse_job_request,
    validate_dataset,
)
from repro.service.scheduler import BoundedJobQueue, WorkerBudget
from repro.service.worker import run_job_process
from repro.store import ArtifactStore
from repro.telemetry import get_registry

__all__ = ["ServiceConfig", "TractographyService"]


def _service_context() -> mp.context.BaseContext:
    """``fork`` where available (inherits loaded NumPy), else default."""
    if "fork" in mp.get_all_start_methods():
        return mp.get_context("fork")
    return mp.get_context()


def _exit_handle(proc: mp.process.BaseProcess) -> int:
    """A waitable fd that turns readable when ``proc`` itself exits.

    ``proc.sentinel`` is a pipe whose write end every process the job
    forks (its shard workers) inherits, so a killed job would look alive
    until its orphaned workers finish.  A pidfd tracks the child alone;
    it is closed when ``proc`` is collected.  Where pidfds are
    unavailable the sentinel is the fallback.
    """
    try:
        fd = os.pidfd_open(proc.pid)
    except (AttributeError, OSError):
        return proc.sentinel
    weakref.finalize(proc, os.close, fd)
    return fd


@dataclass(frozen=True)
class ServiceConfig:
    """Operator-facing knobs for one service instance.

    Attributes
    ----------
    store_root:
        The artifact-store root; job records, manifests, and stage
        artifacts all live beneath it, which is what makes the service
        restartable.
    dataset:
        The dataset description jobs run against by default (requests
        may override fields; see :func:`~repro.service.jobs.
        parse_job_request`).
    slots:
        Concurrent jobs (scheduler slots).
    worker_budget:
        Global worker-process budget packed across the slots (default:
        ``cpu_count - 1``); each job gets ``budget // slots`` workers.
    queue_limit:
        Waiting jobs admitted before submissions are rejected.
    """

    store_root: str
    dataset: dict = field(default_factory=default_dataset)
    slots: int = 2
    worker_budget: int = 0
    queue_limit: int = 16

    def __post_init__(self) -> None:
        validate_dataset(self.dataset)
        if self.worker_budget == 0:
            object.__setattr__(self, "worker_budget", default_workers())


class TractographyService:
    """One in-process service instance: submit / status / result / cancel.

    Use as a context manager (``with TractographyService(cfg) as svc:``)
    or call :meth:`start` / :meth:`stop` explicitly.  All public methods
    are thread-safe (the HTTP front-end calls them from handler
    threads).
    """

    def __init__(self, config: ServiceConfig, autostart: bool = False) -> None:
        self.config = config
        self.store = ArtifactStore(config.store_root)
        self.jobstore = JobStore(config.store_root)
        self.queue = BoundedJobQueue(config.queue_limit)
        self.budget = WorkerBudget(config.worker_budget, config.slots)
        self._ctx = _service_context()
        self._lock = threading.RLock()
        self._records: dict[str, JobRecord] = {}
        self._by_key: dict[str, str] = {}
        self._running: dict[str, mp.process.BaseProcess] = {}
        self._exit_handles: dict[str, int] = {}
        self._events: dict[str, threading.Event] = {}
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._wake_w: int | None = None
        self._started_s = time.time()
        self._recover()
        if autostart:
            self.start()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Start the scheduler thread (idempotent)."""
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return
            self._stop.clear()
            wake_r, self._wake_w = os.pipe()
            os.set_blocking(wake_r, False)
            os.set_blocking(self._wake_w, False)
            self._thread = threading.Thread(
                target=self._loop,
                args=(wake_r, self._wake_w),
                name="repro-serve-scheduler",
                daemon=True,
            )
            self._thread.start()

    def stop(self, terminate_running: bool = True) -> None:
        """Stop scheduling; optionally terminate running workers.

        With ``terminate_running`` (the default) in-flight worker
        processes are killed; their jobs stay ``running`` on disk and
        will be requeued by the next service instance's recovery scan.
        The scheduler thread closes the wake pipe on its way out.
        """
        self._stop.set()
        with self._lock:
            self._wake()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        if terminate_running:
            with self._lock:
                procs = list(self._running.values())
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
            for proc in procs:
                proc.join(timeout=5.0)

    def __enter__(self) -> "TractographyService":
        """Start the scheduler on entry."""
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        """Stop the scheduler (and running workers) on exit."""
        self.stop()

    # -- recovery -----------------------------------------------------------

    def _recover(self) -> None:
        """Rebuild in-memory state from persisted job records.

        Jobs found ``queued`` re-enter the queue; jobs found ``running``
        belonged to a dead service instance (their workers died with it)
        and are requeued; terminal jobs become the result-cache index.
        """
        for rec in self.jobstore.scan():
            self._records[rec.job_id] = rec
            self._by_key[rec.key] = rec.job_id
            self._events[rec.job_id] = threading.Event()
            if rec.state in ("queued", "running"):
                if rec.state == "running":
                    rec.transition("queued")
                    self.jobstore.save(rec)
                self.queue.put(rec.job_id)
            else:
                self._events[rec.job_id].set()

    # -- submission / queries ----------------------------------------------

    def submit(self, request: dict) -> dict:
        """Admit one job request; returns the submit response dict.

        The response is the job's status view plus two flags:
        ``cache_hit`` (an identical completed job's manifest is ready —
        nothing was queued) and ``coalesced`` (an identical job is
        already queued or running — this request attached to it).
        Raises :class:`~repro.errors.JobQueueFullError` when the queue
        is at capacity and :class:`~repro.errors.ConfigurationError` on
        an invalid request.
        """
        dataset, spec = parse_job_request(request, dict(self.config.dataset))
        key = job_key(dataset, spec)
        reg = get_registry()
        reg.count("service.submitted", deterministic=False)
        with self._lock:
            job_id = self._by_key.get(key)
            rec = self._records.get(job_id) if job_id else None
            if rec is not None:
                if rec.state == "done" and self.jobstore.manifest_path(
                    rec.job_id
                ).is_file():
                    rec.cache_hits += 1
                    self.jobstore.save(rec)
                    reg.count("service.cache_hits", deterministic=False)
                    return self._view(rec, cache_hit=True)
                if rec.state in ("queued", "running"):
                    rec.coalesced += 1
                    self.jobstore.save(rec)
                    reg.count("service.coalesced", deterministic=False)
                    return self._view(rec, coalesced=True)
                # failed / cancelled (or done with a lost manifest):
                # requeue the same record for a fresh compute.
                self._admit(rec, requeue=True)
                return self._view(rec)
            rec = JobRecord.new(key, dataset, spec.to_dict())
            self._admit(rec, requeue=False)
            return self._view(rec)

    def _admit(self, rec: JobRecord, requeue: bool) -> None:
        """Queue one record (caller holds the lock); persists on success."""
        reg = get_registry()
        try:
            self.queue.put(rec.job_id)
        except Exception:
            reg.count("service.rejected", deterministic=False)
            raise
        if requeue:
            # Terminal -> queued is not a legal machine edge; a requeue
            # is a fresh lifecycle for the same identity.
            rec.state = "queued"
            rec.requeues += 1
            rec.error = None
            rec.cancel_requested = False
            rec.finished_s = None
        self._records[rec.job_id] = rec
        self._by_key[rec.key] = rec.job_id
        self._events[rec.job_id] = threading.Event()
        self.jobstore.save(rec)
        self._wake()

    def _wake(self) -> None:
        """Wake the scheduler with one byte on its pipe (lock held).

        A no-op before :meth:`start`: the loop's first pass dispatches
        whatever is already queued.
        """
        if self._wake_w is None:
            return
        try:
            os.write(self._wake_w, b"\0")
        except BlockingIOError:
            pass  # the pipe is full, so a wake-up is already pending

    def status(self, job_id: str) -> dict:
        """The job's current status view; raises on unknown ids."""
        with self._lock:
            rec = self._records.get(job_id)
            if rec is None:
                raise UnknownJobError(f"no job {job_id!r}")
            return self._view(rec)

    def result(self, job_id: str) -> dict:
        """A completed job's telemetry manifest (parsed JSON).

        Raises :class:`~repro.errors.JobStateError` while the job is
        still queued/running, and for failed/cancelled jobs (whose
        status view carries the error instead).
        """
        import json

        with self._lock:
            rec = self._records.get(job_id)
            if rec is None:
                raise UnknownJobError(f"no job {job_id!r}")
            if rec.state != "done":
                raise JobStateError(
                    f"job {job_id} is {rec.state}; result available only "
                    "for done jobs"
                )
            path = self.jobstore.manifest_path(job_id)
        return json.loads(path.read_text())

    def cancel(self, job_id: str) -> dict:
        """Cancel a job: dequeue if waiting, terminate its worker if running.

        Terminal jobs are left untouched (cancel is idempotent).  A
        terminated worker cannot corrupt the store — publishes are
        atomic, so a kill mid-publish leaves only a ``tmp/`` orphan for
        ``repro-store gc``.
        """
        with self._lock:
            rec = self._records.get(job_id)
            if rec is None:
                raise UnknownJobError(f"no job {job_id!r}")
            if rec.state == "queued" and self.queue.remove(job_id):
                self._finish(rec, "cancelled")
                return self._view(rec)
            if rec.state == "running":
                rec.cancel_requested = True
                self.jobstore.save(rec)
                proc = self._running.get(job_id)
                if proc is not None and proc.is_alive():
                    proc.terminate()
                return self._view(rec)
            return self._view(rec)

    def wait(self, job_id: str, timeout: float | None = None) -> dict:
        """Block until the job reaches a terminal state; returns its view."""
        with self._lock:
            if job_id not in self._records:
                raise UnknownJobError(f"no job {job_id!r}")
            event = self._events[job_id]
        event.wait(timeout)
        return self.status(job_id)

    def stats(self) -> dict:
        """Operator snapshot: queue depth, running jobs, state counts."""
        with self._lock:
            states: dict[str, int] = {}
            for rec in self._records.values():
                states[rec.state] = states.get(rec.state, 0) + 1
            return {
                "uptime_s": time.time() - self._started_s,
                "queued": len(self.queue),
                "queue_limit": self.queue.limit,
                "running": len(self._running),
                "slots": self.config.slots,
                "worker_budget": self.budget.budget,
                "worker_cap_per_job": self.budget.per_job_cap(),
                "jobs": states,
                "dataset": dict(self.config.dataset),
                "store": {
                    "root": str(self.store.root),
                    **self.store.stats.to_dict(),
                },
            }

    # -- scheduler loop -----------------------------------------------------

    def _loop(self, wake_r: int, wake_w: int) -> None:
        """Single scheduler thread: reap, dispatch, then block until woken.

        One ``wait`` on every running child's exit handle plus the wake
        pipe, with no timeout: the thread runs only when a child exits
        or a submit, requeue or stop writes a byte.  No wake-up is lost.
        The handles are read after ``_dispatch``, a child that exits
        before the wait leaves its handle readable, and a write before
        the wait leaves a byte in the pipe.
        """
        try:
            while not self._stop.is_set():
                self._reap()
                self._dispatch()
                with self._lock:
                    handles = list(self._exit_handles.values())
                _conn_wait(handles + [wake_r])
                try:
                    os.read(wake_r, 1 << 16)  # one read empties the pipe
                except BlockingIOError:
                    pass  # woken by a child, not the pipe
        finally:
            with self._lock:
                if self._wake_w == wake_w:
                    self._wake_w = None
                os.close(wake_w)
            os.close(wake_r)

    def _dispatch(self) -> None:
        """Fill free slots from the queue (FIFO); fork nothing once stopped."""
        while True:
            with self._lock:
                if self._stop.is_set() or len(self._running) >= self.config.slots:
                    return
                job_id = self.queue.pop()
                if job_id is None:
                    return
                rec = self._records[job_id]
                rec.transition("running")
                self.jobstore.save(rec)
                proc = self._ctx.Process(
                    target=run_job_process,
                    args=(
                        str(self.jobstore.job_dir(job_id)),
                        job_id,
                        rec.key,
                        rec.dataset,
                        rec.spec,
                        str(self.store.root),
                        self.budget.per_job_cap(),
                    ),
                    daemon=False,
                    name=f"repro-job-{job_id}",
                )
                proc.start()
                self._running[job_id] = proc
                self._exit_handles[job_id] = _exit_handle(proc)

    def _reap(self) -> None:
        """Fold exited worker processes into terminal job states."""
        with self._lock:
            exited = [
                (job_id, proc)
                for job_id, proc in self._running.items()
                if proc.exitcode is not None
            ]
            for job_id, proc in exited:
                proc.join()
                del self._running[job_id]
                del self._exit_handles[job_id]
                rec = self._records[job_id]
                manifest_ok = self.jobstore.manifest_path(job_id).is_file()
                if rec.cancel_requested:
                    self._finish(rec, "cancelled")
                elif proc.exitcode == 0 and manifest_ok:
                    self._finish(rec, "done")
                else:
                    rec.error = self._worker_error(job_id, proc.exitcode)
                    self._finish(rec, "failed")

    def _worker_error(self, job_id: str, exitcode: int | None) -> str:
        """Best-effort failure description from the worker's ``error.json``."""
        import json

        path = self.jobstore.job_dir(job_id) / "error.json"
        try:
            return str(json.loads(path.read_text())["error"])
        except (OSError, json.JSONDecodeError, KeyError):
            return f"worker exited with code {exitcode} and no error report"

    def _finish(self, rec: JobRecord, state: str) -> None:
        """Terminal transition + persistence + wakeups (lock held)."""
        rec.transition(state)
        self.jobstore.save(rec)
        self._events[rec.job_id].set()
        get_registry().count(f"service.{state}", deterministic=False)

    # -- views --------------------------------------------------------------

    def _view(
        self, rec: JobRecord, cache_hit: bool = False, coalesced: bool = False
    ) -> dict:
        """The JSON-safe status/submit-response form of one record."""
        doc = rec.to_dict()
        doc["cache_hit"] = cache_hit
        doc["coalesced"] = coalesced
        doc["manifest_available"] = self.jobstore.manifest_path(
            rec.job_id
        ).is_file()
        return doc
