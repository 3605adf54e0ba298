"""The service scheduler: event-driven waits, the wake pipe, long-polls.

The scheduler thread has no tick.  It blocks on its running children's
exit handles plus a wake pipe, so an idle service costs no CPU and a
stop returns at once.  Each job builds its phantom in its own child, so
a slow build holds up no other job.  No wall-clock bound here is tighter
than 1 s; ``perfbench`` measures the latency.
"""

import contextlib
import json
import multiprocessing as mp
import os
import signal
import threading
import time
from pathlib import Path

import pytest

import repro.service.service as service_mod
import repro.service.worker as worker_mod
from repro.config import RunSpec
from repro.errors import ServiceError
from repro.pipeline import run_workflow
from repro.service import (
    ServiceClient,
    ServiceConfig,
    TractographyService,
    serve_http,
)
from repro.service.worker import build_phantom
from repro.telemetry import (
    MetricsRegistry,
    build_manifest,
    deterministic_sections,
    use_registry,
)

DATASET = {"name": "dataset1", "scale": 0.12, "snr": 40.0, "seed": 0}

SAMPLING = {"n_burnin": 20, "n_samples": 4, "sample_interval": 2, "adapt_every": 7}

WAIT_S = 180.0


def spec_doc(max_steps: int) -> dict:
    return {"sampling": dict(SAMPLING), "tracking": {"max_steps": max_steps}}


def make_service(root, **kw) -> TractographyService:
    kw.setdefault("dataset", dict(DATASET))
    kw.setdefault("slots", 2)
    kw.setdefault("queue_limit", 8)
    return TractographyService(ServiceConfig(store_root=str(root), **kw))


def det_blob(manifest: dict) -> str:
    return json.dumps(deterministic_sections(manifest), sort_keys=True)


class TestIdle:
    def test_idle_loop_does_not_spin(self, tmp_path):
        svc = make_service(tmp_path)
        passes = []
        reap = svc._reap
        svc._reap = lambda: (passes.append(1), reap())
        with svc:
            time.sleep(0.5)
        assert len(passes) <= 2

    def test_idle_stop_is_prompt(self, tmp_path):
        svc = make_service(tmp_path)
        svc.start()
        time.sleep(0.1)
        t0 = time.monotonic()
        svc.stop()
        assert time.monotonic() - t0 < 1.0

    @pytest.mark.skipif(
        not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd"
    )
    def test_start_stop_closes_wake_pipe(self, tmp_path):
        # Warm up once so lazily opened descriptors are not counted.
        make_service(tmp_path / "warm").stop()
        before = len(os.listdir("/proc/self/fd"))
        for i in range(20):
            svc = make_service(tmp_path / f"s{i}")
            svc.start()
            svc.stop()
        assert len(os.listdir("/proc/self/fd")) <= before


class TestDispatch:
    def test_dataset_override_matches_direct_run(self, tmp_path):
        other = {**DATASET, "scale": 0.1, "seed": 3}
        with make_service(tmp_path) as svc:
            view = svc.submit({"spec": spec_doc(40), "dataset": other})
            assert svc.wait(view["job_id"], timeout=WAIT_S)["state"] == "done"
            served = svc.result(view["job_id"])

        spec = RunSpec.from_dict(spec_doc(40))
        registry = MetricsRegistry()
        with use_registry(registry):
            wr = run_workflow(build_phantom(other), spec=spec, use_cache=False)
        direct = build_manifest(registry, config=spec.to_dict(), cache=wr.cache)
        assert det_blob(served) == det_blob(direct)

    @pytest.mark.skipif(
        "fork" not in mp.get_all_start_methods(),
        reason="the patched build must reach the child through fork",
    )
    def test_slow_build_delays_no_other_job(self, tmp_path, monkeypatch):
        # One job's phantom build hangs in its child until released; jobs
        # on the other slot are still dispatched, run and reaped.
        release = tmp_path / "release"
        slow_seed = 3

        def gated(dataset):
            if dataset["seed"] == slow_seed:
                deadline = time.monotonic() + 2 * WAIT_S
                while not release.exists() and time.monotonic() < deadline:
                    time.sleep(0.05)
            return build_phantom(dataset)

        monkeypatch.setattr(worker_mod, "build_phantom", gated)
        with make_service(tmp_path / "store") as svc:
            slow = svc.submit(
                {"spec": spec_doc(40), "dataset": {**DATASET, "seed": slow_seed}}
            )
            for steps in (40, 48):
                view = svc.submit({"spec": spec_doc(steps)})
                assert svc.wait(view["job_id"], timeout=WAIT_S)["state"] == "done"
                assert svc.status(slow["job_id"])["state"] == "running"
            release.touch()
            assert svc.wait(slow["job_id"], timeout=WAIT_S)["state"] == "done"

    def test_stopped_scheduler_forks_nothing(self, tmp_path):
        svc = make_service(tmp_path)
        view = svc.submit({"spec": spec_doc(40)})
        svc._stop.set()
        svc._dispatch()
        assert svc.stats()["running"] == 0
        assert svc.status(view["job_id"])["state"] == "queued"


def _job_with_orphan(job_dir, *args):
    """A job child that forks a long-lived worker, then hangs."""
    worker = mp.get_context("fork").Process(
        target=time.sleep, args=(30,), daemon=True
    )
    worker.start()
    Path(job_dir, "worker.pid").write_text(str(worker.pid))
    time.sleep(60)


needs_pidfd = pytest.mark.skipif(
    not hasattr(os, "pidfd_open") or "fork" not in mp.get_all_start_methods(),
    reason="needs pidfds and the fork start method",
)


@contextlib.contextmanager
def _orphan_job(svc):
    """Submit a :func:`_job_with_orphan` job; yield ``(job_id, worker
    pid)`` once its worker runs, and kill the worker on exit."""
    view = svc.submit({"spec": spec_doc(40)})
    pid_file = svc.jobstore.job_dir(view["job_id"]) / "worker.pid"
    try:
        deadline = time.monotonic() + 20
        while not pid_file.is_file() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert pid_file.is_file()
        yield view["job_id"], int(pid_file.read_text())
    finally:
        if pid_file.is_file():
            try:
                os.kill(int(pid_file.read_text()), signal.SIGKILL)
            except ProcessLookupError:
                pass


@needs_pidfd
def test_cancel_reaps_a_job_whose_workers_outlive_it(tmp_path, monkeypatch):
    # The child's multiprocessing sentinel stays open while its orphaned
    # worker lives; the scheduler must still see the child exit.
    monkeypatch.setattr(service_mod, "run_job_process", _job_with_orphan)
    with make_service(tmp_path) as svc, _orphan_job(svc) as (job_id, _):
        svc.cancel(job_id)
        final = svc.wait(job_id, timeout=10)
        assert final["state"] == "cancelled"


@needs_pidfd
def test_stop_does_not_wait_for_orphaned_workers(tmp_path, monkeypatch):
    # stop() kills the running job; its orphaned worker keeps the job's
    # sentinel open, so stop() must wait on the job's exit alone.
    monkeypatch.setattr(service_mod, "run_job_process", _job_with_orphan)
    svc = make_service(tmp_path)
    svc.start()
    with _orphan_job(svc) as (_, worker_pid):
        t0 = time.monotonic()
        svc.stop()
        assert time.monotonic() - t0 < 1.0
        os.kill(worker_pid, 0)  # the orphan still sleeps


class TestLongPoll:
    @pytest.fixture()
    def served(self, tmp_path):
        svc = make_service(tmp_path)
        server = serve_http(svc)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        with svc:
            yield ServiceClient(server.url), svc
        server.shutdown()
        server.server_close()

    def test_wait_takes_at_most_three_requests(self, served, monkeypatch):
        client, _ = served
        view = client.submit(spec_doc(40))
        paths = []
        request = client._request

        def counting(method, path, body=None):
            paths.append(path)
            return request(method, path, body)

        monkeypatch.setattr(client, "_request", counting)
        final = client.wait(view["job_id"], timeout_s=WAIT_S)
        assert final["state"] == "done"
        assert 1 <= len(paths) <= 3
        assert all("?wait=" in p for p in paths)

    def test_zero_wait_is_a_status_read(self, served):
        client, _ = served
        view = client.submit(spec_doc(48))
        doc = client._request("GET", f"/jobs/{view['job_id']}?wait=0")
        assert doc["job_id"] == view["job_id"]

    def test_early_answers_do_not_spin(self, served, monkeypatch):
        # A server without long-poll support answers at once; the client
        # must pause between requests rather than flood it.
        client, _ = served
        calls = []

        def no_long_poll(method, path, body=None):
            calls.append(path)
            return {"job_id": "j-x", "state": "running"}

        monkeypatch.setattr(client, "_request", no_long_poll)
        with pytest.raises(ServiceError, match="still running"):
            client.wait("j-x", timeout_s=1.0)
        assert len(calls) <= 7

    @pytest.mark.parametrize("raw", ["abc", "-1", "nan", "inf"])
    def test_malformed_wait_is_400(self, served, raw):
        client, _ = served
        view = client.submit(spec_doc(56))
        with pytest.raises(ServiceError, match="400"):
            client._request("GET", f"/jobs/{view['job_id']}?wait={raw}")
