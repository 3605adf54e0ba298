"""End-to-end service tests (ISSUE 9 acceptance).

The headline scenario: the same RunSpec submitted twice concurrently and
once after completion triggers exactly one compute, and all three
responses serve manifests whose deterministic sections are bit-identical
to a direct :func:`~repro.pipeline.run_workflow` run of the same spec.

Also covered: queue-full rejection (in-process and as HTTP 429),
cancel-while-running leaving the artifact store uncorrupted, restart
survivability of the job queue and result cache, the HTTP front-end +
client round trip, and (``-m chaos``) fault-injected jobs under the
service.
"""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.config import RunSpec
from repro.data import dataset1
from repro.errors import (
    ConfigurationError,
    JobQueueFullError,
    JobStateError,
    ServiceError,
    UnknownJobError,
)
from repro.pipeline import run_workflow
from repro.service import (
    ServiceClient,
    ServiceConfig,
    TractographyService,
    serve_http,
)
from repro.telemetry import (
    MetricsRegistry,
    build_manifest,
    deterministic_sections,
    use_registry,
)

#: Small-but-real MCMC settings (mirrors the cache-parity suite's scale).
SPEC_DOC = {
    "sampling": {
        "n_burnin": 20,
        "n_samples": 4,
        "sample_interval": 2,
        "adapt_every": 7,
    },
    "tracking": {"max_steps": 48},
}

DATASET = {"name": "dataset1", "scale": 0.12, "snr": 40.0, "seed": 0}

#: Generous terminal-state timeout: one job is sub-second of compute
#: plus a child-process fork; the margin is for a loaded CI machine.
WAIT_S = 180.0


def make_config(root, **kw) -> ServiceConfig:
    kw.setdefault("dataset", dict(DATASET))
    kw.setdefault("slots", 2)
    kw.setdefault("queue_limit", 8)
    return ServiceConfig(store_root=str(root), **kw)


def det_blob(manifest: dict) -> str:
    """The bit-identity surface of a manifest, canonically serialized."""
    return json.dumps(deterministic_sections(manifest), sort_keys=True)


def wait_for_state(svc, job_id, state, timeout_s=30.0):
    """Poll until the job reports ``state`` (for catching 'running')."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        view = svc.status(job_id)
        if view["state"] == state:
            return view
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never reached {state!r}")


@pytest.fixture(scope="module")
def direct_manifest():
    """A direct (serviceless) run of SPEC_DOC — the parity reference."""
    phantom = dataset1(
        scale=DATASET["scale"], snr=DATASET["snr"], seed=DATASET["seed"]
    )
    spec = RunSpec.from_dict(SPEC_DOC)
    registry = MetricsRegistry()
    with use_registry(registry):
        wr = run_workflow(phantom, spec=spec)
    return build_manifest(registry, config=spec.to_dict(), cache=wr.cache)


class TestAcceptance:
    """Same spec twice concurrently + once after -> exactly one compute."""

    @pytest.fixture(scope="class")
    def scenario(self, tmp_path_factory, direct_manifest):
        root = tmp_path_factory.mktemp("svc-acceptance")
        svc = TractographyService(make_config(root))
        # Scheduler not started yet: both submissions are guaranteed
        # to land before the first compute begins ("concurrently").
        first = svc.submit({"spec": SPEC_DOC})
        second = svc.submit({"spec": SPEC_DOC})
        with svc:
            final = svc.wait(first["job_id"], timeout=WAIT_S)
            third = svc.submit({"spec": SPEC_DOC})
            manifests = [
                svc.result(v["job_id"]) for v in (first, second, third)
            ]
            yield {
                "svc": svc,
                "first": first,
                "second": second,
                "third": third,
                "final": final,
                "manifests": manifests,
            }

    def test_concurrent_duplicates_coalesce(self, scenario):
        assert scenario["first"]["job_id"] == scenario["second"]["job_id"]
        assert scenario["first"]["coalesced"] is False
        assert scenario["second"]["coalesced"] is True

    def test_exactly_one_compute(self, scenario):
        assert scenario["final"]["state"] == "done"
        assert scenario["final"]["runs"] == 1
        # the store holds exactly one entry per stage
        store = scenario["svc"].store
        for stage in ("sampling", "tracking"):
            entries = [
                p
                for p in (store.root / stage).iterdir()
                if (p / "entry.json").is_file()
            ]
            assert len(entries) == 1, f"{stage}: {entries}"

    def test_post_completion_submit_is_cache_hit(self, scenario):
        third = scenario["third"]
        assert third["cache_hit"] is True
        assert third["state"] == "done"
        assert third["cache_hits"] >= 1  # flagged in the persisted record

    def test_all_responses_identical(self, scenario):
        a, b, c = scenario["manifests"]
        assert a == b == c

    def test_bitwise_identical_to_direct_run(self, scenario, direct_manifest):
        assert det_blob(scenario["manifests"][0]) == det_blob(direct_manifest)

    def test_manifest_carries_submitted_config(self, scenario):
        manifest = scenario["manifests"][0]
        submitted = RunSpec.from_dict(SPEC_DOC)
        assert manifest["config_hash"] == submitted.content_hash()
        assert manifest["meta"]["job_id"] == scenario["first"]["job_id"]
        assert manifest["meta"]["dataset"] == DATASET
        # the cold compute is recorded: neither stage was a store hit
        assert manifest["cache"]["sampling_hit"] is False
        assert manifest["cache"]["tracking_hit"] is False


class TestBackpressure:
    def test_queue_full_rejects_explicitly(self, tmp_path):
        svc = TractographyService(
            make_config(tmp_path, slots=1, queue_limit=1)
        )
        # scheduler intentionally not started: nothing drains
        svc.submit({"spec": SPEC_DOC})
        other = {**SPEC_DOC, "tracking": {"max_steps": 64}}
        with pytest.raises(JobQueueFullError, match="retry later"):
            svc.submit({"spec": other})
        # the rejected job left no record behind
        assert sum(svc.stats()["jobs"].values()) == 1

    def test_duplicate_of_queued_job_is_not_rejected(self, tmp_path):
        """Coalescing wins over backpressure: a duplicate of an admitted
        job attaches to it even when the queue is at capacity."""
        svc = TractographyService(
            make_config(tmp_path, slots=1, queue_limit=1)
        )
        first = svc.submit({"spec": SPEC_DOC})
        again = svc.submit({"spec": SPEC_DOC})
        assert again["job_id"] == first["job_id"]
        assert again["coalesced"] is True

    def test_invalid_request_rejected_before_admission(self, tmp_path):
        svc = TractographyService(make_config(tmp_path))
        with pytest.raises(ConfigurationError):
            svc.submit({"spec": {"smapling": {}}})
        with pytest.raises(ConfigurationError):
            svc.submit({"spec": SPEC_DOC, "dataset": {"name": "nope"}})
        assert svc.stats()["jobs"] == {}


class TestCancel:
    #: Big enough to still be running when cancel arrives.
    SLOW_DOC = {
        "sampling": {"n_burnin": 2000, "n_samples": 40, "sample_interval": 4},
        "tracking": {"max_steps": 48},
    }

    def test_cancel_running_leaves_store_uncorrupted(self, tmp_path):
        with TractographyService(make_config(tmp_path, slots=1)) as svc:
            view = svc.submit({"spec": self.SLOW_DOC})
            wait_for_state(svc, view["job_id"], "running")
            svc.cancel(view["job_id"])
            final = svc.wait(view["job_id"], timeout=WAIT_S)
            assert final["state"] == "cancelled"
            assert final["manifest_available"] is False
            with pytest.raises(JobStateError):
                svc.result(view["job_id"])
            # the kill corrupted nothing: every published entry re-hashes
            report = svc.store.verify()
            assert report["corrupt"] == []
            # and the service keeps working: a fresh job completes
            ok = svc.submit({"spec": SPEC_DOC})
            assert svc.wait(ok["job_id"], timeout=WAIT_S)["state"] == "done"

    def test_cancel_queued_never_runs(self, tmp_path):
        svc = TractographyService(make_config(tmp_path))
        view = svc.submit({"spec": SPEC_DOC})
        cancelled = svc.cancel(view["job_id"])
        assert cancelled["state"] == "cancelled"
        assert cancelled["runs"] == 0
        # idempotent
        assert svc.cancel(view["job_id"])["state"] == "cancelled"

    def test_resubmit_after_cancel_recomputes(self, tmp_path):
        svc = TractographyService(make_config(tmp_path))
        view = svc.submit({"spec": SPEC_DOC})
        svc.cancel(view["job_id"])
        again = svc.submit({"spec": SPEC_DOC})
        assert again["job_id"] == view["job_id"]
        assert again["state"] == "queued"
        assert again["requeues"] == 1


class TestRestart:
    def test_queue_survives_restart(self, tmp_path):
        first = TractographyService(make_config(tmp_path))
        view = first.submit({"spec": SPEC_DOC})
        first.stop()  # scheduler never ran; job persisted as queued

        second = TractographyService(make_config(tmp_path))
        recovered = second.status(view["job_id"])
        assert recovered["state"] == "queued"
        with second:
            assert (
                second.wait(view["job_id"], timeout=WAIT_S)["state"] == "done"
            )

        # a third instance serves the result cache with no scheduler
        third = TractographyService(make_config(tmp_path))
        hit = third.submit({"spec": SPEC_DOC})
        assert hit["cache_hit"] is True
        assert third.result(view["job_id"])["config_hash"]

    def test_interrupted_running_job_requeues(self, tmp_path):
        svc = TractographyService(make_config(tmp_path))
        view = svc.submit({"spec": SPEC_DOC})
        # simulate dying mid-run: persist the record as running
        rec = svc.jobstore.load(view["job_id"])
        rec.transition("running")
        svc.jobstore.save(rec)

        revived = TractographyService(make_config(tmp_path))
        assert revived.status(view["job_id"])["state"] == "queued"
        assert revived.status(view["job_id"])["requeues"] >= 1


class TestHTTP:
    @pytest.fixture(scope="class")
    def served(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("svc-http")
        svc = TractographyService(make_config(root))
        server = serve_http(svc)
        import threading

        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        with svc:
            yield ServiceClient(server.url), svc
        server.shutdown()
        server.server_close()

    def test_round_trip(self, served):
        client, _ = served
        assert client.health()["ok"] is True
        view = client.submit(SPEC_DOC)
        final = client.wait(view["job_id"], timeout_s=WAIT_S)
        assert final["state"] == "done"
        manifest = client.result(view["job_id"])
        assert manifest["meta"]["job_id"] == view["job_id"]
        # identical resubmission over the wire is a cache hit
        again = client.submit(SPEC_DOC)
        assert again["cache_hit"] is True
        stats = client.stats()
        assert stats["jobs"]["done"] >= 1

    def test_unknown_job_is_404(self, served):
        client, _ = served
        with pytest.raises(UnknownJobError, match="404"):
            client.status("j-doesnotexist")

    def test_invalid_spec_is_400(self, served):
        client, _ = served
        with pytest.raises(ServiceError, match="400"):
            client.submit({"smapling": {"n_samples": 4}})

    def test_result_before_done_is_409(self, tmp_path):
        svc = TractographyService(make_config(tmp_path))  # no scheduler
        server = serve_http(svc)
        import threading

        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            client = ServiceClient(server.url)
            view = client.submit(SPEC_DOC)
            assert view["state"] == "queued"
            with pytest.raises(JobStateError, match="409"):
                client.result(view["job_id"])
        finally:
            server.shutdown()
            server.server_close()

    def test_queue_full_is_429_with_retry_after(self, tmp_path):
        svc = TractographyService(
            make_config(tmp_path, slots=1, queue_limit=1)
        )  # no scheduler: the queue cannot drain
        server = serve_http(svc)
        import threading

        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            client = ServiceClient(server.url)
            client.submit(SPEC_DOC)
            other = {**SPEC_DOC, "tracking": {"max_steps": 64}}
            with pytest.raises(JobQueueFullError, match="429"):
                client.submit(other)
            # raw check: the 429 carries Retry-After
            req = urllib.request.Request(
                server.url + "/jobs",
                data=json.dumps({"spec": other}).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(req, timeout=10)
            assert err.value.code == 429
            assert err.value.headers["Retry-After"] is not None
        finally:
            server.shutdown()
            server.server_close()


@pytest.mark.chaos
class TestServiceChaos:
    """Fault injection *under the service*: jobs recover or fail cleanly."""

    FAULT_DOC = {
        **SPEC_DOC,
        "runtime": {"n_workers": 2, "fault_plan": "crash:0"},
    }

    def test_injected_crash_recovers_bit_identical(
        self, tmp_path, direct_manifest
    ):
        """A job whose shard 0 crashes on first attempt must retry,
        complete, and serve a manifest bit-identical to the clean direct
        run.  The store is fresh so the faulted job really computes
        (a warm store would serve hits and never exercise the fault).
        The explicit worker budget keeps the clamp from forcing the job
        serial (faults only fire on the sharded path)."""
        with TractographyService(
            make_config(tmp_path, slots=1, worker_budget=2)
        ) as svc:
            view = svc.submit({"spec": self.FAULT_DOC})
            final = svc.wait(view["job_id"], timeout=WAIT_S)
            assert final["state"] == "done", final.get("error")
            manifest = svc.result(view["job_id"])
            assert det_blob(manifest) == det_blob(direct_manifest)
            assert svc.store.verify()["corrupt"] == []

    def test_unrecoverable_fault_fails_cleanly(self, tmp_path):
        # Sample-targeted fault: whichever shard owns sample 0 crashes
        # on every attempt, and re-sharding cannot isolate it away; with
        # the serial fallback off the stage exhausts its pool.
        doc = {
            **SPEC_DOC,
            "runtime": {
                "n_workers": 2,
                "fault_plan": "crash:s0:*",
                "max_retries": 1,
                "fallback_to_serial": False,
            },
        }
        with TractographyService(
            make_config(tmp_path, slots=1, worker_budget=2)
        ) as svc:
            view = svc.submit({"spec": doc})
            final = svc.wait(view["job_id"], timeout=WAIT_S)
            assert final["state"] == "failed"
            assert final["error"]
            with pytest.raises(JobStateError):
                svc.result(view["job_id"])
            # the failure poisoned nothing: a clean job still completes
            ok = svc.submit({"spec": SPEC_DOC})
            assert svc.wait(ok["job_id"], timeout=WAIT_S)["state"] == "done"
