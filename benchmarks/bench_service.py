"""Service throughput benchmark — ``BENCH_service.json``.

Drives one in-process :class:`~repro.service.TractographyService` per
scheduler slot count (1, 2, 4; counts above ``os.cpu_count()`` are not
swept) through the same batch of distinct tracking jobs, twice:

* **cold** — a fresh store: every job really computes (the batch shares
  one sampling config, so after the first job the sampling stage is
  served warm — exactly the tracking-sweep traffic the service is for);
* **warm** — the identical batch resubmitted: every job is an exact
  result-cache hit and is served straight from its stored manifest with
  zero compute.

Reported per slot count: batch wall, jobs/sec, and the warm/cold
speedup.  The acceptance assertions: every warm response is flagged
``cache_hit`` and every job's manifest is byte-identical between the
two passes (the cache serves the same document the cold run wrote).

Slot counts are capped at the core count because on fewer cores than
slots the cold jobs only time-slice the same cores.
"""

from __future__ import annotations

import os
import platform
import time
from pathlib import Path

import numpy as np

from benchmarks.conftest import BENCH_SCALE, emit, write_report
from repro.analysis import render_table
from repro.service import ServiceConfig, TractographyService

JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_service.json"

#: One sampling config + a tracking sweep: the service's headline traffic.
SAMPLING = {"n_burnin": 20, "n_samples": 4, "sample_interval": 2, "adapt_every": 7}
SWEEP_STEPS = (40, 48, 56, 64)

#: Slot counts swept, capped at this machine's core count.
NPROC = os.cpu_count() or 1
SLOT_COUNTS = [s for s in (1, 2, 4) if s <= NPROC]
WAIT_S = 600.0


def _specs():
    return [
        {"sampling": dict(SAMPLING), "tracking": {"max_steps": steps}}
        for steps in SWEEP_STEPS
    ]


def _dataset():
    return {
        "name": "dataset1",
        "scale": round(max(0.4 * BENCH_SCALE, 0.08), 3),
        "snr": 40.0,
        "seed": 0,
    }


def _run_batch(svc, specs):
    """Submit every spec, wait for all; returns (wall_s, views, manifests)."""
    t0 = time.perf_counter()
    views = [svc.submit({"spec": doc}) for doc in specs]
    finals = [svc.wait(v["job_id"], timeout=WAIT_S) for v in views]
    wall = time.perf_counter() - t0
    for final in finals:
        assert final["state"] == "done", final.get("error")
    manifests = [svc.result(v["job_id"]) for v in views]
    return wall, views, manifests


def test_service_throughput_report(benchmark, tmp_path_factory, capsys):
    specs = _specs()
    dataset = _dataset()

    def build():
        per_slots = {}
        for slots in SLOT_COUNTS:
            root = tmp_path_factory.mktemp(f"bench-svc-{slots}")
            config = ServiceConfig(
                store_root=str(root),
                dataset=dataset,
                slots=slots,
                worker_budget=slots,  # one worker per job: measure packing
                queue_limit=len(specs) + 1,
            )
            with TractographyService(config) as svc:
                cold_wall, _, cold_manifests = _run_batch(svc, specs)
                warm_wall, warm_views, warm_manifests = _run_batch(svc, specs)
                # acceptance: the warm batch is pure result-cache
                assert all(v["cache_hit"] for v in warm_views)
                assert warm_manifests == cold_manifests
            per_slots[str(slots)] = {
                "cold_wall_s": round(cold_wall, 4),
                "cold_jobs_per_s": round(len(specs) / cold_wall, 4),
                "warm_wall_s": round(warm_wall, 4),
                "warm_jobs_per_s": round(len(specs) / warm_wall, 4),
                "warm_speedup": round(cold_wall / warm_wall, 1),
            }
        return {
            "workload": {
                "dataset": dataset,
                "scale": BENCH_SCALE,
                "n_jobs": len(specs),
                "sweep": "tracking.max_steps " + str(list(SWEEP_STEPS)),
                "sampling": dict(SAMPLING),
            },
            "nproc": NPROC,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "slots": per_slots,
            "basis": (
                "cold = fresh store, every job computes (the batch "
                "shares one sampling config, so jobs after the first "
                "reuse the sampling artifact -- a tracking sweep); "
                "warm = identical batch resubmitted, served entirely "
                "from the RunSpec-keyed result cache.  Warm manifests "
                "are asserted identical to the cold pass's.  Slot "
                "counts above nproc are not swept."
            ),
        }

    report = benchmark.pedantic(build, rounds=1, iterations=1)
    write_report(JSON_PATH, report)

    rows = [
        [
            f"{slots} slots",
            report["slots"][str(slots)]["cold_wall_s"],
            report["slots"][str(slots)]["cold_jobs_per_s"],
            report["slots"][str(slots)]["warm_wall_s"],
            report["slots"][str(slots)]["warm_speedup"],
        ]
        for slots in SLOT_COUNTS
    ]
    emit(
        capsys,
        render_table(
            ["config", "cold wall (s)", "cold jobs/s", "warm wall (s)",
             "warm speedup"],
            rows,
            title=(
                f"Service throughput ({report['workload']['n_jobs']} jobs, "
                f"{report['nproc']} cpus)"
            ),
        ),
    )

    # Warm serving must beat cold compute by a wide margin at every
    # slot count -- a cache hit reads one file instead of running MCMC.
    for slots in SLOT_COUNTS:
        assert report["slots"][str(slots)]["warm_speedup"] >= 2.0
