"""Connectome atlas-sweep economics benchmark — ``BENCH_connectome.json``.

Each stage hashes only the spec sections that parameterise it plus
its inputs' fingerprints, so a ``connectome.*``-only spec change
should reuse stages 1-2 from the artifact store and recompute only the
endpoint matrix.  This bench
measures exactly that on one phantom:

* ``cold_wall_s`` — first run (atlas ``octant``): every stage misses.
* ``warm_wall_s`` — identical rerun: every stage served from the store.
* ``sweep`` — one run per different atlas: sampling + tracking **must**
  hit and the connectome **must** miss (asserted in-bench, not just
  reported), so the wall is the price of one matrix, not one pipeline.

The store is also audited: after the sweep it must hold exactly one
sampling and one tracking entry — the upstream stages were computed
once, ever.  Every recorded wall is measured on the machine named by
``nproc`` / ``python`` / ``numpy``; nothing is modeled.
"""

from __future__ import annotations

import os
import platform
import time
from pathlib import Path

import numpy as np

from benchmarks.conftest import BENCH_SCALE, emit, write_report
from repro.analysis import render_table
from repro.config import RunSpec
from repro.pipeline import run_workflow
from repro.store import ArtifactStore

JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_connectome.json"

#: Atlases swept after the cold run; each differs from ``octant`` only
#: in the ``connectome`` spec section.
SWEEP_ATLASES = ("slabs4", "grid2")

#: Short stage-1/2 schedule — the bench measures cache reuse, not MCMC
#: throughput (``bench_bedpost_shard`` owns that).
SAMPLING = {"n_burnin": 20, "n_samples": 3, "sample_interval": 2}
TRACKING = {"max_steps": 40}


def _spec(store: Path, atlas: str) -> RunSpec:
    return RunSpec.from_dict(
        {
            "sampling": SAMPLING,
            "tracking": TRACKING,
            "connectome": {"atlas": atlas},
            "telemetry": {"store": str(store)},
        }
    )


def _run(phantom, spec):
    t0 = time.perf_counter()
    result = run_workflow(phantom, spec=spec)
    return time.perf_counter() - t0, result


def test_connectome_sweep_report(benchmark, phantom1, tmp_path, capsys):
    store = tmp_path / "store"

    def build():
        cold_wall, cold = _run(phantom1, _spec(store, "octant"))
        assert cold.cache["connectome_hit"] is False
        assert cold.connectome is not None

        warm_wall, warm = _run(phantom1, _spec(store, "octant"))
        assert warm.cache["sampling_hit"] is True
        assert warm.cache["tracking_hit"] is True
        assert warm.cache["connectome_hit"] is True

        sweep = {}
        for atlas in SWEEP_ATLASES:
            wall, res = _run(phantom1, _spec(store, atlas))
            # The acceptance bar: an atlas-only change reuses stages 1-2
            # and pays for the matrix alone.
            assert res.cache["sampling_hit"] is True
            assert res.cache["tracking_hit"] is True
            assert res.cache["connectome_hit"] is False
            assert res.connectome.atlas.name == atlas
            sweep[atlas] = {
                "wall_s": round(wall, 4),
                "n_rois": int(res.connectome.atlas.n_rois),
                "n_streamlines": int(res.connectome.n_streamlines),
            }

        # Stages 1-2 were computed once, ever: one entry each.
        by_stage: dict[str, int] = {}
        for entry in ArtifactStore(store).ls():
            by_stage[entry["stage"]] = by_stage.get(entry["stage"], 0) + 1
        assert by_stage["sampling"] == 1
        assert by_stage["tracking"] == 1
        assert by_stage["connectome"] == 1 + len(SWEEP_ATLASES)

        return {
            "workload": {
                "dataset": "dataset1",
                "scale": BENCH_SCALE,
                "n_voxels": int(phantom1.mask.sum()),
                **SAMPLING,
                "max_steps": TRACKING["max_steps"],
            },
            "nproc": os.cpu_count() or 1,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cold_wall_s": round(cold_wall, 4),
            "warm_wall_s": round(warm_wall, 4),
            "sweep": sweep,
            "store_entries": by_stage,
            "basis": (
                "All walls are measured, one run each, end to end through "
                "run_workflow.  cold runs all three stages; warm serves "
                "all three from the store; each sweep run changes only "
                "connectome.atlas and is asserted to hit sampling + "
                "tracking and miss the connectome.  The connectome folds "
                "the endpoints stage 2 stored, so a sweep wall is a warm "
                "rehydration of stages 1-2 plus one endpoint fold."
            ),
        }

    report = benchmark.pedantic(build, rounds=1, iterations=1)
    write_report(JSON_PATH, report)

    rows = [
        ["cold (octant)", report["cold_wall_s"], ""],
        ["warm (octant)", report["warm_wall_s"],
         f'{round(report["cold_wall_s"] / max(report["warm_wall_s"], 1e-9), 2)}x'],
    ] + [
        [f"sweep ({atlas})",
         report["sweep"][atlas]["wall_s"],
         f'{round(report["cold_wall_s"] / report["sweep"][atlas]["wall_s"], 2)}x']
        for atlas in SWEEP_ATLASES
    ]
    emit(
        capsys,
        render_table(
            ["Run", "Wall (s)", "vs cold"],
            rows,
            title=(
                f"Connectome atlas sweep, {report['workload']['n_voxels']} "
                f"voxels (JSON: {JSON_PATH.name})"
            ),
        ),
    )

    # Reuse must pay: a sweep run skips MCMC + tracking entirely, so
    # even at smoke scale it beats cold.
    for atlas in SWEEP_ATLASES:
        assert report["sweep"][atlas]["wall_s"] <= report["cold_wall_s"]
