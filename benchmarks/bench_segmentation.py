"""Segmentation strategies, measured — ``BENCH_segmentation.json``.

The paper's central result (Tables II–IV): launching the tracking kernel
in increasing-length segments beats both the per-step kernel (``A_1``:
one launch + compaction per step) and the monolithic kernel
(``A_MaxStep``: one launch, every lane waits for the longest fiber).
This bench runs the four strategies that carry that argument on one
workload and records, side by side:

* the **measured** host wall time of the run (``wall_s``, best of
  ``REPS``) and its per-step rate (``us_per_step = wall_s /
  total_steps``) — what segmentation costs this CPU implementation;
* the **modeled** Table IV decomposition (kernel / reduction / transfer
  / total seconds on the Radeon 5870 machine model) — the paper's
  quantity, computed from the measured per-thread step counts.

The workload is the paper's many-sample tracking run at reduced scale:
``N_SAMPLES`` posterior-like sample volumes, ``N_SEEDS`` seeds each,
serial process.  The only assertion is functional: every strategy yields
identical lengths, stop reasons and endpoints — host segments are
scheduling, never semantics.  Walls are recorded, not gated — the CI
smoke runs at ``REPRO_BENCH_SCALE=0.25``.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from benchmarks.conftest import BENCH_SCALE, emit, sample_fields_from_truth
from repro.analysis import render_table, table4_row
from repro.data import dataset1
from repro.tracking import (
    SegmentedTracker,
    SingleSegmentStrategy,
    TerminationCriteria,
    UniformStrategy,
    paper_strategy_b,
    seeds_from_mask,
    table2_strategy,
)

JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_segmentation.json"

#: The paper tracks 50 posterior samples per voxel.
N_SAMPLES = 50
#: Seeds per sample.
N_SEEDS = 100
#: Half the bench scale, so 50 samples x 4 strategies finish in bench time.
SCALE = BENCH_SCALE / 2
#: Timed repetitions per strategy; the minimum wall is reported.
REPS = 3
CRITERIA = TerminationCriteria(max_steps=1888, min_dot=0.8, step_length=0.2)


def strategies():
    return [
        UniformStrategy(1),
        table2_strategy(),
        paper_strategy_b(),
        SingleSegmentStrategy(),
    ]


def test_segmentation_report(benchmark, capsys):
    phantom = dataset1(scale=SCALE, snr=40.0)
    fields = sample_fields_from_truth(phantom, N_SAMPLES, seed=1)
    seeds = seeds_from_mask(phantom.wm_mask)[:N_SEEDS]
    tracker = SegmentedTracker()

    def build():
        rows = {}
        baseline = None
        for strat in strategies():
            walls = []
            for _ in range(REPS):
                t0 = time.perf_counter()
                run = tracker.run(fields, seeds, CRITERIA, strat)
                walls.append(time.perf_counter() - t0)
            if baseline is None:
                baseline = run
            else:
                for name in ("lengths", "reasons", "endpoints"):
                    np.testing.assert_array_equal(
                        getattr(run, name), getattr(baseline, name), err_msg=name
                    )
            wall = min(walls)
            modeled = table4_row(strat.name, run)
            rows[strat.name] = {
                "segments": len(strat.segments(CRITERIA.max_steps)),
                "wall_s": round(wall, 4),
                "us_per_step": round(wall / run.total_steps * 1e6, 3),
                "modeled": {
                    "kernel_s": round(modeled.kernel_s, 4),
                    "reduction_s": round(modeled.reduction_s, 4),
                    "transfer_s": round(modeled.transfer_s, 4),
                    "total_s": round(modeled.total_s, 4),
                },
            }
        return {
            "workload": {
                "dataset": "dataset1",
                "scale": SCALE,
                "n_samples": N_SAMPLES,
                "n_seeds": int(len(seeds)),
                "total_steps": baseline.total_steps,
                "step_length": CRITERIA.step_length,
                "min_dot": CRITERIA.min_dot,
                "max_steps": CRITERIA.max_steps,
            },
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "strategies": rows,
            "basis": (
                "wall_s (best of %d) and us_per_step = wall_s / total_steps "
                "are measured host time of one serial tracking run; the "
                "'modeled' block is the Table IV decomposition on the "
                "Radeon 5870 machine model, computed from the run's "
                "per-thread step counts, not measured.  Every strategy is "
                "asserted to yield identical lengths, stop reasons and "
                "endpoints: host segments are scheduling, never "
                "semantics." % REPS
            ),
        }

    report = benchmark.pedantic(build, rounds=1, iterations=1)
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")

    rows = [
        [name, r["segments"], r["wall_s"], r["us_per_step"],
         r["modeled"]["kernel_s"], r["modeled"]["reduction_s"],
         r["modeled"]["transfer_s"], r["modeled"]["total_s"]]
        for name, r in report["strategies"].items()
    ]
    emit(
        capsys,
        render_table(
            ["Strategy", "Segments", "Wall (s)", "us/step", "Kernel(s) modeled",
             "Reduce(s) modeled", "Transfer(s) modeled", "Total(s) modeled"],
            rows,
            title=(
                f"Segmentation, {N_SAMPLES} samples x "
                f"{report['workload']['n_seeds']} seeds: measured wall vs "
                f"modeled Table IV (JSON: {JSON_PATH.name})"
            ),
        ),
    )
