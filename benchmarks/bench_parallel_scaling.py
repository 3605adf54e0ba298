"""Parallel-scaling + kernel-pass benchmark — the PR's perf trajectory.

Two measurements on a fixed phantom workload, emitted both as a table
and as machine-readable ``BENCH_parallel.json`` at the repo root:

1. **Kernel pass** (single process).  The pre-PR kernel is preserved in
   the tree: :func:`trilinear_lookup_reference` is the verbatim
   pre-optimization interpolation, and :func:`_reference_track_streamline`
   below replicates the pre-PR scalar tracker loop (per-step ``(1, 3)``
   wrapping through the validating batch API) against it.  The scalar
   per-step cost is the cleanest view of the kernel itself — one
   interpolation + direction choice per step with no batch amortization;
   the batch-executor wall shows the same pass at lockstep batch sizes.

2. **Sample-parallel scaling.**  Serial vs. 2- and 4-worker sharded
   tracking on the same fields.  Three numbers per worker count:

   * ``wall_s`` — measured end-to-end wall of the sharded run.
     Includes fork/pickle overhead and, on machines with fewer physical
     cores than workers, CPU time-slicing: concurrent shards contend
     for the same core, so this only drops below serial when real
     cores exist.
   * ``max_shard_wall_s`` — largest per-shard wall as measured *inside*
     the concurrent workers (``TrackingRunResult.worker_walls``); under
     core contention this is inflated for the same reason.
   * ``critical_path_speedup`` — ``serial_wall`` divided by the
     *uncontended* wall of the largest shard, measured by timing each
     shard's sample slice serially in this process.  This is the bound
     the contiguous sample decomposition itself imposes (the analogue of
     the modeled :func:`repro.gpu.multigpu` proportional scaling), and
     it is what a run with >= ``n_workers`` physical cores approaches.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from benchmarks.conftest import emit
from repro.analysis import render_table
from repro.gpu.multigpu import partition_seeds
from repro.tracking import (
    ConnectivityAccumulator,
    SegmentedTracker,
    TerminationCriteria,
    choose_direction,
    nearest_lookup,
    seeds_from_mask,
    table2_strategy,
    track_streamline,
)
from repro.tracking.interpolate import trilinear_lookup_reference
from repro.tracking.shards import run_sharded

JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_parallel.json"
N_SCALAR_SEEDS = 40
N_FIELDS_BATCH = 3


def _reference_track_streamline(field, seed, heading, criteria):
    """The pre-PR scalar tracker, verbatim: per-step ``(1, 3)`` wrapping
    through the validating lookup API and the reference interpolation."""
    seed = np.asarray(seed, dtype=np.float64).reshape(3)
    heading = np.asarray(heading, dtype=np.float64).reshape(3)
    nx, ny, nz = field.shape3
    pos = seed.copy()
    n_steps = 0
    for _ in range(criteria.max_steps):
        p = pos[None, :]
        h = heading[None, :]
        f, dirs = trilinear_lookup_reference(field, p, reference=h)
        chosen, dot = choose_direction(f, dirs, h, criteria.f_threshold)
        if not (f[0] > criteria.f_threshold).any():
            break
        if dot[0] < criteria.min_dot:
            break
        new_pos = pos + criteria.step_length * chosen[0]
        idx = np.rint(new_pos).astype(np.int64)
        if (
            idx[0] < 0 or idx[0] >= nx
            or idx[1] < 0 or idx[1] >= ny
            or idx[2] < 0 or idx[2] >= nz
        ):
            break
        if not field.mask[idx[0], idx[1], idx[2]]:
            break
        pos = new_pos
        heading = chosen[0]
        n_steps += 1
    return n_steps


def _scalar_pass(field, seeds, criteria):
    f0, d0 = nearest_lookup(field, seeds)
    from repro.tracking.direction import initial_directions

    headings = initial_directions(f0, d0)

    t0 = time.perf_counter()
    steps_ref = sum(
        _reference_track_streamline(field, s, h, criteria)
        for s, h in zip(seeds, headings)
    )
    wall_ref = time.perf_counter() - t0

    t0 = time.perf_counter()
    steps_new = sum(
        track_streamline(field, s, h, criteria).n_steps
        for s, h in zip(seeds, headings)
    )
    wall_new = time.perf_counter() - t0
    assert steps_ref == steps_new, "kernel rewrite changed scalar results"
    return wall_ref / steps_ref * 1e6, wall_new / steps_new * 1e6


def _batch_pass(fields, seeds, criteria, interpolation, n_voxels, reps=3):
    walls = []
    run = None
    for _ in range(reps):
        acc = ConnectivityAccumulator(len(seeds), n_voxels)
        tracker = SegmentedTracker(interpolation=interpolation)
        t0 = time.perf_counter()
        run = tracker.run(
            fields, seeds, criteria, table2_strategy(), connectivity=acc
        )
        walls.append(time.perf_counter() - t0)
    return min(walls), run


def _shard_bound_wall(fields, seeds, criteria, n_workers):
    """Uncontended wall of the largest shard: run each shard's sample
    slice serially and take the max.  This is the decomposition's
    parallel critical path, free of single-core time-slicing."""
    walls = []
    for sl in partition_seeds(len(fields), n_workers):
        tracker = SegmentedTracker()
        t0 = time.perf_counter()
        tracker.run(fields[sl], seeds, criteria, table2_strategy())
        walls.append(time.perf_counter() - t0)
    return max(walls)


def _parallel_pass(fields, seeds, criteria, n_workers, n_voxels):
    acc = ConnectivityAccumulator(len(seeds), n_voxels)
    tracker = SegmentedTracker()
    t0 = time.perf_counter()
    if n_workers <= 1:
        run = tracker.run(
            fields, seeds, criteria, table2_strategy(), connectivity=acc
        )
    else:
        run = run_sharded(
            tracker, fields, seeds, criteria, table2_strategy(),
            n_workers=n_workers, connectivity=acc,
        )
    wall = time.perf_counter() - t0
    return wall, run


def test_parallel_scaling_report(benchmark, phantom1, fields1, capsys):
    criteria = TerminationCriteria(max_steps=1888, min_dot=0.8, step_length=0.2)
    seeds = seeds_from_mask(phantom1.wm_mask)
    n_voxels = int(np.prod(fields1[0].shape3))

    def build():
        scalar_ref_us, scalar_new_us = _scalar_pass(
            fields1[0], seeds[:N_SCALAR_SEEDS], criteria
        )
        batch_ref_wall, _ = _batch_pass(
            fields1[:N_FIELDS_BATCH], seeds, criteria,
            "trilinear-reference", n_voxels,
        )
        batch_new_wall, batch_run = _batch_pass(
            fields1[:N_FIELDS_BATCH], seeds, criteria, "trilinear", n_voxels
        )
        serial_wall, serial_run = _parallel_pass(
            fields1, seeds, criteria, 1, n_voxels
        )
        workers = {}
        for w in (2, 4):
            wall, run = _parallel_pass(fields1, seeds, criteria, w, n_voxels)
            assert np.array_equal(run.lengths, serial_run.lengths)
            bound = _shard_bound_wall(fields1, seeds, criteria, w)
            workers[str(w)] = {
                "wall_s": round(wall, 4),
                "max_shard_wall_s": round(max(run.worker_walls), 4),
                "shard_bound_wall_s": round(bound, 4),
                "critical_path_speedup": round(serial_wall / bound, 2),
            }
        return {
            "workload": {
                "dataset": "dataset1",
                "scale": float(os.environ.get("REPRO_BENCH_SCALE", "0.3")),
                "n_seeds": int(len(seeds)),
                "n_samples_batch": N_FIELDS_BATCH,
                "n_samples_parallel": len(fields1),
                "step_length": criteria.step_length,
                "min_dot": criteria.min_dot,
                "max_steps": criteria.max_steps,
            },
            "kernel_pass": {
                "scalar_tracker_us_per_step": {
                    "before": round(scalar_ref_us, 1),
                    "after": round(scalar_new_us, 1),
                    "speedup": round(scalar_ref_us / scalar_new_us, 2),
                },
                "batch_executor_wall_s": {
                    "reference_interpolation": round(batch_ref_wall, 4),
                    "optimized": round(batch_new_wall, 4),
                    "speedup": round(batch_ref_wall / batch_new_wall, 2),
                },
                "total_steps_batch": int(batch_run.total_steps),
            },
            "parallel": {
                "n_cpus": os.cpu_count(),
                "serial_wall_s": round(serial_wall, 4),
                "workers": workers,
                "scaling_basis": (
                    "critical_path_speedup = serial_wall_s / "
                    "shard_bound_wall_s, where shard_bound_wall_s times the "
                    "largest shard's sample slice serially (uncontended). "
                    "wall_s and max_shard_wall_s are measured under real "
                    "concurrency and include process startup plus CPU "
                    "time-slicing when n_cpus < n_workers."
                ),
            },
        }

    report = benchmark.pedantic(build, rounds=1, iterations=1)
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")

    kp = report["kernel_pass"]
    par = report["parallel"]
    rows = [
        ["scalar kernel (us/step)",
         kp["scalar_tracker_us_per_step"]["before"],
         kp["scalar_tracker_us_per_step"]["after"],
         f'{kp["scalar_tracker_us_per_step"]["speedup"]}x'],
        ["batch executor (s)",
         kp["batch_executor_wall_s"]["reference_interpolation"],
         kp["batch_executor_wall_s"]["optimized"],
         f'{kp["batch_executor_wall_s"]["speedup"]}x'],
        ["4-worker critical path (s)",
         par["serial_wall_s"],
         par["workers"]["4"]["shard_bound_wall_s"],
         f'{par["workers"]["4"]["critical_path_speedup"]}x'],
    ]
    emit(
        capsys,
        render_table(
            ["Measurement", "Before", "After", "Speedup"],
            rows,
            title=f"Parallel scaling + kernel pass (JSON: {JSON_PATH.name})",
        ),
    )

    # The kernel itself must be >=4x the pre-PR kernel; the batch
    # executor amortizes per-call overhead so its factor is lower.
    assert kp["scalar_tracker_us_per_step"]["speedup"] >= 4.0
    assert kp["batch_executor_wall_s"]["speedup"] > 1.5
    # Sharding 10 samples over 4 workers bounds the critical path by the
    # largest shard (3 samples): ~10/3. Allow generous scheduling slack.
    assert par["workers"]["4"]["critical_path_speedup"] >= 2.5
    assert par["workers"]["2"]["critical_path_speedup"] >= 1.5
