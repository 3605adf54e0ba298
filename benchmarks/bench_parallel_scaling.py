"""Parallel-scaling + kernel-pass benchmark — the PR's perf trajectory.

Two measurements on a fixed phantom workload, emitted both as a table
and as machine-readable ``BENCH_parallel.json`` at the repo root:

1. **Kernel pass** (single process).  The pre-PR kernel is preserved in
   the tree: :func:`trilinear_lookup_reference` is the verbatim
   pre-optimization interpolation, and :func:`_reference_track_streamline`
   below replicates the pre-PR scalar tracker loop (per-step ``(1, 3)``
   wrapping through the validating batch API) against it, and
   :func:`_reference_batch_lookup` swaps it into the batch kernel.  The
   scalar per-step cost is the cleanest view of the kernel itself — one
   interpolation + direction choice per step with no batch amortization;
   the batch-executor wall shows the same pass at lockstep batch sizes.

2. **Sample-parallel scaling.**  Serial vs. sharded tracking of one
   posterior :class:`~repro.models.fields.FiberStack` (each shard
   receives a view of its own samples).  Worker counts above
   ``os.cpu_count()`` are not swept: on fewer cores than workers the
   shards only time-slice one core.  Per worker count:

   * ``wall_s`` — measured end-to-end wall of the sharded run,
     including fork/pickle overhead; ``measured_speedup`` is
     ``serial_wall_s / wall_s``.
   * ``max_shard_wall_s`` — largest per-shard wall as measured *inside*
     the concurrent workers (``TrackingRunResult.worker_walls``).
   * ``shard_bound_wall_s`` — measured uncontended wall of the largest
     shard, timing each shard's sample slice serially in this process.
   * ``modeled_critical_path_speedup`` — ``serial_wall_s /
     shard_bound_wall_s``: the bound the contiguous sample decomposition
     imposes (the analogue of the modeled :mod:`repro.gpu.multigpu`
     proportional scaling), *modeled* rather than measured; what a run
     on idle cores approaches.
"""

from __future__ import annotations

import json
import math
import os
import platform
import time
from pathlib import Path
from unittest import mock

import numpy as np

from benchmarks.conftest import BENCH_SCALE, emit
from repro.analysis import render_table
from repro.gpu.multigpu import partition_seeds
from repro.models.fields import FiberStack
from repro.tracking import (
    ConnectivityAccumulator,
    SegmentedTracker,
    TerminationCriteria,
    choose_direction,
    nearest_lookup,
    seeds_from_mask,
    table2_strategy,
    track_streamline,
    trilinear_lookup,
)
from repro.tracking.interpolate import trilinear_lookup_reference
from repro.tracking.shards import run_sharded

JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_parallel.json"
N_SCALAR_SEEDS = 40
N_FIELDS_BATCH = 3
#: Worker counts swept, capped at this machine's core count.
NPROC = os.cpu_count() or 1
WORKER_COUNTS = [w for w in (2, 4) if w <= NPROC]


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


def _reference_batch_lookup(stack, pos, reference=None, scratch=None, row_offset=None):
    """The batch kernel's trilinear lookup done the pre-optimization way:
    the executable spec, run once per sample volume the rows track."""
    samp = row_offset // math.prod(stack.shape3)
    f = np.empty((len(pos), stack.n_fibers))
    d = np.empty((len(pos), stack.n_fibers, 3))
    for s in np.unique(samp):
        rows = samp == s
        f[rows], d[rows] = trilinear_lookup_reference(
            stack[int(s)], pos[rows], reference=reference[rows]
        )
    return f, d


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


def _batch_pass(stack, seeds, criteria, n_voxels, reference=False, reps=3):
    walls = []
    run = None
    lookup = _reference_batch_lookup if reference else trilinear_lookup
    with mock.patch("repro.tracking.batch.trilinear_lookup", lookup):
        for _ in range(reps):
            acc = ConnectivityAccumulator(len(seeds), n_voxels)
            tracker = SegmentedTracker()
            t0 = time.perf_counter()
            run = tracker.run(
                stack, seeds, criteria, table2_strategy(), connectivity=acc
            )
            walls.append(time.perf_counter() - t0)
    return min(walls), run


def _shard_bound_wall(stack, seeds, criteria, n_workers):
    """Uncontended wall of the largest shard: run each shard's sample
    slice serially and take the max.  This is the decomposition's
    parallel critical path, free of core contention."""
    walls = []
    for sl in partition_seeds(len(stack), n_workers):
        tracker = SegmentedTracker()
        t0 = time.perf_counter()
        tracker.run(stack[sl], seeds, criteria, table2_strategy())
        walls.append(time.perf_counter() - t0)
    return max(walls)


def _parallel_pass(stack, seeds, criteria, n_workers, n_voxels):
    acc = ConnectivityAccumulator(len(seeds), n_voxels)
    tracker = SegmentedTracker()
    t0 = time.perf_counter()
    if n_workers <= 1:
        run = tracker.run(
            stack, seeds, criteria, table2_strategy(), connectivity=acc
        )
    else:
        run = run_sharded(
            tracker, stack, seeds, criteria, table2_strategy(),
            n_workers=n_workers, connectivity=acc,
        )
    wall = time.perf_counter() - t0
    return wall, run


def test_parallel_scaling_report(benchmark, phantom1, fields1, capsys):
    criteria = TerminationCriteria(max_steps=1888, min_dot=0.8, step_length=0.2)
    seeds = seeds_from_mask(phantom1.wm_mask)
    stack = FiberStack.from_fields(fields1)
    n_voxels = int(np.prod(stack.shape3))

    def build():
        scalar_ref_us, scalar_new_us = _scalar_pass(
            stack[0], seeds[:N_SCALAR_SEEDS], criteria
        )
        batch_ref_wall, batch_ref_run = _batch_pass(
            stack[:N_FIELDS_BATCH], seeds, criteria, n_voxels, reference=True
        )
        batch_new_wall, batch_run = _batch_pass(
            stack[:N_FIELDS_BATCH], seeds, criteria, n_voxels
        )
        assert np.array_equal(batch_ref_run.lengths, batch_run.lengths)
        serial_wall, serial_run = _parallel_pass(
            stack, seeds, criteria, 1, n_voxels
        )
        workers = {}
        for w in WORKER_COUNTS:
            wall, run = _parallel_pass(stack, seeds, criteria, w, n_voxels)
            assert np.array_equal(run.lengths, serial_run.lengths)
            bound = _shard_bound_wall(stack, seeds, criteria, w)
            workers[str(w)] = {
                "wall_s": round(wall, 4),
                "measured_speedup": round(serial_wall / wall, 2),
                "max_shard_wall_s": round(max(run.worker_walls), 4),
                "shard_bound_wall_s": round(bound, 4),
                "modeled_critical_path_speedup": round(serial_wall / bound, 2),
            }
        return {
            "workload": {
                "dataset": "dataset1",
                "scale": BENCH_SCALE,
                "n_seeds": int(len(seeds)),
                "n_samples_batch": N_FIELDS_BATCH,
                "n_samples_parallel": len(stack),
                "step_length": criteria.step_length,
                "min_dot": criteria.min_dot,
                "max_steps": criteria.max_steps,
            },
            "nproc": NPROC,
            "python": platform.python_version(),
            "numpy": np.__version__,
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
                "serial_wall_s": round(serial_wall, 4),
                "workers": workers,
                "basis": (
                    "Every wall is measured on this run.  kernel_pass "
                    "'before' times the reference interpolation kept in "
                    "the tree against the production kernel.  "
                    "shard_bound_wall_s times the largest shard's sample "
                    "slice serially (uncontended); "
                    "modeled_critical_path_speedup = serial_wall_s / "
                    "shard_bound_wall_s is modeled, not measured.  Worker "
                    "counts above nproc are not swept.  Sharded lengths "
                    "are asserted bit-identical to serial."
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
         f'{kp["scalar_tracker_us_per_step"]["speedup"]}x', ""],
        ["batch executor (s)",
         kp["batch_executor_wall_s"]["reference_interpolation"],
         kp["batch_executor_wall_s"]["optimized"],
         f'{kp["batch_executor_wall_s"]["speedup"]}x', ""],
    ] + [
        [f"{w}-worker sharded (s)",
         par["serial_wall_s"],
         entry["wall_s"],
         f'{entry["measured_speedup"]}x',
         f'{entry["modeled_critical_path_speedup"]}x']
        for w, entry in par["workers"].items()
    ]
    emit(
        capsys,
        render_table(
            ["Measurement", "Before", "After", "Measured",
             "Critical path (modeled)"],
            rows,
            title=(
                f"Parallel scaling + kernel pass, {NPROC} cpus "
                f"(JSON: {JSON_PATH.name})"
            ),
        ),
    )

    # The kernel itself must be >=4x the reference kernel; the batch
    # executor amortizes per-call overhead so its factor is lower.
    assert kp["scalar_tracker_us_per_step"]["speedup"] >= 4.0
    assert kp["batch_executor_wall_s"]["speedup"] > 1.5
    # Sharding 10 samples bounds the critical path by the largest shard
    # (5 samples over 2 workers, 3 over 4): ~2x and ~10/3.  Allow
    # generous scheduling slack.
    floors = {"2": 1.5, "4": 2.5}
    for w, entry in par["workers"].items():
        assert entry["modeled_critical_path_speedup"] >= floors[w]
