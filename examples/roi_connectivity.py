"""Seed-to-target ROI connectivity and schedule export.

Asks a targeted clinical-style question on the dataset-1 replica: *what
fraction of the streamlines seeded in region A end in region B?*  The
answer is folded from the tracker's own endpoints with the connectome
stage's :func:`~repro.connectome.endpoint_connectome`, over a four-ROI
atlas: 0 = rest of brain, 1 = A, 2 = B, 3 = an off-tract control C.

A streamline's *endpoint* is the position where it stopped (step budget,
curvature, or leaving the mask), binned to its nearest voxel; its start
is its seed.  A streamline "reaches B" only if it ends there, not if it
merely passes through.

Also exports the run's modeled execution schedule (Figs 7/8) as a
Chrome trace.

Run:  python examples/roi_connectivity.py
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.connectome import Atlas, endpoint_connectome
from repro.data import dataset1
from repro.gpu import write_chrome_trace
from repro.models.fields import FiberField
from repro.tracking import (
    SegmentedTracker,
    TerminationCriteria,
    paper_strategy_b,
    seeds_from_mask,
)
from repro.utils.geometry import normalize

REST, A, B, C = 0, 1, 2, 3


def noisy_fields(phantom, n, scale=0.15, seed=0):
    rng = np.random.default_rng(seed)
    truth = phantom.truth
    out = []
    for _ in range(n):
        has = truth.f > 0
        d = normalize(
            truth.directions + rng.normal(scale=scale, size=truth.directions.shape)
            * has[..., None]
        )
        out.append(
            FiberField(f=truth.f.copy(), directions=d * has[..., None],
                       mask=truth.mask)
        )
    return out


def sphere_mask(shape, center, radius):
    """Voxels whose centers lie within ``radius`` of ``center``."""
    grid = np.indices(shape, dtype=np.float64)
    d2 = sum((grid[i] - center[i]) ** 2 for i in range(3))
    return d2 <= radius**2


def main(out_dir: Path | None = None) -> None:
    phantom = dataset1(scale=0.3, snr=40.0)
    shape = phantom.truth.shape3
    nx, ny, nz = shape

    # Seed region: a sphere at one end of the long association tract;
    # target: a sphere at the other end.  (The tract runs along y at
    # x ~ 0.35 nx, z ~ 0.45 nz -- see repro/data/datasets.py.)  Every
    # voxel needs a label, so everything else is the "rest" ROI.
    labels = np.full(shape, REST, dtype=np.int32)
    labels[sphere_mask(shape, (0.35 * nx, 0.2 * ny, 0.45 * nz), 2.5)] = A
    labels[sphere_mask(shape, (0.35 * nx, 0.8 * ny, 0.45 * nz), 3.5)] = B
    labels[sphere_mask(shape, (0.8 * nx, 0.5 * ny, 0.8 * nz), 3.5)] = C
    atlas = Atlas(name="a-b-control", labels=labels, n_rois=4)
    seeds = seeds_from_mask((labels == A) & phantom.wm_mask)
    sizes = atlas.roi_sizes()
    print(f"seeds in ROI A: {len(seeds)}; target B: {sizes[B]} "
          f"voxels; control C: {sizes[C]} voxels")

    fields = noisy_fields(phantom, 10)
    criteria = TerminationCriteria(max_steps=400, min_dot=0.8, step_length=0.3)
    run = SegmentedTracker().run(fields, seeds, criteria, paper_strategy_b())

    # Each (sample, seed) streamline contributes one (start, end) pair.
    counts, n_lines = endpoint_connectome(
        np.broadcast_to(seeds, run.endpoints.shape).reshape(-1, 3),
        run.endpoints.reshape(-1, 3),
        run.lengths.ravel(),
        atlas,
    )
    print(f"P(A -> ends in B): {counts[A, B]}/{n_lines} = "
          f"{counts[A, B] / n_lines:.2f}")
    print(f"P(A -> ends in C): {counts[A, C]}/{n_lines} = "
          f"{counts[A, C] / n_lines:.2f} (off-tract control)")

    out = out_dir or Path(__file__).resolve().parent / "outputs"
    out.mkdir(parents=True, exist_ok=True)
    write_chrome_trace(out / "schedule.json", run.timeline)
    print(f"\nwrote Chrome trace to {out / 'schedule.json'} "
          f"(open in chrome://tracing or ui.perfetto.dev)")


if __name__ == "__main__":
    main()
