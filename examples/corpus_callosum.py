"""Reconstructing the corpus callosum (paper Figs 9, 11, 12).

Builds the dataset-2 replica (whose dominant structure is a
corpus-callosum-like arch), runs the probabilistic pipeline seeded at the
arch, and exports (to ``examples/outputs/`` unless ``main`` is given
another directory):

* ``cc_fibers.trk``   — the reconstructed long fibers (TrackVis),
* ``cc_visits.nii.gz`` — the visit-count density map (NIfTI),

then verifies the reconstruction geometrically against the ground-truth
bundle (the phantom's substitute for the paper's visual comparison with
McGraw & Nadar's published results).

Run:  python examples/corpus_callosum.py
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.baselines import cpu_probabilistic_tracking
from repro.data import dataset2
from repro.io import Volume, write_nifti, write_trk
from repro.tracking import (
    ConnectivityAccumulator,
    SegmentedTracker,
    TerminationCriteria,
    paper_strategy_b,
    seeds_from_mask,
)
from repro.utils.geometry import normalize

LONG_FIBER = 100  # the paper's Figs 11/12 length threshold (steps)


def perturbed_samples(phantom, n_samples, angular_noise=0.08, seed=0):
    """Posterior-like sample volumes around the ground truth."""
    rng = np.random.default_rng(seed)
    truth = phantom.truth
    fields = []
    from repro.models.fields import FiberField

    for _ in range(n_samples):
        has = truth.f > 0
        noise = rng.normal(scale=angular_noise, size=truth.directions.shape)
        dirs = normalize(truth.directions + noise * has[..., None]) * has[..., None]
        fields.append(
            FiberField(f=truth.f.copy(), directions=dirs, mask=truth.mask)
        )
    return fields


def main(out_dir: Path | None = None) -> None:
    phantom = dataset2(scale=0.35, snr=40.0)
    truth = phantom.truth
    cc = phantom.bundles[0]
    assert cc.name == "corpus_callosum"
    print(f"{phantom.name}: grid {truth.shape3}, CC arc length "
          f"{cc.length:.0f} voxels")

    # Seed the arch only (Fig 9 tracks the CC specifically).
    seeds_all = seeds_from_mask(phantom.wm_mask)
    dense = cc.resample(0.5)
    d2 = ((seeds_all[:, None, :] - dense.points[None, :, :]) ** 2).sum(-1)
    near = d2.min(axis=1) <= (float(np.max(dense.radius)) + 0.5) ** 2
    seeds = seeds_all[near]
    print(f"seeds on the corpus callosum: {len(seeds)}")

    fields = perturbed_samples(phantom, n_samples=8)
    criteria = TerminationCriteria(max_steps=888, min_dot=0.85, step_length=0.2)
    acc = ConnectivityAccumulator(len(seeds), int(np.prod(truth.shape3)))
    run = SegmentedTracker().run(
        fields, seeds, criteria, paper_strategy_b(), connectivity=acc
    )

    long_mask = run.lengths.max(axis=0) >= LONG_FIBER
    print(f"fibers with length >= {LONG_FIBER}: {int(long_mask.sum())} "
          f"of {len(seeds)} seeds (longest {run.longest_fiber})")

    # Geometric check: tracked paths stay inside the painted arch tube.
    cpu = cpu_probabilistic_tracking(
        fields[:1], seeds[long_mask][:20], criteria, keep_streamlines=True
    )
    max_dev = 0.0
    for line in cpu.streamlines[0]:
        d2 = ((line.points[:, None, :] - dense.points[None, :, :]) ** 2).sum(-1)
        max_dev = max(max_dev, float(np.sqrt(d2.min(axis=1)).max()))
    tube = float(np.max(dense.radius))
    print(f"max deviation of long fibers from the CC centerline: "
          f"{max_dev:.1f} voxels (tube radius {tube:.1f})")
    assert max_dev < tube + 2.0, "reconstruction strayed from the bundle"

    # Paper's Fig 12 check: CPU and lockstep (GPU-structure) agree.
    gpu_first = run.lengths[0][long_mask][:20]
    cpu_first = cpu.lengths[0]
    assert np.array_equal(np.sort(gpu_first), np.sort(cpu_first)) or np.array_equal(
        gpu_first, cpu_first
    )
    print("CPU and lockstep tracking produce identical lengths (Fig 12)")

    out = out_dir or Path(__file__).resolve().parent / "outputs"
    out.mkdir(parents=True, exist_ok=True)
    lines = [s.points for s in cpu.streamlines[0] if s.n_steps >= LONG_FIBER]
    write_trk(
        out / "cc_fibers.trk",
        lines,
        voxel_sizes=tuple(phantom.dwi.voxel_sizes),
        dims=truth.shape3,
    )
    visits = acc.visit_count_volume(truth.shape3).astype(np.float32)
    write_nifti(out / "cc_visits.nii.gz", Volume(visits, phantom.dwi.affine))
    print(f"wrote {out / 'cc_fibers.trk'} ({len(lines)} long fibers) and "
          f"{out / 'cc_visits.nii.gz'}")


if __name__ == "__main__":
    main()
