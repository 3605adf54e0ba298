"""Quickstart: the full Fig 1 workflow on a dataset-1 replica.

Generates a scaled synthetic acquisition, runs stage 1 (per-voxel MCMC
over the multi-fiber model) and stage 2 (probabilistic streamlining with
the paper's increasing-interval segmentation), then prints both stages'
functional results and machine-model speedups.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.config import RunSpec
from repro.data import dataset1
from repro.pipeline import run_workflow


def main() -> None:
    # A small replica: same geometry as the paper's dataset 1
    # (48 x 96 x 96 @ 2.5 mm), scaled so the demo finishes in ~a minute.
    phantom = dataset1(scale=0.2, snr=40.0)
    print(f"phantom: {phantom.name}, grid {phantom.dwi.shape3}, "
          f"{phantom.n_valid} valid voxels, "
          f"{int(phantom.wm_mask.sum())} fiber voxels")

    spec = RunSpec.from_dict({
        # The paper's schedule is burn-in 500 / 50 samples; this demo
        # uses a shorter chain for speed.
        "sampling": {"n_burnin": 150, "n_samples": 10, "sample_interval": 2},
        "tracking": {"max_steps": 200, "min_dot": 0.8, "step_length": 0.3},
    })
    result = run_workflow(
        phantom,
        spec=spec,
        # Fit and seed only the fiber-bearing voxels (like masking to
        # white matter on a real scan).
        fit_mask=phantom.wm_mask,
        seed_mask=phantom.wm_mask,
    )
    print()
    print(result.report())

    # Connectivity: how many voxels each seed reaches with P > 0.5.
    p = result.probtrack.connectivity_probability
    strong = (p > 0.5).sum(axis=1)
    print()
    print(f"connectivity: median voxels reached with P>0.5: "
          f"{int(strong.mean())} per seed")
    if result.probtrack.length_fit is not None:
        fit = result.probtrack.length_fit
        print(f"fiber lengths: mean {fit.mean:.1f} steps, "
              f"semi-log R^2 {fit.r_squared:.2f} (exponential: Fig 5)")


if __name__ == "__main__":
    main()
