"""``repro-bedpost`` — stage 1: per-voxel MCMC over the multi-fiber model.

Reads a DWI acquisition (``dwi.nii.gz`` + ``bvals``/``bvecs`` + a mask),
runs the Metropolis-Hastings sampler, and writes:

* ``samples.npz`` — the float64 posterior samples, the fitted mask,
  the affine, and the ``sampling`` section and stage key that produced
  them (the compact equivalent of Fig 1's "six 4-D volumes", consumed
  by ``repro-track``; the same bytes as the sampling store entry's
  payload);
* ``mean_f1.nii.gz`` / ``mean_f2.nii.gz`` — posterior-mean volume
  fractions (quick-look quality maps);
* a timing report with the Table III machine-model speedup;
* optionally a telemetry run manifest with the resolved config embedded
  (``--metrics-out``).

Like ``repro-track``, the run is driven by one resolved
:class:`~repro.config.spec.RunSpec` layered as ``defaults < --config
FILE < explicit flags < --set``, and the sampling itself is the
workflow's own stage runner, keyed and stored as
:func:`~repro.pipeline.workflow.run_workflow` keys and stores it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro.cli.common import (
    BEDPOST_RUNTIME_FLAG_MAP,
    STORE_FLAG_MAP,
    TELEMETRY_FLAG_MAP,
    add_config_group,
    add_runtime_group,
    add_store_group,
    add_telemetry_group,
    print_resolved_config,
    resolve_spec_from_args,
    write_run_manifest,
)
from repro.config.spec import NOISE_MODELS
from repro.config.stages import SAMPLING
from repro.io import Volume, read_bvals_bvecs, read_nifti, write_nifti
from repro.io.samples import save_samples
from repro.pipeline.runners import StageContext, run_sampling_stage
from repro.telemetry import MetricsRegistry, use_registry

__all__ = ["build_parser", "main"]

#: ``args`` attribute -> run-spec dotted path for this command's own flags.
_BEDPOST_FLAG_MAP = {
    "burnin": "sampling.n_burnin",
    "samples": "sampling.n_samples",
    "interval": "sampling.sample_interval",
    "fibers": "sampling.n_fibers",
    "ard": "sampling.ard",
    "noise_model": "sampling.noise_model",
    "seed": "sampling.seed",
    **BEDPOST_RUNTIME_FLAG_MAP,
    "metrics_out": TELEMETRY_FLAG_MAP["metrics_out"],
    "store": STORE_FLAG_MAP["store"],
}


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-bedpost`` argument parser (exposed for docs and tests)."""
    p = argparse.ArgumentParser(
        prog="repro-bedpost",
        description="Fit the Bayesian multi-fiber model by MCMC (stage 1).",
    )
    p.add_argument("data_dir", type=Path, nargs="?", default=None,
                   help="directory holding dwi.nii.gz, bvals, bvecs "
                        "(unused with --print-config)")
    p.add_argument("--mask", type=Path, default=None,
                   help="mask NIfTI (default: <data_dir>/wm_mask.nii.gz)")
    p.add_argument("--output-dir", type=Path, default=None,
                   help="output directory (default: <data_dir>/bedpost)")
    p.add_argument("--burnin", type=int, default=None,
                   help="burn-in loops (default 500)")
    p.add_argument("--samples", type=int, default=None,
                   help="posterior samples (default 50)")
    p.add_argument("--interval", type=int, default=None,
                   help="thinning L (default 2)")
    p.add_argument("--fibers", type=int, default=None,
                   help="stick compartments N (default 2)")
    p.add_argument("--ard", action="store_true",
                   help="ARD prior on secondary fibers")
    p.add_argument("--noise-model", choices=NOISE_MODELS,
                   default=None, help="likelihood noise model")
    p.add_argument("--seed", type=int, default=None,
                   help="chain RNG seed (default 0)")
    add_runtime_group(p, unit="voxel block")
    add_store_group(p)
    add_telemetry_group(p, trace=False)
    add_config_group(p)
    return p


def main(argv: list[str] | None = None) -> int:
    """Entry point: fit the model over the acquisition, return 0."""
    parser = build_parser()
    args = parser.parse_args(argv)
    spec = resolve_spec_from_args(parser, args, _BEDPOST_FLAG_MAP)
    if args.print_config:
        print_resolved_config(spec)
        return 0
    if args.data_dir is None:
        parser.error("data_dir is required")

    data_dir = args.data_dir
    dwi = read_nifti(data_dir / "dwi.nii.gz")
    mask = read_nifti(args.mask or (data_dir / "wm_mask.nii.gz")).data
    ctx = StageContext.from_spec(
        spec,
        dwi=dwi,
        gtab=read_bvals_bvecs(data_dir / "bvals", data_dir / "bvecs"),
        fit_mask=(mask[..., 0] if mask.ndim == 4 else mask).astype(bool),
    )
    # A fresh registry per invocation keeps the manifest scoped to this
    # run (the process default would accumulate across library reuse).
    registry = MetricsRegistry()
    with use_registry(registry):
        ctx.outcomes[SAMPLING.name] = run_sampling_stage(ctx)
    result = ctx.outcomes[SAMPLING.name].result

    out = args.output_dir or (data_dir / "bedpost")
    out.mkdir(parents=True, exist_ok=True)
    save_samples(
        out / "samples.npz",
        result.samples,
        result.mask,
        dwi.affine,
        spec.section_dict("sampling"),
        result.stage_key,
    )
    mean = result.samples.mean(axis=0)
    for j in range(result.layout.n_fibers):
        vol = np.zeros(dwi.shape3, dtype=np.float32)
        vol.reshape(-1)[result.mask.reshape(-1)] = mean[:, 3 + j]
        write_nifti(out / f"mean_f{j + 1}.nii.gz", Volume(vol, dwi.affine))

    s = spec.sampling
    write_run_manifest(
        spec,
        registry,
        meta={
            "command": "repro-bedpost",
            "n_fibers": s.n_fibers,
            "n_burnin": s.n_burnin,
            "n_samples": s.n_samples,
            "noise_model": s.noise_model,
            "seed": s.seed,
            "data_dir": str(data_dir.resolve()),
        },
        cache=ctx.cache_section(),
    )

    served = " (served from store)" if result.served_from_store else ""
    print(
        f"fit {result.n_voxels} voxels, {s.n_samples} samples "
        f"({result.wall_seconds:.1f}s wall){served}; modeled GPU "
        f"{result.gpu_seconds:.1f}s vs CPU {result.cpu_seconds:.1f}s "
        f"({result.speedup:.1f}x); wrote {out / 'samples.npz'}"
    )
    if result.supervision is not None and result.supervision.n_failures:
        print(f"fault tolerance: {result.supervision.summary()}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
