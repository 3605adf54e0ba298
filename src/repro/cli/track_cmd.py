"""``repro-track`` — stage 2: probabilistic streamlining over saved samples.

Reads ``samples.npz`` from ``repro-bedpost``, rebuilds the posterior
fiber stack, and runs the workflow's own tracking stage over it (and,
with ``--connectome ATLAS``, its connectome stage), keyed and stored
exactly as :func:`~repro.pipeline.workflow.run_workflow` keys them, so
either entry point serves the other's store entries.  Writes:

* ``density.nii.gz`` — the track-density (visit count) map;
* ``fibers.trk`` — streamline geometry (first sample volume, long
  fibers, the paper's Figs 11/12 view);
* ``lengths.txt`` — per-(sample, seed) step counts;
* a timing report with the modeled kernel/reduction/transfer split and
  speedup;
* with ``--connectome ATLAS``, the stage-3 endpoint connectome over the
  named ROI parcellation (``connectome.npz`` + ``graph.json``, the same
  bytes as the store entry's payload);
* optionally a telemetry run manifest with the resolved config embedded
  (``--metrics-out``) and a Chrome trace with modeled + measured rows
  (``--trace-out``).

The run is driven by one resolved :class:`~repro.config.spec.RunSpec`
(``archive's sampling section < --config FILE < explicit flags <
--set``); ``--replay MANIFEST`` starts instead from the config a
previous run embedded in its manifest, reproducing it bit for bit.  The
``sampling`` section always comes from the archive that
``samples.npz`` records: a layer that sets a sampling value differently
is an error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro.cli.common import (
    RUNTIME_FLAG_MAP,
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
from repro.cli.tracking_stage import resolve_archive_spec, run_archive_stages
from repro.config.stages import CONNECTOME, TRACKING
from repro.io import Volume, write_nifti
from repro.telemetry import load_manifest

__all__ = ["build_parser", "main"]

#: Named strategies offered as plain choices; ``--set tracking.strategy``
#: additionally accepts any ``a<k>``, and ``tracking.strategy_array``
#: any explicit array.
_STRATEGY_CHOICES = ("a1", "a20", "b", "c", "increasing", "single")

#: ``args`` attribute -> run-spec dotted path for this command's own flags.
_TRACK_FLAG_MAP = {
    "step": "tracking.step_length",
    "threshold": "tracking.min_dot",
    "max_steps": "tracking.max_steps",
    "strategy": "tracking.strategy",
    "bidirectional": "tracking.bidirectional",
    "min_export_steps": "telemetry.min_export_steps",
    "connectome": "connectome.atlas",
    **RUNTIME_FLAG_MAP,
    **TELEMETRY_FLAG_MAP,
    **STORE_FLAG_MAP,
}


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-track`` argument parser (exposed for docs and tests)."""
    p = argparse.ArgumentParser(
        prog="repro-track",
        description="Probabilistic streamlining over bedpost samples (stage 2).",
    )
    p.add_argument("bedpost_dir", type=Path, nargs="?", default=None,
                   help="directory holding samples.npz (optional with "
                        "--replay, which remembers it; with --print-config "
                        "the printed spec takes its sampling section)")
    p.add_argument("--output-dir", type=Path, default=None,
                   help="output directory (default: <bedpost_dir>/track)")
    p.add_argument("--replay", type=Path, default=None, metavar="MANIFEST",
                   help="rerun the configuration embedded in a previous "
                        "run's manifest (--metrics-out file); explicit "
                        "flags and --set still override on top")
    p.add_argument("--step", type=float, default=None,
                   help="step length, voxels (default 0.2)")
    p.add_argument("--threshold", type=float, default=None,
                   help="angular threshold, dot product (default 0.8)")
    p.add_argument("--max-steps", type=int, default=None,
                   help="step budget per streamline (default 1888)")
    p.add_argument("--strategy", choices=_STRATEGY_CHOICES, default=None,
                   help="segmentation strategy (default increasing)")
    p.add_argument("--bidirectional", action="store_true",
                   help="launch each seed in both senses")
    p.add_argument("--min-export-steps", type=int, default=None,
                   help="length floor for exported .trk fibers (default 100)")
    p.add_argument("--connectome", default=None, metavar="ATLAS",
                   help="also run stage 3: build the named ROI parcellation "
                        "(octant, slabs<k>, grid<k>) and write the "
                        "endpoint connectome (connectome.npz, graph.json) "
                        "next to the tracking outputs; with --store the "
                        "stage is memoized under its own hash, so an atlas "
                        "sweep reuses the tracked run")
    add_runtime_group(p)
    add_store_group(p)
    add_telemetry_group(p)
    add_config_group(p)
    return p


def main(argv: list[str] | None = None) -> int:
    """Entry point: track the saved samples, write outputs, return 0."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.replay is not None and args.config is not None:
        parser.error("--replay and --config are mutually exclusive; "
                     "use --set to adjust a replayed run")

    base = None
    replay_meta: dict = {}
    if args.replay is not None:
        manifest = load_manifest(args.replay)
        base = manifest.get("config")
        if base is None:
            parser.error(
                f"{args.replay} carries no config section (schema "
                f"{manifest['schema']}); only manifests written by this "
                "version's --metrics-out can be replayed"
            )
        replay_meta = manifest.get("meta", {})
    if args.print_config and args.bedpost_dir is None:
        print_resolved_config(
            resolve_spec_from_args(parser, args, _TRACK_FLAG_MAP, base=base)
        )
        return 0

    bedpost_dir = args.bedpost_dir
    if bedpost_dir is None and replay_meta.get("bedpost_dir"):
        bedpost_dir = Path(replay_meta["bedpost_dir"])
    if bedpost_dir is None:
        parser.error("bedpost_dir is required (the replayed manifest "
                     "does not record one)")
    archive, spec = resolve_archive_spec(
        parser, args, _TRACK_FLAG_MAP, bedpost_dir, base=base
    )
    if args.print_config:
        print_resolved_config(spec)
        return 0
    out = args.output_dir or (bedpost_dir / "track")
    ctx, registry, n_exported = run_archive_stages(spec, archive, out)
    tracked = ctx.outcomes[TRACKING.name]
    conn = ctx.outcomes.get(CONNECTOME.name)
    run = tracked.result.run

    density = tracked.result.connectivity.visit_count_volume(ctx.fields.shape3)
    write_nifti(
        out / "density.nii.gz",
        Volume(density.astype(np.float32), archive.affine),
    )
    np.savetxt(out / "lengths.txt", run.lengths, fmt="%d")

    write_run_manifest(
        spec,
        registry,
        meta={
            "command": "repro-track",
            "strategy": spec.tracking.strategy,
            "n_workers": spec.runtime.n_workers,
            "max_steps": spec.tracking.max_steps,
            "bidirectional": spec.tracking.bidirectional,
            "bedpost_dir": str(bedpost_dir.resolve()),
            "sampling_key": archive.stage_key,
            "replayed_from": (
                str(args.replay) if args.replay is not None else None
            ),
        },
        cache=ctx.cache_section(),
    )
    if spec.telemetry.trace_out is not None:
        from repro.gpu.trace_export import write_chrome_trace

        trace_out = Path(spec.telemetry.trace_out)
        write_chrome_trace(trace_out, run.timeline, spans=registry.spans)
        print(f"wrote chrome trace to {trace_out}")

    served = " (served from store)" if tracked.hit else ""
    print(
        f"tracked {run.n_seeds} threads x {run.n_samples} samples{served}: "
        f"total {run.total_steps} steps, longest {run.longest_fiber}; "
        f"modeled kernel {run.kernel_seconds:.2f}s / reduce "
        f"{run.reduction_seconds:.2f}s / transfer {run.transfer_seconds:.2f}s "
        f"(CPU {run.cpu_seconds:.1f}s, {run.speedup:.1f}x); "
        f"wrote {n_exported} fibers >= {spec.telemetry.min_export_steps} "
        f"steps to {out / 'fibers.trk'}"
    )
    if conn is not None:
        graph = conn.result.graph
        conn_served = " (served from store)" if conn.hit else ""
        print(
            f"connectome ({conn.result.atlas.name}){conn_served}: "
            f"{conn.result.atlas.n_rois} ROIs, {conn.result.n_streamlines} "
            f"streamlines, {len(graph['edges'])} edges -> "
            f"{out / 'graph.json'}"
        )
    if run.supervision is not None and run.supervision.n_failures:
        print(f"fault tolerance: {run.supervision.summary()}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
