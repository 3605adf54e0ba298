"""``repro-connectome`` — stage 3: ROI connectome over saved samples.

Reads ``samples.npz`` from ``repro-bedpost``, rebuilds the posterior
fiber stack, and runs the workflow's own tracking and connectome stages
over it — the same runners, keys and store entries as ``repro-track
--connectome`` and :func:`~repro.pipeline.workflow.run_workflow`, so
every entry point serves the others' published entries — folding the
tracked streamlines' endpoints into a symmetric ROI-pair count matrix
over the named parcellation.  Writes:

* ``connectome.npz`` — the ``(n_rois, n_rois)`` int64 count matrix and
  the int32 ROI label volume;
* ``graph.json`` — the weighted graph (nodes, edges) in stable JSON;
* ``fibers.trk`` — sample-0 streamline geometry in TrackVis format,
  filtered to ``telemetry.min_export_steps``.

The first two are the same bytes as the store entry's payload.  The run
is driven by one resolved :class:`~repro.config.spec.RunSpec`
(``archive's sampling section < --config FILE < explicit flags <
--set``); the atlas comes from ``--atlas`` / ``connectome.atlas``, and a
layer that sets a sampling value differently from the archive is an
error.  With ``--store`` an atlas sweep recomputes only the matrix.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.cli.common import (
    STORE_FLAG_MAP,
    TELEMETRY_FLAG_MAP,
    add_config_group,
    add_store_group,
    add_telemetry_group,
    print_resolved_config,
    resolve_spec_from_args,
    write_run_manifest,
)
from repro.cli.tracking_stage import resolve_archive_spec, run_archive_stages
from repro.config.spec import CONNECTOME_NORMALIZATIONS
from repro.config.stages import CONNECTOME, TRACKING

__all__ = ["build_parser", "main"]

#: ``args`` attribute -> run-spec dotted path for this command's flags.
_CONNECTOME_FLAG_MAP = {
    "atlas": "connectome.atlas",
    "min_steps": "connectome.min_steps",
    "normalize": "connectome.normalize",
    **TELEMETRY_FLAG_MAP,
    **STORE_FLAG_MAP,
}


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-connectome`` parser (exposed for docs and tests)."""
    p = argparse.ArgumentParser(
        prog="repro-connectome",
        description="ROI endpoint connectome over bedpost samples (stage 3).",
    )
    p.add_argument("bedpost_dir", type=Path, nargs="?", default=None,
                   help="directory holding samples.npz (with "
                        "--print-config the printed spec takes its "
                        "sampling section)")
    p.add_argument("--output-dir", type=Path, default=None,
                   help="output directory "
                        "(default: <bedpost_dir>/connectome)")
    p.add_argument("--atlas", default=None, metavar="NAME",
                   help="ROI parcellation: octant (2x2x2), slabs<k> "
                        "(k slabs along x), or grid<k> (k^3 blocks); "
                        "defaults to connectome.atlas from the spec")
    p.add_argument("--min-steps", type=int, default=None,
                   help="only count streamlines with at least this many "
                        "steps (default 0)")
    p.add_argument("--normalize", choices=CONNECTOME_NORMALIZATIONS, default=None,
                   help="edge weights: raw pair counts, or fractions of "
                        "all counted streamlines (default count)")
    add_store_group(p)
    add_telemetry_group(p, trace=False)
    add_config_group(p)
    return p


def main(argv: list[str] | None = None) -> int:
    """Entry point: build the connectome, write outputs, return 0."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.bedpost_dir is None:
        if args.print_config:
            print_resolved_config(
                resolve_spec_from_args(parser, args, _CONNECTOME_FLAG_MAP)
            )
            return 0
        parser.error("bedpost_dir is required")
    archive, spec = resolve_archive_spec(
        parser, args, _CONNECTOME_FLAG_MAP, args.bedpost_dir
    )
    if args.print_config:
        print_resolved_config(spec)
        return 0
    if spec.connectome.atlas == "none":
        parser.error("no atlas configured: pass --atlas NAME "
                     "(or set connectome.atlas)")

    out = args.output_dir or (args.bedpost_dir / "connectome")
    ctx, registry, n_exported = run_archive_stages(spec, archive, out)
    conn = ctx.outcomes[CONNECTOME.name]
    write_run_manifest(
        spec,
        registry,
        meta={
            "command": "repro-connectome",
            "atlas": spec.connectome.atlas,
            "n_workers": spec.runtime.n_workers,
            "bedpost_dir": str(args.bedpost_dir.resolve()),
            "sampling_key": archive.stage_key,
        },
        cache=ctx.cache_section(),
    )

    result = conn.result
    served = " (served from store)" if conn.hit else ""
    print(
        f"connectome ({result.atlas.name}){served}: {result.atlas.n_rois} "
        f"ROIs, {result.n_streamlines} streamlines counted, "
        f"{len(result.graph['edges'])} edges; wrote {n_exported} fibers "
        f">= {spec.telemetry.min_export_steps} steps to {out / 'fibers.trk'}"
    )
    supervision = ctx.outcomes[TRACKING.name].supervision
    if supervision is not None and supervision.n_failures:
        print(f"fault tolerance: {supervision.summary()}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
