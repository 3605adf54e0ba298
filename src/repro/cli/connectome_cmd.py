"""``repro-connectome`` — stage 3: ROI connectome over saved samples.

Reads ``samples.npz`` from ``repro-bedpost``, reconstructs the
per-sample fiber fields, runs stage 2 exactly as ``repro-track`` does
(same tracker, same store key, so the two commands share tracking
entries), and folds the tracked streamlines' endpoints into a symmetric
ROI-pair count matrix over the named parcellation.  Writes:

* ``connectome.npz`` — the ``(n_rois, n_rois)`` int64 count matrix and
  the int32 ROI label volume;
* ``graph.json`` — the weighted graph (nodes, edges) in stable JSON;
* ``fibers.trk`` — sample-0 streamline geometry in TrackVis format,
  filtered to ``tracking.min_export_steps``.

The run is driven by one resolved :class:`~repro.config.spec.RunSpec`
(``defaults < --config FILE < explicit flags < --set``); the atlas
comes from ``--atlas`` / ``connectome.atlas``.  With ``--store`` both
stages are memoized under their own stage hashes — keyed identically
to ``repro-track --connectome``, so either command serves the other's
published entries — and an atlas sweep recomputes only the matrix.
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
)
from repro.cli.tracking_stage import connectome_for_archive, track_archive
from repro.config.spec import CONNECTOME_NORMALIZATIONS
from repro.config.stages import CONNECTOME, TRACKING
from repro.errors import ReproError
from repro.telemetry import (
    MetricsRegistry,
    cache_section,
    use_registry,
    write_manifest,
)

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
                   help="directory holding samples.npz (unused with "
                        "--print-config)")
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
    try:
        spec = resolve_spec_from_args(args, _CONNECTOME_FLAG_MAP)
    except ReproError as exc:
        parser.error(str(exc))
    if args.print_config:
        print_resolved_config(spec)
        return 0
    if spec.connectome.atlas == "none":
        parser.error("no atlas configured: pass --atlas NAME "
                     "(or set connectome.atlas)")
    if args.bedpost_dir is None:
        parser.error("bedpost_dir is required")

    from repro.io.samples import load_samples

    archive = load_samples(args.bedpost_dir / "samples.npz")
    fields = archive.to_fields()

    store = None
    if spec.telemetry.store:
        from repro.store import ArtifactStore

        store = ArtifactStore(spec.telemetry.store)
    out = args.output_dir or (args.bedpost_dir / "connectome")
    out.mkdir(parents=True, exist_ok=True)

    registry = MetricsRegistry()
    with use_registry(registry):
        tracked = track_archive(spec, archive, fields, store, out)
        conn, hit, stage_key = connectome_for_archive(
            spec, tracked, fields, store, out
        )
    pt = tracked.pt
    min_export = spec.tracking.min_export_steps

    if spec.telemetry.metrics_out is not None:
        metrics_out = Path(spec.telemetry.metrics_out)
        write_manifest(
            metrics_out,
            registry,
            meta={
                "command": "repro-connectome",
                "atlas": spec.connectome.atlas,
                "n_workers": spec.runtime.n_workers,
                "bedpost_dir": str(args.bedpost_dir.resolve()),
            },
            config=spec.to_dict(),
            cache=cache_section(
                store,
                {
                    TRACKING.name: (tracked.hit, tracked.key),
                    CONNECTOME.name: (hit, stage_key),
                },
            ),
        )
        print(f"wrote telemetry manifest to {metrics_out}")

    served = " (served from store)" if hit else ""
    print(
        f"connectome ({conn.atlas.name}){served}: {conn.atlas.n_rois} ROIs, "
        f"{conn.n_streamlines} streamlines counted, "
        f"{len(conn.graph['edges'])} edges; wrote {tracked.n_exported} fibers "
        f">= {min_export} steps to {out / 'fibers.trk'}"
    )
    if pt.run.supervision is not None and pt.run.supervision.n_failures:
        print(f"fault tolerance: {pt.run.supervision.summary()}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
