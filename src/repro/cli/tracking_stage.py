"""Stages 2 and 3 as ``repro-track`` and ``repro-connectome`` run them.

Both commands track a saved posterior archive the same way, under the
same store key, export the same sample-0 ``fibers.trk``, and fold the
connectome under the same key — so either command serves the other's
published entries.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.baselines import cpu_probabilistic_tracking
from repro.config.stages import CONNECTOME, TRACKING
from repro.io import write_trk
from repro.tracking import (
    ProbtrackConfig,
    ProbtrackResult,
    filter_by_steps,
)

__all__ = [
    "TrackedArchive",
    "connectome_for_archive",
    "export_sample0_trk",
    "track_archive",
]


def export_sample0_trk(path: Path, fields, seeds, spec, affine) -> int:
    """Write sample 0's forward streamlines as TrackVis; return the count.

    Only lines of at least ``tracking.min_export_steps`` steps are kept
    (the paper's Figs 11/12 view).  The engine records end positions,
    not polylines, so the geometry comes from the scalar tracker run
    with the configured interpolation.
    """
    cpu = cpu_probabilistic_tracking(
        fields[:1],
        seeds,
        ProbtrackConfig.from_run_spec(spec).criteria,
        interpolation=spec.tracking.interpolation,
        keep_streamlines=True,
    )
    lines = filter_by_steps(
        cpu.streamlines[0], min_steps=spec.tracking.min_export_steps
    )
    write_trk(
        path,
        [line.points for line in lines],
        voxel_sizes=tuple(np.linalg.norm(affine[:3, :3], axis=0)),
        dims=fields.shape3,
        affine=affine,
    )
    return len(lines)


@dataclass
class TrackedArchive:
    """One stage-2 run over an archive, plus its ``fibers.trk`` export."""

    pt: ProbtrackResult
    #: Whether the tracking stage was served from the store.
    hit: bool
    #: The tracking stage key; ``None`` without a store.
    key: str | None
    #: Fingerprint of the archive contents; ``None`` without a store.
    archive_fp: str | None
    #: Lines written to ``fibers.trk``.
    n_exported: int


def track_archive(spec, archive, fields, store, out: Path) -> TrackedArchive:
    """Track ``fields`` and write ``out/fibers.trk``, memoized with a store.

    The archive *contents* key the stage: two bedpost dirs with
    identical posteriors share tracking artifacts, and a re-sampled
    posterior can never serve stale tracks.  The ``.trk`` export rides
    in the published entry, so a hit copies it instead of re-tracking.
    """
    from repro.pipeline.memo import memoized_streamlining
    from repro.store import fingerprint_arrays

    cfg = ProbtrackConfig.from_run_spec(spec)
    trk = out / "fibers.trk"
    fp = key = None
    if store is not None:
        fp = fingerprint_arrays(
            samples=archive.samples,
            mask=archive.mask,
            affine=archive.affine,
            n_fibers=archive.layout.n_fibers,
            f_threshold=archive.f_threshold,
        )
        key = spec.stage_hash(TRACKING.name, inputs={"archive": fp})

    def _export(tmp_dir, result) -> None:
        n = export_sample0_trk(
            tmp_dir / "fibers.trk", fields, result.seeds, spec, archive.affine
        )
        (tmp_dir / "export_meta.json").write_text(
            json.dumps({"n_fibers_exported": n})
        )

    pt, hit, entry = memoized_streamlining(
        fields,
        cfg,
        store,
        key,
        extra_writer=_export,
        use_cache=spec.telemetry.cache,
    )
    if entry is None:
        n = export_sample0_trk(trk, fields, pt.seeds, spec, archive.affine)
    else:
        shutil.copyfile(entry.file("fibers.trk"), trk)
        n = json.loads(entry.file("export_meta.json").read_text())[
            "n_fibers_exported"
        ]
    return TrackedArchive(pt, hit=hit, key=key, archive_fp=fp, n_exported=n)


def connectome_for_archive(spec, tracked: TrackedArchive, fields, store, out: Path):
    """Fold ``tracked``'s endpoints into the configured connectome.

    Writes ``out/connectome.npz`` and ``out/graph.json``; with a store
    the stage is keyed by the archive contents and the seed positions.
    Returns ``(result, hit, key)``; ``key`` is ``None`` without a store.
    """
    from repro.pipeline.connectome import memoized_connectome
    from repro.store import fingerprint_arrays

    key = None
    if store is not None:
        key = spec.stage_hash(
            CONNECTOME.name,
            inputs={
                "archive": tracked.archive_fp,
                "seeds": fingerprint_arrays(seeds=tracked.pt.seeds),
            },
        )
    conn, hit, _entry = memoized_connectome(
        tracked.pt,
        fields.shape3,
        key,
        store,
        spec.connectome.atlas,
        use_cache=spec.telemetry.cache,
        min_steps=spec.connectome.min_steps,
        normalize=spec.connectome.normalize,
    )
    np.savez_compressed(
        out / "connectome.npz", counts=conn.counts, labels=conn.atlas.labels
    )
    (out / "graph.json").write_text(json.dumps(conn.graph, sort_keys=True))
    return conn, hit, key
