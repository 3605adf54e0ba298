"""Stages 2 and 3 over a saved posterior, as ``repro-track`` and
``repro-connectome`` run them.

Both commands load ``samples.npz`` into a
:class:`~repro.pipeline.runners.StageContext` and call the workflow's
own runners, so each stage is keyed, stored and served exactly as
:func:`~repro.pipeline.workflow.run_workflow` keys, stores and serves
it: a posterior one entry point sampled serves the other's tracking
and connectome requests.  This module adds only the file side: the run
spec, resolved on top of the archive's ``sampling`` section, and the
output files.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from repro.baselines import cpu_probabilistic_tracking
from repro.cli.common import resolve_spec_from_args
from repro.config.layering import deep_merge
from repro.config.spec import RunSpec
from repro.config.stages import TRACKING
from repro.errors import ReproError
from repro.io import write_trk
from repro.io.samples import SampleArchive, load_samples
from repro.pipeline.connectome import write_connectome
from repro.pipeline.runners import (
    StageContext,
    run_connectome_stage,
    run_tracking_stage,
)
from repro.telemetry import MetricsRegistry, use_registry
from repro.tracking import ProbtrackConfig, ProbtrackResult

__all__ = ["export_sample0_trk", "resolve_archive_spec", "run_archive_stages"]


def resolve_archive_spec(
    parser: argparse.ArgumentParser,
    args: argparse.Namespace,
    flag_map: dict[str, str],
    bedpost_dir: Path,
    base: dict | None = None,
) -> tuple[SampleArchive, RunSpec]:
    """Load ``bedpost_dir/samples.npz`` and resolve the run spec on it.

    The archive's ``sampling`` section is the lowest layer, under
    ``base`` (a replayed manifest's config), ``--config``, the flags and
    ``--set``.  A sampling value any of those layers sets differently
    from the archive is a parser error: the posterior is what it is.
    """
    try:
        archive = load_samples(bedpost_dir / "samples.npz")
    except ReproError as exc:
        parser.error(str(exc))
    spec = resolve_spec_from_args(
        parser, args, flag_map,
        base=deep_merge({"sampling": archive.sampling}, base or {}),
    )
    clashes = [
        f"sampling.{name}={value!r} (the archive's is "
        f"{archive.sampling.get(name)!r})"
        for name, value in sorted(spec.section_dict("sampling").items())
        if value != archive.sampling.get(name)
    ]
    if clashes:
        parser.error(
            f"{bedpost_dir / 'samples.npz'} was sampled with a different "
            f"sampling section: {', '.join(clashes)}; drop the override or "
            "re-run repro-bedpost with it"
        )
    return archive, spec


def export_sample0_trk(path: Path, fields, pt: ProbtrackResult, spec, affine) -> int:
    """Write sample 0's forward streamlines as TrackVis; return the count.

    Only lines of at least ``telemetry.min_export_steps`` steps are kept
    (the paper's Figs 11/12 view).  The stage records end positions, not
    polylines, so the geometry comes from the scalar tracker, run with
    the configured interpolation over just the seeds whose stage-2
    sample-0 forward length passes the floor: the stage's lengths equal
    the scalar tracker's bit for bit, so these are the same lines a run
    over every seed would keep.
    """
    forward = pt.run.lengths[0, : len(pt.seeds)]
    keep = np.flatnonzero(forward >= spec.telemetry.min_export_steps)
    lines = []
    if keep.size:
        cpu = cpu_probabilistic_tracking(
            fields[:1],
            pt.seeds[keep],
            ProbtrackConfig.from_run_spec(spec).criteria,
            interpolation=spec.tracking.interpolation,
            keep_streamlines=True,
        )
        lines = [line.points for line in cpu.streamlines[0]]
    write_trk(
        path,
        lines,
        voxel_sizes=tuple(np.linalg.norm(affine[:3, :3], axis=0)),
        dims=fields.shape3,
        affine=affine,
    )
    return len(lines)


def run_archive_stages(spec: RunSpec, archive: SampleArchive, out: Path):
    """Run stage 2 (and stage 3 when an atlas is set) over ``archive``.

    Writes ``out/fibers.trk`` and, with a connectome,
    ``out/connectome.npz`` and ``out/graph.json``.  Returns ``(ctx,
    registry, n_exported)``: the stage context with its outcomes, the
    run's fresh metrics registry, and the number of exported lines.
    """
    ctx = StageContext.from_spec(spec, fields=archive.to_fields())
    # A fresh registry per invocation keeps the manifest scoped to this
    # run (the process default would accumulate across library reuse).
    registry = MetricsRegistry()
    with use_registry(registry):
        ctx.outcomes[TRACKING.name] = run_tracking_stage(ctx)
        connectome = run_connectome_stage(ctx)
    out.mkdir(parents=True, exist_ok=True)
    if connectome is not None:
        ctx.outcomes[connectome.stage] = connectome
        write_connectome(out, connectome.result)
    n_exported = export_sample0_trk(
        out / "fibers.trk",
        ctx.fields,
        ctx.outcomes[TRACKING.name].result,
        spec,
        archive.affine,
    )
    return ctx, registry, n_exported
