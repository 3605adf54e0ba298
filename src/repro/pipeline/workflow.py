"""The full workflow: the three pipeline stages, in order.

:func:`run_workflow` is the library's one-call entry point.  It calls
the stage runners of :mod:`repro.pipeline.runners` — sampling, tracking,
connectome — directly, each memoized under its own stage hash when an
artifact store is in play, and folds their outcomes into the manifest
``cache`` section, the supervision report, and the text summary.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from repro.config import RunSpec
from repro.config.stages import CONNECTOME, SAMPLING, TRACKING, stage_names
from repro.data.phantoms import Phantom
from repro.pipeline.bedpost import BedpostResult
from repro.pipeline.runners import (
    StageContext,
    StageOutcome,
    run_connectome_stage,
    run_sampling_stage,
    run_tracking_stage,
)
from repro.telemetry import MetricsRegistry, get_registry
from repro.tracking.probtrack import ProbtrackResult

__all__ = ["WorkflowResult", "run_workflow"]


@dataclass
class WorkflowResult:
    """Every stage's outcome plus a compact text report."""

    bedpost: BedpostResult
    probtrack: ProbtrackResult
    #: The registry that was active during the run (telemetry source for
    #: :meth:`report` and for building a run manifest).
    metrics: MetricsRegistry | None = None
    #: Artifact-store accounting when a store was in play: per-stage hit
    #: flags (``<stage>_hit``), stage keys, and the store's
    #: hit/miss/byte stats — the manifest's ``cache`` section.  ``None``
    #: for store-less runs.
    cache: dict | None = None
    #: Per-stage outcomes keyed by stage name, in execution order;
    #: stages that were skipped (e.g. connectome without an atlas) are
    #: absent.
    outcomes: dict[str, StageOutcome] = dc_field(default_factory=dict)

    @property
    def connectome(self):
        """The connectome stage's result, or ``None`` if it did not run."""
        outcome = self.outcomes.get(CONNECTOME.name)
        return outcome.result if outcome is not None else None

    def _supervision_rows(self):
        """(stage, report) pairs, in execution order, from the outcomes."""
        if self.outcomes:
            return [(name, o.supervision) for name, o in self.outcomes.items()]
        # Hand-built results (no workflow ran): fall back to the results'
        # own supervision attributes.
        return [
            (SAMPLING.name, getattr(self.bedpost, "supervision", None)),
            (TRACKING.name, self.probtrack.run.supervision),
        ]

    def report(self) -> str:
        """Human-readable per-stage summary (modeled times)."""
        b, p = self.bedpost, self.probtrack.run
        lines = [
            "stage 1 (MCMC sampling)",
            f"  voxels          {b.n_voxels}",
            f"  samples         {b.samples.shape[0]}",
            f"  modeled CPU     {b.cpu_seconds:10.2f} s",
            f"  modeled GPU     {b.gpu_seconds:10.2f} s",
            f"  modeled speedup {b.speedup:10.1f} x",
            "stage 2 (probabilistic streamlining)",
            f"  seeds           {p.n_seeds}",
            f"  total steps     {p.total_steps}",
            f"  longest fiber   {p.longest_fiber}",
            f"  kernel          {p.kernel_seconds:10.4f} s",
            f"  reduction       {p.reduction_seconds:10.4f} s",
            f"  transfer        {p.transfer_seconds:10.4f} s",
            f"  modeled CPU     {p.cpu_seconds:10.2f} s",
            f"  modeled speedup {p.speedup:10.1f} x",
        ]
        conn = self.connectome
        if conn is not None:
            lines += [
                "stage 3 (connectome)",
                f"  atlas           {conn.atlas.name}",
                f"  ROIs            {conn.atlas.n_rois}",
                f"  streamlines     {conn.n_streamlines}",
                f"  edges           {len(conn.graph['edges'])}",
            ]
        for label, sup in self._supervision_rows():
            if sup is None:
                continue
            lines.append(f"fault tolerance ({label} shards)")
            lines.append(f"  shards          {sup.n_shards}")
            lines.append(f"  failed attempts {sup.n_failures}")
            lines.append(f"  retries         {sup.n_retries}")
            lines.append(f"  re-shards       {len(sup.reshards)}")
            lines.append(f"  serial fallback {len(sup.fallbacks)}")
            for a in sup.failed_attempts():
                lines.append(
                    f"    shard {a.shard} attempt {a.attempt}: {a.outcome}"
                    f" after {a.seconds:.3f} s (via {a.via})"
                )
        if self.cache is not None:
            lines.append("artifact store")
            for name in stage_names():
                flag = self.cache.get(f"{name}_hit")
                if flag is None:
                    continue
                lines.append(f"  {name:<16}{'hit' if flag else 'miss'}")
        if self.metrics is not None:
            lines.append("telemetry (measured on this host)")
            for row in self.metrics.summary().splitlines():
                lines.append(f"  {row}")
        return "\n".join(lines)


def run_workflow(
    phantom: Phantom,
    spec: RunSpec | None = None,
    seed_mask: np.ndarray | None = None,
    fit_mask: np.ndarray | None = None,
) -> WorkflowResult:
    """Run every pipeline stage on a phantom acquisition.

    ``spec`` — a resolved :class:`~repro.config.spec.RunSpec`, default
    ``RunSpec()`` — is the one description of the run: each stage
    builds its config from it (``BedpostConfig.from_run_spec``,
    ``ProbtrackConfig.from_run_spec``) and keys its store entry by
    the spec's stage hash.  ``fit_mask`` restricts stage 1 to a voxel
    subset (e.g. a white-matter mask — the paper likewise samples only
    "valid (white matter)" voxels); it defaults to the phantom's full
    valid mask.  ``seed_mask`` restricts stage-2 seeding (default:
    fitted voxels with a surviving population).  The stages' process
    counts are ``runtime.bedpost_workers`` and ``runtime.n_workers``;
    results are bit-identical for any values (see :mod:`repro.runtime`).

    ``telemetry.store`` names an artifact store that memoizes every
    stage by its stage hash: a warm run serves each stage's artifacts
    bit-identically instead of recomputing, and a run that changes only
    one stage's parameters reuses every upstream artifact (a tracking
    sweep reuses sampling; an atlas sweep reuses sampling *and*
    tracking).  ``telemetry.cache = false`` forces a full recompute but
    still refreshes the store.

    The stage runners — :func:`~repro.pipeline.runners.run_sampling_stage`,
    :func:`~repro.pipeline.runners.run_tracking_stage` and
    :func:`~repro.pipeline.runners.run_connectome_stage` — run in that
    order against a shared :class:`~repro.pipeline.runners.StageContext`;
    the connectome stage skips itself (returns ``None``) unless
    ``connectome.atlas`` names a parcellation.
    """
    if spec is None:
        spec = RunSpec()
    ctx = StageContext.from_spec(
        spec,
        dwi=phantom.dwi,
        gtab=phantom.gtab,
        fit_mask=phantom.mask if fit_mask is None else fit_mask,
        seed_mask=seed_mask,
    )
    ctx.outcomes[SAMPLING.name] = run_sampling_stage(ctx)
    ctx.outcomes[TRACKING.name] = run_tracking_stage(ctx)
    connectome = run_connectome_stage(ctx)
    if connectome is not None:
        ctx.outcomes[CONNECTOME.name] = connectome
    return WorkflowResult(
        bedpost=ctx.outcomes[SAMPLING.name].result,
        probtrack=ctx.outcomes[TRACKING.name].result,
        metrics=get_registry(),
        cache=ctx.cache_section(),
        outcomes=ctx.outcomes,
    )
