"""The three stage runners behind every entry point.

:func:`~repro.pipeline.workflow.run_workflow` calls them in order, and
the ``repro-bedpost`` / ``repro-track`` / ``repro-connectome`` tools
call them over their files, so a stage is keyed, stored and served the
same way whichever entry point runs it.  Each runner takes the shared
:class:`StageContext`, produces its stage's result — memoized through
the artifact store when one is in play, under the stage hash of
:mod:`repro.config.stages` — and returns a :class:`StageOutcome` the
caller folds into the run's cache section and report.  The connectome
runner returns ``None`` (the stage is skipped) when
``connectome.atlas = "none"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Any

import numpy as np

from repro.config import RunSpec
from repro.config.stages import CONNECTOME, SAMPLING, TRACKING
from repro.pipeline.bedpost import BedpostConfig, bedpost
from repro.telemetry import cache_section, get_registry
from repro.tracking.probtrack import ProbtrackConfig, default_seed_mask

__all__ = [
    "StageContext",
    "StageOutcome",
    "run_sampling_stage",
    "run_tracking_stage",
    "run_connectome_stage",
]


@dataclass
class StageOutcome:
    """What one stage run reports back to the workflow."""

    #: Stage name.
    stage: str
    #: The stage's result object (``BedpostResult``, ``ProbtrackResult``
    #: or ``ConnectomeResult``).
    result: Any
    #: The stage's store key (``sha256:<hex>``); stages 2 and 3 build it
    #: only when a store is in play.
    key: str | None = None
    #: Whether the result was served from the store.
    hit: bool = False
    #: The stage's SupervisorReport, when it ran sharded.
    supervision: Any | None = None


@dataclass
class StageContext:
    """Everything a stage runner may need, threaded through the stages.

    ``spec`` is the one description of the run: every runner builds its
    stage config from it and keys its stage with the one key it builds
    for that stage.  Stage 1 reads the acquisition (``dwi``, ``gtab``,
    ``fit_mask``); stages 2 and 3 read the posterior ``fields``, which
    :func:`run_sampling_stage` puts here, or a command line tool loads
    from ``samples.npz``.  Upstream results are reached through
    ``outcomes`` (keyed by stage name, populated in execution order).
    """

    spec: RunSpec
    #: The artifact store ``spec.telemetry.store`` names, opened once.
    store: Any = None
    dwi: Any = None
    gtab: Any = None
    fit_mask: Any = None
    #: The posterior :class:`~repro.models.fields.FiberStack`.
    fields: Any = None
    seed_mask: Any = None
    #: Completed stages' outcomes, in execution order.
    outcomes: dict[str, StageOutcome] = dc_field(default_factory=dict)
    _fields_fp: str | None = None

    @classmethod
    def from_spec(cls, spec: RunSpec, **inputs) -> "StageContext":
        """A context over ``inputs`` with the store ``spec`` names opened."""
        store = None
        if spec.telemetry.store:
            from repro.store import ArtifactStore

            store = ArtifactStore(spec.telemetry.store)
        return cls(spec=spec, store=store, **inputs)

    def fields_fp(self) -> str:
        """Fingerprint of the posterior stack, computed once per run."""
        if self._fields_fp is None:
            from repro.pipeline.memo import fields_fingerprint

            self._fields_fp = fields_fingerprint(self.fields)
        return self._fields_fp

    def cache_section(self) -> dict | None:
        """The manifest ``cache`` section of the stages run so far."""
        return cache_section(
            self.store,
            {name: (o.hit, o.key) for name, o in self.outcomes.items()},
        )


def run_sampling_stage(ctx: StageContext) -> StageOutcome:
    """Stage 1: MCMC sampling (memoized inside :func:`bedpost`)."""
    with get_registry().span(f"workflow.{SAMPLING.name}"):
        bp = bedpost(
            ctx.dwi,
            ctx.gtab,
            np.asarray(ctx.fit_mask, dtype=bool),
            config=BedpostConfig.from_run_spec(ctx.spec),
            store=ctx.store,
            use_cache=ctx.spec.telemetry.cache,
        )
    ctx.fields = bp.fields
    return StageOutcome(
        stage=SAMPLING.name,
        result=bp,
        key=bp.stage_key,
        hit=bp.served_from_store,
        supervision=bp.supervision,
    )


def run_tracking_stage(ctx: StageContext) -> StageOutcome:
    """Stage 2: probabilistic streamlining, memoized when a store is live."""
    from repro.pipeline.memo import memoized_streamlining
    from repro.store import fingerprint_arrays

    eff_seed_mask = ctx.seed_mask
    if eff_seed_mask is None:
        eff_seed_mask = default_seed_mask(ctx.fields)
    eff_seed_mask = np.asarray(eff_seed_mask, dtype=bool)
    key = None
    if ctx.store is not None:
        key = ctx.spec.stage_hash(
            TRACKING.name,
            inputs={
                "fields": ctx.fields_fp(),
                "seed_mask": fingerprint_arrays(seed_mask=eff_seed_mask),
            },
        )
    with get_registry().span(f"workflow.{TRACKING.name}"):
        pt, hit = memoized_streamlining(
            ctx.fields,
            ProbtrackConfig.from_run_spec(ctx.spec),
            ctx.store,
            key,
            seed_mask=eff_seed_mask,
            use_cache=ctx.spec.telemetry.cache,
        )
    return StageOutcome(
        stage=TRACKING.name,
        result=pt,
        key=key,
        hit=hit,
        supervision=pt.run.supervision,
    )


def run_connectome_stage(ctx: StageContext) -> StageOutcome | None:
    """Stage 3: ROI connectome; skipped unless an atlas is configured."""
    spec = ctx.spec
    if spec.connectome.atlas == "none":
        return None
    from repro.pipeline.connectome import memoized_connectome
    from repro.store import fingerprint_arrays

    pt = ctx.outcomes[TRACKING.name].result
    key = None
    if ctx.store is not None:
        key = spec.stage_hash(
            CONNECTOME.name,
            inputs={
                "fields": ctx.fields_fp(),
                "seeds": fingerprint_arrays(seeds=pt.seeds),
            },
        )
    with get_registry().span(f"workflow.{CONNECTOME.name}"):
        result, hit = memoized_connectome(
            pt,
            ctx.fields.shape3,
            key,
            ctx.store,
            spec.connectome.atlas,
            use_cache=spec.telemetry.cache,
            min_steps=spec.connectome.min_steps,
            normalize=spec.connectome.normalize,
        )
    return StageOutcome(stage=CONNECTOME.name, result=result, key=key, hit=hit)
