"""End-to-end pipeline drivers (the paper's Fig 1 workflow).

* :func:`~repro.pipeline.bedpost.bedpost` — stage 1: per-voxel MCMC over
  the masked volume, producing the posterior sample
  :class:`~repro.models.fields.FiberStack` (the analogue of FSL's
  ``bedpostx``);
* :func:`~repro.tracking.probtrack.probabilistic_streamlining` — stage 2:
  probabilistic streamlining over that stack (the analogue of
  ``probtrackx``);
* :func:`~repro.pipeline.connectome.compute_connectome` — stage 3: the
  ROI endpoint connectome over tracked streamlines (the analogue of a
  ``probtrackx`` network run);
* :func:`~repro.pipeline.workflow.run_workflow` — every registered
  stage (see :mod:`repro.config.stages`) plus the modeled speedup
  accounting for each.

Every stage memoizes through the :mod:`repro.store` artifact store when
given one (``store=`` / ``telemetry.store``); see
:mod:`repro.pipeline.memo` and ``docs/storage.md``.
"""

from repro.pipeline.bedpost import BedpostConfig, BedpostResult, bedpost
from repro.pipeline.connectome import (
    ConnectomeResult,
    compute_connectome,
    memoized_connectome,
    write_connectome,
)
from repro.pipeline.memo import (
    fields_fingerprint,
    memoized_streamlining,
    run_memoized,
)
from repro.pipeline.runners import StageContext, StageOutcome
from repro.pipeline.workflow import WorkflowResult, run_workflow

__all__ = [
    "BedpostConfig",
    "BedpostResult",
    "bedpost",
    "ConnectomeResult",
    "compute_connectome",
    "memoized_connectome",
    "write_connectome",
    "StageContext",
    "StageOutcome",
    "WorkflowResult",
    "run_workflow",
    "fields_fingerprint",
    "memoized_streamlining",
    "run_memoized",
]
