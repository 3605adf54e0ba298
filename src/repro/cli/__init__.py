"""Command-line entry points.

Three commands mirror the workflow a downstream user runs:

* ``repro-phantom`` — generate a synthetic acquisition (DWI NIfTI +
  bvals/bvecs + mask) from a dataset replica;
* ``repro-bedpost`` — stage 1: fit the multi-fiber model by MCMC and
  save the posterior sample volumes;
* ``repro-track`` — stage 2: probabilistic streamlining over saved
  samples, writing streamlines (TrackVis), a track-density NIfTI, and a
  timing report.

The stage commands (and ``repro-connectome``, stage 3) are file
adapters around the stage runners
:func:`~repro.pipeline.workflow.run_workflow` calls, so each stage has
one store key whichever entry point runs it.  ``repro-bedpost`` and
``repro-track`` share the flag groups in
:mod:`repro.cli.common` and are driven by one resolved
:class:`~repro.config.spec.RunSpec` (``--config``/``--set``/
``--print-config``); ``repro-track --replay manifest.json`` reruns the
configuration a previous run embedded in its telemetry manifest.

Each module exposes ``main(argv)`` so the commands are scriptable and
testable without a subprocess.
"""

from repro.cli.phantom_cmd import main as phantom_main
from repro.cli.bedpost_cmd import main as bedpost_main
from repro.cli.track_cmd import main as track_main

__all__ = ["phantom_main", "bedpost_main", "track_main"]
