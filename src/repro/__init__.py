"""repro — a reproduction of *Probabilistic Brain Fiber Tractography on
GPUs* (Xu et al., IPDPS Workshops / HiCOMB 2012).

The library implements Behrens-style Bayesian probabilistic tractography
end to end — multi-fiber diffusion modeling, per-voxel Metropolis-Hastings
sampling with on-device-style Tausworthe RNG, and probabilistic
streamlining with the paper's load-balancing segmentation strategies —
against a calibrated SIMD/wavefront GPU execution-model simulator that
reproduces the paper's kernel/reduction/transfer time decomposition.
A third stage beyond the paper folds the streamline endpoints into an
ROI connectome.

Quickstart::

    from repro.data import dataset1
    from repro.pipeline import run_workflow

    phantom = dataset1(scale=0.25)
    result = run_workflow(phantom)
    print(result.report())

Subpackages
-----------
- :mod:`repro.data` — synthetic DWI phantoms (dataset replicas)
- :mod:`repro.models` — the tensor and multi-fiber models (Table I,
  Eq. 1) and the posterior
- :mod:`repro.mcmc` — Metropolis-Hastings engine (Fig 2) and its sharded
  voxel-block driver
- :mod:`repro.rng` — combined Tausworthe + Box-Muller device RNG
- :mod:`repro.gpu` — SIMD/wavefront execution-model simulator
- :mod:`repro.tracking` — probabilistic streamlining + segmentation
- :mod:`repro.connectome` — ROI atlases and endpoint connectomes
- :mod:`repro.baselines` — deterministic / scalar-CPU / point-estimate
- :mod:`repro.pipeline` — bedpost / stage-runner / connectome / workflow drivers
- :mod:`repro.runtime` — supervised sharded execution of a stage
- :mod:`repro.config` — the :class:`~repro.config.RunSpec` and the three stages' hashes
- :mod:`repro.store` — content-addressed memoization of stage outputs
- :mod:`repro.telemetry` — metrics registry and run manifests
- :mod:`repro.service` — job queue and HTTP service
- :mod:`repro.cli` — the ``repro-*`` commands
- :mod:`repro.analysis` — table & figure assembly
- :mod:`repro.io` — NIfTI-1, gradient tables, TrackVis
"""

from repro._version import __version__

__all__ = ["__version__"]
