"""Diffusion signal models (paper Table I + Eq. 1) and the Bayesian posterior.

Models predict diffusion-weighted voxel intensities ``mu_i`` from local
tissue parameters given the acquisition scheme (b-values ``b_i`` and
gradient directions ``r_i``):

* :class:`TensorModel` — classic DTI tensor (Table I, row 1), with a
  log-linear least-squares fit (the substrate for the deterministic
  baseline);
* :class:`MultiFiberModel` — Behrens' *multiple partial volume* model
  (Eq. 1), the model the paper samples with ``N = 2`` fibers.  Table I's
  single-compartment ball-and-stick model (row 3) is its ``N = 1`` case,
  ``MultiFiberModel(n_fibers=1)``.  Row 2's constrained model is not
  sampled by the paper and is not implemented.

:class:`LogPosterior` packages the multi-fiber likelihood and priors into
the 9-parameter-per-voxel target density the MCMC stage samples;
:class:`CompartmentCache` evaluates it one perturbed parameter at a time.
"""

from repro.models.base import DiffusionModel
from repro.models.tensor import TensorModel, TensorFit
from repro.models.multi_fiber import MultiFiberModel
from repro.models.fields import FiberField, FiberStack
from repro.models.priors import MultiFiberPriors
from repro.models.likelihood import gaussian_loglike, rician_loglike
from repro.models.posterior import (
    CompartmentCache,
    LogPosterior,
    ParameterLayout,
)

__all__ = [
    "DiffusionModel",
    "TensorModel",
    "TensorFit",
    "MultiFiberModel",
    "FiberField",
    "FiberStack",
    "MultiFiberPriors",
    "gaussian_loglike",
    "rician_loglike",
    "CompartmentCache",
    "LogPosterior",
    "ParameterLayout",
]
