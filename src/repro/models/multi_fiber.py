"""Behrens' multiple partial volume model (paper Eq. 1).

Each voxel holds ``N`` sticks plus an isotropic ball::

    mu_i = S0 * [ (1 - sum_j f_j) exp(-b_i d)
                  + sum_j f_j exp(-b_i d (r_i . v_j)^2) ]

The paper (and FSL bedpostx) uses ``N = 2`` to allow for crossing fibers
while avoiding overfitting.  This is the model the MCMC stage samples and
the phantom generator uses as the ground-truth forward model.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.io.gradients import GradientTable
from repro.models.base import DiffusionModel
from repro.utils.geometry import spherical_to_cartesian

__all__ = ["MultiFiberModel", "gradient_projection"]


def gradient_projection(
    x: np.ndarray,
    y: np.ndarray,
    z: np.ndarray,
    g: np.ndarray,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Project unit vectors on every gradient direction.

    ``x, y, z`` are the vectors' components (one shape ``S``, any
    strides) and ``g`` the gradient table's ``bvecs.T``, ``(3, m)``.
    Returns ``(x gx + z gz) + y gy`` with shape ``S + (m,)``, written
    into ``out`` when given; ``scratch`` (same shape) holds the second
    product.  The summation order is the one ``np.einsum("...j,mj->...m",
    dirs, bvecs)`` used for these length-3 contractions, at about half
    its cost: the values are equal bit for bit, except that an exact
    zero (a b=0 row) may come out as ``-0.0`` where the einsum gave
    ``+0.0``.  Every consumer squares the projection, so the squares are
    bitwise equal (``tests/unit/test_gradient_projection.py``).  The
    model and the sampler's compartment cache both project through here.
    """
    gx, gy, gz = g
    out = np.multiply(x[..., None], gx, out=out)
    scratch = np.multiply(z[..., None], gz, out=scratch)
    np.add(out, scratch, out=out)
    np.multiply(y[..., None], gy, out=scratch)
    return np.add(out, scratch, out=out)


class MultiFiberModel(DiffusionModel):
    """Multiple partial volume model with ``n_fibers`` sticks.

    Parameters
    ----------
    n_fibers:
        Number of stick compartments ``N`` (default 2, as in the paper).
    """

    def __init__(self, n_fibers: int = 2) -> None:
        if n_fibers < 1:
            raise ModelError(f"n_fibers must be >= 1, got {n_fibers}")
        self.n_fibers = n_fibers
        names = ["s0", "d"]
        for j in range(1, n_fibers + 1):
            names += [f"f{j}", f"theta{j}", f"phi{j}"]
        self.param_names = tuple(names)

    def predict(self, gtab: GradientTable, **params: np.ndarray) -> np.ndarray:
        """Signal from ``s0``, ``d`` (``(n,)``), ``f`` (``(n, N)``),
        ``theta``/``phi`` (``(n, N)``)."""
        s0 = np.atleast_1d(np.asarray(params["s0"], dtype=np.float64))
        d = np.atleast_1d(np.asarray(params["d"], dtype=np.float64))
        f = np.atleast_2d(np.asarray(params["f"], dtype=np.float64))
        theta = np.atleast_2d(np.asarray(params["theta"], dtype=np.float64))
        phi = np.atleast_2d(np.asarray(params["phi"], dtype=np.float64))
        n_fib = self.n_fibers
        for name, arr in (("f", f), ("theta", theta), ("phi", phi)):
            if arr.shape[-1] != n_fib:
                raise ModelError(
                    f"{name} must have trailing dimension {n_fib}, got {arr.shape}"
                )
        return self.predict_dirs(
            gtab, s0=s0, d=d, f=f, dirs=spherical_to_cartesian(theta, phi)
        )

    def predict_dirs(
        self,
        gtab: GradientTable,
        s0: np.ndarray,
        d: np.ndarray,
        f: np.ndarray,
        dirs: np.ndarray,
    ) -> np.ndarray:
        """Like :meth:`predict` but with Cartesian directions ``(n, N, 3)``.

        Shared by the phantom generator, which carries ground truth as unit
        vectors rather than angles.
        """
        s0 = np.atleast_1d(np.asarray(s0, dtype=np.float64))
        d = np.atleast_1d(np.asarray(d, dtype=np.float64))
        f = np.atleast_2d(np.asarray(f, dtype=np.float64))
        dirs = np.asarray(dirs, dtype=np.float64)
        if dirs.ndim == 2:
            dirs = dirs[None]
        b = gtab.bvals[None, :]
        bd = b * d[:, None]  # (n, m)
        ball = np.exp(-bd)
        # (n, N, m): squared projection of each gradient on each stick.
        dot2 = gradient_projection(
            dirs[..., 0], dirs[..., 1], dirs[..., 2], gtab.bvecs.T
        ) ** 2
        sticks = np.exp(-bd[:, None, :] * dot2)
        f_iso = 1.0 - f.sum(axis=1)
        mix = f_iso[:, None] * ball + np.einsum("vn,vnm->vm", f, sticks)
        return s0[:, None] * mix
