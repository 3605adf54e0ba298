"""Persisting posterior samples between pipeline stages.

``repro-bedpost`` and ``repro-track`` exchange stage-1 output through a
single ``samples.npz``; these functions define that contract in one
place: the raw ``(n_samples, n_voxels, n_params)`` array, the fitted
mask, the parameter layout, the fraction threshold, and the affine —
everything needed to rebuild the
:class:`~repro.models.fields.FiberStack` the tracker consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import IOFormatError
from repro.models.fields import FiberStack
from repro.models.posterior import ParameterLayout

__all__ = ["SampleArchive", "load_samples", "save_samples"]

_REQUIRED = ("samples", "mask", "n_fibers", "f_threshold", "affine")


@dataclass
class SampleArchive:
    """The contents of a ``samples.npz``."""

    samples: np.ndarray
    mask: np.ndarray
    layout: ParameterLayout
    f_threshold: float
    affine: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def n_voxels(self) -> int:
        return self.samples.shape[1]

    def to_fields(self) -> FiberStack:
        """Rebuild the posterior sample stack."""
        return FiberStack.from_posterior(
            self.samples, self.mask, self.layout, self.f_threshold
        )


def save_samples(
    path: str | Path,
    samples: np.ndarray,
    mask: np.ndarray,
    layout: ParameterLayout,
    f_threshold: float,
    affine: np.ndarray,
    dtype=np.float32,
) -> None:
    """Write a ``samples.npz``.

    ``dtype`` controls the stored sample precision: the CLI contract
    stays ``float32`` (halves the footprint), but the artifact store
    passes ``float64`` so a cache-served posterior is bit-identical to
    the in-memory one it memoized.

    The archive is uncompressed: posterior floats barely deflate, so
    compressing costs far more time than the bytes it saves.
    :func:`load_samples` reads compressed archives as well.
    """
    samples = np.asarray(samples)
    mask = np.asarray(mask, dtype=bool)
    if samples.ndim != 3:
        raise IOFormatError(
            f"samples must be (n_samples, n_voxels, n_params), got {samples.shape}"
        )
    if samples.shape[1] != int(mask.sum()):
        raise IOFormatError(
            f"samples cover {samples.shape[1]} voxels but the mask selects "
            f"{int(mask.sum())}"
        )
    if samples.shape[2] != layout.n_params:
        raise IOFormatError(
            f"samples have {samples.shape[2]} parameters, layout expects "
            f"{layout.n_params}"
        )
    np.savez(
        path,
        samples=samples.astype(dtype),
        mask=mask,
        n_fibers=np.int64(layout.n_fibers),
        f_threshold=np.float64(f_threshold),
        affine=np.asarray(affine, dtype=np.float64),
    )


def load_samples(path: str | Path) -> SampleArchive:
    """Read a ``samples.npz`` written by :func:`save_samples`."""
    path = Path(path)
    if not path.exists():
        raise IOFormatError(f"{path} does not exist")
    blob = np.load(path)
    missing = [k for k in _REQUIRED if k not in blob]
    if missing:
        raise IOFormatError(f"{path}: missing keys {missing}")
    return SampleArchive(
        samples=blob["samples"].astype(np.float64),
        mask=blob["mask"].astype(bool),
        layout=ParameterLayout(int(blob["n_fibers"])),
        f_threshold=float(blob["f_threshold"]),
        affine=blob["affine"],
    )
