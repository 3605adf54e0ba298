"""Persisting posterior samples between pipeline stages.

``repro-bedpost`` and ``repro-track`` exchange stage-1 output through a
single ``samples.npz``, which is also the payload of a sampling store
entry; these functions define that contract in one place: the raw
float64 ``(n_samples, n_voxels, n_params)`` array, the fitted mask, the
affine, and the ``sampling`` run-spec section and stage key that
produced them — everything needed to rebuild the
:class:`~repro.models.fields.FiberStack` the tracker consumes, and to
key the downstream stages exactly as the workflow keys them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import IOFormatError
from repro.models.fields import FiberStack
from repro.models.posterior import ParameterLayout

__all__ = ["SampleArchive", "load_samples", "save_samples"]

_REQUIRED = ("samples", "mask", "affine")


@dataclass
class SampleArchive:
    """The contents of a ``samples.npz``."""

    samples: np.ndarray
    mask: np.ndarray
    affine: np.ndarray
    #: The ``sampling`` run-spec section that produced the samples.
    sampling: dict
    #: The sampling stage key (``sha256:<hex>``) of that run.
    stage_key: str

    @property
    def layout(self) -> ParameterLayout:
        return ParameterLayout(int(self.sampling["n_fibers"]))

    @property
    def f_threshold(self) -> float:
        return float(self.sampling["f_threshold"])

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
    affine: np.ndarray,
    sampling: dict,
    stage_key: str,
) -> None:
    """Write a ``samples.npz``.

    The samples are stored as float64, so the posterior a reader rebuilds
    is bit-identical to the one that was sampled, and so is every
    fingerprint and stage key computed from it.  ``sampling`` is the
    run-spec section that produced them (its ``n_fibers`` fixes the
    parameter layout, its ``f_threshold`` the field reconstruction).

    The archive is uncompressed: posterior floats barely deflate, so
    compressing costs far more time than the bytes it saves.
    :func:`load_samples` reads compressed archives as well.
    """
    samples = np.asarray(samples)
    mask = np.asarray(mask, dtype=bool)
    n_fibers = int(sampling["n_fibers"])
    n_params = ParameterLayout(n_fibers).n_params
    if samples.ndim != 3:
        raise IOFormatError(
            f"samples must be (n_samples, n_voxels, n_params), got {samples.shape}"
        )
    if samples.shape[1] != int(mask.sum()):
        raise IOFormatError(
            f"samples cover {samples.shape[1]} voxels but the mask selects "
            f"{int(mask.sum())}"
        )
    if samples.shape[2] != n_params:
        raise IOFormatError(
            f"samples have {samples.shape[2]} parameters, layout expects "
            f"{n_params}"
        )
    np.savez(
        path,
        samples=samples.astype(np.float64),
        mask=mask,
        affine=np.asarray(affine, dtype=np.float64),
        # Also inside ``sampling``; kept as their own keys for readers
        # of the file that predate the section.
        n_fibers=np.int64(n_fibers),
        f_threshold=np.float64(sampling["f_threshold"]),
        sampling=np.array(json.dumps(sampling, sort_keys=True)),
        stage_key=np.array(stage_key),
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
    if "sampling" not in blob or "stage_key" not in blob:
        raise IOFormatError(
            f"{path} does not record the sampling section and stage key "
            "that produced it (it predates that format); re-run "
            "repro-bedpost to write it again"
        )
    return SampleArchive(
        samples=blob["samples"],
        mask=blob["mask"].astype(bool),
        affine=blob["affine"],
        sampling=json.loads(str(blob["sampling"])),
        stage_key=str(blob["stage_key"]),
    )
