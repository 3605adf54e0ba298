"""Synthetic DWI data substrate.

The paper evaluates on two downloaded DTI scans (CABI datasets 1 and 2).
Those are not available here, so this package generates phantoms with
*known* fiber geometry that exercise the identical code paths: parametric
fiber bundles are rasterized into a ground-truth
:class:`~repro.models.fields.FiberField`, the multi-fiber forward model
(Eq. 1) predicts the DWI signal, and Rician noise is added at a chosen SNR.
:func:`dataset1` / :func:`dataset2` replicate the two datasets' grid shapes
and voxel sizes (with a ``scale`` knob so tests stay fast).
"""

from repro.data.bundles import (
    Bundle,
    arc_bundle,
    crossing_pair,
    fanning_bundle,
    helix_bundle,
    straight_bundle,
)
from repro.data.noise import add_gaussian_noise, add_rician_noise
from repro.data.gradient_schemes import make_gradient_table
from repro.data.phantoms import Phantom, rasterize_bundles, synthesize_dwi
from repro.data.datasets import DatasetSpec, dataset1, dataset2, make_dataset

__all__ = [
    "Bundle",
    "straight_bundle",
    "arc_bundle",
    "helix_bundle",
    "crossing_pair",
    "fanning_bundle",
    "add_gaussian_noise",
    "add_rician_noise",
    "make_gradient_table",
    "Phantom",
    "rasterize_bundles",
    "synthesize_dwi",
    "DatasetSpec",
    "dataset1",
    "dataset2",
    "make_dataset",
]
