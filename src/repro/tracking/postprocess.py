"""Streamline post-processing: step-count filtering and density maps.

The paper's Figs 11/12 render "fibers whose length > 100"; this module
provides that filtering plus the track-density map the point-estimate
comparison counts visits with, and the Dice overlap it scores two such
maps by.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError, TrackingError
from repro.tracking.streamline import Streamline

__all__ = ["filter_by_steps", "density_map", "dice_overlap"]


def filter_by_steps(
    streamlines: Sequence[Streamline],
    min_steps: int = 0,
    max_steps: int | None = None,
) -> list[Streamline]:
    """Keep streamlines whose step count lies in ``[min_steps, max_steps]``.

    ``filter_by_steps(lines, min_steps=100)`` is the paper's Figs 11/12
    selection.
    """
    if min_steps < 0:
        raise TrackingError(f"min_steps must be >= 0, got {min_steps}")
    if max_steps is not None and max_steps < min_steps:
        raise TrackingError("max_steps must be >= min_steps")
    out = []
    for line in streamlines:
        n = line.n_steps
        if n >= min_steps and (max_steps is None or n <= max_steps):
            out.append(line)
    return out


def density_map(
    streamlines: Sequence[Streamline], shape3: tuple[int, int, int]
) -> np.ndarray:
    """Track-density image: per voxel, the number of streamlines visiting.

    Each streamline contributes at most 1 per voxel (visits are deduped
    per path), the convention of track-density imaging.
    """
    if len(shape3) != 3 or any(s < 1 for s in shape3):
        raise TrackingError(f"bad grid shape {shape3}")
    out = np.zeros(shape3, dtype=np.int64)
    flat = out.reshape(-1)
    for line in streamlines:
        flat[line.visited_voxels(shape3)] += 1
    return out


def dice_overlap(volume_a: np.ndarray, volume_b: np.ndarray, threshold: float = 0.0) -> float:
    """Dice coefficient of two density/probability maps above ``threshold``.

    ``2 |A ∩ B| / (|A| + |B|)`` over the binarized volumes; 1.0 for
    identical support, and defined as 1.0 when both are empty.
    """
    a = np.asarray(volume_a) > threshold
    b = np.asarray(volume_b) > threshold
    if a.shape != b.shape:
        raise ConfigurationError(
            f"volumes must have equal shapes, got {a.shape}, {b.shape}"
        )
    total = int(a.sum()) + int(b.sum())
    if total == 0:
        return 1.0
    return 2.0 * int((a & b).sum()) / total
