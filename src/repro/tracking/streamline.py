"""Scalar reference tracker — the CPU's per-seed deterministic streamlining.

This is the paper's § III-B3 algorithm in its plainest form: a Python loop
advancing one streamline, used as the behavioral reference the lockstep
batch tracker must match exactly, and as the substrate of the modeled CPU
baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TrackingError
from repro.models.fields import FiberField
from repro.tracking.criteria import StopReason, TerminationCriteria
from repro.tracking.direction import _choose_direction_core
from repro.tracking.interpolate import Scratch, nearest_lookup, trilinear_rows
from repro.utils.voxels import flat_voxel_index, in_bounds_mask, unique_sorted

__all__ = ["Streamline", "track_streamline"]


@dataclass
class Streamline:
    """One tracked fiber path.

    Attributes
    ----------
    points:
        ``(n_steps + 1, 3)`` positions, seed first.
    reason:
        Why tracking stopped.
    """

    points: np.ndarray
    reason: StopReason

    def __post_init__(self) -> None:
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise TrackingError(f"points must be (n, 3), got {self.points.shape}")

    @property
    def n_steps(self) -> int:
        """Number of steps taken (the paper's fiber *length*)."""
        return self.points.shape[0] - 1

    @property
    def seed(self) -> np.ndarray:
        """The starting position."""
        return self.points[0]

    @property
    def end(self) -> np.ndarray:
        """The final position."""
        return self.points[-1]

    def visited_voxels(self, shape3: tuple[int, int, int]) -> np.ndarray:
        """Unique flat indices of voxels this path passes through."""
        idx = np.rint(self.points).astype(np.int64)
        idx = idx[in_bounds_mask(idx, shape3)]
        flat = flat_voxel_index(idx[:, 0], idx[:, 1], idx[:, 2], shape3)
        return unique_sorted(flat)


def track_streamline(
    field: FiberField,
    seed: np.ndarray,
    heading: np.ndarray,
    criteria: TerminationCriteria,
    interpolation: str = "trilinear",
) -> Streamline:
    """Track one streamline from ``seed`` along ``heading``.

    Parameters
    ----------
    field:
        The sample volume (one posterior sample, or the ground truth).
    seed:
        ``(3,)`` starting position in continuous voxel coordinates.
    heading:
        ``(3,)`` initial unit direction.
    criteria:
        Stop rules; ``criteria.step_length`` sets the advance per step.
    interpolation:
        ``"trilinear"`` or ``"nearest"``.
    """
    if interpolation not in ("trilinear", "nearest"):
        raise TrackingError(f"unknown interpolation {interpolation!r}")
    seed = np.asarray(seed, dtype=np.float64).reshape(3)
    heading = np.asarray(heading, dtype=np.float64).reshape(3)

    shape3 = field.shape3
    nx, ny, nz = shape3
    _, _, mask_flat = field.flat_views()
    # Fast scalar path: one reusable (3, 1) row pair routed through the
    # same row-innermost cores as the lockstep batch — no per-step array
    # wrapping/validation, and bitwise-identical interpolation.
    p = np.empty((3, 1))
    h = np.empty((3, 1))
    p[:, 0] = seed
    h[:, 0] = heading
    scratch = Scratch()
    trilinear = interpolation == "trilinear"
    points = [seed.copy()]
    reason = StopReason.MAX_STEPS
    for _ in range(criteria.max_steps):
        if trilinear:
            f, dirs = trilinear_rows(field, p, h, scratch)
        else:
            f, dirs = nearest_lookup(field, p.T)
            f, dirs = f.T, dirs.transpose(2, 1, 0)
        chosen, dot, any_ok = _choose_direction_core(
            f, dirs, h, criteria.f_threshold
        )
        if not any_ok[0]:
            reason = StopReason.NO_DIRECTION
            break
        if dot[0] < criteria.min_dot:
            reason = StopReason.ANGLE
            break
        new_pos = p[:, 0] + criteria.step_length * chosen[:, 0]
        i, j, k = np.rint(new_pos).astype(np.int64).tolist()
        if not (0 <= i < nx and 0 <= j < ny and 0 <= k < nz):
            reason = StopReason.OUT_OF_BOUNDS
            break
        if not mask_flat[flat_voxel_index(i, j, k, shape3)]:
            reason = StopReason.OUT_OF_MASK
            break
        p[:, 0] = new_pos
        h[:, 0] = chosen[:, 0]
        points.append(new_pos.copy())
    return Streamline(points=np.array(points), reason=reason)
