"""Scalar CPU probabilistic streamlining — the paper's comparison target.

One Python loop per (sample, seed): the honest CPU reference.  Its wall
clock is what pytest-benchmark measures against the lockstep tracker's,
and its outputs are the ground truth the batch executor must match.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import TrackingError
from repro.models.fields import FiberField
from repro.tracking.criteria import TerminationCriteria
from repro.tracking.direction import initial_directions
from repro.tracking.interpolate import nearest_lookup
from repro.tracking.streamline import Streamline, track_streamline

__all__ = ["CpuTrackingResult", "cpu_probabilistic_tracking"]


@dataclass
class CpuTrackingResult:
    """Scalar-loop tracking output.

    Attributes
    ----------
    lengths:
        ``(n_samples, n_seeds)`` steps per streamline.
    reasons:
        ``(n_samples, n_seeds)`` stop codes.
    streamlines:
        Kept only when requested: per sample, per seed paths.
    wall_seconds:
        Actual host wall-clock of the loops.
    """

    lengths: np.ndarray
    reasons: np.ndarray
    streamlines: list[list[Streamline]] | None
    wall_seconds: float

    @property
    def total_steps(self) -> int:
        return int(self.lengths.sum())


def cpu_probabilistic_tracking(
    fields: Sequence[FiberField],
    seeds: np.ndarray,
    criteria: TerminationCriteria,
    interpolation: str = "trilinear",
    keep_streamlines: bool = False,
) -> CpuTrackingResult:
    """Track every seed through every sample with per-seed Python loops.

    ``fields`` may be a :class:`~repro.models.fields.FiberStack` (its
    samples iterate as field views) or any sequence of fields.
    """
    if not fields:
        raise TrackingError("need at least one sample volume")
    seeds = np.asarray(seeds, dtype=np.float64)
    if seeds.ndim != 2 or seeds.shape[1] != 3:
        raise TrackingError(f"seeds must be (n, 3), got {seeds.shape}")
    n_samples, n_seeds = len(fields), seeds.shape[0]
    lengths = np.zeros((n_samples, n_seeds), dtype=np.int64)
    reasons = np.zeros((n_samples, n_seeds), dtype=np.int64)
    kept: list[list[Streamline]] | None = [] if keep_streamlines else None

    t0 = time.perf_counter()
    for s, field in enumerate(fields):
        f, d = nearest_lookup(field, seeds)
        headings = initial_directions(f, d)
        row: list[Streamline] = []
        for i in range(n_seeds):
            line = track_streamline(
                field, seeds[i], headings[i], criteria, interpolation
            )
            lengths[s, i] = line.n_steps
            reasons[s, i] = line.reason
            if kept is not None:
                row.append(line)
        if kept is not None:
            kept.append(row)
    return CpuTrackingResult(
        lengths=lengths,
        reasons=reasons,
        streamlines=kept,
        wall_seconds=time.perf_counter() - t0,
    )
