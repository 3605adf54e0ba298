"""Termination criteria (paper § III-B3).

The paper uses two criteria — a maximum step count (dead-loop guard) and a
maximum turning angle between consecutive segments, *measured as the dot
product of the two directions* (Table II's "angular threshold" column is a
dot product: 0.7-0.9).  The anisotropy floor common in deterministic
tracking is noted as unnecessary for the probabilistic method; it is
supported but disabled by default.  Leaving the grid or the valid-voxel
mask also terminates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["StopReason", "TerminationCriteria"]


class StopReason(enum.IntEnum):
    """Why a streamline stopped.  ``ACTIVE`` means it has not."""

    ACTIVE = 0
    ANGLE = 1          # turn sharper than the dot-product threshold
    MAX_STEPS = 2      # step budget exhausted
    OUT_OF_BOUNDS = 3  # left the image grid
    OUT_OF_MASK = 4    # left the valid-voxel mask
    LOW_ANISOTROPY = 5  # optional f floor (off by default)
    NO_DIRECTION = 6   # no fiber population at the position


@dataclass(frozen=True)
class TerminationCriteria:
    """Tracking stop rules.

    Parameters
    ----------
    max_steps:
        Hard iteration budget per streamline (paper criterion 2).
    min_dot:
        Angle criterion: stop when the |cosine| between consecutive step
        directions falls below this (paper criterion 3; Table II uses
        0.7-0.9).
    step_length:
        Step size in voxel units (Table II uses 0.1-0.3).
    f_threshold:
        Optional anisotropy floor on the chosen population's fraction
        (paper criterion 1, disabled at 0.0 as the paper recommends).
    """

    max_steps: int = 1888
    min_dot: float = 0.8
    step_length: float = 0.2
    f_threshold: float = 0.0

    def __post_init__(self) -> None:
        if self.max_steps < 1:
            raise ConfigurationError(f"max_steps must be >= 1, got {self.max_steps}")
        if not 0.0 <= self.min_dot <= 1.0:
            raise ConfigurationError(
                f"min_dot must be in [0, 1], got {self.min_dot}"
            )
        if self.step_length <= 0:
            raise ConfigurationError(
                f"step_length must be positive, got {self.step_length}"
            )
        if not 0.0 <= self.f_threshold < 1.0:
            raise ConfigurationError(
                f"f_threshold must be in [0, 1), got {self.f_threshold}"
            )

