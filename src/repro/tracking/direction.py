"""Multi-fiber direction selection (paper § III-B2).

With multiple fiber populations per voxel, each step must pick the one
that "maintains the original orientation of the streamline through
crossing regions": among populations whose volume fraction clears a
floor, choose the direction most parallel (in the axial sense) to the
current heading, then sign-align it so the streamline does not reverse.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TrackingError

__all__ = ["choose_direction", "initial_directions"]

#: Cached ``arange`` — the row index of every fancy lookup in the
#: selection core, reallocated only when a batch outgrows it.
_ROWS = np.arange(256)


def _rows(m: int) -> np.ndarray:
    global _ROWS
    if _ROWS.shape[0] < m:
        _ROWS = np.arange(m)
    return _ROWS[:m]


def choose_direction(
    f: np.ndarray,
    directions: np.ndarray,
    heading: np.ndarray,
    f_threshold: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Pick one direction per thread from the local populations.

    Parameters
    ----------
    f:
        ``(n, N)`` volume fractions at each thread's position.
    directions:
        ``(n, N, 3)`` unit population directions.
    heading:
        ``(n, 3)`` current unit headings.
    f_threshold:
        Populations with fraction at or below this are ignored.

    Returns
    -------
    (chosen, dot):
        ``chosen`` — ``(n, 3)`` sign-aligned directions (zero where no
        eligible population exists); ``dot`` — ``(n,)`` the |cosine|
        between the chosen direction and the heading (0 where none),
        which the angle criterion tests against its threshold.
    """
    f = np.asarray(f, dtype=np.float64)
    directions = np.asarray(directions, dtype=np.float64)
    heading = np.asarray(heading, dtype=np.float64)
    if f.ndim != 2 or directions.shape != f.shape + (3,):
        raise TrackingError(
            f"inconsistent shapes f{f.shape}, directions{directions.shape}"
        )
    if heading.shape != (f.shape[0], 3):
        raise TrackingError(
            f"heading must be ({f.shape[0]}, 3), got {heading.shape}"
        )
    chosen, abs_dot, _ = _choose_direction_core(f, directions, heading, f_threshold)
    return chosen, abs_dot


def _choose_direction_core(
    f: np.ndarray,
    directions: np.ndarray,
    heading: np.ndarray,
    f_threshold: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validation-free selection core shared by the batch and scalar paths.

    Returns ``(chosen, abs_dot, any_ok)`` — the extra ``any_ok`` mask
    (``(n,)``, True where some population clears the fraction floor) is
    exactly the tracker's NO_DIRECTION test, computed here once so the
    hot loop does not re-reduce ``f``.
    """
    # Unrolled dot products (n, N): einsum's generic loop is several
    # times slower at tracking batch sizes.
    dots = directions[..., 0] * heading[:, None, 0]
    dots += directions[..., 1] * heading[:, None, 1]
    dots += directions[..., 2] * heading[:, None, 2]
    eligible = f > f_threshold
    score = np.where(eligible, np.abs(dots), -1.0)
    best = np.argmax(score, axis=1)  # (n,)
    rows = _rows(f.shape[0])
    best_dot = dots[rows, best]
    best_dir = directions[rows, best]
    any_ok = eligible.any(axis=1)
    sign = np.where(best_dot < 0.0, -1.0, 1.0)
    chosen = np.where(any_ok[:, None], best_dir * sign[:, None], 0.0)
    abs_dot = np.where(any_ok, np.abs(best_dot), 0.0)
    return chosen, abs_dot, any_ok


def initial_directions(
    f: np.ndarray,
    directions: np.ndarray,
    sign: int = +1,
) -> np.ndarray:
    """Seed headings: the strongest population's direction per thread.

    ``sign`` selects which of the two antipodal senses to launch in
    (probabilistic streamlining typically launches one pass in each).
    Threads with no population (all fractions zero) get a zero heading,
    which the angle criterion terminates immediately.
    """
    f = np.asarray(f, dtype=np.float64)
    directions = np.asarray(directions, dtype=np.float64)
    if f.ndim != 2 or directions.shape != f.shape + (3,):
        raise TrackingError(
            f"inconsistent shapes f{f.shape}, directions{directions.shape}"
        )
    if sign not in (+1, -1):
        raise TrackingError(f"sign must be +1 or -1, got {sign}")
    best = np.argmax(f, axis=1)
    rows = np.arange(f.shape[0])
    out = directions[rows, best] * float(sign)
    none = ~(f > 0).any(axis=1)
    out[none] = 0.0
    return out
