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
    chosen, abs_dot, _ = _choose_direction_core(
        f.T, directions.transpose(2, 1, 0), heading.T, f_threshold
    )
    return chosen.T, abs_dot


def _choose_direction_core(
    f: np.ndarray,
    directions: np.ndarray,
    heading: np.ndarray,
    f_threshold: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validation-free selection core shared by the batch and scalar paths.

    Row-innermost layout, as :func:`~repro.tracking.interpolate.trilinear_rows`
    returns it: ``f`` is ``(N, n)``, ``directions`` ``(3, N, n)`` and
    ``heading`` ``(3, n)``.  Returns ``(chosen, abs_dot, any_ok)`` with
    ``chosen`` ``(3, n)``; the extra ``any_ok`` mask (``(n,)``, True
    where some population clears the fraction floor) is exactly the
    tracker's NO_DIRECTION test, computed here once so the hot loop does
    not re-reduce ``f``.

    The winner is the first population with the largest score, as
    ``np.argmax`` over the population axis picks it (a NaN score wins,
    as in ``argmax``), found by a running comparison over the N rows so
    every ufunc's inner loop runs over the n threads.
    """
    dots = directions[0] * heading[0]
    dots += directions[1] * heading[1]
    dots += directions[2] * heading[2]
    eligible = f > f_threshold
    score = np.where(eligible, np.abs(dots), -1.0)
    best_score = score[0]
    best_dot = dots[0]
    best_dir = directions[:, 0]
    for k in range(1, f.shape[0]):
        # ~(s <= best) is s > best or either is NaN; a NaN best is final.
        take = ~(score[k] <= best_score)
        take &= best_score == best_score
        best_score = np.where(take, score[k], best_score)
        best_dot = np.where(take, dots[k], best_dot)
        best_dir = np.where(take, directions[:, k], best_dir)
    any_ok = np.logical_or.reduce(eligible, axis=0)
    sign = np.where(best_dot < 0.0, -1.0, 1.0)
    chosen = np.where(any_ok, best_dir * sign, 0.0)
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
