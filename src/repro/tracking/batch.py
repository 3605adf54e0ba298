"""Lockstep batch tracker — the GPU kernel of Algorithm 1.

All streamlines advance one step per "instruction": every iteration
interpolates, chooses a direction, tests the stop criteria, and steps,
for *every active thread simultaneously* via vectorized array ops — the
exact dataflow of the paper's one-thread-per-fiber kernel.  Execution is
segment-bounded: :meth:`BatchTracker.run_segment` advances at most
``n_iterations`` steps and reports each thread's *executed* iteration
count, which the machine model turns into SIMD wavefront time.

The semantics match :func:`repro.tracking.streamline.track_streamline`
step for step (asserted in the test suite — the paper's "CPU and GPU
results are substantially the same" check, here made exact).

Sample stacks
-------------
The tracker reads one :class:`~repro.models.fields.FiberStack` (a bare
:class:`~repro.models.fields.FiberField` is a one-sample stack of
views), and every state row carries the ``sample`` it tracks through:
gathers add ``sample * n_vox`` to flat voxel indices so one ``take``
serves all samples, off-mask checks read the one shared mask, and visit
callbacks receive ``(samples, origins, voxels)``.  Per-row arithmetic
never looks at the stacking, which is why tracking a stack is
bit-identical to tracking each sample alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.config.spec import INTERPOLATIONS
from repro.errors import TrackingError
from repro.gpu.workload import BYTES_DOWN_PER_THREAD, BYTES_UP_PER_THREAD
from repro.models.fields import FiberField, FiberStack
from repro.tracking.criteria import StopReason, TerminationCriteria
from repro.tracking.direction import _choose_direction_core
from repro.tracking.interpolate import (
    Scratch,
    nearest_lookup,
    trilinear_lookup,
)
from repro.utils.voxels import flat_voxel_index

__all__ = ["BatchState", "BatchTracker"]

#: visit callback signature: (sample indices, original thread indices,
#: flat voxel indices).
VisitCallback = Callable[[np.ndarray, np.ndarray, np.ndarray], None]


@dataclass
class BatchState:
    """Per-thread tracking state (structure-of-arrays).

    Attributes
    ----------
    positions, headings:
        ``(n, 3)`` current positions and unit headings.
    steps:
        ``(n,)`` steps taken so far (the running fiber length).
    reason:
        ``(n,)`` :class:`StopReason` codes; ``ACTIVE`` while tracking.
    origin:
        ``(n,)`` indices into the original seed array — preserved across
        compaction so results land on the right seed.
    sample:
        ``(n,)`` index of the stack sample each thread tracks through.
    """

    positions: np.ndarray
    headings: np.ndarray
    steps: np.ndarray
    reason: np.ndarray
    origin: np.ndarray
    sample: np.ndarray

    def __post_init__(self) -> None:
        n = self.positions.shape[0]
        if self.positions.shape != (n, 3) or self.headings.shape != (n, 3):
            raise TrackingError("positions/headings must be (n, 3)")
        for name in ("steps", "reason", "origin", "sample"):
            if getattr(self, name).shape != (n,):
                raise TrackingError(f"{name} must be (n,)")

    @property
    def n_threads(self) -> int:
        """Threads in this state (including finished ones)."""
        return self.positions.shape[0]

    @property
    def active(self) -> np.ndarray:
        """Boolean mask of still-tracking threads."""
        return self.reason == StopReason.ACTIVE

    @property
    def n_active(self) -> int:
        """Count of still-tracking threads."""
        return int(self.active.sum())

    def compact(self) -> "BatchState":
        """The CPU's ``Reduction()``: keep only unfinished threads."""
        keep = self.active
        return BatchState(
            positions=self.positions[keep].copy(),
            headings=self.headings[keep].copy(),
            steps=self.steps[keep].copy(),
            reason=self.reason[keep].copy(),
            origin=self.origin[keep].copy(),
            sample=self.sample[keep].copy(),
        )

    def payload_bytes_down(self) -> int:
        """Bytes sent to the device per thread batch: position (12),
        heading (12), step counter (4) as float32/int32."""
        return self.n_threads * BYTES_DOWN_PER_THREAD

    def payload_bytes_up(self) -> int:
        """Bytes read back: end position (12), heading (12), steps (4),
        reason (4)."""
        return self.n_threads * BYTES_UP_PER_THREAD


class BatchTracker:
    """Vectorized deterministic streamlining over a sample stack.

    ``field`` is a :class:`~repro.models.fields.FiberStack`, or anything
    :meth:`~repro.models.fields.FiberStack.from_fields` accepts (a bare
    field tracks as sample 0).
    """

    def __init__(
        self,
        field: FiberStack | FiberField,
        criteria: TerminationCriteria,
        interpolation: str = "trilinear",
    ) -> None:
        if interpolation not in INTERPOLATIONS:
            raise TrackingError(f"unknown interpolation {interpolation!r}")
        self.stack = FiberStack.from_fields(field)
        self.criteria = criteria
        self.interpolation = interpolation
        self._off_limits = ~self.stack.flat_views()[2]
        self._n_vox = math.prod(self.stack.shape3)
        self._scratch = Scratch()

    def init_state(
        self,
        seeds: np.ndarray,
        headings: np.ndarray,
        *,
        origin: np.ndarray | None = None,
        sample: np.ndarray | None = None,
    ) -> BatchState:
        """Fresh state from ``(n, 3)`` seeds and initial headings.

        Threads with a zero heading (no population at the seed) start
        terminated with ``NO_DIRECTION``.  ``origin`` overrides the
        default ``arange(n)`` seed identity (the executor passes
        per-sample permutations); ``sample`` gives each thread's stack
        sample (default: all sample 0).
        """
        seeds = np.asarray(seeds, dtype=np.float64)
        headings = np.asarray(headings, dtype=np.float64)
        if seeds.ndim != 2 or seeds.shape[1] != 3 or headings.shape != seeds.shape:
            raise TrackingError(
                f"seeds/headings must both be (n, 3), got {seeds.shape} "
                f"and {headings.shape}"
            )
        n = seeds.shape[0]
        reason = np.full((n,), int(StopReason.ACTIVE), dtype=np.int64)
        dead = np.linalg.norm(headings, axis=1) < 1e-12
        reason[dead] = int(StopReason.NO_DIRECTION)
        if origin is None:
            origin = np.arange(n, dtype=np.int64)
        else:
            origin = np.asarray(origin, dtype=np.int64)
        return BatchState(
            positions=seeds.copy(),
            headings=headings.copy(),
            steps=np.zeros((n,), dtype=np.int64),
            reason=reason,
            origin=origin,
            sample=(
                np.zeros((n,), dtype=np.int64)
                if sample is None
                else np.asarray(sample, dtype=np.int64)
            ),
        )

    def run_segment(
        self,
        state: BatchState,
        n_iterations: int,
        visit_callback: VisitCallback | None = None,
    ) -> np.ndarray:
        """Advance up to ``n_iterations`` steps; returns executed counts.

        ``executed[i]`` is the number of kernel-loop iterations thread
        ``i`` performed (a lane executes the iteration in which it
        decides to stop).  State arrays are updated in place.
        """
        if n_iterations < 0:
            raise TrackingError(f"n_iterations must be >= 0, got {n_iterations}")
        crit = self.criteria
        shape3 = self.stack.shape3
        nx, ny, nz = shape3
        off_limits = self._off_limits
        n_vox = self._n_vox
        executed = np.zeros((state.n_threads,), dtype=np.int64)
        lo = np.zeros((3,), dtype=np.int64)
        hi = np.asarray([nx - 1, ny - 1, nz - 1], dtype=np.int64)
        sc = self._scratch

        # Visits are buffered and emitted once per segment (the readback
        # granularity of the modeled kernel) instead of per iteration.
        visit_threads: list[np.ndarray] = []
        visit_voxels: list[np.ndarray] = []
        visit_samples: list[np.ndarray] = []

        # The active set only shrinks inside a segment, and only through
        # the writes below — track it incrementally instead of rescanning
        # the reason array every iteration.
        idx = np.flatnonzero(state.active)
        for _ in range(n_iterations):
            if idx.shape[0] == 0:
                break
            executed[idx] += 1
            m = int(idx.shape[0])
            pos = np.take(state.positions, idx, axis=0, out=sc.get("pos", (m, 3)))
            head = np.take(state.headings, idx, axis=0, out=sc.get("head", (m, 3)))
            samp = np.take(state.sample, idx, axis=0)
            row_off = samp * n_vox

            if self.interpolation == "trilinear":
                f, dirs = trilinear_lookup(
                    self.stack,
                    pos,
                    reference=head,
                    scratch=sc,
                    row_offset=row_off,
                )
            else:
                f, dirs = nearest_lookup(self.stack, pos, row_offset=row_off)
            chosen, dot, any_ok = _choose_direction_core(
                f, dirs, head, crit.f_threshold
            )

            no_dir = ~any_ok
            sharp = ~no_dir & (dot < crit.min_dot)

            new_pos = pos + crit.step_length * chosen
            vox = np.rint(new_pos).astype(np.int64)
            cv = np.minimum(np.maximum(vox, lo), hi)
            # Clipping moved a coordinate iff the step left the grid.
            oob = (vox != cv).any(axis=1)
            oob &= ~(no_dir | sharp)
            flat = flat_voxel_index(cv[:, 0], cv[:, 1], cv[:, 2], shape3)
            off_mask = off_limits[flat]
            off_mask &= ~(no_dir | sharp | oob)

            stopped = no_dir | sharp | oob | off_mask
            ok = ~stopped

            state.reason[idx[no_dir]] = StopReason.NO_DIRECTION
            state.reason[idx[sharp]] = StopReason.ANGLE
            state.reason[idx[oob]] = StopReason.OUT_OF_BOUNDS
            state.reason[idx[off_mask]] = StopReason.OUT_OF_MASK

            mov = idx[ok]
            state.positions[mov] = new_pos[ok]
            state.headings[mov] = chosen[ok]
            state.steps[mov] += 1
            hit_budget = state.steps[mov] >= crit.max_steps
            state.reason[mov[hit_budget]] = StopReason.MAX_STEPS

            if visit_callback is not None and mov.shape[0]:
                # ok-rows are in bounds, so the clipped flat index equals
                # the unclipped one the visit contract specifies.
                visit_samples.append(samp[ok])
                visit_threads.append(state.origin[mov])
                visit_voxels.append(flat[ok])
            idx = mov[~hit_budget]

        if visit_callback is not None and visit_threads:
            visit_callback(
                np.concatenate(visit_samples),
                np.concatenate(visit_threads),
                np.concatenate(visit_voxels),
            )
        return executed

    def run_to_completion(
        self,
        seeds: np.ndarray,
        headings: np.ndarray,
        visit_callback: VisitCallback | None = None,
    ) -> BatchState:
        """Track everything in one unbounded pass (no segmentation)."""
        state = self.init_state(seeds, headings)
        self.run_segment(state, self.criteria.max_steps, visit_callback)
        # Anything still active has exactly max_steps budget consumed.
        state.reason[state.active] = StopReason.MAX_STEPS
        return state
