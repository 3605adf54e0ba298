"""Fused multi-sample lockstep execution — every sample in one batch.

Launching the lockstep kernel once per posterior sample costs S samples
× ~n segment launches, each paying Python dispatch and a ramp-down tail
as its active set shrinks.  The executor instead *stacks* all
shard-local samples into a single structure-of-arrays batch: thread
identity becomes a ``(sample, seed)`` pair, sample volumes are
concatenated along the flat-voxel axis (:class:`StackedFields`), and one
kernel advances every thread of every sample in lockstep.

Because each row's arithmetic depends only on its own position, heading,
and its sample's field values — and the stacked gather
(``sample * n_vox + flat``) fetches exactly the bytes a per-sample
gather would — a fused run is **bit-identical** to running each sample
alone.  The property suite pins this against the scalar tracker and a
per-sample rebuild of the modeled launches.

The kernel itself is the plain :class:`~repro.tracking.batch.BatchTracker`
run over a :class:`StackedFields` (the ``sample`` column on
:class:`~repro.tracking.batch.BatchState` switches the gathers into
stacked mode), which is what makes the bit-identity argument an
argument about *indexing*, not arithmetic.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TrackingError
from repro.models.fields import FiberField

__all__ = ["StackedFields", "FusedVisitBuffer"]


class StackedFields:
    """S homogeneous sample volumes presented as one stacked field.

    Duck-types the slice of the :class:`~repro.models.fields.FiberField`
    interface the batch tracker uses (``shape3``, ``n_fibers``,
    ``flat_views``).  The flat views concatenate the per-sample views
    along the voxel axis, so row-major voxel ``v`` of sample ``s`` lives
    at stacked row ``s * n_vox + v`` — the fused gather offset.
    """

    def __init__(self, fields: list[FiberField]) -> None:
        if not fields:
            raise TrackingError("need at least one sample volume")
        shape3 = fields[0].shape3
        n_fibers = fields[0].n_fibers
        for i, f in enumerate(fields):
            if f.shape3 != shape3 or f.n_fibers != n_fibers:
                raise TrackingError(
                    f"sample {i} has shape {f.shape3} x {f.n_fibers} fibers; "
                    f"fused tracking needs homogeneous samples "
                    f"({shape3} x {n_fibers})"
                )
        self.fields = list(fields)
        self.shape3 = shape3
        self.n_fibers = n_fibers
        self._flat_cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @property
    def n_samples(self) -> int:
        return len(self.fields)

    def flat_views(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stacked ``(f2, d2, mask_flat)`` over all samples.

        ``f2`` is ``(S * n_vox, N)``, ``d2`` ``(S * n_vox, N, 3)``, and
        ``mask_flat`` ``(S * n_vox,)`` — per-sample masks are identical
        in practice but stacking them keeps the gather arithmetic
        uniform (and correct if they ever differ).
        """
        if self._flat_cache is None:
            views = [f.flat_views() for f in self.fields]
            if len(views) == 1:
                self._flat_cache = views[0]  # nothing to stack: no copy
            else:
                self._flat_cache = tuple(
                    np.concatenate([v[k] for v in views], axis=0)
                    for k in range(3)
                )
        return self._flat_cache


class FusedVisitBuffer:
    """Buffers fused visit callbacks and replays them per sample.

    The connectivity accumulator's contract is per-sample
    (``begin_sample`` / ``visit`` / ``end_sample``); the fused kernel
    emits visits for all samples interleaved.  Visits are bucketed by
    sample here and flushed in global sample order once tracking ends —
    the accumulator dedups per sample with a set-union (``np.unique``),
    so the replayed maps are bit-identical to tracking each sample alone.
    """

    def __init__(self, n_samples: int) -> None:
        self._threads: list[list[np.ndarray]] = [[] for _ in range(n_samples)]
        self._voxels: list[list[np.ndarray]] = [[] for _ in range(n_samples)]

    def record(self, samples: np.ndarray, threads: np.ndarray, voxels: np.ndarray) -> None:
        for s in np.unique(samples):
            rows = samples == s
            self._threads[int(s)].append(threads[rows])
            self._voxels[int(s)].append(voxels[rows])

    def flush(self, connectivity) -> None:
        for threads, voxels in zip(self._threads, self._voxels):
            connectivity.begin_sample()
            for t, v in zip(threads, voxels):
                connectivity.visit(t, v)
            connectivity.end_sample()
