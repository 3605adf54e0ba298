"""The segmented tracking executor — Algorithm 1 end to end.

The paper's schedule, per sample volume: upload the field images; then,
per segment, upload the (compacted) start points, launch the bounded
kernel, read the endpoints back, and compact on the host.  A run yields
*both* the functional results (per-seed fiber lengths, endpoints,
visits) and the paper's time decomposition (kernel / reduction /
transfer — Tables II and IV), in two steps:

* the **kernel** (:meth:`SegmentedTracker.track`) tracks every sample of
  one posterior :class:`~repro.models.fields.FiberStack` as a single
  lockstep batch whose threads are ``(sample, seed)`` pairs, in natural
  row order: each segment is one
  :meth:`~repro.tracking.batch.BatchTracker.run_segment` call over all
  samples, compacting at segment boundaries.  Each row's arithmetic
  depends only on its own position, heading and sample, and the stacked
  gather (``sample * n_vox + flat``) reads exactly the bytes a
  per-sample gather would, so the rows are bit-identical to tracking
  each sample alone.  Beside lengths, reasons and endpoints it returns
  every row's total executed kernel iterations (0 for a born-dead seed,
  which never launches);
* the **model** (:meth:`SegmentedTracker.model`) charges Algorithm 1's
  per-sample launches to the machine model from those totals alone: a
  row that executed ``t`` iterations takes part in segment ``i`` iff
  ``t`` exceeds the segment's offset, and executes the rest of its
  total there up to the segment's length.  Events and
  :class:`~repro.gpu.simulator.KernelLaunch` records are emitted in
  sample-major order on a :class:`~repro.gpu.timeline.Timeline`.

Thread ordering is a model policy: ``"natural"`` launches seeds in
flat-index order; ``"sorted"`` launches every sample after the first in
the stable order of the first sample's lengths — the Fig 4 experiment,
which the paper shows does *not* transfer across samples.  The order
changes which lanes share a wavefront, never what a lane computes.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field as dc_field

import numpy as np

from repro.config.spec import ORDER_POLICIES
from repro.errors import ConfigurationError, TrackingError
from repro.gpu.device import DeviceSpec, HostSpec
from repro.gpu.presets import PHENOM_X4, RADEON_5870
from repro.gpu.memory import DeviceBuffer, DeviceMemory
from repro.gpu.simulator import KernelLaunch, kernel_time, reduction_time, transfer_time
from repro.gpu.timeline import Timeline
from repro.gpu.workload import BYTES_DOWN_PER_THREAD, BYTES_UP_PER_THREAD
from repro.models.fields import FiberField, FiberStack
from repro.tracking.batch import BatchTracker
from repro.tracking.criteria import StopReason, TerminationCriteria
from repro.tracking.connectivity import ConnectivityAccumulator
from repro.tracking.direction import initial_directions
from repro.tracking.interpolate import nearest_flat_index
from repro.tracking.segmentation import SegmentationStrategy
from repro.telemetry import get_registry

__all__ = [
    "SegmentedTracker",
    "TrackedRows",
    "TrackingRunResult",
    "STEP_HISTOGRAM_EDGES",
]

#: Fixed bucket edges for the streamline-step histogram — fixed so that
#: runs at every worker count bucket identically (the paper's Fig 5 bins).
STEP_HISTOGRAM_EDGES = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000)


def _image_bytes(stack: FiberStack) -> int:
    """Device footprint of one sample volume: f + directions as float32."""
    n_vox = int(np.prod(stack.shape3))
    return n_vox * stack.n_fibers * 4 * 4  # (1 fraction + 3 components) * 4 B


def _check_seeds(seeds: np.ndarray) -> np.ndarray:
    seeds = np.asarray(seeds, dtype=np.float64)
    if seeds.ndim != 2 or seeds.shape[1] != 3:
        raise TrackingError(f"seeds must be (n, 3), got {seeds.shape}")
    return seeds


class FusedVisitBuffer:
    """Buffers fused visit callbacks and replays them per sample.

    The connectivity accumulator's contract is per-sample
    (``begin_sample`` / ``visit`` / ``end_sample``); the fused kernel
    emits visits for all samples interleaved.  Visits are bucketed by
    sample here and flushed in global sample order once tracking ends —
    the accumulator dedups per sample with a set-union (sorted unique),
    so the replayed maps are bit-identical to tracking each sample alone.
    """

    def __init__(self, n_samples: int) -> None:
        self._threads: list[list[np.ndarray]] = [[] for _ in range(n_samples)]
        self._voxels: list[list[np.ndarray]] = [[] for _ in range(n_samples)]

    def record(self, samples: np.ndarray, threads: np.ndarray, voxels: np.ndarray) -> None:
        for s in np.flatnonzero(np.bincount(samples)):
            rows = samples == s
            self._threads[int(s)].append(threads[rows])
            self._voxels[int(s)].append(voxels[rows])

    def flush(self, connectivity) -> None:
        for threads, voxels in zip(self._threads, self._voxels):
            connectivity.begin_sample()
            for t, v in zip(threads, voxels):
                connectivity.visit(t, v)
            connectivity.end_sample()


@dataclass
class TrackedRows:
    """The functional kernel's output for one stack of samples.

    Every array is indexed ``(sample, launch row)``.  ``iterations``
    holds each row's total executed kernel iterations, summed over its
    segments; it is 0 exactly for a born-dead seed, since every launched
    row runs at least one iteration.  Rows of disjoint sample ranges
    concatenate into the rows of their union.
    """

    lengths: np.ndarray
    reasons: np.ndarray
    endpoints: np.ndarray
    iterations: np.ndarray
    #: Host wall-clock seconds of the tracking itself.
    wall_seconds: float = 0.0

    def retire(self, state, rows) -> None:
        """Record the final length, reason and position of ``state[rows]``."""
        at = (state.sample[rows], state.origin[rows])
        self.lengths[at] = state.steps[rows]
        self.reasons[at] = state.reason[rows]
        self.endpoints[at] = state.positions[rows]


@dataclass
class TrackingRunResult:
    """Functional + modeled-time output of one probabilistic run.

    Attributes
    ----------
    lengths:
        ``(n_samples, n_seeds)`` steps per streamline.
    reasons:
        ``(n_samples, n_seeds)`` :class:`StopReason` codes.
    endpoints:
        ``(n_samples, n_seeds, 3)`` float64 terminal position of every
        streamline — the per-thread readback of Algorithm 1.  Each
        launch row is one seed (bidirectional runs launch ``2 *
        n_seeds`` rows: forward block, then backward block).
    timeline:
        Every modeled event, in execution order.
    launches:
        One :class:`KernelLaunch` record per kernel.
    cpu_seconds:
        Modeled scalar-CPU time for the same work
        (``total_steps * host.seconds_per_iteration``).
    wall_seconds:
        Actual host wall-clock of the simulation itself.
    peak_device_bytes:
        High-water device memory of the whole stack's residency (sample
        images + thread state) — the quantity that forces the paper to
        serialize samples (§ IV-B) and that doubles under the Fig 8
        overlap scheme.  Modeled once over the merged stack, so it is
        the same at every worker count.
    worker_walls:
        Wall-clock seconds of each merged part, one per shard (a
        one-worker run holds its one task's wall; empty for a bare
        :meth:`SegmentedTracker.run`).  ``max(worker_walls)`` is the
        parallel critical path.
    supervision:
        The :class:`~repro.runtime.supervisor.SupervisorReport` of a
        supervised run (more than one task, or any fault plan): every
        shard attempt, retry, re-shard, and serial fallback; None
        otherwise.  Typed loosely to keep :mod:`repro.tracking` free
        of a dependency on :mod:`repro.runtime`.
    """

    lengths: np.ndarray
    reasons: np.ndarray
    endpoints: np.ndarray
    timeline: Timeline
    launches: list[KernelLaunch] = dc_field(default_factory=list)
    cpu_seconds: float = 0.0
    wall_seconds: float = 0.0
    peak_device_bytes: int = 0
    worker_walls: list[float] = dc_field(default_factory=list)
    supervision: object | None = None

    @property
    def n_samples(self) -> int:
        return self.lengths.shape[0]

    @property
    def n_seeds(self) -> int:
        return self.lengths.shape[1]

    @property
    def total_steps(self) -> int:
        """The paper's "Total fiber length" column."""
        return int(self.lengths.sum())

    @property
    def kernel_seconds(self) -> float:
        return self.timeline.total("kernel")

    @property
    def reduction_seconds(self) -> float:
        return self.timeline.total("reduction")

    @property
    def transfer_seconds(self) -> float:
        return self.timeline.total("transfer")

    @property
    def gpu_total_seconds(self) -> float:
        """Serial modeled GPU-path time (kernel + reduction + transfer)."""
        return self.timeline.serial_end()

    @property
    def overlapped_seconds(self) -> float:
        """Modeled time under the Fig 8 overlap schedule."""
        return self.timeline.overlapped_end()

    @property
    def speedup(self) -> float:
        """Modeled CPU time over modeled GPU time (Table II's Speedup)."""
        g = self.gpu_total_seconds
        return self.cpu_seconds / g if g > 0 else float("inf")

    @property
    def longest_fiber(self) -> int:
        """The paper's "Longest fiber length" column."""
        return int(self.lengths.max()) if self.lengths.size else 0


class SegmentedTracker:
    """Runs Algorithm 1 over sample volumes with a segmentation strategy.

    Parameters
    ----------
    device, host:
        Machine model the modeled timeline is charged against.
    interpolation:
        Field lookup mode (``"trilinear"`` or ``"nearest"``).
    """

    def __init__(
        self,
        device: DeviceSpec = RADEON_5870,
        host: HostSpec = PHENOM_X4,
        interpolation: str = "trilinear",
    ) -> None:
        self.device = device
        self.host = host
        self.interpolation = interpolation

    # -- main entry ---------------------------------------------------------

    def run(
        self,
        fields: FiberStack | Sequence[FiberField],
        seeds: np.ndarray,
        criteria: TerminationCriteria,
        strategy: SegmentationStrategy,
        connectivity: ConnectivityAccumulator | None = None,
        order: str = "natural",
        overlap: bool = False,
        headings: np.ndarray | None = None,
        heading_signs: np.ndarray | None = None,
    ) -> TrackingRunResult:
        """Track every seed through every sample volume: plan, kernel, model.

        Parameters
        ----------
        fields:
            The posterior :class:`~repro.models.fields.FiberStack`, or
            sample fields sharing one grid shape, fiber count and mask
            (stacked once, see
            :meth:`~repro.models.fields.FiberStack.from_fields`).
        seeds:
            ``(n_seeds, 3)`` start positions in voxel coordinates.
        criteria:
            Stop rules; ``criteria.max_steps`` is the budget the
            segmentation must cover.
        strategy:
            Segmentation strategy (the paper's contribution under test).
        connectivity:
            Optional accumulator receiving per-step visits.
        order:
            ``"natural"`` or ``"sorted"`` (Fig 4: launch later samples
            in the order of the first sample's lengths).
        overlap:
            Tag alternate samples with different timeline streams so
            :meth:`Timeline.overlapped_end` models the Fig 8 schedule.
        headings:
            Optional ``(n_seeds, 3)`` explicit launch directions (e.g. to
            force a hemisphere, or to run the second pass of
            bidirectional seeding).  Default: each sample's strongest
            population direction at the seed, positive sense.
        heading_signs:
            Optional ``(n_seeds,)`` array of +1/-1 applied to the
            per-sample default headings — the mechanism behind
            bidirectional seeding (duplicate the seed list with opposite
            signs).  Ignored when ``headings`` is given.
        """
        stack = FiberStack.from_fields(fields)
        t0 = time.perf_counter()
        segments = self.plan(stack, seeds, criteria, strategy, order, overlap)
        rows = self.track(
            stack, seeds, criteria, segments, connectivity, headings, heading_signs
        )
        result = self.model(rows, stack, segments, order, overlap)
        result.wall_seconds = time.perf_counter() - t0
        return result

    def plan(
        self,
        stack: FiberStack,
        seeds: np.ndarray,
        criteria: TerminationCriteria,
        strategy: SegmentationStrategy,
        order: str,
        overlap: bool,
    ) -> list[int]:
        """Check a run's inputs and the device fit; return its segments.

        Residency depends only on the seed count and image sizes, so an
        over-capacity device fails here, before any tracking.
        """
        if order not in ORDER_POLICIES:
            raise ConfigurationError(f"unknown order policy {order!r}")
        seeds = _check_seeds(seeds)
        self._model_residency(stack, seeds.shape[0], overlap)
        return strategy.segments(criteria.max_steps)

    # -- functional execution -----------------------------------------------

    def track(
        self,
        stack: FiberStack,
        seeds: np.ndarray,
        criteria: TerminationCriteria,
        segments: Sequence[int],
        connectivity: ConnectivityAccumulator | None = None,
        headings: np.ndarray | None = None,
        heading_signs: np.ndarray | None = None,
    ) -> TrackedRows:
        """The functional kernel: track ``stack`` as one lockstep batch.

        Row ``s`` of every output is ``stack[s]``.  Counters follow the
        *logical* per-sample launches — a segment covering k live
        samples counts k launches and k compactions — so the
        deterministic telemetry section is the same however the samples
        are stacked or sharded.
        """
        t0 = time.perf_counter()
        registry = get_registry()
        seeds = _check_seeds(seeds)
        n_seeds = seeds.shape[0]
        n_samples = stack.n_samples
        tracker = BatchTracker(stack, criteria, self.interpolation)

        if headings is not None:
            headings = np.asarray(headings, dtype=np.float64)
            if headings.shape != seeds.shape:
                raise TrackingError(
                    f"headings must match seeds shape {seeds.shape}, "
                    f"got {headings.shape}"
                )
            heads = np.tile(headings, (n_samples, 1))
        else:
            # Seed voxel arithmetic hoisted (the stack has a single grid
            # shape); one gather covers every sample's seed rows.
            f2, d2, _ = stack.flat_views()
            flat = nearest_flat_index(seeds, stack.shape3)
            rows = (flat + stack.mask.size * np.arange(n_samples)[:, None]).ravel()
            heads = initial_directions(f2[rows], d2[rows])
            if heading_signs is not None:
                heading_signs = np.asarray(heading_signs, dtype=np.float64)
                if heading_signs.shape != (n_seeds,):
                    raise TrackingError(
                        f"heading_signs must be ({n_seeds},), "
                        f"got {heading_signs.shape}"
                    )
                heads *= np.tile(heading_signs, n_samples)[:, None]

        state = tracker.init_state(
            np.tile(seeds, (n_samples, 1)),
            heads,
            origin=np.tile(np.arange(n_seeds, dtype=np.int64), n_samples),
            sample=np.repeat(np.arange(n_samples, dtype=np.int64), n_seeds),
        )
        del heads
        out = TrackedRows(
            lengths=np.zeros((n_samples, n_seeds), dtype=np.int64),
            reasons=np.zeros((n_samples, n_seeds), dtype=np.int64),
            endpoints=np.zeros((n_samples, n_seeds, 3), dtype=np.float64),
            iterations=np.zeros((n_samples, n_seeds), dtype=np.int64),
        )

        # Seeds with no population start terminated; record them now
        # so an all-dead launch still produces a complete result row.
        born_dead = ~state.active
        n_born_dead = int(born_dead.sum())
        if n_born_dead:
            registry.count("tracking.born_dead", n_born_dead)
            out.retire(state, born_dead)
            state = state.compact()

        visit_cb = None
        sink = None
        if connectivity is not None:
            sink = FusedVisitBuffer(n_samples)
            visit_cb = sink.record

        for i, seg_iters in enumerate(segments):
            if state.n_active == 0:
                break
            # A sample takes part in segment i iff it still has active
            # rows — exactly when Algorithm 1 launches it.
            live = int(np.count_nonzero(np.bincount(state.sample, minlength=n_samples)))
            registry.count("tracking.kernel_launches", live)
            registry.count("tracking.compactions", live)
            with registry.span(
                "tracking.segment", segment=i, iters=seg_iters, samples=live
            ):
                executed = tracker.run_segment(state, seg_iters, visit_cb)
                registry.count("tracking.steps", int(executed.sum()))
                out.iterations[state.sample, state.origin] += executed
                finished = ~state.active
                n_finished = int(finished.sum())
                registry.count("tracking.threads_retired", n_finished)
                if n_finished:
                    out.retire(state, finished)
                    state = state.compact()

        if state.n_active:  # budget covered but threads still active
            state.reason[:] = StopReason.MAX_STEPS
            out.retire(state, slice(None))

        if sink is not None:
            sink.flush(connectivity)
        # Per-row observations: a shard's histogram contributions equal
        # the whole-stack run's for the same sample rows, so bucket counts
        # merge bit-identically across any sharding.
        registry.histogram(
            "tracking.streamline_steps", STEP_HISTOGRAM_EDGES
        ).observe_many(out.lengths)
        out.wall_seconds = time.perf_counter() - t0
        return out

    # -- modeled accounting -------------------------------------------------

    def model(
        self,
        rows: TrackedRows,
        stack: FiberStack,
        segments: Sequence[int],
        order: str = "natural",
        overlap: bool = False,
    ) -> TrackingRunResult:
        """Algorithm 1's timeline, launches and residency for ``rows``.

        A function of the per-row iteration totals, ``lengths[0]`` (the
        ``"sorted"`` key), the segment plan, ``order`` and ``overlap``
        only — never of how the host scheduled the kernel, so one model
        over a merged stack is the whole-stack run's.
        """
        n_samples, n_seeds = rows.lengths.shape
        peak_bytes = self._model_residency(stack, n_seeds, overlap)
        get_registry().gauge("tracking.peak_device_bytes").set_max(peak_bytes)
        launch_order = None
        if order == "sorted":
            launch_order = np.argsort(rows.lengths[0], kind="stable")

        timeline = Timeline()
        launches: list[KernelLaunch] = []
        image_s = transfer_time(_image_bytes(stack), self.device)
        for g in range(n_samples):
            stream = (g % 2) if overlap else 0
            timeline.add("transfer", f"sample{g}:images", image_s, stream=stream)
            left = rows.iterations[g]
            if launch_order is not None and g > 0:
                left = left[launch_order]
            left = left[left > 0]  # born-dead seeds never launch
            for i, seg_iters in enumerate(segments):
                if not left.size:
                    break
                executed = np.minimum(left, seg_iters)
                left = left[left > seg_iters] - seg_iters
                label = f"sample{g}:seg{i}"
                n_threads = executed.shape[0]
                timeline.add(
                    "transfer",
                    f"{label}:down",
                    transfer_time(n_threads * BYTES_DOWN_PER_THREAD, self.device),
                    stream=stream,
                )
                k_sec = kernel_time(executed, self.device)
                timeline.add("kernel", label, k_sec, stream=stream)
                launches.append(
                    KernelLaunch(
                        label=label,
                        n_threads=n_threads,
                        max_iterations=seg_iters,
                        executed_iterations=int(executed.sum()),
                        seconds=k_sec,
                    )
                )
                timeline.add(
                    "transfer",
                    f"{label}:up",
                    transfer_time(n_threads * BYTES_UP_PER_THREAD, self.device),
                    stream=stream,
                )
                timeline.add(
                    "reduction",
                    f"{label}:compact",
                    reduction_time(n_threads, self.host),
                    stream=stream,
                )
        return TrackingRunResult(
            lengths=rows.lengths,
            reasons=rows.reasons,
            endpoints=rows.endpoints,
            timeline=timeline,
            launches=launches,
            cpu_seconds=float(rows.lengths.sum()) * self.host.seconds_per_iteration,
            wall_seconds=rows.wall_seconds,
            peak_device_bytes=peak_bytes,
        )

    def _model_residency(self, stack: FiberStack, n_seeds: int, overlap: bool) -> int:
        """Peak device bytes of Algorithm 1's per-sample residency.

        One persistent thread-state buffer plus the bound sample
        volume(s); overlap keeps two samples resident (paper: "the
        sample volume on the GPU also doubles").  Raises
        :class:`~repro.errors.DeviceError` when a sample does not fit.
        """
        memory = DeviceMemory(self.device)
        memory.alloc(
            DeviceBuffer(
                "thread-state",
                n_seeds * (BYTES_DOWN_PER_THREAD + BYTES_UP_PER_THREAD),
            )
        )
        image_handles: deque[int] = deque()
        resident_images = 2 if overlap else 1
        for s in range(stack.n_samples):
            while len(image_handles) >= resident_images:
                memory.free(image_handles.popleft())
            image_handles.append(
                memory.alloc(DeviceBuffer(f"sample{s}:images", _image_bytes(stack)))
            )
        return memory.peak_bytes
