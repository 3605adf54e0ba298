"""The segmented tracking executor — Algorithm 1 end to end.

The paper's schedule, per sample volume: upload the field images; then,
per segment, upload the (compacted) start points, launch the bounded
kernel, read the endpoints back, and compact on the host.  Every action
is charged to the machine model and logged on a
:class:`~repro.gpu.timeline.Timeline`, so a run yields *both* the
functional results (per-seed fiber lengths, endpoints, visits) and the
paper's time decomposition (kernel / reduction / transfer — Tables II
and IV).

The host executes that schedule fused: the shard-local samples of the
one posterior :class:`~repro.models.fields.FiberStack` run as a single
lockstep batch whose threads are ``(sample, seed)`` pairs, and each
segment is one :meth:`~repro.tracking.batch.BatchTracker.run_segment`
call over all samples, compacting at segment boundaries.  Each row's
arithmetic depends only on its own position, heading and sample, and
the stacked gather (``sample * n_vox + flat``) reads exactly the bytes
a per-sample gather would, so a fused run is bit-identical to tracking
each sample alone.  The modeled accounting stays per sample: each
launch's per-thread executed counts are split by sample — each slice
is, in launch order, exactly what that sample's own Algorithm 1 launch
would have executed — and the events and
:class:`~repro.gpu.simulator.KernelLaunch` records are emitted in
sample-major order.  The model is therefore a function of the measured
per-thread step counts only, never of how the host schedules them.

Thread ordering is a policy: ``"natural"`` launches seeds in flat-index
order; ``"sorted"`` reorders every sample after the first by the first
sample's measured lengths — the Fig 4 experiment, which the paper shows
does *not* transfer across samples.
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
        High-water device memory (sample images + thread state) — the
        quantity that forces the paper to serialize samples (§ IV-B) and
        that doubles under the Fig 8 overlap scheme.
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
        sort_key: np.ndarray | None = None,
        sample_offset: int = 0,
    ) -> TrackingRunResult:
        """Track every seed through every sample volume.

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
            ``"natural"`` or ``"sorted"`` (Fig 4: reorder later samples
            by the first sample's lengths).
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
        sort_key:
            Explicit ``(n_seeds,)`` key for the ``"sorted"`` order policy
            instead of this run's own first-sample lengths.  Sharded
            runs pass the globally-first sample's lengths here so every
            shard applies the *same* permutation a whole-stack run would.
        sample_offset:
            Global index of ``fields[0]`` when this call runs a shard of
            a larger sample stack.  Event labels, overlap stream parity,
            and the sorted-order condition all use the global sample
            index, so per-shard outputs are bit-identical to the
            corresponding slice of a whole-stack run.
        """
        stack = FiberStack.from_fields(fields)
        if order not in ORDER_POLICIES:
            raise ConfigurationError(f"unknown order policy {order!r}")
        if sample_offset < 0:
            raise ConfigurationError(
                f"sample_offset must be >= 0, got {sample_offset}"
            )
        if order == "sorted" and sample_offset > 0 and sort_key is None:
            raise ConfigurationError(
                "a shard starting past sample 0 needs the global sort_key "
                "to reproduce the whole-stack 'sorted' permutation"
            )
        seeds = np.asarray(seeds, dtype=np.float64)
        if seeds.ndim != 2 or seeds.shape[1] != 3:
            raise TrackingError(f"seeds must be (n, 3), got {seeds.shape}")
        if headings is not None:
            headings = np.asarray(headings, dtype=np.float64)
            if headings.shape != seeds.shape:
                raise TrackingError(
                    f"headings must match seeds shape {seeds.shape}, "
                    f"got {headings.shape}"
                )
        elif heading_signs is not None:
            heading_signs = np.asarray(heading_signs, dtype=np.float64)
            if heading_signs.shape != (seeds.shape[0],):
                raise TrackingError(
                    f"heading_signs must be ({seeds.shape[0]},), "
                    f"got {heading_signs.shape}"
                )

        registry = get_registry()
        t0 = time.perf_counter()
        n_seeds = seeds.shape[0]
        n_samples = stack.n_samples
        # Residency depends only on the seed count and image sizes, so an
        # over-capacity device fails before any tracking.
        peak_bytes = self._model_residency(stack, n_seeds, overlap, sample_offset)

        lengths = np.zeros((n_samples, n_seeds), dtype=np.int64)
        reasons = np.zeros((n_samples, n_seeds), dtype=np.int64)
        endpoints = np.zeros((n_samples, n_seeds, 3), dtype=np.float64)
        # Per local sample: one (segment, iters, executed) record per
        # launch the sample took part in, in segment order.
        records: list[list[tuple[int, int, np.ndarray]]] = [
            [] for _ in range(n_samples)
        ]
        segments = strategy.segments(criteria.max_steps)

        # Fig 4 needs sample 0's lengths before later samples can be
        # permuted: run it alone, then stack the rest.
        phases = [(0, n_samples)]
        if order == "sorted" and sort_key is None and n_samples > 1:
            phases = [(0, 1), (1, n_samples)]
        for lo, hi in phases:
            self._track(
                stack[lo:hi],
                seeds,
                criteria,
                segments,
                connectivity,
                order,
                headings,
                heading_signs,
                lengths[0] if sort_key is None else sort_key,
                sample_offset + lo,
                (lengths[lo:hi], reasons[lo:hi], endpoints[lo:hi]),
                records[lo:hi],
            )

        timeline, launches = self._model_launches(
            stack, records, overlap, sample_offset
        )
        # Per-row observations: a shard's histogram contributions equal
        # the whole-stack run's for the same sample rows, so bucket counts
        # merge bit-identically across any sharding.
        registry.histogram(
            "tracking.streamline_steps", STEP_HISTOGRAM_EDGES
        ).observe_many(lengths)
        registry.gauge("tracking.peak_device_bytes").set_max(peak_bytes)

        return TrackingRunResult(
            lengths=lengths,
            reasons=reasons,
            endpoints=endpoints,
            timeline=timeline,
            launches=launches,
            cpu_seconds=float(lengths.sum()) * self.host.seconds_per_iteration,
            wall_seconds=time.perf_counter() - t0,
            peak_device_bytes=peak_bytes,
        )

    # -- functional execution -----------------------------------------------

    def _track(
        self,
        stack: FiberStack,
        seeds: np.ndarray,
        criteria: TerminationCriteria,
        segments: list[int],
        connectivity: ConnectivityAccumulator | None,
        order: str,
        headings: np.ndarray | None,
        heading_signs: np.ndarray | None,
        sort_key: np.ndarray,
        sample_offset: int,
        out: tuple[np.ndarray, np.ndarray, np.ndarray],
        records: list[list[tuple[int, int, np.ndarray]]],
    ) -> None:
        """Track ``stack`` as one lockstep batch.

        Writes lengths, reasons, and endpoints into ``out`` (row ``s`` =
        ``stack[s]``) and appends each launch's per-sample executed
        slice to ``records[s]``.  Counters follow the *logical*
        per-sample launches — a segment covering k live samples counts
        k launches and k compactions — so the deterministic telemetry
        section is the same however the samples are stacked or sharded.
        """
        registry = get_registry()
        lengths, reasons, endpoints = out
        n_seeds = seeds.shape[0]
        n_samples = stack.n_samples
        tracker = BatchTracker(stack, criteria, self.interpolation)

        # Per-sample launch blocks: seed voxel arithmetic hoisted (the
        # stack has a single grid shape), per-sample gathers and the
        # Fig 4 permutation applied per block.
        seed_flat = None if headings is not None else nearest_flat_index(
            seeds, stack.shape3
        )
        f2, d2, _ = stack.flat_views()
        n_vox = stack.mask.size
        permutation = np.argsort(sort_key, kind="stable") if order == "sorted" else None
        pos_blocks: list[np.ndarray] = []
        head_blocks: list[np.ndarray] = []
        origin_blocks: list[np.ndarray] = []
        for s in range(n_samples):
            if headings is not None:
                h = headings
            else:
                rows = seed_flat + s * n_vox
                h = initial_directions(f2[rows], d2[rows])
                if heading_signs is not None:
                    h = h * heading_signs[:, None]
            if permutation is not None and s + sample_offset > 0:
                pos_blocks.append(seeds[permutation])
                head_blocks.append(h[permutation])
                origin_blocks.append(permutation.astype(np.int64))
            else:
                pos_blocks.append(seeds)
                head_blocks.append(h)
                origin_blocks.append(np.arange(n_seeds, dtype=np.int64))

        state = tracker.init_state(
            np.concatenate(pos_blocks, axis=0),
            np.concatenate(head_blocks, axis=0),
            origin=np.concatenate(origin_blocks),
            sample=np.repeat(np.arange(n_samples, dtype=np.int64), n_seeds),
        )
        del pos_blocks, head_blocks, origin_blocks

        # Seeds with no population start terminated; record them now
        # so an all-dead launch still produces a complete result row.
        born_dead = ~state.active
        n_born_dead = int(born_dead.sum())
        if n_born_dead:
            registry.count("tracking.born_dead", n_born_dead)
            rows = (state.sample[born_dead], state.origin[born_dead])
            lengths[rows] = 0
            reasons[rows] = state.reason[born_dead]
            endpoints[rows] = state.positions[born_dead]
            state = state.compact()

        visit_cb = None
        sink = None
        if connectivity is not None:
            sink = FusedVisitBuffer(n_samples)
            visit_cb = sink.record

        for i, seg_iters in enumerate(segments):
            if state.n_active == 0:
                break
            # Rows stay grouped by sample (blocks are built sample-major
            # and compaction is stable), so per-sample launch slices are
            # contiguous.  A sample takes part in segment i iff it still
            # has active rows — exactly when Algorithm 1 launches it.
            counts = np.bincount(state.sample, minlength=n_samples)
            live = np.flatnonzero(counts)
            registry.count("tracking.kernel_launches", len(live))
            registry.count("tracking.compactions", len(live))
            with registry.span(
                "tracking.segment", segment=i, iters=seg_iters, samples=len(live)
            ):
                executed = tracker.run_segment(state, seg_iters, visit_cb)
                registry.count("tracking.steps", int(executed.sum()))
                bounds = np.concatenate(([0], np.cumsum(counts)))
                for s in live:
                    records[s].append(
                        (i, seg_iters, executed[bounds[s] : bounds[s + 1]])
                    )
                finished = ~state.active
                n_finished = int(finished.sum())
                registry.count("tracking.threads_retired", n_finished)
                if n_finished:
                    rows = (state.sample[finished], state.origin[finished])
                    lengths[rows] = state.steps[finished]
                    reasons[rows] = state.reason[finished]
                    endpoints[rows] = state.positions[finished]
                    state = state.compact()

        if state.n_active:  # budget covered but threads still active
            state.reason[:] = StopReason.MAX_STEPS
            rows = (state.sample, state.origin)
            lengths[rows] = state.steps
            reasons[rows] = state.reason
            endpoints[rows] = state.positions

        if sink is not None:
            sink.flush(connectivity)

    # -- modeled accounting -------------------------------------------------

    def _model_residency(
        self,
        stack: FiberStack,
        n_seeds: int,
        overlap: bool,
        sample_offset: int,
    ) -> int:
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
                memory.alloc(
                    DeviceBuffer(
                        f"sample{s + sample_offset}:images",
                        _image_bytes(stack),
                    )
                )
            )
        return memory.peak_bytes

    def _model_launches(
        self,
        stack: FiberStack,
        records: list[list[tuple[int, int, np.ndarray]]],
        overlap: bool,
        sample_offset: int,
    ) -> tuple[Timeline, list[KernelLaunch]]:
        """Algorithm 1's event log, sample-major, from per-sample launches."""
        timeline = Timeline()
        launches: list[KernelLaunch] = []
        for s in range(stack.n_samples):
            g = s + sample_offset  # global sample index
            stream = (g % 2) if overlap else 0
            timeline.add(
                "transfer",
                f"sample{g}:images",
                transfer_time(_image_bytes(stack), self.device),
                stream=stream,
            )
            for i, seg_iters, executed in records[s]:
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
        return timeline, launches
