"""The segmented tracking executor — Algorithm 1 end to end.

For every sample volume: upload the field images; then, per segment,
upload the (compacted) start points, launch the bounded kernel, read the
endpoints back, and compact on the host.  Every action is charged to the
machine model and logged on a :class:`~repro.gpu.timeline.Timeline`, so a
run yields *both* the functional results (per-seed fiber lengths, visits)
and the paper's time decomposition (kernel / reduction / transfer —
Tables II and IV).

Thread ordering is a policy: ``"natural"`` launches seeds in flat-index
order; ``"sorted"`` reorders every sample after the first by the first
sample's measured lengths — the Fig 4 experiment, which the paper shows
does *not* transfer across samples.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field as dc_field

import numpy as np

from repro.backends import get_array_backend
from repro.errors import ConfigurationError, TrackingError
from repro.gpu.device import DeviceSpec, HostSpec
from repro.gpu.presets import PHENOM_X4, RADEON_5870
from repro.gpu.memory import DeviceBuffer, DeviceMemory
from repro.gpu.simulator import KernelLaunch, kernel_time, reduction_time, transfer_time
from repro.gpu.timeline import Timeline
from repro.models.fields import FiberField
from repro.tracking.batch import BatchState, BatchTracker
from repro.tracking.criteria import StopReason, TerminationCriteria
from repro.tracking.connectivity import ConnectivityAccumulator
from repro.tracking.direction import initial_directions
from repro.tracking.fused import FusedBatchTracker, FusedVisitBuffer, StackedFields
from repro.tracking.interpolate import nearest_flat_index, nearest_lookup
from repro.tracking.segmentation import SegmentationStrategy
from repro.telemetry import get_registry

__all__ = [
    "SegmentedTracker",
    "TrackingRunResult",
    "STEP_HISTOGRAM_EDGES",
    "TRACKING_ENGINES",
]

#: Engine choices: ``"per-sample"`` launches the lockstep kernel once per
#: sample volume (the paper's Algorithm 1 schedule); ``"fused"`` stacks
#: all shard-local samples into one batch and advances them together.
TRACKING_ENGINES = ("per-sample", "fused")

#: Fixed bucket edges for the streamline-step histogram — fixed so that
#: serial and sharded runs bucket identically (the paper's Fig 5 bins).
STEP_HISTOGRAM_EDGES = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000)


def _field_image_bytes(field: FiberField) -> int:
    """Device footprint of one sample volume: f + directions as float32."""
    n_vox = int(np.prod(field.shape3))
    return n_vox * field.n_fibers * 4 * 4  # (1 fraction + 3 components) * 4 B


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
        Per-shard wall-clock seconds when the run was executed by the
        process backend (empty for serial runs).  ``max(worker_walls)``
        is the parallel critical path.
    supervision:
        The :class:`~repro.runtime.supervisor.SupervisorReport` when the
        run was executed by the supervised process backend (None for
        serial runs): every shard attempt, retry, re-shard, and serial
        fallback.  Typed loosely to keep :mod:`repro.tracking` free of a
        dependency on :mod:`repro.runtime`.
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
    device, host, interpolation:
        Machine model and lookup mode (unchanged from the per-sample-only
        executor).
    engine:
        ``"per-sample"`` (default) or ``"fused"`` — see
        :data:`TRACKING_ENGINES` and :mod:`repro.tracking.fused`.
    array_backend:
        Name of the :class:`~repro.backends.base.ArrayBackend` the hot
        loop executes on (``None``/"numpy", "array-api", "cupy").  Stored
        as a *name* and resolved at run time, so a pickled tracker (the
        process backend ships one per shard) never carries device arrays.
    compact_threshold:
        Fused-engine adaptive compaction: when a launch's active set
        falls below this fraction of its entry count, the kernel returns
        early, the host compacts, and the segment remainder relaunches.
        ``0.0`` disables (compaction only at segment boundaries).
    """

    def __init__(
        self,
        device: DeviceSpec = RADEON_5870,
        host: HostSpec = PHENOM_X4,
        interpolation: str = "trilinear",
        engine: str = "per-sample",
        array_backend: str | None = None,
        compact_threshold: float = 0.25,
    ) -> None:
        if engine not in TRACKING_ENGINES:
            raise ConfigurationError(
                f"unknown tracking engine {engine!r}; known: {list(TRACKING_ENGINES)}"
            )
        if not 0.0 <= compact_threshold <= 1.0:
            raise ConfigurationError(
                f"compact_threshold must be in [0, 1], got {compact_threshold}"
            )
        self.device = device
        self.host = host
        self.interpolation = interpolation
        self.engine = engine
        self.array_backend = array_backend
        self.compact_threshold = compact_threshold
        # Fail fast on an unknown/unavailable backend name (the resolved
        # instance itself is never stored — see `array_backend` above).
        get_array_backend(array_backend)

    # -- seed headings ------------------------------------------------------

    def _initial_headings(
        self,
        field: FiberField,
        seeds: np.ndarray,
        seed_flat: np.ndarray | None = None,
    ) -> np.ndarray:
        """Default launch directions at each seed.

        ``seed_flat`` optionally carries the seeds' precomputed flat
        voxel indices: the seed set is identical for every sample, so
        callers hoist the position→voxel arithmetic out of the per-sample
        loop and only the per-field gather remains.
        """
        if seed_flat is None:
            f, dirs = nearest_lookup(field, seeds)
        else:
            f2, d2, _ = field.flat_views()
            f, dirs = f2[seed_flat], d2[seed_flat]
        return initial_directions(f, dirs)

    # -- main entry ---------------------------------------------------------

    def run(
        self,
        fields: list[FiberField],
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
            Posterior sample volumes (or a single ground-truth field).
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
            instead of this run's own first-sample lengths.  The process
            execution backend passes the globally-first sample's lengths
            here so every shard applies the *same* permutation the serial
            path would.
        sample_offset:
            Global index of ``fields[0]`` when this call runs a shard of
            a larger sample list.  Event labels, overlap stream parity,
            and the sorted-order condition all use the global sample
            index, so per-shard outputs are bit-identical to the
            corresponding slice of a serial run.
        """
        if not fields:
            raise TrackingError("need at least one sample volume")
        if order not in ("natural", "sorted"):
            raise ConfigurationError(f"unknown order policy {order!r}")
        if sample_offset < 0:
            raise ConfigurationError(
                f"sample_offset must be >= 0, got {sample_offset}"
            )
        if order == "sorted" and sample_offset > 0 and sort_key is None:
            raise ConfigurationError(
                "a shard starting past sample 0 needs the global sort_key "
                "to reproduce the serial 'sorted' permutation"
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

        if self.engine == "fused":
            return self._run_fused(
                fields,
                seeds,
                criteria,
                strategy,
                connectivity,
                order,
                overlap,
                headings,
                heading_signs,
                sort_key,
                sample_offset,
            )

        segments = strategy.segments(criteria.max_steps)
        n_seeds = seeds.shape[0]
        n_samples = len(fields)
        xb = get_array_backend(self.array_backend)

        lengths = np.zeros((n_samples, n_seeds), dtype=np.int64)
        reasons = np.zeros((n_samples, n_seeds), dtype=np.int64)
        endpoints = np.zeros((n_samples, n_seeds, 3), dtype=np.float64)
        timeline = Timeline()
        launches: list[KernelLaunch] = []
        registry = get_registry()
        t0 = time.perf_counter()

        # The seed set is the same for every sample: resolve seed voxels
        # once (per grid shape) and reuse across the per-sample loop.
        seed_flats: dict[tuple[int, int, int], np.ndarray] = {}

        # Device allocations: the per-thread state (persistent) plus the
        # bound sample volume(s).  Overlap keeps two samples resident
        # (paper: "the sample volume on the GPU also doubles").
        memory = DeviceMemory(self.device)
        memory.alloc(
            DeviceBuffer("thread-state", n_seeds * (28 + 32))
        )
        image_handles: deque[int] = deque()
        resident_images = 2 if overlap else 1

        for s, field in enumerate(fields):
            g = s + sample_offset  # global sample index
            stream = (g % 2) if overlap else 0
            while len(image_handles) >= resident_images:
                memory.free(image_handles.popleft())
            image_handles.append(
                memory.alloc(
                    DeviceBuffer(f"sample{g}:images", _field_image_bytes(field))
                )
            )
            timeline.add(
                "transfer",
                f"sample{g}:images",
                transfer_time(_field_image_bytes(field), self.device),
                stream=stream,
            )
            tracker = BatchTracker(field, criteria, self.interpolation, xb=xb)
            if headings is not None:
                h = headings
            else:
                if field.shape3 not in seed_flats:
                    seed_flats[field.shape3] = nearest_flat_index(
                        seeds, field.shape3
                    )
                h = self._initial_headings(
                    field, seeds, seed_flat=seed_flats[field.shape3]
                )
                if heading_signs is not None:
                    h = h * heading_signs[:, None]
            state = tracker.init_state(seeds, h)

            if order == "sorted" and g > 0:
                # Fig 4: schedule by the first sample's measured loads
                # (shards receive that row explicitly as sort_key).
                key = lengths[0] if sort_key is None else sort_key
                permutation = np.argsort(key, kind="stable")
                state = BatchState(
                    positions=state.positions[permutation].copy(),
                    headings=state.headings[permutation].copy(),
                    steps=state.steps[permutation].copy(),
                    reason=state.reason[permutation].copy(),
                    origin=state.origin[permutation].copy(),
                )

            # Seeds with no population start terminated; record them now
            # so an all-dead launch still produces a complete result row.
            born_dead = ~state.active
            n_born_dead = int(born_dead.sum())
            if n_born_dead:
                registry.count("tracking.born_dead", n_born_dead)
                bd_origin = xb.to_numpy(state.origin[born_dead])
                lengths[s, bd_origin] = 0
                reasons[s, bd_origin] = xb.to_numpy(state.reason[born_dead])
                endpoints[s, bd_origin] = xb.to_numpy(state.positions[born_dead])
                state = state.compact()

            visit_cb = None
            if connectivity is not None:
                connectivity.begin_sample()
                visit_cb = connectivity.visit

            for i, seg_iters in enumerate(segments):
                if state.n_active == 0:
                    break
                with registry.span(
                    "tracking.segment", sample=g, segment=i, iters=seg_iters
                ):
                    timeline.add(
                        "transfer",
                        f"sample{g}:seg{i}:down",
                        transfer_time(state.payload_bytes_down(), self.device),
                        stream=stream,
                    )
                    executed = tracker.run_segment(state, seg_iters, visit_cb)
                    k_sec = kernel_time(executed, self.device)
                    timeline.add("kernel", f"sample{g}:seg{i}", k_sec, stream=stream)
                    launches.append(
                        KernelLaunch(
                            label=f"sample{g}:seg{i}",
                            n_threads=state.n_threads,
                            max_iterations=seg_iters,
                            executed_iterations=int(executed.sum()),
                            seconds=k_sec,
                        )
                    )
                    registry.count("tracking.kernel_launches", 1)
                    registry.count("tracking.steps", int(executed.sum()))
                    timeline.add(
                        "transfer",
                        f"sample{g}:seg{i}:up",
                        transfer_time(state.payload_bytes_up(), self.device),
                        stream=stream,
                    )
                    timeline.add(
                        "reduction",
                        f"sample{g}:seg{i}:compact",
                        reduction_time(state.n_threads, self.host),
                        stream=stream,
                    )
                    finished = ~state.active
                    registry.count("tracking.compactions", 1)
                    registry.count(
                        "tracking.threads_retired", int(finished.sum())
                    )
                    fin_origin = xb.to_numpy(state.origin[finished])
                    lengths[s, fin_origin] = xb.to_numpy(state.steps[finished])
                    reasons[s, fin_origin] = xb.to_numpy(state.reason[finished])
                    endpoints[s, fin_origin] = xb.to_numpy(
                        state.positions[finished]
                    )
                    state = state.compact()

            if state.n_active:  # budget covered but threads still active
                state.reason[:] = StopReason.MAX_STEPS
                origin = xb.to_numpy(state.origin)
                lengths[s, origin] = xb.to_numpy(state.steps)
                reasons[s, origin] = xb.to_numpy(state.reason)
                endpoints[s, origin] = xb.to_numpy(state.positions)

            if connectivity is not None:
                connectivity.end_sample()

        # Per-row observations: a shard's histogram contributions equal
        # the serial run's for the same sample rows, so bucket counts
        # merge bit-identically across any sharding.
        registry.histogram(
            "tracking.streamline_steps", STEP_HISTOGRAM_EDGES
        ).observe_many(lengths)
        registry.gauge("tracking.peak_device_bytes").set_max(memory.peak_bytes)

        result = TrackingRunResult(
            lengths=lengths,
            reasons=reasons,
            endpoints=endpoints,
            timeline=timeline,
            launches=launches,
            cpu_seconds=float(lengths.sum()) * self.host.seconds_per_iteration,
            wall_seconds=time.perf_counter() - t0,
            peak_device_bytes=memory.peak_bytes,
        )
        return result

    # -- fused engine -------------------------------------------------------

    def _run_fused(
        self,
        fields: list[FiberField],
        seeds: np.ndarray,
        criteria: TerminationCriteria,
        strategy: SegmentationStrategy,
        connectivity: ConnectivityAccumulator | None,
        order: str,
        overlap: bool,
        headings: np.ndarray | None,
        heading_signs: np.ndarray | None,
        sort_key: np.ndarray | None,
        sample_offset: int,
    ) -> TrackingRunResult:
        """One fused lockstep run over all shard-local samples.

        All inputs are pre-validated by :meth:`run`.  Counter accounting
        mirrors the per-sample engine's *logical* launches — a fused
        kernel covering k live samples counts k launches/compactions —
        so the deterministic telemetry section is identical across
        engines, worker counts, and compaction thresholds.
        """
        registry = get_registry()
        t0 = time.perf_counter()
        n_seeds = seeds.shape[0]
        n_samples = len(fields)

        if order == "sorted" and sort_key is None and n_samples > 1:
            # Fig 4 needs sample 0's lengths before later samples can be
            # permuted: run it as a fused group of one, then fuse the
            # rest — the same two-phase split the process backend uses.
            first = self._run_fused(
                fields[:1], seeds, criteria, strategy, connectivity,
                order, overlap, headings, heading_signs, None, sample_offset,
            )
            rest = self._run_fused(
                fields[1:], seeds, criteria, strategy, connectivity,
                order, overlap, headings, heading_signs,
                first.lengths[0].copy(), sample_offset + 1,
            )
            timeline = Timeline()
            timeline.merge(first.timeline)
            timeline.merge(rest.timeline)
            lengths = np.concatenate([first.lengths, rest.lengths], axis=0)
            return TrackingRunResult(
                lengths=lengths,
                reasons=np.concatenate([first.reasons, rest.reasons], axis=0),
                endpoints=np.concatenate(
                    [first.endpoints, rest.endpoints], axis=0
                ),
                timeline=timeline,
                launches=first.launches + rest.launches,
                cpu_seconds=float(lengths.sum()) * self.host.seconds_per_iteration,
                wall_seconds=time.perf_counter() - t0,
                peak_device_bytes=max(
                    first.peak_device_bytes, rest.peak_device_bytes
                ),
            )

        xb = get_array_backend(self.array_backend)
        segments = strategy.segments(criteria.max_steps)
        stack = StackedFields(list(fields))
        tracker = FusedBatchTracker(stack, criteria, self.interpolation, xb=xb)
        registry.count("tracking.fused_samples", n_samples)

        lengths = np.zeros((n_samples, n_seeds), dtype=np.int64)
        reasons = np.zeros((n_samples, n_seeds), dtype=np.int64)
        endpoints = np.zeros((n_samples, n_seeds, 3), dtype=np.float64)
        timeline = Timeline()
        launches: list[KernelLaunch] = []

        # Fused residency: every sample's images stay bound for the whole
        # run (that is the point of fusion), plus one thread-state buffer
        # covering all (sample, seed) rows.  Honest consequence: a stack
        # that exceeds device capacity raises DeviceError — shard smaller.
        memory = DeviceMemory(self.device)
        memory.alloc(
            DeviceBuffer("thread-state", n_samples * n_seeds * (28 + 32))
        )
        for s, field in enumerate(fields):
            g = s + sample_offset
            stream = (g % 2) if overlap else 0
            memory.alloc(
                DeviceBuffer(f"sample{g}:images", _field_image_bytes(field))
            )
            timeline.add(
                "transfer",
                f"sample{g}:images",
                transfer_time(_field_image_bytes(field), self.device),
                stream=stream,
            )

        # Per-sample launch blocks: seed voxel arithmetic hoisted (the
        # stack guarantees a single grid shape), per-sample gathers and
        # the Fig 4 permutation applied per block.
        seed_flat = None if headings is not None else nearest_flat_index(
            seeds, stack.shape3
        )
        pos_blocks: list[np.ndarray] = []
        head_blocks: list[np.ndarray] = []
        origin_blocks: list[np.ndarray] = []
        sample_blocks: list[np.ndarray] = []
        for s, field in enumerate(fields):
            g = s + sample_offset
            if headings is not None:
                h = headings
            else:
                h = self._initial_headings(field, seeds, seed_flat=seed_flat)
                if heading_signs is not None:
                    h = h * heading_signs[:, None]
            if order == "sorted" and g > 0:
                permutation = np.argsort(sort_key, kind="stable")
                pos_blocks.append(seeds[permutation])
                head_blocks.append(h[permutation])
                origin_blocks.append(permutation.astype(np.int64))
            else:
                pos_blocks.append(seeds)
                head_blocks.append(h)
                origin_blocks.append(np.arange(n_seeds, dtype=np.int64))
            sample_blocks.append(np.full(n_seeds, s, dtype=np.int64))

        state = tracker.init_state(
            np.concatenate(pos_blocks, axis=0),
            np.concatenate(head_blocks, axis=0),
            origin=np.concatenate(origin_blocks),
            sample=np.concatenate(sample_blocks),
        )

        born_dead = ~state.active
        n_born_dead = int(born_dead.sum())
        if n_born_dead:
            registry.count("tracking.born_dead", n_born_dead)
            bd_sample = xb.to_numpy(state.sample[born_dead])
            bd_origin = xb.to_numpy(state.origin[born_dead])
            lengths[bd_sample, bd_origin] = 0
            reasons[bd_sample, bd_origin] = xb.to_numpy(state.reason[born_dead])
            endpoints[bd_sample, bd_origin] = xb.to_numpy(
                state.positions[born_dead]
            )
            state = state.compact()

        visit_cb = None
        sink = None
        if connectivity is not None:
            sink = FusedVisitBuffer(n_samples)
            visit_cb = sink.record

        stop_fraction = self.compact_threshold if self.compact_threshold > 0 else None
        for i, seg_iters in enumerate(segments):
            if state.n_active == 0:
                break
            # Logical launch accounting: a sample participates in this
            # segment iff it still has active rows — exactly when the
            # per-sample engine would launch its segment i.
            live = np.bincount(xb.to_numpy(state.sample), minlength=n_samples)
            n_live_samples = int((live > 0).sum())
            registry.count("tracking.kernel_launches", n_live_samples)
            registry.count("tracking.compactions", n_live_samples)
            with registry.span(
                "tracking.fused_segment",
                segment=i,
                iters=seg_iters,
                samples=n_live_samples,
            ):
                remaining = seg_iters
                sub = 0
                while remaining > 0 and state.n_active > 0:
                    label = f"fused:seg{i}" + (f":c{sub}" if sub else "")
                    timeline.add(
                        "transfer",
                        f"{label}:down",
                        transfer_time(state.payload_bytes_down(), self.device),
                        stream=0,
                    )
                    executed = tracker.run_segment(
                        state,
                        remaining,
                        visit_cb,
                        stop_fraction=stop_fraction,
                    )
                    k_sec = kernel_time(executed, self.device)
                    timeline.add("kernel", label, k_sec, stream=0)
                    launches.append(
                        KernelLaunch(
                            label=label,
                            n_threads=state.n_threads,
                            max_iterations=remaining,
                            executed_iterations=int(executed.sum()),
                            seconds=k_sec,
                        )
                    )
                    registry.count("tracking.steps", int(executed.sum()))
                    timeline.add(
                        "transfer",
                        f"{label}:up",
                        transfer_time(state.payload_bytes_up(), self.device),
                        stream=0,
                    )
                    timeline.add(
                        "reduction",
                        f"{label}:compact",
                        reduction_time(state.n_threads, self.host),
                        stream=0,
                    )
                    # Every row was active at launch, so the longest lane
                    # sets how much of the segment budget was consumed.
                    iters_run = int(executed.max())
                    finished = ~state.active
                    n_finished = int(finished.sum())
                    registry.count("tracking.threads_retired", n_finished)
                    if n_finished:
                        fin_sample = xb.to_numpy(state.sample[finished])
                        fin_origin = xb.to_numpy(state.origin[finished])
                        lengths[fin_sample, fin_origin] = xb.to_numpy(
                            state.steps[finished]
                        )
                        reasons[fin_sample, fin_origin] = xb.to_numpy(
                            state.reason[finished]
                        )
                        endpoints[fin_sample, fin_origin] = xb.to_numpy(
                            state.positions[finished]
                        )
                        state = state.compact()
                    remaining -= max(iters_run, 1)
                    if remaining > 0 and state.n_active > 0:
                        # The early return triggered: the relaunch below
                        # is an adaptive (in-segment) compaction.
                        registry.count(
                            "tracking.compactions_adaptive",
                            1,
                            deterministic=False,
                        )
                    sub += 1

        if state.n_active:  # budget covered but threads still active
            state.reason[:] = StopReason.MAX_STEPS
            fin_sample = xb.to_numpy(state.sample)
            fin_origin = xb.to_numpy(state.origin)
            lengths[fin_sample, fin_origin] = xb.to_numpy(state.steps)
            reasons[fin_sample, fin_origin] = xb.to_numpy(state.reason)
            endpoints[fin_sample, fin_origin] = xb.to_numpy(state.positions)

        if sink is not None:
            sink.flush(connectivity)

        registry.histogram(
            "tracking.streamline_steps", STEP_HISTOGRAM_EDGES
        ).observe_many(lengths)
        registry.gauge("tracking.peak_device_bytes").set_max(memory.peak_bytes)

        return TrackingRunResult(
            lengths=lengths,
            reasons=reasons,
            endpoints=endpoints,
            timeline=timeline,
            launches=launches,
            cpu_seconds=float(lengths.sum()) * self.host.seconds_per_iteration,
            wall_seconds=time.perf_counter() - t0,
            peak_device_bytes=memory.peak_bytes,
        )
