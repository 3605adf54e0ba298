"""High-level probabilistic streamlining driver (paper § III-B, Fig 1 step 2).

:func:`probabilistic_streamlining` wires the pieces together: seeds from a
mask, initial headings from each sample volume, the segmented executor
with a chosen strategy, and connectivity accumulation — returning
everything the paper's evaluation reports about the tracking stage (the
fiber-length fit is computed when first read).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from repro.config.spec import INTERPOLATIONS, ORDER_POLICIES
from repro.errors import ConfigurationError, TrackingError
from repro.gpu.device import DeviceSpec, HostSpec
from repro.gpu.presets import (
    PHENOM_X4,
    RADEON_5870,
    device_preset,
    device_preset_name,
    host_preset,
    host_preset_name,
)
from repro.models.fields import FiberField, FiberStack
from repro.runtime.supervisor import RetryPolicy
from repro.tracking.connectivity import ConnectivityAccumulator
from repro.tracking.criteria import TerminationCriteria
from repro.tracking.executor import SegmentedTracker, TrackingRunResult
from repro.tracking.lengths import ExponentialFit, fit_exponential
from repro.tracking.seeds import seeds_from_mask
from repro.tracking.segmentation import (
    SegmentationStrategy,
    strategy_from_spec,
    strategy_to_spec,
    table2_strategy,
)
from repro.tracking.shards import run_sharded
from repro.telemetry import get_registry

__all__ = [
    "ProbtrackConfig",
    "ProbtrackResult",
    "default_seed_mask",
    "probabilistic_streamlining",
]


@dataclass
class ProbtrackConfig:
    """Configuration of a probabilistic streamlining run."""

    criteria: TerminationCriteria = dc_field(default_factory=TerminationCriteria)
    strategy: SegmentationStrategy = dc_field(default_factory=table2_strategy)
    device: DeviceSpec = RADEON_5870
    host: HostSpec = PHENOM_X4
    interpolation: str = "trilinear"
    order: str = "natural"
    overlap: bool = False
    accumulate_connectivity: bool = True
    #: Launch each seed in both senses of its strongest population (FSL's
    #: default behaviour; the paper does not specify).  Thread count and
    #: the modeled workload double; connectivity merges the two passes.
    bidirectional: bool = False
    #: Worker processes for the sample loop (1 = serial).  The sharded
    #: run's merged output is bit-identical to serial for any count
    #: (see :mod:`repro.tracking.shards`).
    n_workers: int = 1
    #: How sharded runs are supervised: retries, deadline, serial
    #: fallback, and the dev/test-only fault plan (retries replay a pure
    #: function, so results stay bit-identical).
    supervision: RetryPolicy = dc_field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        if self.interpolation not in INTERPOLATIONS:
            raise ConfigurationError(
                f"interpolation must be one of {list(INTERPOLATIONS)}, "
                f"got {self.interpolation!r}"
            )
        if self.order not in ORDER_POLICIES:
            raise ConfigurationError(
                f"order must be one of {list(ORDER_POLICIES)}, got {self.order!r}"
            )
        if self.n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be >= 1, got {self.n_workers}"
            )

    def to_spec_dict(self) -> dict:
        """The run-spec form: ``tracking`` and ``runtime`` section fields.

        Criteria fields are inlined into ``tracking`` (the spec keeps one
        flat section per stage); the strategy serializes to its name or
        an explicit array; device/host serialize as preset names; the
        supervision policy serializes through
        :meth:`~repro.runtime.supervisor.RetryPolicy.to_runtime`.
        """
        name, array = strategy_to_spec(self.strategy)
        tracking = dict(self.criteria.to_spec_dict())
        tracking.update(
            strategy=name,
            strategy_array=list(array) if array is not None else None,
            interpolation=self.interpolation,
            order=self.order,
            overlap=self.overlap,
            bidirectional=self.bidirectional,
            accumulate_connectivity=self.accumulate_connectivity,
        )
        runtime = {
            "n_workers": self.n_workers,
            **self.supervision.to_runtime(),
            "device": device_preset_name(self.device),
            "host": host_preset_name(self.host),
        }
        return {"tracking": tracking, "runtime": runtime}

    @classmethod
    def from_spec_dict(cls, data: dict) -> "ProbtrackConfig":
        """Rebuild from :meth:`to_spec_dict` output (or the matching
        sections of a full run-spec dict; extra keys are ignored)."""
        tracking = data.get("tracking", {})
        runtime = data.get("runtime", {})
        return cls(
            criteria=TerminationCriteria.from_spec_dict(tracking),
            strategy=strategy_from_spec(
                tracking.get("strategy", "increasing"),
                tracking.get("strategy_array"),
            ),
            device=device_preset(runtime.get("device", "radeon_5870")),
            host=host_preset(runtime.get("host", "phenom_x4")),
            interpolation=tracking.get("interpolation", "trilinear"),
            order=tracking.get("order", "natural"),
            overlap=tracking.get("overlap", False),
            accumulate_connectivity=tracking.get(
                "accumulate_connectivity", True
            ),
            bidirectional=tracking.get("bidirectional", False),
            n_workers=runtime.get("n_workers", 1),
            supervision=RetryPolicy.from_runtime(runtime),
        )

    @classmethod
    def from_run_spec(cls, spec) -> "ProbtrackConfig":
        """Build the stage-2 config from a resolved
        :class:`~repro.config.spec.RunSpec`."""
        return cls.from_spec_dict(spec.to_dict())


@dataclass
class ProbtrackResult:
    """Everything the tracking stage produces.

    Attributes
    ----------
    run:
        Functional results + modeled time decomposition.
    connectivity:
        The seed-by-voxel accumulator (None if disabled).
    seeds:
        The ``(n_seeds, 3)`` launch positions.
    max_steps:
        The run's step cap — the truncation point of the length fit.
    length_fit:
        Exponential MLE of the pooled fiber lengths (Fig 5), or None if
        the pool was too small/degenerate to fit.  Lazy: computed from
        ``run.lengths`` and ``max_steps`` on first read and cached, so a
        run whose caller never reads it never pays for the fit.
    """

    run: TrackingRunResult
    connectivity: ConnectivityAccumulator | None
    seeds: np.ndarray
    max_steps: int

    @cached_property
    def length_fit(self) -> ExponentialFit | None:
        try:
            return fit_exponential(
                self.run.lengths.ravel(), truncate_at=float(self.max_steps)
            )
        except TrackingError:
            return None

    @property
    def connectivity_probability(self):
        """Sparse ``P(exists seed -> voxel)`` matrix."""
        if self.connectivity is None:
            raise TrackingError("connectivity accumulation was disabled")
        return self.connectivity.probability()


def default_seed_mask(stack: FiberStack) -> np.ndarray:
    """The default seeds: masked voxels with a fiber population in the
    first sample — the paper's "from each voxel in the brain" seeding."""
    return stack.mask & (stack.f[0, ..., 0] > 0)


def probabilistic_streamlining(
    fields: FiberStack | Sequence[FiberField],
    config: ProbtrackConfig | None = None,
    seed_mask: np.ndarray | None = None,
    seeds: np.ndarray | None = None,
) -> ProbtrackResult:
    """Run probabilistic streamlining over posterior sample volumes.

    Parameters
    ----------
    fields:
        The posterior :class:`~repro.models.fields.FiberStack` (or
        sample fields, stacked once by
        :meth:`~repro.models.fields.FiberStack.from_fields`).
    config:
        Run configuration.  Defaults reproduce the paper's production
        setup (increasing-interval strategy, trilinear interpolation).
    seed_mask:
        Boolean volume to seed from (default: :func:`default_seed_mask`).
    seeds:
        Explicit ``(n, 3)`` seed positions (overrides ``seed_mask``).
    """
    stack = FiberStack.from_fields(fields)
    cfg = config if config is not None else ProbtrackConfig()
    registry = get_registry()

    with registry.span("probtrack.seeds"):
        if seeds is None:
            if seed_mask is None:
                seed_mask = default_seed_mask(stack)
            seeds = seeds_from_mask(np.asarray(seed_mask, dtype=bool))
        seeds = np.asarray(seeds, dtype=np.float64)
    if seeds.size == 0:
        raise TrackingError("no seeds to track from")
    registry.count("probtrack.seeds_launched", seeds.shape[0])
    registry.count("probtrack.samples_tracked", stack.n_samples)

    n_seeds = seeds.shape[0]
    launch_seeds = seeds
    heading_signs = None
    seed_map = None
    if cfg.bidirectional:
        launch_seeds = np.concatenate([seeds, seeds], axis=0)
        heading_signs = np.concatenate(
            [np.ones(n_seeds), -np.ones(n_seeds)]
        )
        seed_map = np.concatenate([np.arange(n_seeds), np.arange(n_seeds)])

    accumulator = None
    if cfg.accumulate_connectivity:
        accumulator = ConnectivityAccumulator(
            n_seeds=n_seeds,
            n_voxels=int(np.prod(stack.shape3)),
            seed_map=seed_map,
        )
    tracker = SegmentedTracker(
        device=cfg.device,
        host=cfg.host,
        interpolation=cfg.interpolation,
    )
    with registry.span(
        "probtrack.track",
        n_workers=cfg.n_workers,
        strategy=cfg.strategy.name,
        order=cfg.order,
    ):
        if cfg.n_workers == 1:
            run = tracker.run(
                stack,
                launch_seeds,
                cfg.criteria,
                cfg.strategy,
                connectivity=accumulator,
                order=cfg.order,
                overlap=cfg.overlap,
                heading_signs=heading_signs,
            )
        else:
            run = run_sharded(
                tracker,
                stack,
                launch_seeds,
                cfg.criteria,
                cfg.strategy,
                n_workers=cfg.n_workers,
                connectivity=accumulator,
                order=cfg.order,
                overlap=cfg.overlap,
                heading_signs=heading_signs,
                policy=cfg.supervision,
            )
    return ProbtrackResult(
        run=run,
        connectivity=accumulator,
        seeds=seeds,
        max_steps=cfg.criteria.max_steps,
    )
