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
from typing import TYPE_CHECKING

import numpy as np

from repro.config.spec import INTERPOLATIONS, ORDER_POLICIES
from repro.errors import ConfigurationError, TrackingError
from repro.gpu.device import DeviceSpec, HostSpec
from repro.gpu.presets import PHENOM_X4, RADEON_5870, device_preset, host_preset
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
    table2_strategy,
)
from repro.tracking.shards import run_sharded
from repro.telemetry import get_registry

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.config import RunSpec

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
    #: Launch each seed in both senses of its strongest population (FSL's
    #: default behaviour; the paper does not specify).  Thread count and
    #: the modeled workload double; connectivity merges the two passes.
    bidirectional: bool = False
    #: Worker processes for the sample loop (1 = one in-parent task).
    #: The merged output is bit-identical for any count (see
    #: :mod:`repro.tracking.shards`).
    n_workers: int = 1
    #: How sample shards are supervised: retries, deadline, serial
    #: fallback, and the dev/test-only fault plan, which applies at any
    #: worker count (retries replay a pure function, so results stay
    #: bit-identical).
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

    @classmethod
    def from_run_spec(cls, spec: "RunSpec") -> "ProbtrackConfig":
        """Build the stage-2 config from a resolved
        :class:`~repro.config.spec.RunSpec`: its ``tracking`` section,
        the machine presets, and the tracking pool's share of
        ``runtime``."""
        t, rt = spec.tracking, spec.runtime
        return cls(
            criteria=TerminationCriteria(
                max_steps=t.max_steps,
                min_dot=t.min_dot,
                step_length=t.step_length,
                f_threshold=t.f_threshold,
            ),
            strategy=strategy_from_spec(t.strategy, t.strategy_array),
            device=device_preset(rt.device),
            host=host_preset(rt.host),
            interpolation=t.interpolation,
            order=t.order,
            overlap=t.overlap,
            bidirectional=t.bidirectional,
            n_workers=rt.n_workers,
            supervision=RetryPolicy.from_runtime(rt),
        )


@dataclass
class ProbtrackResult:
    """Everything the tracking stage produces.

    Attributes
    ----------
    run:
        Functional results + modeled time decomposition.
    connectivity:
        The seed-by-voxel accumulator.
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
    connectivity: ConnectivityAccumulator
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
