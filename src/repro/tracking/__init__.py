"""Probabilistic streamlining fiber tracking (paper § III-B, § IV-B).

The global connectivity stage runs the deterministic streamlining
algorithm from every seed voxel, once per posterior sample volume, and
counts streamline visits.  This package provides:

* the scalar reference tracker (:mod:`~repro.tracking.streamline`) — the
  per-seed loop a CPU runs;
* the lockstep batch tracker (:mod:`~repro.tracking.batch`) — all
  streamlines advance one step per instruction, the structure of the GPU
  kernel, with segment-bounded execution for Algorithm 1;
* segmentation strategies (:mod:`~repro.tracking.segmentation`) — the
  paper's contribution: uniform ``A_k``, the increasing-interval ``B``/
  ``C`` arrays, single-segment, and sorted-order scheduling;
* the segmented executor (:mod:`~repro.tracking.executor`) — Algorithm 1
  against the GPU machine model, with host-side compaction between
  kernels and full kernel/reduction/transfer time attribution, executed
  as one fused lockstep batch over the posterior
  :class:`~repro.models.fields.FiberStack` and sharded by sample across
  worker processes (:mod:`~repro.tracking.shards`);
* connectivity accumulation and fiber-length statistics (Fig 5's
  exponential-distribution analysis).
"""

from repro.tracking.interpolate import nearest_lookup, trilinear_lookup
from repro.tracking.direction import choose_direction, initial_directions
from repro.tracking.criteria import StopReason, TerminationCriteria
from repro.tracking.streamline import Streamline, track_streamline
from repro.tracking.batch import BatchState, BatchTracker
from repro.tracking.seeds import seeds_from_mask
from repro.tracking.segmentation import (
    IncreasingStrategy,
    SegmentationStrategy,
    SingleSegmentStrategy,
    UniformStrategy,
    increasing_intervals,
    paper_strategy_b,
    paper_strategy_c,
    table2_strategy,
)
from repro.tracking.executor import (
    SegmentedTracker,
    TrackingRunResult,
)
from repro.tracking.connectivity import ConnectivityAccumulator
from repro.tracking.lengths import (
    ExponentialFit,
    cumulative_lengths,
    fit_exponential,
    length_histogram,
)
from repro.tracking.probtrack import ProbtrackConfig, ProbtrackResult, probabilistic_streamlining
from repro.tracking.postprocess import density_map, dice_overlap, filter_by_steps

__all__ = [
    "nearest_lookup",
    "trilinear_lookup",
    "choose_direction",
    "initial_directions",
    "StopReason",
    "TerminationCriteria",
    "Streamline",
    "track_streamline",
    "BatchState",
    "BatchTracker",
    "seeds_from_mask",
    "SegmentationStrategy",
    "UniformStrategy",
    "SingleSegmentStrategy",
    "IncreasingStrategy",
    "increasing_intervals",
    "paper_strategy_b",
    "paper_strategy_c",
    "table2_strategy",
    "SegmentedTracker",
    "TrackingRunResult",
    "ConnectivityAccumulator",
    "ExponentialFit",
    "fit_exponential",
    "length_histogram",
    "cumulative_lengths",
    "ProbtrackConfig",
    "ProbtrackResult",
    "probabilistic_streamlining",
    "density_map",
    "dice_overlap",
    "filter_by_steps",
]
