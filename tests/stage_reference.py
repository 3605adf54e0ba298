"""Each stage's kernel called directly: the parity suites' reference.

``bedpost()`` and ``probabilistic_streamlining()`` run every worker
count, one included, through the stage shard executor, so no worker
count of theirs can stand in for "unsharded".  These helpers call the
kernels the way a single task does, with no executor in between:

* :func:`direct_tracking` — one :meth:`SegmentedTracker.run` over the
  whole stack, seeded and launched the way
  :func:`~repro.tracking.probabilistic_streamlining` seeds and launches;
* :func:`direct_bedpost` — :func:`~repro.mcmc.shards.run_blocks` over
  one task holding every block.
"""

import json

import numpy as np

from repro.mcmc.shards import make_block_tasks, run_blocks
from repro.models.fields import FiberStack
from repro.telemetry import MetricsRegistry, use_registry
from repro.tracking import (
    ConnectivityAccumulator,
    ProbtrackResult,
    SegmentedTracker,
)
from repro.tracking.probtrack import default_seed_mask
from repro.tracking.seeds import seeds_from_mask


def direct_tracking(fields, config, seed_mask=None) -> ProbtrackResult:
    """``config``'s tracking run as one whole-stack ``tracker.run``."""
    stack = FiberStack.from_fields(fields)
    if seed_mask is None:
        seed_mask = default_seed_mask(stack)
    seeds = seeds_from_mask(np.asarray(seed_mask, dtype=bool))
    n_seeds = seeds.shape[0]
    launch, signs, seed_map = seeds, None, None
    if config.bidirectional:
        launch = np.concatenate([seeds, seeds])
        signs = np.concatenate([np.ones(n_seeds), -np.ones(n_seeds)])
        seed_map = np.concatenate([np.arange(n_seeds), np.arange(n_seeds)])
    acc = ConnectivityAccumulator(
        n_seeds, int(np.prod(stack.shape3)), seed_map=seed_map
    )
    tracker = SegmentedTracker(
        device=config.device,
        host=config.host,
        interpolation=config.interpolation,
    )
    run = tracker.run(
        stack,
        launch,
        config.criteria,
        config.strategy,
        connectivity=acc,
        order=config.order,
        overlap=config.overlap,
        heading_signs=signs,
    )
    return ProbtrackResult(
        run=run,
        connectivity=acc,
        seeds=seeds,
        max_steps=config.criteria.max_steps,
    )


def direct_bedpost(dwi, gtab, mask, config):
    """``config``'s sampling run as ``run_blocks`` over one all-block task.

    Returns ``(samples, acceptance_history, deterministic_telemetry)``,
    the last as the sorted JSON of the counters and histograms.
    """
    flat = dwi.data.reshape(-1, dwi.data.shape[-1])
    data = flat[np.flatnonzero(np.asarray(mask, dtype=bool).reshape(-1))]
    n_vox = data.shape[0]
    blocks = [
        (start, min(start + config.block_voxels, n_vox))
        for start in range(0, n_vox, config.block_voxels)
    ]
    (task,) = make_block_tasks(
        data, blocks, 1, n_total_voxels=n_vox, mcmc=config.mcmc,
        n_fibers=config.n_fibers, ard=config.ard,
        noise_model=config.noise_model, gtab=gtab,
    )
    registry = MetricsRegistry()
    with use_registry(registry):
        payload = run_blocks(task)
    snap = registry.snapshot()
    det = json.dumps(
        {"counters": snap["counters"], "histograms": snap["histograms"]},
        sort_keys=True,
    )
    history = [float(x) for x in np.mean(payload["histories"], axis=0)]
    return payload["samples"], history, det
