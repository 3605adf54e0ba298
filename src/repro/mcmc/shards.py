"""Voxel-block sharding of the bedpost MCMC stage.

The paper's stage 1 is embarrassingly parallel across voxels: every
voxel's chain depends only on its own data row and its own RNG lanes.
This module expresses that as an instance of the stage-generic
:class:`~repro.runtime.stage.StageShard` contract so bedpost runs on
the very same supervised pool — timeouts, deterministic retry,
re-shard-to-single-blocks, in-parent serial fallback, fault injection —
that PR 2 built for tracking.

Determinism
-----------
Bedpost at any worker count is bit-identical to :func:`run_blocks` over
one task holding every block (which is what a one-worker run is)
because:

* the *block decomposition* is preserved exactly — a shard is a
  contiguous run of the ``range(0, n_vox, block_voxels)`` blocks, and
  every task sweeps its blocks in lockstep batches that keep per-block
  initial states, acceptance histories, counters, and checkpoints — so
  any grouping of blocks into batches is bitwise the blocks run alone;
* each voxel's chains are seeded by
  :func:`~repro.rng.streams.block_streams` — lane ``v`` of the *full*
  problem, computed directly for the block's span, bitwise-equal to
  slicing the full-state seeding;
* :func:`run_blocks` is a pure function of its :class:`BlockTask`, the
  runtime runs it under a fresh local registry, and the executor folds
  the snapshots and hands payloads to the merge in task order — so
  samples, acceptance histories, and counters fold identically however
  the run was scheduled or recovered.

Checkpoints are keyed by **global voxel start** (``block_{start:08d}.npz``
under the store's sampling checkpoint dir), the same files at every
worker count — an interrupted one-worker run can resume sharded and
vice versa.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.errors import SamplerError, ShardResultError
from repro.mcmc.checkpoint import SamplerCheckpoint
from repro.mcmc.sampler import MCMCConfig, MCMCResult, MCMCSampler
from repro.models.posterior import LogPosterior, ParameterLayout
from repro.models.priors import MultiFiberPriors
from repro.rng.streams import block_streams
from repro.rng.tausworthe import HybridTaus
from repro.runtime.stage import StageShard
from repro.telemetry import get_registry

__all__ = [
    "BEDPOST_BLOCK_SHARD",
    "BlockTask",
    "block_checkpoint_name",
    "make_block_tasks",
    "run_blocks",
]


#: Most voxels one lockstep batch packs (whole blocks; a larger block
#: runs alone).  The sweep's per-voxel cost is flat from ~800 to ~2400
#: voxels and rises past ~3000 (measured at 36 and 100 measurements on
#: a 2-core Xeon, 2 MiB L2 per core: 36 vs 22 us per voxel-loop for a
#: 5286-voxel batch against 1200-2400-voxel ones at 36 measurements).
BATCH_VOXELS = 2048


def block_checkpoint_name(voxel_start: int) -> str:
    """Checkpoint file name for the block starting at a global voxel."""
    return f"block_{voxel_start:08d}.npz"


@dataclass
class BlockTask:
    """One shard's picklable work unit: contiguous serial voxel blocks.

    ``blocks`` are *global* ``[start, stop)`` voxel spans taken verbatim
    from the serial decomposition; ``data`` holds exactly those voxels'
    signal rows (``data[g - blocks[0][0]]`` is global voxel ``g``).
    ``first_block`` is the global index of ``blocks[0]`` in the serial
    block sequence — the coordinate ``sN`` fault targets address.
    ``n_total_voxels`` sizes the full problem's RNG so every lane matches
    the serial run.  ``ckpt_dir``/``checkpoint_every`` enable per-block
    chain checkpointing (global-voxel-keyed files shared with the serial
    path); ``on_checkpoint`` is the crash-injection test hook, invoked
    after each save — it must be picklable when the task crosses a
    process boundary.
    """

    data: np.ndarray
    blocks: tuple[tuple[int, int], ...]
    first_block: int
    n_total_voxels: int
    mcmc: MCMCConfig
    n_fibers: int
    ard: bool
    noise_model: str
    gtab: Any
    checkpoint_every: int = 0
    ckpt_dir: str | None = None
    on_checkpoint: Callable[[int, int], None] | None = None


def run_blocks(task: BlockTask) -> dict:
    """Run one task's blocks as lockstep batches; return its payload dict.

    This is *the* MCMC block runner — every task, whatever the worker
    count, runs exactly this code, under whatever registry is active.  The Fig 2
    loop sweeps many blocks at once: consecutive whole blocks are packed
    into batches of up to :data:`BATCH_VOXELS` voxels, so a task of up
    to that size is one batch.  The blocks stay the unit of
    initialisation, acceptance bookkeeping, and checkpointing, so the
    result is bitwise that of running each block alone.  The payload
    carries the recorded samples for the task's voxel span, one
    acceptance history per block, and the span coordinates the merge
    scatters by.

    Blocks resume from their on-disk checkpoints when present (corrupt
    files degrade to a clean restart of that block).  Blocks paused at
    different loops — a crash between one batch's per-block saves —
    are batched per loop, replaying their completed loops into the
    deterministic counters so a resumed run matches an uninterrupted
    one.
    """
    cfg = task.mcmc
    lo0 = task.blocks[0][0]
    samples = np.empty(
        (cfg.n_samples, task.data.shape[0], ParameterLayout(task.n_fibers).n_params)
    )
    histories: list[np.ndarray] = [np.empty(0)] * len(task.blocks)
    ckpt_dir = (
        Path(task.ckpt_dir)
        if task.ckpt_dir is not None and task.checkpoint_every > 0
        else None
    )
    resumed: dict[int, SamplerCheckpoint] = {}
    loops = []
    for i, (start, _) in enumerate(task.blocks):
        ckpt = _load_checkpoint(ckpt_dir, start) if ckpt_dir is not None else None
        if ckpt is not None:
            resumed[i] = ckpt
        loops.append(ckpt.loop if ckpt is not None else 0)
    for loop in sorted(set(loops)):
        members = [i for i, at in enumerate(loops) if at == loop]
        for batch in _pack(task.blocks, members):
            res = _run_batch(
                task,
                [task.blocks[i] for i in batch],
                [resumed[i] for i in batch] if loop else None,
                ckpt_dir,
            )
            col = 0
            for i, history in zip(batch, res.block_histories):
                start, stop = task.blocks[i]
                width = stop - start
                samples[:, start - lo0 : stop - lo0, :] = res.samples[
                    :, col : col + width
                ]
                histories[i] = np.asarray(history)
                col += width
    get_registry().count("bedpost.voxels_fit", task.data.shape[0])
    return {"voxel_start": lo0, "samples": samples, "histories": histories}


def _pack(blocks, members: list[int]) -> list[list[int]]:
    """Split block indices, in order, into batches of whole blocks of at
    most :data:`BATCH_VOXELS` voxels (a larger block is a batch alone)."""
    batches: list[list[int]] = [[]]
    size = 0
    for i in members:
        width = blocks[i][1] - blocks[i][0]
        if batches[-1] and size + width > BATCH_VOXELS:
            batches.append([])
            size = 0
        batches[-1].append(i)
        size += width
    return batches


def _load_checkpoint(ckpt_dir: Path, start: int) -> SamplerCheckpoint | None:
    """The block's on-disk checkpoint; a corrupt one is deleted (None)."""
    path = ckpt_dir / block_checkpoint_name(start)
    if not path.exists():
        return None
    try:
        return SamplerCheckpoint.load(path)
    except SamplerError:
        path.unlink(missing_ok=True)
        return None


def _run_batch(
    task: BlockTask,
    spans: list[tuple[int, int]],
    checkpoints: list[SamplerCheckpoint] | None,
    ckpt_dir: Path | None,
) -> MCMCResult:
    """Sample some of a task's blocks (all at one loop) as one batch.

    Fresh blocks draw lane ``v`` of the full problem for every voxel
    ``v`` (:func:`~repro.rng.streams.block_streams`), so any grouping
    agrees with the serial run.  With ``ckpt_dir`` the batch runs in
    chunks of ``checkpoint_every`` loops, saving every block's
    checkpoint (then calling ``on_checkpoint``) after each chunk.
    """
    lo0 = task.blocks[0][0]
    contiguous = all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
    if contiguous:
        data = task.data[spans[0][0] - lo0 : spans[-1][1] - lo0]
    else:
        data = np.concatenate([task.data[a - lo0 : b - lo0] for a, b in spans])
    post = LogPosterior(
        task.gtab,
        data,
        priors=MultiFiberPriors(ard=task.ard),
        n_fibers=task.n_fibers,
        noise_model=task.noise_model,
    )
    edges = np.cumsum([0] + [b - a for a, b in spans]).tolist()
    bounds = list(zip(edges[:-1], edges[1:]))
    rng = None
    if checkpoints is None:
        n, seed = task.n_total_voxels, task.mcmc.seed
        if contiguous:
            rng = block_streams(n, spans[0][0], spans[-1][1], seed=seed)
        else:
            rng = HybridTaus(np.concatenate(
                [block_streams(n, a, b, seed=seed).state for a, b in spans]
            ))
    sampler = MCMCSampler(task.mcmc)
    with get_registry().span(
        "bedpost.block", start=spans[0][0], n_voxels=data.shape[0],
        blocks=len(spans),
    ):
        if ckpt_dir is None:
            return sampler.run(post, rng=rng, blocks=bounds)
        # Completed loops from a previous process must be re-counted
        # so the resumed run's counters match an uninterrupted one.
        replay = checkpoints is not None
        while True:
            done = checkpoints[0].loop if checkpoints is not None else 0
            res = sampler.run(
                post,
                rng=rng if checkpoints is None else None,
                checkpoint=checkpoints,
                stop_after_loop=min(done + task.checkpoint_every, task.mcmc.n_loops),
                replay_counters=replay,
                blocks=bounds,
            )
            replay = False
            if not res.block_checkpoints:
                return res
            checkpoints = res.block_checkpoints
            for (start, _), ckpt in zip(spans, checkpoints):
                ckpt.save(ckpt_dir / block_checkpoint_name(start))
                if task.on_checkpoint is not None:
                    task.on_checkpoint(start, ckpt.loop)


# -- supervisor seams --------------------------------------------------------


def _block_units(task: BlockTask) -> range:
    """Global serial-block indices a task covers (``sN`` fault targets)."""
    return range(task.first_block, task.first_block + len(task.blocks))


def _split_block_task(task: BlockTask) -> list[BlockTask]:
    """Re-shard: one single-block subtask per block, spans preserved."""
    lo0 = task.blocks[0][0]
    return [
        replace(
            task,
            data=task.data[start - lo0 : stop - lo0],
            blocks=((start, stop),),
            first_block=task.first_block + i,
        )
        for i, (start, stop) in enumerate(task.blocks)
    ]


def _validate_block_payload(task: BlockTask, payload) -> None:
    """Reject payloads that cannot be genuine :func:`run_blocks` output.

    A real payload always passes (the checks restate ``run_blocks``'s
    own postconditions) — validation only catches corrupted or truncated
    results before they could poison the deterministic merge.
    """

    def _bad(msg: str) -> ShardResultError:
        return ShardResultError(f"corrupt block payload: {msg}")

    if not isinstance(payload, dict):
        raise _bad(f"payload must be a dict, got {type(payload).__name__}")
    n_vox = task.data.shape[0]
    n_params = ParameterLayout(task.n_fibers).n_params
    samples = payload.get("samples")
    shape = (task.mcmc.n_samples, n_vox, n_params)
    if not isinstance(samples, np.ndarray) or samples.shape != shape:
        raise _bad(
            f"samples must be {shape}, got {getattr(samples, 'shape', None)}"
        )
    if not np.isfinite(samples).all():
        raise _bad("non-finite posterior samples")
    histories = payload.get("histories")
    if not isinstance(histories, list) or len(histories) != len(task.blocks):
        raise _bad(
            f"expected {len(task.blocks)} per-block histories, got "
            f"{len(histories) if isinstance(histories, list) else type(histories).__name__}"
        )
    if payload.get("voxel_start") != task.blocks[0][0]:
        raise _bad(
            f"voxel_start {payload.get('voxel_start')} != task span "
            f"{task.blocks[0][0]}"
        )


#: The bedpost MCMC stage expressed as an instance of the stage-generic
#: sharding contract: contiguous runs of the serial voxel blocks,
#: re-shardable to single blocks, with ``sN`` fault targets addressing
#: global serial-block indices.
BEDPOST_BLOCK_SHARD = StageShard(
    stage="sampling",
    unit="voxel block",
    run=run_blocks,
    validate=_validate_block_payload,
    split=_split_block_task,
    units=_block_units,
)


def make_block_tasks(
    data: np.ndarray,
    blocks: list[tuple[int, int]],
    n_shards: int,
    *,
    n_total_voxels: int,
    mcmc: MCMCConfig,
    n_fibers: int,
    ard: bool,
    noise_model: str,
    gtab,
    checkpoint_every: int = 0,
    ckpt_dir: str | None = None,
    on_checkpoint=None,
) -> list[BlockTask]:
    """Partition the serial block sequence into ``n_shards`` contiguous tasks.

    ``data`` holds the full masked signal (row ``g`` = global voxel
    ``g``); each task receives only its own blocks' rows.  The serial
    decomposition itself is never altered — only grouped — which is what
    keeps the deterministic per-block counters identical for any shard
    count.
    """
    from repro.gpu.multigpu import partition_seeds

    tasks = []
    for sl in partition_seeds(len(blocks), n_shards):
        span = blocks[sl.start : sl.stop]
        lo, hi = span[0][0], span[-1][1]
        tasks.append(
            BlockTask(
                data=data[lo:hi],
                blocks=tuple(span),
                first_block=sl.start,
                n_total_voxels=n_total_voxels,
                mcmc=mcmc,
                n_fibers=n_fibers,
                ard=ard,
                noise_model=noise_model,
                gtab=gtab,
                checkpoint_every=checkpoint_every,
                ckpt_dir=ckpt_dir,
                on_checkpoint=on_checkpoint,
            )
        )
    return tasks
