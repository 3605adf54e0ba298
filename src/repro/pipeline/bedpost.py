"""Stage 1 driver: local parameter estimation over a masked volume.

Flattens the masked voxels, runs the lockstep Metropolis-Hastings sampler
(checkpointed and sharded by voxel block), and scatters the recorded
samples into one :class:`~repro.models.fields.FiberStack` — Fig 1's "six
4-D volumes" handoff to the tracking stage.  Also computes the machine-
model times for the Table III speedup.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field as dc_field
from typing import TYPE_CHECKING

import numpy as np

from repro.config.spec import NOISE_MODELS
from repro.config.stages import SAMPLING
from repro.errors import ConfigurationError, DataError
from repro.gpu.device import DeviceSpec, HostSpec
from repro.gpu.presets import PHENOM_X4, RADEON_5870, device_preset, host_preset

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.config import RunSpec
from repro.gpu.simulator import kernel_time
from repro.io.gradients import GradientTable
from repro.io.samples import save_samples
from repro.io.volume import Volume
from repro.mcmc.sampler import MCMCConfig
from repro.models.fields import FiberStack
from repro.models.posterior import ParameterLayout
from repro.pipeline.memo import run_memoized
from repro.runtime.supervisor import RetryPolicy

__all__ = ["BedpostConfig", "BedpostResult", "bedpost", "modeled_mcmc_times"]


@dataclass(frozen=True)
class BedpostConfig:
    """Stage-1 configuration."""

    mcmc: MCMCConfig = dc_field(default_factory=MCMCConfig)
    n_fibers: int = 2
    ard: bool = False
    noise_model: str = "gaussian"
    f_threshold: float = 0.05
    #: Voxels per block: the checkpoint / retry / fault unit.  Tasks
    #: sample many blocks per lockstep batch (:mod:`repro.mcmc.shards`).
    block_voxels: int = 50_000
    device: DeviceSpec = RADEON_5870
    host: HostSpec = PHENOM_X4
    #: Worker processes for the voxel-block loop (1 = one in-parent
    #: task).  The posterior is bit-identical for any count (see
    #: :mod:`repro.mcmc.shards`); maps to ``runtime.bedpost_workers``.
    n_workers: int = 1
    #: How block shards are supervised: retries, deadline, serial
    #: fallback, and the dev/test-only fault plan — the ``runtime``
    #: policy keys, shared with the tracking stage.
    supervision: RetryPolicy = dc_field(default_factory=RetryPolicy)
    #: MCMC checkpoint cadence in loops while sampling runs against an
    #: artifact store (0 = :data:`DEFAULT_CHECKPOINT_LOOPS`); maps to
    #: ``runtime.checkpoint_every_loops``.  Results are bit-identical for
    #: any value.
    checkpoint_every_loops: int = 0

    def __post_init__(self) -> None:
        if self.n_fibers < 1:
            raise ConfigurationError(
                f"n_fibers must be >= 1, got {self.n_fibers}"
            )
        if self.noise_model not in NOISE_MODELS:
            raise ConfigurationError(
                f"noise_model must be one of {list(NOISE_MODELS)}, "
                f"got {self.noise_model!r}"
            )
        if not 0.0 <= self.f_threshold <= 1.0:
            raise ConfigurationError(
                f"f_threshold must be in [0, 1], got {self.f_threshold}"
            )
        if self.block_voxels < 1:
            raise ConfigurationError(
                f"block_voxels must be >= 1, got {self.block_voxels}"
            )
        if self.n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be >= 1, got {self.n_workers}"
            )
        if self.checkpoint_every_loops < 0:
            raise ConfigurationError(
                "checkpoint_every_loops must be >= 0, got "
                f"{self.checkpoint_every_loops}"
            )

    @classmethod
    def from_run_spec(cls, spec: "RunSpec") -> "BedpostConfig":
        """Build the stage-1 config from a resolved
        :class:`~repro.config.spec.RunSpec`: its ``sampling`` section,
        the machine presets, and the sampling stage's share of
        ``runtime``."""
        s, rt = spec.sampling, spec.runtime
        return cls(
            mcmc=MCMCConfig(
                n_burnin=s.n_burnin,
                n_samples=s.n_samples,
                sample_interval=s.sample_interval,
                adapt_every=s.adapt_every,
                seed=s.seed,
            ),
            n_fibers=s.n_fibers,
            ard=s.ard,
            noise_model=s.noise_model,
            f_threshold=s.f_threshold,
            block_voxels=s.block_voxels,
            device=device_preset(rt.device),
            host=host_preset(rt.host),
            n_workers=rt.bedpost_workers,
            supervision=RetryPolicy.from_runtime(rt),
            checkpoint_every_loops=rt.checkpoint_every_loops,
        )


@dataclass
class BedpostResult:
    """Stage-1 output.

    Attributes
    ----------
    fields:
        The posterior samples as one :class:`FiberStack`.
    samples:
        ``(n_samples, n_voxels, n_params)`` raw recorded states.
    layout:
        Parameter layout of the flat axis.
    mask:
        The voxels that were fit.
    acceptance_history:
        Mean acceptance per adaptation window (pooled over blocks).
    gpu_seconds / cpu_seconds:
        Machine-model times for Table III.
    wall_seconds:
        Actual host wall-clock of the sampling.
    stage_key:
        The ``sha256:<hex>`` sampling-stage key of this (config, data)
        pair: it addresses the store entry, and ``samples.npz`` records
        it.
    served_from_store:
        Whether this result was a cache hit (no MCMC was run).
    supervision:
        The :class:`~repro.runtime.supervisor.SupervisorReport` when the
        voxel-block shards ran under supervision (more than one task, or
        a fault plan at any worker count); ``None`` for a fault-free
        one-task run, which runs in-parent, or a cache-served run.
    """

    fields: FiberStack
    samples: np.ndarray
    layout: ParameterLayout
    mask: np.ndarray
    acceptance_history: list[float]
    gpu_seconds: float
    cpu_seconds: float
    wall_seconds: float
    stage_key: str | None = None
    served_from_store: bool = False
    supervision: object | None = None

    @property
    def n_voxels(self) -> int:
        return self.samples.shape[1]

    @property
    def speedup(self) -> float:
        """Modeled CPU/GPU ratio (Table III's rightmost column)."""
        return self.cpu_seconds / self.gpu_seconds if self.gpu_seconds > 0 else float("inf")


def modeled_mcmc_times(
    n_voxels: int,
    config: MCMCConfig,
    n_params: int,
    device: DeviceSpec,
    host: HostSpec,
) -> tuple[float, float]:
    """Machine-model (gpu_seconds, cpu_seconds) for the MCMC stage.

    Every voxel executes the identical ``NumLoops x NumParameters``
    update sequence — the lockstep chain has *no* divergence, which is
    why the paper's MCMC speedups (33.6x / 34.0x) are so consistent
    across datasets.  The GPU model is one kernel whose threads all run
    the same iteration count; the CPU model is the serial sum.
    """
    updates_per_voxel = config.n_loops * n_params
    gpu = kernel_time(
        np.full(n_voxels, updates_per_voxel),
        device,
        per_iteration_s=device.seconds_per_wavefront_mcmc_update,
    )
    cpu = n_voxels * updates_per_voxel * host.seconds_per_mcmc_loop_parameter
    return gpu, cpu


#: Checkpoint cadence (loops) when a store is active and the config
#: leaves ``checkpoint_every_loops`` at 0.
DEFAULT_CHECKPOINT_LOOPS = 250


def _compute_samples(
    flat,
    sel_idx,
    gtab,
    cfg: BedpostConfig,
    layout: ParameterLayout,
    checkpoint_every: int,
    ckpt_dir=None,
    on_checkpoint=None,
):
    """The actual MCMC sweep: ``(all_samples, history, supervision)``.

    Contiguous runs of blocks, one per worker, go through the
    :class:`~repro.runtime.stage.StageShardExecutor` and stream back in
    task order; at one worker that is one task holding every block, run
    in-parent.  :func:`~repro.mcmc.shards.run_blocks` runs each task's
    blocks as lockstep batches over the same block decomposition, so
    the posterior samples, acceptance history, and deterministic
    ``mcmc.*``/``bedpost.*`` counters are bit-identical for any
    ``cfg.n_workers``.

    When ``ckpt_dir`` is given, each batch runs in chunks of
    ``checkpoint_every`` loops with every block's chain state
    checkpointed atomically after each chunk (files keyed by global
    voxel start, so runs at any worker count resume each other's work),
    resuming from existing on-disk checkpoints with their completed
    loops re-counted.
    """
    from repro.mcmc.shards import BEDPOST_BLOCK_SHARD, make_block_tasks
    from repro.runtime.stage import StageShardExecutor

    n_vox = sel_idx.size
    blocks = [
        (start, min(start + cfg.block_voxels, n_vox))
        for start in range(0, n_vox, cfg.block_voxels)
    ]
    task_kwargs = dict(
        n_total_voxels=n_vox,
        mcmc=cfg.mcmc,
        n_fibers=cfg.n_fibers,
        ard=cfg.ard,
        noise_model=cfg.noise_model,
        gtab=gtab,
        checkpoint_every=checkpoint_every,
        ckpt_dir=str(ckpt_dir) if ckpt_dir is not None else None,
        on_checkpoint=on_checkpoint,
    )

    executor = StageShardExecutor(cfg.n_workers, cfg.supervision)
    n_shards = executor.plan_shards(BEDPOST_BLOCK_SHARD, len(blocks))
    tasks = make_block_tasks(flat[sel_idx], blocks, n_shards, **task_kwargs)
    all_samples = None
    histories: list[np.ndarray] = []

    # Streaming in-task-order merge: each shard's samples are scattered
    # into the posterior as they arrive (task order regardless of
    # completion order), so completed payloads never pile up beyond the
    # completion skew.  A part covering every voxel is the posterior
    # itself and is taken as is.
    def _absorb(index: int, outs: list) -> None:
        nonlocal all_samples
        for result in outs:
            part = result["samples"]
            histories.extend(result["histories"])
            if part.shape[1] == n_vox:
                all_samples = part
                continue
            if all_samples is None:
                all_samples = np.empty(
                    (cfg.mcmc.n_samples, n_vox, layout.n_params)
                )
            lo = result["voxel_start"]
            all_samples[:, lo : lo + part.shape[1], :] = part

    report = executor.run(BEDPOST_BLOCK_SHARD, tasks, _absorb)
    history = (
        [float(x) for x in np.mean(histories, axis=0)] if histories else []
    )
    return all_samples, history, report


def bedpost(
    dwi: Volume,
    gtab: GradientTable,
    mask: np.ndarray,
    config: BedpostConfig | None = None,
    store=None,
    use_cache: bool = True,
    on_checkpoint=None,
) -> BedpostResult:
    """Run stage 1 over every masked voxel (memoized when given a store).

    Voxels are split into blocks of ``config.block_voxels``, the unit of
    checkpointing, retry, and fault targeting; each voxel draws its own
    RNG lane of the full problem, so its chain depends only on its own
    stream and data.  Contiguous runs of blocks, one per worker of
    ``config.n_workers`` (``runtime.bedpost_workers``), are the shard
    tasks of :mod:`repro.mcmc.shards`, each swept in lockstep batches of
    whole blocks (up to :data:`~repro.mcmc.shards.BATCH_VOXELS` voxels
    each).  One fault-free task runs in-parent; otherwise the tasks run
    in supervised worker processes.  Posterior samples, acceptance
    history, and deterministic counters stay bit-identical for any
    worker count, including under recovered shard failures.  While a store is active the chain is checkpointed
    under the store root every ``config.checkpoint_every_loops`` loops,
    and an interrupted run resumes from those checkpoints
    bit-identically.

    Parameters
    ----------
    store:
        An :class:`~repro.store.ArtifactStore`, or ``None``.  The
        run is keyed by the sampling-stage hash of the config plus a
        fingerprint of the data inputs and memoized through
        :func:`~repro.pipeline.memo.run_memoized`: on a hit the stored
        posterior is served bit-identically (no MCMC runs, stored
        deterministic counters are replayed into the active registry);
        on a miss the result is published atomically.
    use_cache:
        ``False`` never *reads* store entries (forces recompute) but
        still publishes, refreshing the cache — the ``--no-cache``
        semantics.
    on_checkpoint:
        Test hook ``callback(block_start, loop)`` invoked after each
        block's checkpoint save (fault-injection uses it to simulate
        crashes, including between one batch's per-block saves).
    """
    cfg = config if config is not None else BedpostConfig()
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != dwi.shape3:
        raise DataError(f"mask shape {mask.shape} != grid {dwi.shape3}")
    if mask.sum() == 0:
        raise DataError("mask selects no voxels")
    flat = dwi.data.reshape(-1, dwi.data.shape[-1])
    sel_idx = np.flatnonzero(mask.reshape(-1))
    n_vox = sel_idx.size
    layout = ParameterLayout(cfg.n_fibers)
    t0 = time.perf_counter()

    from repro.store import fingerprint_arrays

    sampling = _sampling_section(cfg)
    stage_key = _sampling_stage_key(sampling, dwi, gtab, mask, fingerprint_arrays)

    def compute():
        if store is None:
            cadence, ckpt_dir = 0, None
        else:
            cadence = cfg.checkpoint_every_loops or DEFAULT_CHECKPOINT_LOOPS
            ckpt_dir = store.checkpoint_dir(SAMPLING.name, stage_key)
        return _compute_samples(
            flat, sel_idx, gtab, cfg, layout, cadence,
            ckpt_dir=ckpt_dir, on_checkpoint=on_checkpoint,
        )

    def serialize(tmp_dir, computed) -> None:
        all_samples, history, _ = computed
        save_samples(
            tmp_dir / "samples.npz",
            all_samples,
            mask,
            dwi.affine,
            sampling,
            stage_key,
        )
        (tmp_dir / "meta.json").write_text(
            json.dumps(
                {"acceptance_history": history, "n_voxels": n_vox},
                sort_keys=True,
            )
        )

    def rehydrate(entry):
        # Only the samples array: entries written before the archive
        # recorded its sampling section still serve.
        with np.load(entry.file("samples.npz")) as blob:
            all_samples = blob["samples"].astype(np.float64)
        meta = json.loads(entry.file("meta.json").read_text())
        if all_samples.shape[1] != n_vox:  # pragma: no cover - key collision guard
            raise DataError(
                f"store entry covers {all_samples.shape[1]} voxels, "
                f"mask selects {n_vox}"
            )
        return all_samples, [float(x) for x in meta["acceptance_history"]], None

    (all_samples, history, supervision), hit = run_memoized(
        store,
        SAMPLING.name,
        stage_key,
        compute,
        serialize,
        rehydrate,
        meta=lambda computed: {
            "n_voxels": n_vox,
            "n_samples": int(computed[0].shape[0]),
        },
        use_cache=use_cache,
    )
    if store is not None and not hit:
        store.clear_checkpoints(SAMPLING.name, stage_key)
    wall = time.perf_counter() - t0

    gpu_s, cpu_s = modeled_mcmc_times(
        n_vox, cfg.mcmc, layout.n_params, cfg.device, cfg.host
    )
    return BedpostResult(
        fields=FiberStack.from_posterior(
            all_samples, mask, layout, cfg.f_threshold
        ),
        samples=all_samples,
        layout=layout,
        mask=mask,
        acceptance_history=history,
        gpu_seconds=gpu_s,
        cpu_seconds=cpu_s,
        wall_seconds=wall,
        stage_key=stage_key,
        served_from_store=hit,
        supervision=supervision,
    )


def _sampling_section(cfg: BedpostConfig) -> dict:
    """The ``sampling`` run-spec section ``cfg`` was built from.

    The machine presets in ``cfg`` are deliberately *not* part of it:
    they shape only the modeled Table-III times, which are recomputed
    from the live config on every hit.
    """
    return dict(
        asdict(cfg.mcmc),
        n_fibers=cfg.n_fibers,
        ard=cfg.ard,
        noise_model=cfg.noise_model,
        f_threshold=cfg.f_threshold,
        block_voxels=cfg.block_voxels,
    )


def _sampling_stage_key(sampling, dwi, gtab, mask, fingerprint_arrays) -> str:
    """The sampling-stage store key for this (section, data) pair."""
    fp = fingerprint_arrays(
        dwi=dwi.data,
        affine=dwi.affine,
        bvals=gtab.bvals,
        bvecs=gtab.bvecs,
        mask=mask,
    )
    from repro.config import stage_hash

    return stage_hash(
        {SAMPLING.name: sampling}, SAMPLING.name, inputs={"data": fp}
    )
