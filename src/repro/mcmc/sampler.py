"""The MCMC driver (paper Fig 2) in lockstep (GPU) and scalar (CPU) modes.

Workflow per Fig 2: each *loop* sweeps the MH step over all
``NumParameters`` parameters; every ``K`` loops the proposal widths adapt
from the windowed acceptance rates; after ``NumBurnIn`` loops, every
``L``-th loop records a sample, until ``NumSamples`` are taken, giving
``NumLoops = NumBurnIn + NumSamples * L`` total loops.

The two execution modes run the *identical* algorithm on identical
per-voxel random streams and produce bit-identical chains; only the loop
structure differs (all-voxels-per-instruction vs. all-instructions-per-
voxel).  That equivalence is the paper's implicit CPU-result == GPU-result
check, and it is asserted in the test suite.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, SamplerError
from repro.mcmc.metropolis import mh_parameter_update
from repro.mcmc.proposals import AdaptiveProposals
from repro.models.posterior import CompartmentCache, LogPosterior
from repro.rng.streams import seed_streams
from repro.rng.tausworthe import HybridTaus
from repro.telemetry import get_registry

__all__ = ["MCMCConfig", "MCMCResult", "MCMCSampler"]


@dataclass(frozen=True)
class MCMCConfig:
    """Sampler schedule (paper defaults: burn-in 500, L = 2, K ~ 40)."""

    n_burnin: int = 500
    n_samples: int = 50
    sample_interval: int = 2
    adapt_every: int = 40
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_burnin < 0:
            raise ConfigurationError(f"n_burnin must be >= 0, got {self.n_burnin}")
        if self.n_samples < 1:
            raise ConfigurationError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.sample_interval < 1:
            raise ConfigurationError(
                f"sample_interval must be >= 1, got {self.sample_interval}"
            )
        if self.adapt_every < 1:
            raise ConfigurationError(
                f"adapt_every must be >= 1, got {self.adapt_every}"
            )

    @property
    def n_loops(self) -> int:
        """Total loops: ``NumBurnIn + NumSamples * L``."""
        return self.n_burnin + self.n_samples * self.sample_interval

    def to_spec_dict(self) -> dict:
        """The sampler schedule as plain run-spec fields."""
        return {
            "n_burnin": self.n_burnin,
            "n_samples": self.n_samples,
            "sample_interval": self.sample_interval,
            "adapt_every": self.adapt_every,
            "seed": self.seed,
        }

    @classmethod
    def from_spec_dict(cls, data: dict) -> "MCMCConfig":
        """Rebuild from :meth:`to_spec_dict` output (extra keys ignored,
        so a whole ``sampling`` spec section can be passed directly)."""
        return cls(
            n_burnin=data.get("n_burnin", 500),
            n_samples=data.get("n_samples", 50),
            sample_interval=data.get("sample_interval", 2),
            adapt_every=data.get("adapt_every", 40),
            seed=data.get("seed", 0),
        )


@dataclass
class MCMCResult:
    """Output of one sampler run.

    Attributes
    ----------
    samples:
        ``(n_samples, n_voxels, n_params)`` recorded states.
    acceptance_history:
        Per adaptation window, the mean acceptance rate over voxels and
        parameters (Fig 2's feedback signal).  For a multi-block batch,
        the per-block histories pooled with equal weight per block.
    n_loops:
        Loops executed (for the machine-model speedup accounting).
    n_voxels, n_params:
        Problem dimensions.
    wall_seconds:
        Host wall-clock the run took.
    checkpoint:
        Set when a one-block run paused early (``stop_after_loop``):
        resume by passing it back to :meth:`MCMCSampler.run`.
    block_histories:
        One acceptance history per block of the batch.
    block_checkpoints:
        One checkpoint per block when the run paused early (empty once
        the schedule completed); pass the list back to resume a batch.
    """

    samples: np.ndarray
    acceptance_history: list[float] = field(default_factory=list)
    n_loops: int = 0
    n_voxels: int = 0
    n_params: int = 0
    wall_seconds: float = 0.0
    checkpoint: "object | None" = None
    block_histories: list[list[float]] = field(default_factory=list)
    block_checkpoints: list = field(default_factory=list)

    def mean(self) -> np.ndarray:
        """Posterior mean state per voxel, ``(n_voxels, n_params)``."""
        return self.samples.mean(axis=0)


def _tiling(blocks, n_vox: int) -> list[tuple[int, int]]:
    """``blocks`` as int pairs, checked to tile ``[0, n_vox)`` in order."""
    blocks = [(int(a), int(b)) for a, b in blocks]
    stops = [b for _, b in blocks]
    if (
        not blocks
        or [a for a, _ in blocks] != [0] + stops[:-1]
        or stops[-1] != n_vox
        or any(a >= b for a, b in blocks)
    ):
        raise SamplerError(f"blocks {blocks} do not tile [0, {n_vox})")
    return blocks


class MCMCSampler:
    """Runs the Fig 2 schedule against a :class:`LogPosterior`."""

    def __init__(self, config: MCMCConfig | None = None) -> None:
        self.config = config if config is not None else MCMCConfig()

    # -- lockstep ("GPU") execution --------------------------------------

    def run(
        self,
        posterior: LogPosterior,
        initial: np.ndarray | None = None,
        rng: HybridTaus | None = None,
        checkpoint: "SamplerCheckpoint | Sequence[SamplerCheckpoint] | None" = None,
        stop_after_loop: int | None = None,
        replay_counters: bool = False,
        blocks: Sequence[tuple[int, int]] | None = None,
    ) -> MCMCResult:
        """Sample all voxels in lockstep (the one-thread-per-voxel port).

        Parameters
        ----------
        checkpoint:
            Resume from a :class:`~repro.mcmc.checkpoint.SamplerCheckpoint`
            (``initial`` and ``rng`` must then be None), or from one
            checkpoint per block, all at the same loop, stacked in block
            order.  The resumed run is bit-identical to an uninterrupted
            one.
        stop_after_loop:
            Pause after this many loops: the returned (partial) result
            carries a ``checkpoint`` for the continuation.
        replay_counters:
            When resuming from an **on-disk** checkpoint in a fresh
            process, re-count the already-completed loops, adaptations,
            and samples into the active registry so the crash-resumed
            run's deterministic counters are bit-identical to an
            uninterrupted run's.  Leave False (the default) when the
            pausing run already counted them in this same registry
            (in-process chunked runs) — replaying would double-count.
        blocks:
            Row bounds ``[(0, b1), (b1, b2), ..., (b_{k-1}, n_vox)]``
            that split the voxels into ``k`` blocks run as **one**
            lockstep batch.  The posterior and the MH sweep are
            row-independent, so the batch is bitwise ``k`` separate
            runs: each block keeps its own ``initial_params()`` (the
            tensor-fit initialisation is not row-independent in its
            last bits), acceptance history, accept count, and
            checkpoint, and the ``mcmc.loops``/``adaptations``/
            ``samples_recorded`` counters advance by ``k`` per event.
            ``None`` is one block (or one per resumed checkpoint).
        """
        from repro.mcmc.checkpoint import SamplerCheckpoint

        cfg = self.config
        if checkpoint is not None:
            if initial is not None or rng is not None:
                raise SamplerError(
                    "pass either a checkpoint or initial/rng, not both"
                )
            ckpts = (
                [checkpoint] if isinstance(checkpoint, SamplerCheckpoint)
                else list(checkpoint)
            )
            if len({(c.loop, c.taken) for c in ckpts}) != 1:
                raise SamplerError(
                    "batched checkpoints must share one loop and sample count"
                )
            if blocks is None:
                edges = np.cumsum([0] + [c.params.shape[0] for c in ckpts])
                blocks = list(zip(edges[:-1].tolist(), edges[1:].tolist()))

            def _stack(name: str) -> np.ndarray:
                return np.concatenate([getattr(c, name) for c in ckpts])

            params = _stack("params")
            n_vox, n_par = params.shape
            blocks = _tiling(blocks, n_vox)
            if len(blocks) != len(ckpts):
                raise SamplerError(
                    f"{len(blocks)} blocks but {len(ckpts)} checkpoints"
                )
            rng = HybridTaus(_stack("rng_state"))
            lp = _stack("log_posterior")
            proposals = AdaptiveProposals(_stack("proposal_sigma"))
            proposals._accepted[:] = _stack("window_accepted")
            proposals._rejected[:] = _stack("window_rejected")
            start_loop = ckpts[0].loop
            taken = ckpts[0].taken
            histories = [list(c.acceptance_history) for c in ckpts]
            prior_accepts = [c.total_accepts for c in ckpts]
            samples = np.empty((cfg.n_samples, n_vox, n_par))
            samples[:taken] = np.concatenate(
                [c.samples for c in ckpts], axis=1
            )
        else:
            n_rows = posterior.n_voxels
            blocks = _tiling([(0, n_rows)] if blocks is None else blocks, n_rows)
            if initial is None:
                # Per block: the tensor-fit init differs in its last bits
                # when many blocks' voxels are fit together.
                initial = np.concatenate(
                    [posterior.rows(a, b).initial_params() for a, b in blocks]
                )
            params = np.array(initial).astype(np.float64)
            n_vox, n_par = params.shape
            if n_vox != posterior.n_voxels:
                raise SamplerError(
                    f"initial has {n_vox} voxels, posterior has {posterior.n_voxels}"
                )
            if rng is None:
                rng = seed_streams(n_vox, seed=cfg.seed)
            elif rng.n_threads != n_vox:
                raise SamplerError(
                    f"rng has {rng.n_threads} lanes, need {n_vox} (one per voxel)"
                )
            lp = posterior(params)
            if any(np.all(np.isneginf(lp[a:b])) for a, b in blocks):
                raise SamplerError("initial state has zero posterior everywhere")
            proposals = AdaptiveProposals(
                AdaptiveProposals.default_initial_sigma(params)
            )
            start_loop = 0
            taken = 0
            histories = [[] for _ in blocks]
            prior_accepts = [0 for _ in blocks]
            samples = np.empty((cfg.n_samples, n_vox, n_par))

        n_blocks = len(blocks)

        end_loop = cfg.n_loops
        if stop_after_loop is not None:
            if not start_loop <= stop_after_loop <= cfg.n_loops:
                raise SamplerError(
                    f"stop_after_loop={stop_after_loop} outside "
                    f"[{start_loop}, {cfg.n_loops}]"
                )
            end_loop = stop_after_loop

        registry = get_registry()
        if replay_counters and checkpoint is not None:
            registry.count("mcmc.loops", start_loop * n_blocks)
            registry.count("mcmc.adaptations", sum(len(h) for h in histories))
            registry.count("mcmc.samples_recorded", taken * n_blocks)
            # Proposal counts are a pure function of the schedule; the
            # accept count is data-dependent and rides in the checkpoint.
            registry.count("mcmc.proposals", start_loop * n_vox * n_par)
            registry.count("mcmc.accepts", sum(prior_accepts))
        t0 = time.perf_counter()
        # Accepts per voxel since this call began (summed per block for
        # the checkpoints), the one proposal buffer the sweep reuses, and
        # the chain's model terms, rebuilt from the state on every entry
        # (fresh or resumed) rather than checkpointed.
        voxel_accepts = np.zeros(n_vox, dtype=np.int64)
        proposal = params.copy()
        cache = CompartmentCache(posterior, params)

        def _run_loops(lo: int, hi: int, stage: str) -> None:
            """Run loops ``lo..hi`` inclusive under an ``mcmc.<stage>`` span."""
            nonlocal lp, taken, voxel_accepts
            if lo > hi:
                return
            with registry.span(
                f"mcmc.{stage}", loops=hi - lo + 1, n_voxels=n_vox,
                blocks=n_blocks,
            ):
                for loop in range(lo, hi + 1):
                    for p_idx in range(n_par):
                        accepted, lp = mh_parameter_update(
                            cache, params, lp, p_idx,
                            proposals.sigma[:, p_idx], rng, proposal,
                        )
                        proposals.record(p_idx, accepted)
                        voxel_accepts += accepted
                    registry.count("mcmc.loops", n_blocks)
                    if loop % cfg.adapt_every == 0:
                        rates = proposals.adapt()
                        for history, (a, b) in zip(histories, blocks):
                            history.append(float(rates[a:b].mean()))
                        registry.count("mcmc.adaptations", n_blocks)
                    if loop > cfg.n_burnin:
                        since = loop - cfg.n_burnin
                        if since % cfg.sample_interval == 0 and taken < cfg.n_samples:
                            samples[taken] = params
                            taken += 1
                            registry.count("mcmc.samples_recorded", n_blocks)

        # Fig 2's two phases, each under its own measured span.
        burn_end = min(end_loop, cfg.n_burnin)
        _run_loops(start_loop + 1, burn_end, "burnin")
        _run_loops(max(start_loop + 1, burn_end + 1), end_loop, "sampling")

        out_checkpoints: list[SamplerCheckpoint] = []
        if end_loop < cfg.n_loops:
            rng_state = rng.state
            out_checkpoints = [
                SamplerCheckpoint(
                    params=params[a:b].copy(),
                    log_posterior=lp[a:b].copy(),
                    rng_state=rng_state[a:b].copy(),
                    proposal_sigma=proposals.sigma[a:b].copy(),
                    window_accepted=proposals._accepted[a:b].copy(),
                    window_rejected=proposals._rejected[a:b].copy(),
                    loop=end_loop,
                    taken=taken,
                    samples=samples[:taken, a:b].copy(),
                    acceptance_history=list(history),
                    total_accepts=prior + int(voxel_accepts[a:b].sum()),
                )
                for (a, b), history, prior in zip(
                    blocks, histories, prior_accepts
                )
            ]
        elif taken != cfg.n_samples:  # pragma: no cover - schedule invariant
            raise SamplerError(f"recorded {taken}/{cfg.n_samples} samples")
        acceptance_history = (
            histories[0] if n_blocks == 1
            else [float(x) for x in np.mean(histories, axis=0)]
        )
        return MCMCResult(
            samples=samples[:taken],
            acceptance_history=acceptance_history,
            n_loops=end_loop,
            n_voxels=n_vox,
            n_params=n_par,
            wall_seconds=time.perf_counter() - t0,
            checkpoint=(
                out_checkpoints[0] if n_blocks == 1 and out_checkpoints else None
            ),
            block_histories=histories,
            block_checkpoints=out_checkpoints,
        )

    # -- scalar ("CPU") execution -----------------------------------------

    def run_scalar(
        self,
        posterior: LogPosterior,
        initial: np.ndarray | None = None,
        rng: HybridTaus | None = None,
    ) -> MCMCResult:
        """Sample voxel-by-voxel (the CPU reference implementation).

        Uses the same per-voxel random streams as :meth:`run`, so the two
        modes produce identical chains — the correctness check for the
        lockstep port.
        """
        cfg = self.config
        params0 = (
            posterior.initial_params() if initial is None else np.array(initial)
        ).astype(np.float64)
        n_vox, n_par = params0.shape
        if rng is None:
            rng = seed_streams(n_vox, seed=cfg.seed)
        state = rng.state  # (n_vox, 4) — slice one lane per voxel

        samples = np.empty((cfg.n_samples, n_vox, n_par))
        acc_totals: list[np.ndarray] = []
        t0 = time.perf_counter()
        for v in range(n_vox):
            sub = MCMCSampler(cfg).run(
                posterior.rows(v, v + 1),
                initial=params0[v : v + 1],
                rng=HybridTaus(state[v : v + 1]),
            )
            samples[:, v, :] = sub.samples[:, 0, :]
            acc_totals.append(np.asarray(sub.acceptance_history))
        history = (
            list(np.mean(acc_totals, axis=0)) if acc_totals and acc_totals[0].size else []
        )
        return MCMCResult(
            samples=samples,
            acceptance_history=[float(h) for h in history],
            n_loops=cfg.n_loops,
            n_voxels=n_vox,
            n_params=n_par,
            wall_seconds=time.perf_counter() - t0,
        )
