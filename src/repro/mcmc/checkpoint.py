"""Sampler checkpointing: capture and resume a chain mid-run.

Whole-brain MCMC runs for hours (the paper quotes ~a day on CPUs), so a
production sampler must survive interruption.  A
:class:`SamplerCheckpoint` captures *everything* the chain's future
depends on — parameter state, cached log-posterior, per-lane RNG state,
adaptive-proposal widths and window counters, loop index, and the
samples recorded so far — so a resumed run is **bit-identical** to an
uninterrupted one (asserted in the test suite).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import SamplerError

__all__ = ["SamplerCheckpoint"]


@dataclass
class SamplerCheckpoint:
    """Complete chain state after ``loop`` loops."""

    params: np.ndarray            # (n_vox, n_params) current state
    log_posterior: np.ndarray     # (n_vox,) cached density
    rng_state: np.ndarray         # (n_vox, 4) uint32 Tausworthe state
    proposal_sigma: np.ndarray    # (n_vox, n_params)
    window_accepted: np.ndarray   # (n_vox, n_params) int64
    window_rejected: np.ndarray   # (n_vox, n_params) int64
    loop: int                     # loops completed
    taken: int                    # samples recorded so far
    samples: np.ndarray           # (taken, n_vox, n_params)
    acceptance_history: list[float] = field(default_factory=list)
    #: Cumulative accepted proposals over all completed loops.  Data-
    #: dependent (unlike the loop/proposal counts), so it must ride in
    #: the checkpoint for a crash-resumed run to replay its
    #: ``mcmc.accepts`` deterministic counter exactly.
    total_accepts: int = 0

    def __post_init__(self) -> None:
        n_vox, n_par = self.params.shape
        expect = {
            "log_posterior": (n_vox,),
            "rng_state": (n_vox, 4),
            "proposal_sigma": (n_vox, n_par),
            "window_accepted": (n_vox, n_par),
            "window_rejected": (n_vox, n_par),
        }
        for name, shape in expect.items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise SamplerError(
                    f"checkpoint field {name} has shape {arr.shape}, "
                    f"expected {shape}"
                )
        if self.loop < 0 or self.taken < 0:
            raise SamplerError("loop and taken must be >= 0")
        if self.samples.shape[1:] != (n_vox, n_par) or (
            self.samples.shape[0] != self.taken
        ):
            raise SamplerError(
                f"samples must be ({self.taken}, {n_vox}, {n_par}), "
                f"got {self.samples.shape}"
            )

    def save(self, path: str | Path) -> None:
        """Serialize to an ``.npz`` file, atomically.

        The archive is uncompressed: it is mostly float64 chain state,
        which zlib barely shrinks, so compressing costs more time than
        the bytes it saves.  The payload is written to a sibling
        temporary file and ``os.replace``\\ d into place, so a crash
        mid-save leaves either the previous complete checkpoint or none
        — never a truncated file that :meth:`load` would choke on at
        resume time.
        """
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        try:
            with open(tmp, "wb") as fh:
                np.savez(
                    fh,
                    params=self.params,
                    log_posterior=self.log_posterior,
                    rng_state=self.rng_state,
                    proposal_sigma=self.proposal_sigma,
                    window_accepted=self.window_accepted,
                    window_rejected=self.window_rejected,
                    loop=np.int64(self.loop),
                    taken=np.int64(self.taken),
                    samples=self.samples,
                    acceptance_history=np.asarray(
                        self.acceptance_history, dtype=np.float64
                    ),
                    total_accepts=np.int64(self.total_accepts),
                )
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    @classmethod
    def load(cls, path: str | Path) -> "SamplerCheckpoint":
        """Restore from an ``.npz`` file (compressed or not).

        Raises
        ------
        SamplerError
            If the file is unreadable, truncated, or missing fields — a
            corrupt checkpoint must surface as a library error so the
            caller can fall back to restarting the stage from scratch.
        """
        try:
            blob = np.load(path)
            return cls(
                params=blob["params"],
                log_posterior=blob["log_posterior"],
                rng_state=blob["rng_state"],
                proposal_sigma=blob["proposal_sigma"],
                window_accepted=blob["window_accepted"],
                window_rejected=blob["window_rejected"],
                loop=int(blob["loop"]),
                taken=int(blob["taken"]),
                samples=blob["samples"],
                acceptance_history=[float(x) for x in blob["acceptance_history"]],
                total_accepts=(
                    int(blob["total_accepts"]) if "total_accepts" in blob else 0
                ),
            )
        except SamplerError:
            raise
        except Exception as exc:
            raise SamplerError(
                f"checkpoint {path} is unreadable or corrupt: {exc}"
            ) from exc
