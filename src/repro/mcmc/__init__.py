"""Markov-Chain Monte-Carlo engine (paper § III-A2, § IV-A, Fig 2).

The local parameter estimation stage draws posterior samples of the
9-parameter multi-fiber state *per voxel* with a Metropolis-Hastings
sampler: in each loop the MH step is repeated once per parameter; every
``K`` loops the Gaussian proposal widths are adapted toward a 25-50 %
acceptance rate; after ``NumBurnIn`` loops a sample is recorded every
``L`` loops, ``NumSamples`` times.

The GPU port assigns one thread per voxel; here that is the *lockstep*
execution mode — every voxel advances through the identical instruction
sequence with vectorized NumPy, consuming the same per-thread Tausworthe
streams the device kernel would.  The scalar mode loops voxel-by-voxel
(the CPU reference) and produces bit-identical chains.
"""

from repro.mcmc.proposals import AdaptiveProposals
from repro.mcmc.metropolis import mh_parameter_update
from repro.mcmc.sampler import MCMCConfig, MCMCResult, MCMCSampler
from repro.mcmc.checkpoint import SamplerCheckpoint
from repro.mcmc.shards import (
    BEDPOST_BLOCK_SHARD,
    BlockTask,
    make_block_tasks,
    run_blocks,
)

__all__ = [
    "BEDPOST_BLOCK_SHARD",
    "BlockTask",
    "make_block_tasks",
    "run_blocks",
    "AdaptiveProposals",
    "mh_parameter_update",
    "MCMCConfig",
    "MCMCResult",
    "MCMCSampler",
    "SamplerCheckpoint",
]
