"""Stage-generic shard execution for both pipeline stages.

See :mod:`repro.runtime.stage` for the :class:`StageShard` contract and
the streaming executor: a sharded stage's merged output is
bit-identical to its serial path for any worker count — and, via
:mod:`repro.runtime.supervisor`, under any recovered shard failure
(crash, hang, corrupt result) as well.  :mod:`repro.runtime.faults`
provides the deterministic fault-injection plans the chaos tests and
the dev-only ``--inject-fault`` CLI flags use to prove that.  The
tracking stage shards by posterior sample (:mod:`repro.tracking.shards`);
bedpost MCMC shards by voxel block (:mod:`repro.mcmc.shards`).
"""

from repro.runtime.faults import FaultPlan, FaultSpec
from repro.runtime.merge import merge_shard_results
from repro.runtime.stage import StageShard, StageShardExecutor, default_workers
from repro.runtime.supervisor import (
    InlineLauncher,
    ProcessLauncher,
    RetryPolicy,
    ShardAttempt,
    ShardSupervisor,
    SupervisorReport,
)

__all__ = [
    "StageShard",
    "StageShardExecutor",
    "default_workers",
    "merge_shard_results",
    "FaultPlan",
    "FaultSpec",
    "RetryPolicy",
    "ShardAttempt",
    "ShardSupervisor",
    "SupervisorReport",
    "ProcessLauncher",
    "InlineLauncher",
]
