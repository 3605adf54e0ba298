"""Stage-generic shard execution for both pipeline stages.

See :mod:`repro.runtime.stage` for the :class:`StageShard` contract and
the streaming executor: a sharded stage's merged output is
bit-identical to its serial path for any worker count — and, via
:mod:`repro.runtime.supervisor`, under any recovered shard failure
(crash, hang, corrupt result) as well.  :mod:`repro.runtime.faults`
provides the deterministic fault-injection plans the chaos tests and
the dev-only ``--inject-fault`` CLI flags use to prove that.

The runtime is the only code that runs a shard task: each run gets a
fresh metrics registry, and the executor folds the snapshots in task
order and hands the stage bare payloads.  It imports no stage; the
tracking stage shards by posterior sample (:mod:`repro.tracking.shards`)
and bedpost MCMC by voxel block (:mod:`repro.mcmc.shards`), each merging
its own payloads.
"""

from repro.runtime.faults import FaultPlan, FaultSpec
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
    "FaultPlan",
    "FaultSpec",
    "RetryPolicy",
    "ShardAttempt",
    "ShardSupervisor",
    "SupervisorReport",
    "ProcessLauncher",
    "InlineLauncher",
]
