"""Distributed workflow execution platform (HyperLoom [10], §III-A).

EVEREST executes "complex workflows in large scale distributed
environments with various virtualized heterogeneous resources". This
package provides the engine: task graphs with data objects
(:mod:`graph`), workers bound to platform nodes (:mod:`worker`),
scheduling policies including HyperLoom's b-level heuristic
(:mod:`scheduler`), one execution engine with fault injection and
recovery (:class:`ResilientServer` in :mod:`recovery`; a fault-free
run is a run with no chaos schedule), and execution traces
(:mod:`tracing`).
"""

from repro.workflow.graph import DataObject, TaskGraph, WorkflowTask
from repro.workflow.worker import Worker
from repro.workflow.scheduler import (
    BLevelScheduler,
    FIFOScheduler,
    LocalityScheduler,
    SchedulerPolicy,
)
from repro.workflow.recovery import (
    RecoveryStats,
    ResilientServer,
    RetryPolicy,
)
from repro.workflow.tracing import (
    ExecutionTrace,
    FaultRecord,
    RecoveryRecord,
    TaskRecord,
)
from repro.workflow.journal import (
    RunJournal,
    read_records,
    replay_journal,
    rollback_journal,
)
from repro.workflow.replay import PayloadSkipper, ReplayState
from repro.workflow.runstore import RunInfo, RunStore, default_runs_dir
from repro.workflow.jobstore import (
    JobRecord,
    JobSpec,
    JobStore,
    Lease,
    SubmitResult,
    default_jobstore_path,
)
from repro.workflow.client import ServiceClient
from repro.workflow.launcher import Launcher, LauncherStats

__all__ = [
    "TaskGraph",
    "WorkflowTask",
    "DataObject",
    "Worker",
    "SchedulerPolicy",
    "FIFOScheduler",
    "BLevelScheduler",
    "LocalityScheduler",
    "ResilientServer",
    "RecoveryStats",
    "RetryPolicy",
    "ExecutionTrace",
    "TaskRecord",
    "FaultRecord",
    "RecoveryRecord",
    "RunJournal",
    "ReplayState",
    "PayloadSkipper",
    "RunStore",
    "RunInfo",
    "read_records",
    "replay_journal",
    "rollback_journal",
    "default_runs_dir",
    "JobStore",
    "JobSpec",
    "JobRecord",
    "Lease",
    "SubmitResult",
    "ServiceClient",
    "Launcher",
    "LauncherStats",
    "default_jobstore_path",
]
