"""Execution traces of workflow runs.

Besides per-task timing (:class:`TaskRecord`), a trace records every
injected fault (:class:`FaultRecord`) and every recovery action the
server took in response (:class:`RecoveryRecord`), so a chaos run is
fully auditable: each fault in a schedule must show up here, and the
whole trace serializes deterministically for replay comparison.

Since the observability layer landed, the engine does not build this
record directly: they emit spans and instants into a simulated-time
:class:`~repro.obs.tracer.Tracer`, and :meth:`ExecutionTrace.from_tracer`
derives the trace as a *view* over those events. The categories the
view consumes are :data:`TASK_CATEGORY`, :data:`FAULT_CATEGORY` and
:data:`RECOVERY_CATEGORY`; everything else in the tracer (transfer
spans, scheduler decisions, queue-depth counters) is extra detail that
only shows up in the exported Chrome trace. The serialized form — and
therefore :meth:`ExecutionTrace.digest` — is unchanged from the
pre-tracer implementation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List

#: Tracer categories the :meth:`ExecutionTrace.from_tracer` view maps.
TASK_CATEGORY = "workflow.task"
FAULT_CATEGORY = "workflow.fault"
RECOVERY_CATEGORY = "workflow.recovery"
#: Categories of the extra detail the engine emits beside the view.
TRANSFER_CATEGORY = "workflow.transfer"
SCHED_CATEGORY = "workflow.sched"
#: Worker-slot request/release instants consumed by repro.sanitize.
RESOURCE_EVENT_CATEGORY = "workflow.resource"


@dataclass
class TaskRecord:
    """Timing of one executed task."""

    task: str
    worker: str
    ready_at: float
    start: float
    end: float
    transfer_seconds: float = 0.0
    bytes_moved: int = 0

    @property
    def wait_seconds(self) -> float:
        """Queueing delay between readiness and start."""
        return self.start - self.ready_at

    @property
    def duration(self) -> float:
        """Wall duration including input staging."""
        return self.end - self.start


@dataclass
class FaultRecord:
    """One injected fault, as observed by the runtime.

    ``kind`` is the fault class (``worker-crash``, ``link-degradation``,
    ``link-partition``, ``reconfig-failure``, ``straggler``,
    ``task-fault``); ``target`` names the worker, link (``a<->b``) or
    task hit; ``detail`` carries class-specific parameters.
    """

    kind: str
    target: str
    time: float
    detail: str = ""


@dataclass
class RecoveryRecord:
    """One recovery action the resilient server took.

    ``action`` is one of ``requeue``, ``retry``, ``backoff``,
    ``lineage``, ``refetch``, ``worker-restart``, ``worker-readmit``,
    ``link-heal``, ``straggler-clear``.
    """

    action: str
    target: str
    time: float
    detail: str = ""


@dataclass
class ExecutionTrace:
    """The full record of one workflow execution."""

    graph_name: str
    policy: str
    records: List[TaskRecord] = field(default_factory=list)
    faults: List[FaultRecord] = field(default_factory=list)
    recoveries: List[RecoveryRecord] = field(default_factory=list)
    makespan: float = 0.0
    bytes_moved: int = 0

    @classmethod
    def from_tracer(cls, tracer, graph_name: str,
                    policy: str) -> "ExecutionTrace":
        """Build the trace as a view over a server's tracer events.

        Walks the tracer's events in emission order and maps complete
        spans of category :data:`TASK_CATEGORY` to task records and
        instants of :data:`FAULT_CATEGORY` / :data:`RECOVERY_CATEGORY`
        to fault/recovery records. Because the servers emit each event
        at exactly the point the old implementation appended the
        matching record, the resulting lists — and the serialized
        bytes — are identical to the pre-tracer trace.
        """
        trace = cls(graph_name=graph_name, policy=policy)
        for event in tracer.events:
            if event.phase == "X" and event.category == TASK_CATEGORY:
                trace.add(TaskRecord(
                    task=event.args["task"],
                    worker=event.args["worker"],
                    ready_at=event.args["ready_at"],
                    start=event.args["start"],
                    end=event.args["end"],
                    transfer_seconds=event.args["transfer_seconds"],
                    bytes_moved=event.args["bytes_moved"],
                ))
            elif event.phase == "i" and event.category == FAULT_CATEGORY:
                trace.add_fault(FaultRecord(
                    kind=event.args["kind"],
                    target=event.args["target"],
                    time=event.args["time"],
                    detail=event.args["detail"],
                ))
            elif (event.phase == "i"
                  and event.category == RECOVERY_CATEGORY):
                trace.add_recovery(RecoveryRecord(
                    action=event.args["action"],
                    target=event.args["target"],
                    time=event.args["time"],
                    detail=event.args["detail"],
                ))
        return trace

    def add(self, record: TaskRecord) -> None:
        """Append a task record, extending the makespan."""
        self.records.append(record)
        self.makespan = max(self.makespan, record.end)
        self.bytes_moved += record.bytes_moved

    def add_fault(self, record: FaultRecord) -> None:
        """Record an injected fault."""
        self.faults.append(record)

    def add_recovery(self, record: RecoveryRecord) -> None:
        """Record a recovery action."""
        self.recoveries.append(record)

    def faults_by_kind(self) -> Dict[str, int]:
        """Injected fault count per fault class."""
        counts: Dict[str, int] = {}
        for fault in self.faults:
            counts[fault.kind] = counts.get(fault.kind, 0) + 1
        return counts

    def recoveries_by_action(self) -> Dict[str, int]:
        """Recovery action count per action type."""
        counts: Dict[str, int] = {}
        for recovery in self.recoveries:
            counts[recovery.action] = counts.get(recovery.action, 0) + 1
        return counts

    def to_dict(self) -> Dict:
        """Plain-data form of the whole trace (records in order)."""
        return {
            "graph_name": self.graph_name,
            "policy": self.policy,
            "makespan": self.makespan,
            "bytes_moved": self.bytes_moved,
            "records": [asdict(r) for r in self.records],
            "faults": [asdict(f) for f in self.faults],
            "recoveries": [asdict(r) for r in self.recoveries],
        }

    def to_json(self) -> str:
        """Deterministic serialization: identical runs give identical
        bytes, so chaos replays can be compared byte-for-byte."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def digest(self) -> str:
        """Short content hash of the serialized trace."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:16]

    def per_worker_counts(self) -> Dict[str, int]:
        """Tasks executed per worker."""
        counts: Dict[str, int] = {}
        for record in self.records:
            counts[record.worker] = counts.get(record.worker, 0) + 1
        return counts

    def average_wait(self) -> float:
        """Mean queueing delay across tasks."""
        if not self.records:
            return 0.0
        return sum(r.wait_seconds for r in self.records) / len(
            self.records
        )

    def total_transfer_seconds(self) -> float:
        """Cumulative input-staging time."""
        return sum(r.transfer_seconds for r in self.records)

    def utilization(self, total_slots: int) -> float:
        """Aggregate busy fraction across all worker slots."""
        if self.makespan <= 0 or total_slots <= 0:
            return 0.0
        busy = sum(r.duration for r in self.records)
        return min(1.0, busy / (self.makespan * total_slots))
