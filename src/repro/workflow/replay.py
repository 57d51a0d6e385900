"""Replay of workflow journals into resumable run state.

A run's write-ahead journal (:mod:`repro.workflow.journal`) is a
sequence of typed records; this module folds that sequence into a
:class:`ReplayState` — the durable summary a resumed run needs:

* how many times each task *executed* (reached its payload-invocation
  point) and *completed* — the credits a resumed server spends to skip
  work that already ran (:class:`PayloadSkipper`);
* the run header (graph digest, policy, worker pool) so a resume
  against the wrong recipe is rejected instead of silently diverging;
* fault/recovery/dispatch tallies and checkpoint positions for
  ``repro runs show``.

The fold is a pure function (:func:`apply_record`), shared by the
journal writer — which maintains the state incrementally so a snapshot
is just :meth:`ReplayState.to_dict` — and the reader, which seeds the
state from the newest usable snapshot and folds only the journal tail.
The defining property, exercised by the durability test suite::

    replay(snapshot_state, tail) == replay(empty, full_journal)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.workflow.tracing import FAULT_CATEGORY, RECOVERY_CATEGORY, TASK_CATEGORY

#: Tracer category for task payload-invocation points (emitted by the
#: engine when a journal is attached; see workflow/recovery.py).
EXEC_CATEGORY = "workflow.exec"
#: Tracer category for journal bookkeeping instants (snapshots,
#: checkpoints) surfaced in exported Chrome traces.
JOURNAL_CATEGORY = "workflow.journal"


@dataclass
class ReplayState:
    """Everything the journal proves happened before a crash."""

    #: The journal header (graph digest, policy, workers); None until a
    #: header record is applied.
    header: Optional[Dict] = None
    #: Task name -> times the task reached its execution point.
    exec_counts: Dict[str, int] = field(default_factory=dict)
    #: Task name -> times a completion record was journaled.
    completions: Dict[str, int] = field(default_factory=dict)
    #: Checkpoint label -> journal seq of the checkpoint record.
    checkpoints: Dict[str, int] = field(default_factory=dict)
    events: int = 0
    dispatches: int = 0
    faults: int = 0
    recoveries: int = 0
    last_seq: int = -1
    last_time: float = 0.0
    last_snapshot_seq: int = -1
    finished: bool = False
    digest: Optional[str] = None

    def to_dict(self) -> Dict:
        """Plain-data form, suitable for a snapshot file."""
        return {
            "header": self.header,
            "exec_counts": dict(self.exec_counts),
            "completions": dict(self.completions),
            "checkpoints": dict(self.checkpoints),
            "events": self.events,
            "dispatches": self.dispatches,
            "faults": self.faults,
            "recoveries": self.recoveries,
            "last_seq": self.last_seq,
            "last_time": self.last_time,
            "last_snapshot_seq": self.last_snapshot_seq,
            "finished": self.finished,
            "digest": self.digest,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ReplayState":
        """Rebuild a state from :meth:`to_dict` output."""
        return cls(
            header=data.get("header"),
            exec_counts=dict(data.get("exec_counts", {})),
            completions=dict(data.get("completions", {})),
            checkpoints=dict(data.get("checkpoints", {})),
            events=int(data.get("events", 0)),
            dispatches=int(data.get("dispatches", 0)),
            faults=int(data.get("faults", 0)),
            recoveries=int(data.get("recoveries", 0)),
            last_seq=int(data.get("last_seq", -1)),
            last_time=float(data.get("last_time", 0.0)),
            last_snapshot_seq=int(data.get("last_snapshot_seq", -1)),
            finished=bool(data.get("finished", False)),
            digest=data.get("digest"),
        )

    # ------------------------------------------------------------------

    def total_completions(self) -> int:
        """Completion records across all tasks (lineage re-runs count)."""
        return sum(self.completions.values())

    def payload_skipper(self) -> "PayloadSkipper":
        """Skip credits for a resumed execution of this run."""
        return PayloadSkipper(dict(self.exec_counts))

    def summary(self) -> Dict:
        """Compact description for ``repro runs list|show``."""
        return {
            "events": self.events,
            "executions": sum(self.exec_counts.values()),
            "completions": self.total_completions(),
            "faults": self.faults,
            "recoveries": self.recoveries,
            "checkpoints": len(self.checkpoints),
            "finished": self.finished,
            "digest": self.digest,
            "sim_time": self.last_time,
        }


class PayloadSkipper:
    """Spends journaled execution credits during a resumed run.

    The servers call :meth:`take` at every task execution point; while
    a task still has journaled executions left, the call returns True
    and the (deterministic) re-execution skips invoking the payload —
    the real work already happened before the crash.
    """

    def __init__(self, credits: Dict[str, int]):
        """``credits``: task name -> journaled execution count."""
        self._credits = {
            name: count for name, count in credits.items() if count > 0
        }
        self.skipped = 0
        self.executed = 0

    def take(self, task_name: str) -> bool:
        """Consume one credit; True when this execution already ran."""
        remaining = self._credits.get(task_name, 0)
        if remaining > 0:
            self._credits[task_name] = remaining - 1
            self.skipped += 1
            return True
        self.executed += 1
        return False


def apply_record(state: ReplayState, record: Dict) -> ReplayState:
    """Fold one decoded journal record into the state (in place).

    This is the single definition of what each record type *means*;
    the journal writer applies it as records are appended and the
    reader applies it during replay, so both sides always agree.
    """
    kind = record["type"]
    data = record["data"]
    state.last_seq = record["seq"]
    if kind == "header":
        state.header = data
    elif kind == "event":
        state.events += 1
        ts = data.get("ts", 0.0)
        end = ts + data.get("dur", 0.0)
        if end > state.last_time:
            state.last_time = end
        category = data.get("category", "")
        args = data.get("args", {})
        if category == TASK_CATEGORY and data.get("phase") == "X":
            task = args.get("task", data.get("name", ""))
            state.completions[task] = state.completions.get(task, 0) + 1
        elif category == EXEC_CATEGORY:
            task = args.get("task", data.get("name", ""))
            state.exec_counts[task] = state.exec_counts.get(task, 0) + 1
        elif category == FAULT_CATEGORY:
            state.faults += 1
        elif category == RECOVERY_CATEGORY:
            state.recoveries += 1
        elif data.get("name") == "dispatch":
            state.dispatches += 1
    elif kind == "snapshot":
        state.last_snapshot_seq = data["seq"]
    elif kind == "checkpoint":
        state.checkpoints[data["label"]] = record["seq"]
    elif kind == "finish":
        state.finished = True
        state.digest = data.get("digest")
    return state


def replay_records(records, state: Optional[ReplayState] = None,
                   after_seq: int = -1) -> ReplayState:
    """Fold ``records`` with seq > ``after_seq`` into ``state``."""
    state = state if state is not None else ReplayState()
    for record in records:
        if record["seq"] > after_seq:
            apply_record(state, record)
    return state
