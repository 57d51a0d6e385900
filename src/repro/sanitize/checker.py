"""Happens-before checker over obs tracer events.

The dynamic half of the concurrency analyzer
(:mod:`repro.core.analysis.concurrency` is the static half): given a
traced run — ``repro run --sanitize`` / ``repro chaos --sanitize`` or
any :class:`~repro.obs.tracer.Tracer` holding ``workflow.task`` spans
— rebuild the run's happens-before order with vector clocks and
report the conflicting accesses that actually happened, as SAN001-003
diagnostics.

Happens-before edges mirror the runtime's real synchronization:

* program order — attempt *n+1* of a task sees everything attempt *n*
  saw;
* dataflow — a task attempt that reads an object synchronizes with
  the write that *produced* the object in the current lineage epoch
  (the dependency edge the dispatcher enforces). Later in-place
  rewrites of the object (``updates``) create **no** edge — exactly
  the hazard the sanitizer exists to catch.

Chaos lineage re-execution means one task legitimately writes the
same object several times. Each producer re-write opens a new *epoch*
for the object and accesses are only compared within an epoch, so
recovery replays do not show up as false races.

SAN003 audits the ``workflow.resource`` instants: worker-slot
occupancy reconstructed from request/release/reset events must stay
within ``[0, capacity]`` and drain to zero (or a crash reset) by the
end of the run.

All findings are emitted in a deterministic order with deterministic
messages, so sanitizer reports of seeded replays are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.analysis.diagnostics import Diagnostics
from repro.sanitize.vclock import VectorClock
from repro.workflow.tracing import RESOURCE_EVENT_CATEGORY, TASK_CATEGORY


@dataclass
class _ObjectState:
    """Per-object access history, split by lineage epoch."""

    first_writer: Optional[str] = None
    epoch: int = 0
    #: epoch -> clock of the epoch-opening (producing) write
    producing: Dict[int, VectorClock] = field(default_factory=dict)
    #: epoch -> [(task, attempt, clock)] for every write
    writes: Dict[int, List[Tuple[str, int, VectorClock]]] = field(
        default_factory=dict
    )
    #: epoch -> [(task, attempt, clock)] for every read
    reads: Dict[int, List[Tuple[str, int, VectorClock]]] = field(
        default_factory=dict
    )


class HappensBeforeChecker:
    """Replays task-attempt events and flags HB violations."""

    def __init__(self, diagnostics: Optional[Diagnostics] = None):
        self.diagnostics = (
            diagnostics if diagnostics is not None else Diagnostics()
        )
        self._attempts: Dict[str, int] = {}
        self._clocks: Dict[str, VectorClock] = {}
        self._objects: Dict[str, _ObjectState] = {}
        self._reported: Set[Tuple[str, str, str, str]] = set()
        self._occupancy: Dict[str, int] = {}
        self._capacity: Dict[str, int] = {}

    # -- data accesses -------------------------------------------------

    def _report(self, code: str, obj: str, task_a: str, task_b: str,
                message: str) -> None:
        first, second = sorted((task_a, task_b))
        key = (code, obj, first, second)
        if key in self._reported:
            return
        self._reported.add(key)
        self.diagnostics.error(
            code, message, anchor=obj, analysis="sanitize",
        )

    def observe_attempt(self, task: str, reads: List[str],
                        writes: List[str]) -> None:
        """Feed one *successful* task attempt, in completion order."""
        attempt = self._attempts.get(task, 0) + 1
        self._attempts[task] = attempt
        clock = self._clocks.get(task, VectorClock()).copy()
        read_set = [str(obj) for obj in reads]
        write_set = [str(obj) for obj in writes]
        for obj in read_set:
            state = self._objects.get(obj)
            if state is not None:
                producing = state.producing.get(state.epoch)
                if producing is not None:
                    clock.join(producing)
        clock.tick(task, attempt)
        self._clocks[task] = clock

        for obj in read_set:
            state = self._objects.setdefault(obj, _ObjectState())
            for writer, w_attempt, w_clock in state.writes.get(
                state.epoch, ()
            ):
                if writer != task and clock.concurrent(w_clock):
                    self._report(
                        "SAN002", obj, task, writer,
                        f"task {task!r} (attempt {attempt}) read "
                        f"{obj!r} concurrently with a write by "
                        f"{writer!r} (attempt {w_attempt})",
                    )
            state.reads.setdefault(state.epoch, []).append(
                (task, attempt, clock)
            )

        for obj in write_set:
            state = self._objects.setdefault(obj, _ObjectState())
            if state.first_writer is None:
                state.first_writer = task
            elif (
                task == state.first_writer
                and state.epoch in state.producing
            ):
                # lineage re-execution of the producer: new epoch
                state.epoch += 1
            if task == state.first_writer:
                state.producing[state.epoch] = clock
            for writer, w_attempt, w_clock in state.writes.get(
                state.epoch, ()
            ):
                if writer != task and clock.concurrent(w_clock):
                    self._report(
                        "SAN001", obj, task, writer,
                        f"tasks {min(task, writer)!r} and "
                        f"{max(task, writer)!r} wrote {obj!r} "
                        f"concurrently (last writer wins)",
                    )
            for reader, r_attempt, r_clock in state.reads.get(
                state.epoch, ()
            ):
                if reader != task and clock.concurrent(r_clock):
                    self._report(
                        "SAN002", obj, reader, task,
                        f"task {reader!r} (attempt {r_attempt}) read "
                        f"{obj!r} concurrently with a write by "
                        f"{task!r} (attempt {attempt})",
                    )
            state.writes.setdefault(state.epoch, []).append(
                (task, attempt, clock)
            )

    # -- resource occupancy --------------------------------------------

    def observe_resource(self, op: str, resource: str, units: int,
                         capacity: int) -> None:
        """Feed one request/release/reset instant, in trace order."""
        self._capacity[resource] = capacity
        held = self._occupancy.get(resource, 0)
        if op == "request":
            held += units
            if held > capacity:
                self.diagnostics.error(
                    "SAN003",
                    f"resource {resource!r} over-committed: "
                    f"{held}/{capacity} units requested",
                    anchor=resource, analysis="sanitize",
                )
        elif op == "release":
            held -= units
            if held < 0:
                self.diagnostics.error(
                    "SAN003",
                    f"resource {resource!r} released {units} units "
                    f"while holding {held + units}",
                    anchor=resource, analysis="sanitize",
                )
                held = 0
        elif op == "reset":
            held = 0
        self._occupancy[resource] = held

    def finish(self) -> Diagnostics:
        """Close the run: leftover occupancy is an imbalance."""
        for resource in sorted(self._occupancy):
            held = self._occupancy[resource]
            if held > 0:
                self.diagnostics.error(
                    "SAN003",
                    f"resource {resource!r} still holds {held} "
                    f"unreleased units at the end of the run",
                    anchor=resource, analysis="sanitize",
                )
        return self.diagnostics


def sanitize_tracer(
    tracer, diagnostics: Optional[Diagnostics] = None
) -> Diagnostics:
    """Run the happens-before checker over a tracer's events.

    Consumes ``workflow.task`` spans carrying ``reads``/``writes``
    args (emitted by the workflow servers) and ``workflow.resource``
    instants, in recording order — which for simulated runs is
    completion order, so seeded replays sanitize identically.
    """
    checker = HappensBeforeChecker(diagnostics)
    for event in tracer.events:
        if (
            event.phase == "X"
            and event.category == TASK_CATEGORY
            and "task" in event.args
            and "writes" in event.args
        ):
            checker.observe_attempt(
                str(event.args["task"]),
                list(event.args.get("reads", ())),
                list(event.args["writes"]),
            )
        elif (
            event.phase == "i"
            and event.category == RESOURCE_EVENT_CATEGORY
        ):
            checker.observe_resource(
                str(event.args.get("op", "")),
                str(event.args.get("resource", "")),
                int(event.args.get("units", 0)),
                int(event.args.get("capacity", 0)),
            )
    return checker.finish()
