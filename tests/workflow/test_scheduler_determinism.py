"""Scheduler tie-break determinism.

The documented contract (see :mod:`repro.workflow.scheduler`): equal-
priority ready tasks dispatch in ready-queue insertion order, and the
order is identical across identical runs. This is the foundation the
RACE004 nondeterminism hazard and the byte-identical sanitizer
reports stand on.
"""

from repro.obs import observe, session
from repro.workflow.graph import DataObject, TaskGraph, WorkflowTask
from repro.workflow.recovery import ResilientServer
from repro.workflow.scheduler import make_policy
from repro.workflow.tracing import SCHED_CATEGORY
from repro.workflow.worker import Worker


def tied_graph(num_tasks: int = 6) -> TaskGraph:
    """Independent equal-duration tasks: every pair is a tie."""
    graph = TaskGraph("tied")
    graph.add_object(DataObject("seed"))
    for index in range(num_tasks):
        graph.add_task(WorkflowTask(
            f"t{index}", inputs=["seed"], outputs=[f"o{index}"],
            duration_s=0.01,
        ))
    return graph


def dispatch_order(policy_name: str):
    """Task names in the order the dispatcher launched them."""
    graph = tied_graph()
    # one single-slot worker: ties resolved purely by the policy
    workers = [Worker("w0", node_name="n0", cpus=1)]
    obs = session(deterministic=True)
    with observe(obs):
        server = ResilientServer(
            workers, policy=make_policy(policy_name)
        )
        server.run(graph)
    return [
        event.args["task"]
        for event in obs.tracer.instants(SCHED_CATEGORY)
        if event.name == "dispatch"
    ]


class TestTieBreakDeterminism:
    def test_ties_dispatch_in_insertion_order(self):
        # all tasks ready at t=0 with equal b-levels: the stable sort
        # must preserve the ready-queue (topological) insertion order
        for policy in ("fifo", "b-level", "locality"):
            order = dispatch_order(policy)
            assert order == [f"t{i}" for i in range(6)], policy

    def test_identical_runs_dispatch_identically(self):
        for policy in ("fifo", "b-level", "locality"):
            assert dispatch_order(policy) == dispatch_order(policy), \
                policy

    def test_priority_still_beats_insertion_order(self):
        # a longer task outranks earlier-inserted ties under b-level
        graph = tied_graph()
        graph.add_task(WorkflowTask(
            "heavy", inputs=["seed"], outputs=["oh"], duration_s=1.0,
        ))
        workers = [Worker("w0", node_name="n0", cpus=1)]
        obs = session(deterministic=True)
        with observe(obs):
            ResilientServer(
                workers, policy=make_policy("b-level")
            ).run(graph)
        order = [
            event.args["task"]
            for event in obs.tracer.instants(SCHED_CATEGORY)
            if event.name == "dispatch"
        ]
        assert order[0] == "heavy"
        assert order[1:] == [f"t{i}" for i in range(6)]
