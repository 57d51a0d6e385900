"""Tests for workers, scheduling policies and the workflow server."""

import pytest

from repro.errors import WorkflowError
from repro.platform.topology import Tier, build_reference_ecosystem
from repro.workflow.graph import DataObject, TaskGraph, WorkflowTask
from repro.workflow.recovery import ResilientServer
from repro.workflow.scheduler import (
    BLevelScheduler,
    FIFOScheduler,
    LocalityScheduler,
    make_policy,
)
from repro.workflow.server import WorkflowServer
from repro.workflow.worker import Worker


def chain_and_fan() -> TaskGraph:
    """A long chain plus many independent short tasks."""
    graph = TaskGraph("mix")
    graph.add_object(DataObject("in", size_bytes=1000))
    previous = "in"
    for index in range(4):
        graph.add_task(WorkflowTask(
            f"chain{index}", inputs=[previous],
            outputs=[f"c{index}"], duration_s=1.0,
        ))
        previous = f"c{index}"
    for index in range(8):
        graph.add_task(WorkflowTask(
            f"leaf{index}", inputs=["in"],
            outputs=[f"l{index}"], duration_s=0.25,
        ))
    return graph


def pool(count=2, cpus=1):
    return [
        Worker(f"w{i}", node_name=f"n{i}", cpus=cpus)
        for i in range(count)
    ]


class TestWorker:
    def test_acquire_release(self):
        worker = Worker("w", node_name="n", cpus=2)
        worker.acquire(2)
        assert worker.free_cpus == 0
        worker.release(1)
        assert worker.free_cpus == 1

    def test_over_acquire_rejected(self):
        worker = Worker("w", node_name="n", cpus=1)
        worker.acquire(1)
        with pytest.raises(WorkflowError):
            worker.acquire(1)

    def test_over_release_rejected(self):
        worker = Worker("w", node_name="n", cpus=1)
        with pytest.raises(WorkflowError):
            worker.release(1)

    def test_speed_factor_scales_time(self):
        fast = Worker("f", node_name="n", cpus=1, speed_factor=2.0)
        assert fast.execution_time(1.0) == pytest.approx(0.5)


class TestServerExecution:
    def test_all_tasks_complete(self):
        server = WorkflowServer(pool(3))
        trace = server.run(chain_and_fan())
        assert len(trace.records) == 12

    def test_makespan_at_least_critical_path(self):
        graph = chain_and_fan()
        server = WorkflowServer(pool(8))
        trace = server.run(graph)
        assert trace.makespan >= graph.critical_path_length() - 1e-9

    def test_makespan_at_most_serial(self):
        graph = chain_and_fan()
        server = WorkflowServer(pool(4))
        trace = server.run(graph)
        assert trace.makespan <= graph.total_work() + 1e-9

    def test_single_worker_serializes(self):
        graph = chain_and_fan()
        server = WorkflowServer(pool(1))
        trace = server.run(graph)
        # one worker, one slot: makespan == total work (+ staging 0,
        # data starts on the only worker)
        assert trace.makespan == pytest.approx(graph.total_work())

    def test_dependencies_respected(self):
        graph = chain_and_fan()
        server = WorkflowServer(pool(4))
        trace = server.run(graph)
        ends = {r.task: r.end for r in trace.records}
        starts = {r.task: r.start for r in trace.records}
        for index in range(1, 4):
            assert starts[f"chain{index}"] >= \
                ends[f"chain{index - 1}"] - 1e-9

    def test_parallelism_helps(self):
        graph = chain_and_fan()
        slow = WorkflowServer(pool(1)).run(graph)
        fast = WorkflowServer(pool(4)).run(graph)
        assert fast.makespan < slow.makespan

    def test_faster_worker_preferred_by_blevel(self):
        graph = chain_and_fan()
        workers = [
            Worker("slow", node_name="a", cpus=1, speed_factor=1.0),
            Worker("fast", node_name="b", cpus=1, speed_factor=4.0),
        ]
        server = WorkflowServer(workers, policy=BLevelScheduler())
        trace = server.run(graph)
        counts = trace.per_worker_counts()
        assert counts.get("fast", 0) >= counts.get("slow", 0)

    def test_utilization_bounds(self):
        graph = chain_and_fan()
        server = WorkflowServer(pool(2))
        trace = server.run(graph)
        utilization = trace.utilization(server.total_slots())
        assert 0.0 < utilization <= 1.0

    def test_empty_worker_pool_rejected(self):
        with pytest.raises(WorkflowError):
            WorkflowServer([])

    @pytest.mark.parametrize("engine", [WorkflowServer, ResilientServer],
                             ids=lambda engine: engine.__name__)
    def test_duplicate_worker_names_rejected(self, engine):
        with pytest.raises(WorkflowError, match="must be unique"):
            engine([
                Worker("w", node_name="a"), Worker("w", node_name="b"),
            ])


class TestPolicies:
    def test_factory(self):
        assert isinstance(make_policy("fifo"), FIFOScheduler)
        assert isinstance(make_policy("b-level"), BLevelScheduler)
        assert isinstance(make_policy("locality"), LocalityScheduler)
        with pytest.raises(ValueError):
            make_policy("round-robin")

    def test_blevel_beats_fifo_on_adversarial_graph(self):
        """FIFO picks short leaves first and delays the critical chain."""
        graph = TaskGraph("adversarial")
        graph.add_object(DataObject("in"))
        # leaves first so FIFO grabs them before the chain
        for index in range(6):
            graph.add_task(WorkflowTask(
                f"leaf{index}", inputs=["in"],
                outputs=[f"l{index}"], duration_s=1.0,
            ))
        previous = "in"
        for index in range(3):
            graph.add_task(WorkflowTask(
                f"chain{index}", inputs=[previous],
                outputs=[f"c{index}"], duration_s=2.0,
            ))
            previous = f"c{index}"
        fifo = WorkflowServer(pool(2), policy=FIFOScheduler()).run(graph)
        blevel = WorkflowServer(pool(2),
                                policy=BLevelScheduler()).run(graph)
        assert blevel.makespan <= fifo.makespan

    def test_locality_reduces_movement_on_ecosystem(self):
        eco = build_reference_ecosystem()
        graph = TaskGraph("edge-data")
        graph.add_object(DataObject("sensor", size_bytes=10**6,
                                    locality="edge-0"))
        for index in range(4):
            graph.add_task(WorkflowTask(
                f"t{index}", inputs=["sensor"],
                outputs=[f"o{index}"], duration_s=0.01,
            ))

        def workers():
            return [
                Worker("edge-w", node_name="edge-0", cpus=4),
                Worker("cloud-w", node_name="power9-0", cpus=4),
            ]

        fifo = WorkflowServer(
            workers(), ecosystem=eco, policy=FIFOScheduler()
        ).run(graph)
        locality = WorkflowServer(
            workers(), ecosystem=eco, policy=LocalityScheduler()
        ).run(graph)
        assert locality.bytes_moved <= fifo.bytes_moved
        assert locality.total_transfer_seconds() <= \
            fifo.total_transfer_seconds() + 1e-9

    def test_trace_wait_accounting(self):
        graph = chain_and_fan()
        trace = WorkflowServer(pool(1)).run(graph)
        assert trace.average_wait() > 0.0
