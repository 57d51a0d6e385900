"""Tests for crash recovery and lineage re-execution."""

import pytest

from repro.chaos.faults import WorkerCrash
from repro.chaos.schedule import ChaosSchedule
from repro.errors import WorkflowError
from repro.workflow.graph import DataObject, TaskGraph, WorkflowTask
from repro.workflow.recovery import ResilientServer
from repro.workflow.worker import Worker


def chain_graph(length=4, duration=1.0) -> TaskGraph:
    graph = TaskGraph("chain")
    graph.add_object(DataObject("in", size_bytes=1000, locality="w0"))
    previous = "in"
    for index in range(length):
        graph.add_task(WorkflowTask(
            f"t{index}", inputs=[previous], outputs=[f"o{index}"],
            duration_s=duration,
        ))
        previous = f"o{index}"
    return graph


def fan_graph(width=6) -> TaskGraph:
    graph = TaskGraph("fan")
    graph.add_object(DataObject("in", size_bytes=1000, locality="w0"))
    for index in range(width):
        graph.add_task(WorkflowTask(
            f"leaf{index}", inputs=["in"], outputs=[f"l{index}"],
            duration_s=1.0,
        ))
    graph.add_task(WorkflowTask(
        "join", inputs=[f"l{index}" for index in range(width)],
        outputs=["out"], duration_s=0.5,
    ))
    return graph


def crashes(*faults) -> ChaosSchedule:
    """Permanent crashes of ``(worker, at_time)`` pairs."""
    return ChaosSchedule(seed=0, faults=[
        WorkerCrash(worker=worker, at_time=at_time)
        for worker, at_time in faults
    ])


def pool(count=3):
    return [
        Worker(f"w{index}", node_name=f"n{index}", cpus=2)
        for index in range(count)
    ]


class TestNoFailures:
    def test_matches_plain_server_semantics(self):
        graph = fan_graph()
        trace, stats = ResilientServer(pool()).run(graph)
        assert len(trace.records) == 7
        assert stats.failures == 0
        assert stats.tasks_requeued == 0
        plain, _ = ResilientServer(pool()).run(fan_graph())
        # same work completes; makespans comparable
        assert trace.makespan == pytest.approx(plain.makespan,
                                               rel=0.5)

    def test_all_tasks_complete(self):
        graph = chain_graph()
        trace, _stats = ResilientServer(pool()).run(graph)
        assert {r.task for r in trace.records} == set(graph.tasks)


class TestCrashRecovery:
    def test_running_task_requeued(self):
        graph = chain_graph(length=3, duration=2.0)
        server = ResilientServer(pool(2))
        trace, stats = server.run(
            graph, chaos=crashes(("w0", 1.0))
        )
        assert stats.failures == 1
        # the mid-flight task was re-run elsewhere
        assert stats.tasks_requeued + stats.tasks_relineaged >= 1
        executed_workers = {r.worker for r in trace.records}
        assert "w0" not in executed_workers or all(
            r.end <= 1.0 + 1e-9 for r in trace.records
            if r.worker == "w0"
        )
        assert {r.task for r in trace.records} >= set(graph.tasks)

    def test_lost_intermediate_recomputed_via_lineage(self):
        # kill the worker after it produced o0/o1 but before the end
        graph = chain_graph(length=4, duration=1.0)
        server = ResilientServer(pool(2))
        trace, stats = server.run(
            graph, chaos=crashes(("w0", 2.5))
        )
        completed = {r.task for r in trace.records}
        assert completed >= set(graph.tasks)
        # some producer ran twice (lineage re-execution) or the input
        # was re-fetched
        assert stats.objects_lost >= 1
        assert stats.tasks_relineaged + stats.inputs_refetched >= 1

    def test_external_input_refetched(self):
        # kill the input's home before any other worker finished
        # staging a copy: the only copy dies and must be re-fetched
        # from durable storage
        graph = fan_graph()
        server = ResilientServer(pool(3))
        trace, stats = server.run(
            graph, chaos=crashes(("w0", 0.0005))
        )
        assert {r.task for r in trace.records} >= set(graph.tasks)
        assert stats.objects_lost >= 1
        assert stats.inputs_refetched >= 1

    def test_surviving_copy_avoids_refetch(self):
        # by 0.5 s every worker staged a copy of the input: losing the
        # home costs nothing
        graph = fan_graph()
        server = ResilientServer(pool(3))
        trace, stats = server.run(
            graph, chaos=crashes(("w0", 0.5))
        )
        assert {r.task for r in trace.records} >= set(graph.tasks)
        assert stats.objects_lost == 0
        assert stats.inputs_refetched == 0

    def test_makespan_degrades_gracefully(self):
        graph = fan_graph(width=8)
        clean, _ = ResilientServer(pool(3)).run(fan_graph(width=8))
        crashed, stats = ResilientServer(pool(3)).run(
            graph, chaos=crashes(("w1", 0.5))
        )
        assert stats.failures == 1
        assert crashed.makespan >= clean.makespan
        # but not catastrophically: bounded by a serial re-run
        assert crashed.makespan < graph.total_work() * 2

    def test_all_workers_dead_raises(self):
        graph = chain_graph(length=3, duration=5.0)
        server = ResilientServer(pool(2))
        with pytest.raises(WorkflowError, match="all workers failed"):
            server.run(graph, chaos=crashes(("w0", 1.0), ("w1", 1.5)))

    def test_unknown_worker_failure_rejected(self):
        server = ResilientServer(pool(2))
        with pytest.raises(WorkflowError, match="unknown worker"):
            server.run(
                chain_graph(),
                chaos=crashes(("ghost", 0.1)),
            )

    def test_two_failures_survived(self):
        graph = fan_graph(width=10)
        server = ResilientServer(pool(4))
        trace, stats = server.run(
            graph, chaos=crashes(("w0", 0.4), ("w3", 1.2))
        )
        assert stats.failures == 2
        assert {r.task for r in trace.records} >= set(graph.tasks)


class TestEdgeCases:
    def test_crash_loses_only_copy_of_multi_consumer_object(self):
        """The producer's worker dies holding the sole copy of an
        object three consumers need: lineage must re-run the producer
        and every consumer must still complete."""
        graph = TaskGraph("multi-consumer")
        graph.add_object(DataObject("in", size_bytes=1000,
                                    locality="w0"))
        graph.add_task(WorkflowTask(
            "producer", inputs=["in"], outputs=["shared"],
            duration_s=1.0,
        ))
        # big enough that consumers are still staging at crash time
        graph.set_object_size("shared", 10**8)
        for index in range(3):
            graph.add_task(WorkflowTask(
                f"consumer{index}", inputs=["shared"],
                outputs=[f"r{index}"], duration_s=1.0,
            ))
        trace, stats = ResilientServer(pool(3)).run(
            graph,
            chaos=ChaosSchedule(seed=0, faults=[
                WorkerCrash("w0", at_time=1.05),
            ]),
        )
        assert {r.task for r in trace.records} == set(graph.tasks)
        assert stats.objects_lost >= 1
        assert stats.tasks_relineaged >= 1
        # the producer ran once before the crash and once for lineage
        assert len([
            r for r in trace.records if r.task == "producer"
        ]) >= 2

    def test_crash_during_final_sink_task(self):
        """The worker running the last task of the chain dies
        mid-flight: the sink is re-executed on the survivor."""
        graph = chain_graph(length=2, duration=1.0)
        trace, stats = ResilientServer(pool(2)).run(
            graph, chaos=crashes(("w0", 1.5))
        )
        assert {r.task for r in trace.records} == set(graph.tasks)
        sink_records = [r for r in trace.records if r.task == "t1"]
        # the aborted attempt leaves no record; the retry ran on the
        # survivor after the crash
        assert len(sink_records) == 1
        assert sink_records[0].worker == "w1"
        assert sink_records[0].start > 1.5

    def test_two_workers_crash_at_same_timestamp(self):
        def run_once():
            graph = fan_graph(width=8)
            return ResilientServer(pool(3)).run(
                graph,
                chaos=ChaosSchedule(seed=0, faults=[
                    WorkerCrash("w0", at_time=0.5),
                    WorkerCrash("w1", at_time=0.5),
                ]),
            )

        trace, stats = run_once()
        assert stats.failures == 2
        assert {r.task for r in trace.records} >= {
            f"leaf{index}" for index in range(8)
        }
        assert all(
            r.worker == "w2" for r in trace.records if r.end > 0.5
        )
        crash_times = [
            f.time for f in trace.faults if f.kind == "worker-crash"
        ]
        assert crash_times == [0.5, 0.5]
        # same-timestamp crashes resolve deterministically
        replay, _stats = run_once()
        assert replay.to_json() == trace.to_json()

