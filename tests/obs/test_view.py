"""ExecutionTrace as a view over the tracer: digest regression.

The engine emits tracer events and derive the ``ExecutionTrace``
from them. These tests pin the two compatibility promises: chaos
digests are unaffected by whether an observation session is installed,
and traced replays of the same seeds are byte-identical.
"""

from repro.chaos import ChaosConfig, generate_schedule, random_task_graph
from repro.obs import (
    LogicalClock,
    Tracer,
    observe,
    session,
    validate_chrome_trace,
)
from repro.workflow.recovery import ResilientServer
from repro.workflow.tracing import (
    FAULT_CATEGORY,
    RECOVERY_CATEGORY,
    TASK_CATEGORY,
    ExecutionTrace,
)

from tests.chaos.conftest import make_pool

CONFIG = ChaosConfig(crashes=1, link_faults=1, reconfig_faults=1,
                     stragglers=1, task_faults=1)


def chaos_run(graph_seed: int = 3, fault_seed: int = 7):
    graph = random_task_graph(graph_seed, num_tasks=10)
    pool = make_pool(3)
    schedule = generate_schedule(
        graph, [w.name for w in pool], fault_seed, CONFIG
    )
    return ResilientServer(pool).run(graph, chaos=schedule)


class TestFromTracer:
    def test_maps_categories_to_records(self):
        tracer = Tracer(clock=LogicalClock(), process="w")
        tracer.complete(
            "t1", 0.0, 1.0, category=TASK_CATEGORY, track="w0",
            task="t1", worker="w0", ready_at=0.0, start=0.0, end=1.0,
            transfer_seconds=0.25, bytes_moved=64,
        )
        tracer.instant(
            "worker-crash", category=FAULT_CATEGORY,
            kind="worker-crash", target="w0", time=0.5, detail="",
        )
        tracer.instant(
            "retry", category=RECOVERY_CATEGORY,
            action="retry", target="t1", time=0.6, detail="attempt 2",
        )
        tracer.instant("noise", category="workflow.sched")
        trace = ExecutionTrace.from_tracer(tracer, "g", "p")
        assert len(trace.records) == 1
        assert trace.records[0].task == "t1"
        assert trace.records[0].bytes_moved == 64
        assert trace.makespan == 1.0
        assert trace.faults_by_kind() == {"worker-crash": 1}
        assert trace.recoveries_by_action() == {"retry": 1}

    def test_plain_server_trace_matches_view(self):
        from repro.workflow.graph import (
            DataObject,
            TaskGraph,
            WorkflowTask,
        )

        graph = TaskGraph("g")
        graph.add_object(DataObject("in", size_bytes=8))
        graph.add_task(WorkflowTask(
            "t", inputs=["in"], outputs=["out"], duration_s=0.1,
        ))
        trace, _ = ResilientServer(make_pool(2)).run(graph)
        assert [r.task for r in trace.records] == ["t"]
        assert trace.makespan > 0


class TestDigestRegression:
    def test_digest_same_with_and_without_session(self):
        """Installing an observation session must not change the
        serialized execution trace."""
        baseline, _ = chaos_run()
        with observe(session(deterministic=True)):
            observed, _ = chaos_run()
        assert observed.to_json() == baseline.to_json()
        assert observed.digest() == baseline.digest()

    def test_replay_digest_deterministic(self):
        first, _ = chaos_run()
        second, _ = chaos_run()
        assert first.to_json() == second.to_json()

    def test_traced_replays_byte_identical(self):
        """The exported Chrome trace of a seeded chaos run is itself
        byte-identical across replays."""

        def traced() -> str:
            obs = session(deterministic=True)
            with observe(obs):
                chaos_run()
            return obs.tracer.to_json()

        assert traced() == traced()

    def test_chaos_trace_is_valid_chrome_json(self):
        import json

        obs = session(deterministic=True)
        with observe(obs):
            chaos_run()
        trace = json.loads(obs.tracer.to_json())
        assert validate_chrome_trace(trace) == []
        # the run's faults and recoveries appear as instants
        phases = {e["ph"] for e in trace["traceEvents"]}
        assert {"X", "i", "M"} <= phases


class TestExtraDetail:
    def test_session_receives_scheduler_and_fault_lanes(self):
        obs = session(deterministic=True)
        with observe(obs):
            trace, _ = chaos_run()
        categories = {e.category for e in obs.tracer.events}
        assert TASK_CATEGORY in categories
        assert "workflow.sched" in categories
        if trace.faults:
            assert FAULT_CATEGORY in categories

    def test_explicit_tracer_argument_wins(self):
        explicit = Tracer(clock=LogicalClock(), process="mine")
        graph = random_task_graph(1, num_tasks=6)
        pool = make_pool(2)
        schedule = generate_schedule(
            graph, [w.name for w in pool], 1, CONFIG
        )
        ResilientServer(pool).run(
            graph, chaos=schedule, tracer=explicit
        )
        assert any(
            e.category == TASK_CATEGORY for e in explicit.events
        )

    def test_metrics_accumulate_task_counts(self):
        obs = session(deterministic=True)
        with observe(obs):
            trace, _ = chaos_run()
        executed = obs.metrics.counter("workflow.tasks_executed")
        assert executed.total() == len(trace.records)
