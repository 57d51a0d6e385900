"""Cross-cutting property-based tests (hypothesis).

Invariants that must hold for *any* input, exercised with generated
workloads: scheduling bounds on random DAGs, print/parse round-trips
on random DSL programs, Pareto-front laws, and physical-model
monotonicities.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dse.pareto import pareto_front
from repro.core.dsl.kernel_dsl import compile_kernel
from repro.core.ir import parse_module, print_module, verify
from repro.core.variants import CostEstimate, Variant, VariantKnobs
from repro.utils.rng import deterministic_rng
from repro.workflow.graph import DataObject, TaskGraph, WorkflowTask
from repro.workflow.recovery import ResilientServer
from repro.workflow.scheduler import make_policy
from repro.workflow.worker import Worker

# ----------------------------------------------------------------------
# random DAG scheduling invariants
# ----------------------------------------------------------------------


@st.composite
def random_dag(draw):
    """A random layered DAG with 3-14 tasks."""
    num_tasks = draw(st.integers(min_value=3, max_value=14))
    durations = draw(st.lists(
        st.floats(min_value=0.05, max_value=3.0),
        min_size=num_tasks, max_size=num_tasks,
    ))
    graph = TaskGraph("random")
    graph.add_object(DataObject("in", size_bytes=1000))
    produced = ["in"]
    for index in range(num_tasks):
        max_inputs = min(3, len(produced))
        count = draw(st.integers(min_value=1, max_value=max_inputs))
        picks = draw(st.lists(
            st.integers(min_value=0, max_value=len(produced) - 1),
            min_size=count, max_size=count, unique=True,
        ))
        inputs = [produced[i] for i in picks]
        graph.add_task(WorkflowTask(
            f"t{index}", inputs=inputs, outputs=[f"o{index}"],
            duration_s=durations[index],
        ))
        produced.append(f"o{index}")
    return graph


@settings(max_examples=25, deadline=None)
@given(random_dag(), st.integers(min_value=1, max_value=4),
       st.sampled_from(["fifo", "b-level", "locality"]))
def test_property_makespan_bounds(graph, workers, policy_name):
    """critical path <= makespan <= total work + staging."""
    server = ResilientServer(
        [Worker(f"w{i}", node_name=f"n{i}", cpus=1)
         for i in range(workers)],
        policy=make_policy(policy_name),
    )
    trace, _ = server.run(graph)
    assert len(trace.records) == len(graph.tasks)
    assert trace.makespan >= graph.critical_path_length() - 1e-9
    slack = trace.total_transfer_seconds() + 1e-9
    assert trace.makespan <= graph.total_work() + slack


@settings(max_examples=25, deadline=None)
@given(random_dag())
def test_property_dependencies_never_violated(graph):
    server = ResilientServer(
        [Worker("w0", node_name="n0", cpus=2),
         Worker("w1", node_name="n1", cpus=2)],
    )
    trace, _ = server.run(graph)
    ends = {record.task: record.end for record in trace.records}
    starts = {record.task: record.start for record in trace.records}
    for task_name in graph.tasks:
        for dependency in graph.dependencies(task_name):
            assert starts[task_name] >= ends[dependency] - 1e-9


@settings(max_examples=25, deadline=None)
@given(random_dag())
def test_property_blevel_dominates_duration(graph):
    levels = graph.b_levels()
    for name, task in graph.tasks.items():
        assert levels[name] >= task.duration_s - 1e-12


# ----------------------------------------------------------------------
# random DSL programs round-trip and execute consistently
# ----------------------------------------------------------------------

_UNARY = ["relu", "exp", "tanh", "sigmoid"]
_BINOPS = ["+", "-", "*"]


@st.composite
def random_kernel(draw):
    """A random single-kernel DSL program over one 1-D shape."""
    size = draw(st.sampled_from([4, 8, 16]))
    num_statements = draw(st.integers(min_value=1, max_value=5))
    names = ["A", "B"]
    lines = []
    for index in range(num_statements):
        kind = draw(st.integers(min_value=0, max_value=2))
        lhs = draw(st.sampled_from(names))
        if kind == 0:
            rhs = draw(st.sampled_from(names))
            op = draw(st.sampled_from(_BINOPS))
            expr = f"{lhs} {op} {rhs}"
        elif kind == 1:
            fn = draw(st.sampled_from(_UNARY))
            expr = f"{fn}({lhs})"
        else:
            literal = draw(st.floats(min_value=-2.0, max_value=2.0))
            expr = f"{lhs} * {literal:.3f}"
        new_name = f"v{index}"
        lines.append(f"  {new_name} = {expr}")
        names.append(new_name)
    result = names[-1]
    src = (
        f"kernel gen(A: tensor<{size}xf32>, B: tensor<{size}xf32>)"
        f" -> tensor<{size}xf32> {{\n"
        + "\n".join(lines)
        + f"\n  return {result}\n}}"
    )
    return src, size


@settings(max_examples=30, deadline=None)
@given(random_kernel())
def test_property_text_roundtrip_random_kernels(kernel):
    src, _size = kernel
    module = compile_kernel(src)
    text = print_module(module)
    reparsed = parse_module(text)
    verify(reparsed)
    assert print_module(reparsed) == text


@settings(max_examples=15, deadline=None)
@given(random_kernel())
def test_property_lowering_preserves_semantics(kernel):
    from repro.core.ir.interp import Interpreter, run_function
    from repro.core.ir.passes import (
        CanonicalizePass,
        ElementwiseFusionPass,
        LowerTensorPass,
        PassManager,
    )

    src, size = kernel
    rng = deterministic_rng("prop-lower", src)
    a = rng.normal(size=size).astype(np.float32)
    b = rng.normal(size=size).astype(np.float32)

    tensor_module = compile_kernel(src)
    expected = run_function(tensor_module, "gen", a, b)[0]

    lowered = compile_kernel(src)
    manager = PassManager()
    manager.add(ElementwiseFusionPass())
    manager.add(LowerTensorPass())
    manager.add(CanonicalizePass())
    manager.run(lowered)
    out = np.zeros(size, np.float32)
    Interpreter(lowered).run("gen", a, b, out)
    assert np.allclose(out, expected, atol=1e-3, equal_nan=True)


# ----------------------------------------------------------------------
# Pareto laws
# ----------------------------------------------------------------------

costs = st.tuples(
    st.floats(min_value=1e-9, max_value=1.0),
    st.floats(min_value=1e-9, max_value=1.0),
)


def _variants(points):
    return [
        Variant(kernel="k", knobs=VariantKnobs(),
                cost=CostEstimate(latency_s=l, energy_j=e))
        for l, e in points
    ]


@settings(max_examples=50, deadline=None)
@given(st.lists(costs, min_size=1, max_size=20))
def test_property_front_members_not_dominated(points):
    variants = _variants(points)
    front = pareto_front(variants)
    assert front
    for member in front:
        assert not any(
            other.cost.dominates(member.cost) for other in variants
        )


@settings(max_examples=50, deadline=None)
@given(st.lists(costs, min_size=1, max_size=20))
def test_property_front_idempotent(points):
    variants = _variants(points)
    front = pareto_front(variants)
    assert pareto_front(front) == front


@settings(max_examples=50, deadline=None)
@given(st.lists(costs, min_size=2, max_size=20))
def test_property_front_invariant_to_order(points):
    forward = pareto_front(_variants(points))
    backward = pareto_front(_variants(list(reversed(points))))
    as_set = {
        (round(v.cost.latency_s, 12), round(v.cost.energy_j, 12))
        for v in forward
    }
    as_set_b = {
        (round(v.cost.latency_s, 12), round(v.cost.energy_j, 12))
        for v in backward
    }
    assert as_set == as_set_b


# ----------------------------------------------------------------------
# physical model monotonicities
# ----------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=1.0, max_value=10.0),
       st.floats(min_value=500.0, max_value=8000.0))
def test_property_plume_decays_downwind_far_field(wind, distance):
    from repro.apps.airquality.emissions import EmissionSource
    from repro.apps.airquality.plume import (
        GaussianPlume,
        StabilityClass,
    )

    source = EmissionSource("s", 0, 0, 50.0, 100.0)
    plume = GaussianPlume(source, wind, 0.0, StabilityClass.D)
    near = plume.concentration(
        np.array([distance]), np.array([0.0])
    )[0]
    far = plume.concentration(
        np.array([distance * 2.0]), np.array([0.0])
    )[0]
    # beyond the concentration peak, doubling distance reduces C
    if near > 0 and distance > 1500.0:
        assert far <= near * 1.05


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=3000.0),
       st.floats(min_value=100.0, max_value=2000.0))
def test_property_bpr_monotone_in_volume(volume, capacity):
    from repro.apps.traffic.simulator import bpr_time

    base = bpr_time(10.0, volume, capacity)
    more = bpr_time(10.0, volume + 100.0, capacity)
    assert more >= base
    assert base >= 10.0 - 1e-9


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=40.0))
def test_property_power_curve_bounded(wind):
    from repro.apps.weather.wind import power_curve

    value = power_curve(np.array([wind]))[0]
    assert 0.0 <= value <= 1.0
