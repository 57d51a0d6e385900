"""Tests of the benchmark's own machinery.

Run from the checkout root with ``PYTHONPATH=src python -m pytest
perfbench``. They check that a seed fixes the inputs, that every output
check rejects a wrong output, and that self time is computed correctly
on a synthetic span tree.
"""

from __future__ import annotations

import itertools
import os
import random
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# -- the same seed gives the same inputs ---------------------------------


def _pipelines(seed, stream=0, count=45):
    return [
        (spec.name, [k.source for k in spec.kernels], spec.wiring)
        for spec in itertools.islice(
            workloads.pipeline_stream(seed, stream), count)
    ]


def _chunks(seed, count=5):
    return list(itertools.islice(workloads.job_chunks(seed), count))


def test_same_seed_same_pipelines():
    assert _pipelines(7) == _pipelines(7)
    assert _pipelines(7) != _pipelines(8)
    assert _pipelines(7, stream=1) != _pipelines(7, stream=0)


def test_same_seed_same_warm_set_and_jobs():
    first = [(name, [k.source for k in ks])
             for name, ks in workloads.warm_specs(3)]
    again = [(name, [k.source for k in ks])
             for name, ks in workloads.warm_specs(3)]
    assert first == again
    assert _chunks(3) == _chunks(3)
    assert _chunks(3) != _chunks(4)
    order = workloads.warm_order(3, 0, 6)
    assert sorted(next(order) for _ in range(6)) == list(range(6))


def test_pipeline_mix_is_stratified():
    specs = list(itertools.islice(workloads.pipeline_stream(11), 40))
    sizes = sorted(spec.statements for spec in specs)
    assert sizes[0] <= 3 and sizes[-1] >= 150  # heavy-tailed
    assert sum(spec.sensitive for spec in specs) == 12  # 30%
    assert any(len(spec.kernels) > 1 for spec in specs)
    assert any(k.matmul for spec in specs for k in spec.kernels)


def test_every_durable_job_has_a_plain_twin():
    for chunk in _chunks(5):
        kinds = [kind for _name, kind, _spec in chunk]
        assert len(chunk) == workloads.CHUNK and kinds.count("noop") == 15
        plain = [spec for _n, kind, spec in chunk
                 if kind == "chaos" and not spec.get("durable")]
        for _name, kind, spec in chunk:
            if spec.get("durable"):
                assert dict(spec, durable=False) != spec
                assert {k: v for k, v in spec.items()
                        if k != "durable"} in plain


# -- each output check rejects a wrong output ----------------------------


def test_kernel_check_rejects_wrong_output():
    rng = np.random.default_rng(0)
    spec = next(workloads.pipeline_stream(2))
    kernel = spec.kernels[0]
    arrays = kernel.inputs(rng)
    expected = kernel.reference(*arrays)
    assert checks.check_kernel_output("k", expected.astype(np.float32),
                                      expected) is None
    wrong = expected.copy()
    wrong.flat[0] += 0.01
    assert checks.check_kernel_output("k", wrong, expected)
    assert checks.check_kernel_output("k", expected[:-1], expected)
    broken = expected.copy()
    broken.flat[0] = np.nan
    assert checks.check_kernel_output("k", broken, expected)


def test_deployment_check_rejects_missing_task():
    assert checks.check_deployment(["a", "b"], ["b", "a"]) is None
    assert checks.check_deployment(["a", "b"], ["a"])


def _job(name, kind, spec, result, state="done"):
    return {"name": name, "kind": kind, "spec": spec, "state": state,
            "result": result}


def _good_jobs():
    spec = {"graph_seed": 1, "fault_seed": 2, "tasks": 9, "workers": 3}
    noop = {"n": 1, "payload": 5}
    return [
        _job("n", "noop", noop, {"digest": checks.noop_digest(noop)}),
        _job("g", "graph", {"seed": 3}, {"digest": "x", "makespan": 2.0}),
        _job("c", "chaos", spec, {"digest": "abc", "makespan": 3.0}),
        _job("d", "chaos", dict(spec, durable=True),
             {"digest": "abc", "makespan": 3.0}),
    ]


def test_job_checks_accept_right_outputs():
    assert checks.check_jobs(_good_jobs(), {"g": 2.0, "c": 1.0}) == []


@pytest.mark.parametrize("job, field, value", [
    (0, "state", "failed"),
    (0, "result", {"digest": "0" * 16}),
    (3, "result", {"digest": "abd", "makespan": 3.0}),
    (1, "result", {"digest": "x", "makespan": 1.5}),
])
def test_job_checks_reject_wrong_outputs(job, field, value):
    jobs = _good_jobs()
    jobs[job][field] = value
    failures = checks.check_jobs(jobs, {"g": 2.0, "c": 1.0})
    assert [reason.split(":")[0] for reason in failures] == [
        jobs[job]["name"]]


def test_noop_digest_matches_the_canonical_spec_hash():
    import hashlib

    text = '{"a":1,"b":[2,3]}'
    assert checks.noop_digest({"b": [2, 3], "a": 1}) == hashlib.sha256(
        text.encode()).hexdigest()[:16]


def test_critical_path():
    durations = {"a": 1.0, "b": 2.0, "c": 0.5, "d": 1.0}
    deps = {"b": ["a"], "c": ["a"], "d": ["b", "c"]}
    assert checks.critical_path(durations, deps) == pytest.approx(4.0)


# -- self time on a synthetic span tree ----------------------------------


def test_self_time_subtracts_covered_child_time():
    # root [0, 10]: children A [1, 4] and B [3, 6] overlap, C [9, 12]
    # overhangs the root; A has child A1 [2, 3]; B has none.
    parent = [-1, 0, 0, 0, 1]
    start = [0.0, 1.0, 3.0, 9.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    own = spans.self_times(parent, start, end)
    # root covered by [1, 6] and [9, 10] -> 10 - 6
    assert own.tolist() == pytest.approx([4.0, 2.0, 3.0, 3.0, 1.0])


def test_self_time_of_leaves_and_nested_same_layer():
    parent = [-1, 0, 1, -1]
    start = [0.0, 0.0, 0.5, 5.0]
    end = [2.0, 1.0, 1.0, 5.5]
    own = spans.self_times(parent, start, end)
    assert own.tolist() == pytest.approx([1.0, 0.5, 0.5, 0.5])


def test_layer_metrics_from_a_recorded_log():
    ticks = iter(range(100))
    log = spans.SpanLog(clock=lambda: float(next(ticks)))
    root = log.name_id(spans.ROOT)
    parse = log.name_id("core.dsl|parse")
    dse = log.name_id("core.dse|Explorer.run")
    put = log.name_id("core.dse|CostCache.put")
    for _request in range(2):
        r = log.open(root)            # t
        p = log.open(parse)           # t+1
        log.close(p)                  # t+2
        d = log.open(dse)             # t+3
        c = log.open(put)             # t+4
        log.close(c)                  # t+5
        log.close(d)                  # t+6
        log.close(r)                  # t+7
    log.count("core.dse.cost.lookups", 4)
    log.count("core.dse.cost.hits", 1)
    arrays = (np.array(log.name), np.array(log.parent),
              np.array(log.start), np.array(log.end))
    metrics, layers = spans.layer_metrics(log.names, *arrays, log.counts, 2)
    assert metrics["core.dsl.parses"] == 1
    assert metrics["core.dsl.self_ms"] == pytest.approx(1e3)
    assert metrics["core.dse.self_ms"] == pytest.approx(3e3)
    assert metrics["core.dse.cache_store_ms"] == pytest.approx(1e3)
    assert metrics["core.dse.cost_hit_ratio"] == pytest.approx(0.25)
    assert metrics["bench.unattributed_ms"] == pytest.approx(3e3)
    assert sum(layers.values()) == pytest.approx(7e3)
    assert set(metrics) | {"bench.trace_overhead_ratio"} == set(
        spans.PER_LAYER_UNITS)


def test_install_wraps_methods_and_functions_and_restores_them(tmp_path):
    import types

    module = types.ModuleType("repro_perfbench_fake")

    class Engine:
        def run(self, n):
            return helper(n) + 1

    def helper(n):
        return n * 2

    module.Engine, module.helper = Engine, helper
    original_run = Engine.run
    sys.modules[module.__name__] = module
    try:
        log = spans.SpanLog()
        patches = spans.install(log, (
            ("workflow", module.__name__, "Engine.run"),
            ("chaos", module.__name__, "!helper"),
        ))
        Engine.run(Engine(), 1)  # outside a request: not recorded
        assert len(log.start) == 0
        root = log.open(log.name_id(spans.ROOT))
        assert Engine().run(3) == 7
        assert module.helper(1) == 2
        log.close(root)
        assert [log.names[i] for i in log.name] == [
            spans.ROOT, "workflow|Engine.run", "chaos|helper"]
        assert list(log.parent) == [-1, 0, 0]
        path = str(tmp_path / "spans.npz")
        log.save(path)
        names, *_rest, counts = spans.load(path)
        assert names == log.names and counts == {}
        patches.remove()
        assert vars(Engine)["run"] is original_run
        assert module.helper is helper
    finally:
        del sys.modules[module.__name__]


# -- the compile checks against the real program -------------------------


def test_compile_check_passes_and_rejects_a_wrong_reference(tmp_path):
    pytest.importorskip("repro")
    import argparse
    import dataclasses

    import child

    args = argparse.Namespace(workload="compile-cold", seed=1, stream=0,
                              streams=1, work=str(tmp_path))
    runner = child.CompileCold(args)
    runner.setup()
    spec = workloads.make_pipeline(random.Random(0), "t", "multi", 5, True)
    output = runner.request(spec)
    assert runner.check(0, spec, output) == []
    wrong = dataclasses.replace(
        spec, kernels=[dataclasses.replace(spec.kernels[0], chain=[
            ("tanh", 2, 2)] + spec.kernels[0].chain)] + spec.kernels[1:])
    assert runner.check(0, wrong, output)


# -- garbage collection between requests ---------------------------------


def test_settle_freezes_survivors_and_still_frees_old_cycles():
    import gc
    import weakref

    import child

    class Node:
        pass

    try:
        child.settle()
        assert gc.get_freeze_count() > 0
        # a cycle that survives one settle is frozen, then dies
        node = Node()
        node.self = node
        alive = weakref.ref(node)
        child.settle()
        del node
        for _ in range(child.FULL_COLLECT_EVERY):
            child.settle()
        assert alive() is None
    finally:
        gc.unfreeze()
