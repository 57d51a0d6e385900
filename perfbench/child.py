"""One measurement process of the benchmark.

``run.py`` starts this script once per measurement, so every
measurement begins with empty process-level memos (prepared-module
LRU, digest memo, import state). It sets up one workload, runs the
closed loop (one client: each request is issued when the previous one
returns), checks outputs outside the timed region and writes a JSON
result. The amount of work is fixed by ``--budget``: the number of
whole request blocks that take that long on the reference machine (two
vCPUs), so both sides of a comparison measure the same requests. With
``--trace 1`` it also wraps the program's layer entry points (see
``spans.py``) and saves the spans.

Run it through ``run.py``; it expects the checkout root as working
directory and ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import random
import resource
import sys
import time
import traceback

import numpy as np

import checks
import spans
import workloads

#: Every CHECK_EVERY-th compile request is interpreted and compared
#: with its numpy reference (the interpreter is slow; the rest get the
#: cheap deployment check only). The warm set repeats six specs, so a
#: sparser sample still checks each of them many times.
CHECK_EVERY = {"compile-cold": 3, "recompile-warm": 12}
#: Reasons kept in the result (the count covers all of them).
MAX_REASONS = 5
#: Calls to ``settle`` between two collections of the whole heap.
FULL_COLLECT_EVERY = 20


def _selected_variant(app, report, task_name, kernel):
    selection = report.selections[task_name]
    for variant in app.package.variants_for(kernel):
        if variant.knobs.describe() == selection:
            return variant
    raise LookupError(f"{task_name}: selected variant {selection} "
                      f"is not in the package")


def interpret_selected(app, report, task_name, kernel, arrays):
    """Run the deployed variant of ``kernel`` in the IR interpreter."""
    from repro.core.dse.cost_model import prepare_variant_module
    from repro.core.ir.interp import run_function

    variant = _selected_variant(app, report, task_name, kernel)
    prepared = prepare_variant_module(app.module, kernel, variant.knobs)
    result_type = app.module.find_function(kernel).type.results[0]
    out = np.zeros(result_type.shape, np.float32)
    run_function(prepared, kernel, *arrays, out)
    return out


def deployment_failure(app, report):
    """The deployment check: every pipeline task completed."""
    return checks.check_deployment(
        (task.name for task in app.pipeline.tasks),
        (record.task for record in report.trace.records),
    )


class CompileCold:
    """Distinct generated pipelines, compiled and deployed cold."""

    def __init__(self, args):
        self.args = args

    def setup(self):
        from repro.core.analysis.cache import configure_analysis_cache
        from repro.core.compiler import EverestCompiler
        from repro.core.dse import cache as dse_cache
        from repro.platform.topology import build_reference_ecosystem
        from repro.runtime.orchestrator import Orchestrator

        # the disk tiers the CLI configures, on the run's own directory
        dse_cache.configure(cache_dir=os.path.join(self.args.work, "dse"))
        configure_analysis_cache(
            cache_dir=os.path.join(self.args.work, "analysis"))
        self.compiler_type = EverestCompiler
        self.orchestrator_type = Orchestrator
        self.ecosystem = build_reference_ecosystem
        self.stream = workloads.pipeline_stream(
            self.args.seed, self.args.stream, self.args.streams)
        # one throwaway pipeline loads every lazily imported module
        warm = workloads.make_pipeline(
            random.Random(f"warmup/{self.args.seed}"),
            f"warmup{self.args.stream}", "multi", 4, True)
        self.compile(warm)

    def build(self, spec):
        from repro.core.dsl.annotations import SecurityAnnotation, Sensitivity
        from repro.core.dsl.workflow import Pipeline
        from repro.core.ir import F32, TensorType

        pipeline = Pipeline(spec.name)
        tasks = []
        for kernel, wiring in zip(spec.kernels, spec.wiring):
            inputs = []
            for (param, shape, sensitive), (origin, index) in zip(
                    kernel.params, wiring):
                if origin == "task":
                    inputs.append(tasks[index].output(0))
                    continue
                extra = {}
                if sensitive:
                    extra["security"] = SecurityAnnotation(
                        sensitivity=Sensitivity.CONFIDENTIAL)
                inputs.append(pipeline.source(
                    f"{kernel.name}_{param}", TensorType(shape, F32),
                    **extra))
            tasks.append(pipeline.task(kernel.name, kernel.source,
                                       inputs=inputs))
        pipeline.sink("out", tasks[-1].output(0))
        return pipeline

    def compile(self, spec):
        app = self.compiler_type(emit_artifacts=True).compile(
            self.build(spec))
        report = self.orchestrator_type(self.ecosystem()).deploy(app)
        return app, report

    #: requests per unit of work (one stratified block) and the unit's
    #: nominal duration on the reference machine
    block = workloads.BLOCK
    unit_seconds = 2.0

    def next_request(self):
        return next(self.stream)

    def request(self, spec):
        return self.compile(spec)

    def check(self, index, spec, output):
        """Failure reasons of one request (empty when it is right)."""
        app, report = output
        found = [deployment_failure(app, report)]
        if index % CHECK_EVERY[self.args.workload] == 0:
            rng = np.random.default_rng([self.args.seed, index])
            for kernel in spec.kernels:
                arrays = kernel.inputs(rng)
                got = interpret_selected(app, report, kernel.name,
                                         kernel.name, arrays)
                found.append(checks.check_kernel_output(
                    kernel.name, got, kernel.reference(*arrays)))
        return [reason for reason in found if reason]

    @staticmethod
    def makespan(output):
        return output[1].makespan

    def measure(self, units, log):
        """Run ``units`` blocks of requests; returns the result fields."""
        return measure_requests(self, units, log)


class RecompileWarm(CompileCold):
    """``run_traced`` over a small spec set whose caches are warm."""

    unit_seconds = 0.06  # one visit of every spec

    def setup(self):
        from repro.core.analysis.cache import configure_analysis_cache
        from repro.core.dse import cache as dse_cache
        from repro.obs.driver import run_traced

        dse_cache.configure(cache_dir=os.path.join(self.args.work, "dse"))
        configure_analysis_cache(
            cache_dir=os.path.join(self.args.work, "analysis"))
        self.run_traced = run_traced
        spec_dir = os.path.join(self.args.work, "specs")
        os.makedirs(spec_dir, exist_ok=True)
        self.references = dict(workloads.EXAMPLE_REFERENCES)
        self.paths = []
        for file_name, kernels in workloads.warm_specs(self.args.seed):
            path = os.path.join(spec_dir, file_name)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("\n".join(k.source for k in kernels))
            self.paths.append(path)
            for kernel in kernels:
                self.references[kernel.name] = kernel.reference
        self.paths.extend(workloads.WARM_EXAMPLES)
        # fill the DSE, analysis and prepared-module caches
        for _ in range(2):
            for path in self.paths:
                self.run_traced(path, clock="wall")
        self.order = workloads.warm_order(self.args.seed, self.args.stream,
                                          len(self.paths))
        self.block = len(self.paths)

    def next_request(self):
        return self.paths[next(self.order)]

    def request(self, path):
        run = self.run_traced(path, clock="wall")
        return run.app, run.report

    def check(self, index, path, output):
        app, report = output
        found = [deployment_failure(app, report)]
        if index % CHECK_EVERY[self.args.workload] == 0:
            rng = np.random.default_rng([self.args.seed, index])
            for task in app.pipeline.tasks:
                function = app.module.find_function(task.kernel)
                arrays = [
                    rng.uniform(-1.0, 1.0, size=t.shape).astype(np.float32)
                    for t in function.type.inputs
                ]
                got = interpret_selected(app, report, task.name,
                                         task.kernel, arrays)
                found.append(checks.check_kernel_output(
                    task.kernel, got,
                    self.references[task.kernel](*arrays)))
        return [reason for reason in found if reason]


_SETTLES = itertools.count()


def settle():
    """Collect garbage left by earlier requests, outside the timed region.

    Without it a full collection of the whole heap lands on whichever
    request happens to cross the threshold. The program's caches grow
    the heap to several hundred thousand objects on compile-cold, so
    those pauses (up to a few hundred ms) decide the tail percentiles
    more than the requests do. Here the previous request's garbage is
    collected and the survivors are frozen, so a collection inside a
    request only scans what that request allocated; collections its
    own allocations trigger still fall inside its timed region. Every
    ``FULL_COLLECT_EVERY``-th call thaws and collects the whole heap,
    so cyclic garbage among older objects is still freed.
    """
    if next(_SETTLES) % FULL_COLLECT_EVERY == 0:
        gc.unfreeze()
    gc.collect()
    gc.freeze()


def measure_requests(runner, units, log):
    """Closed loop over ``units`` blocks of requests; returns results."""
    latencies, makespans, reasons = [], [], []
    failed = 0
    root = log.name_id(spans.ROOT) if log else None
    busy = 0.0
    count = units * runner.block
    for index in range(count):
        item = runner.next_request()
        settle()
        span = log.open(root) if log else None
        started = time.perf_counter()
        try:
            output = runner.request(item)
        except Exception:  # noqa: BLE001 - a failed request is counted
            output = None
            error = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - started
        if log:
            log.close(span)
        busy += elapsed
        latencies.append(elapsed * 1e3)
        if output is None:
            failed += 1
            reasons.append(error)
        else:
            found = runner.check(index, item, output)
            if found:
                failed += 1
                reasons.extend(found)
            makespans.append(runner.makespan(output))
    return {
        "latencies_ms": latencies, "timed_ms": latencies,
        "busy_s": busy, "requests": count, "attempted": count,
        "failed": failed, "reasons": reasons[:MAX_REASONS],
        "makespan_s": sum(makespans),
    }


class ServiceDrain:
    """A client submitting job chunks; one launcher drains each."""

    OWNER = "bench"
    unit_seconds = 0.024  # one chunk of workloads.CHUNK jobs

    def __init__(self, args):
        self.args = args

    def setup(self):
        from repro.chaos import random_task_graph
        from repro.workflow.client import ServiceClient
        from repro.workflow.jobstore import JobSpec, JobStore
        from repro.workflow.launcher import Launcher
        from repro.workflow.runstore import RunStore

        self.job_spec = JobSpec
        self.random_task_graph = random_task_graph
        self.db = os.path.join(self.args.work, "jobs.db")
        self.client = ServiceClient(self.db)
        # a history of finished jobs, as a long-lived store has
        history = [JobSpec(f"h{index}", "noop", {"h": index})
                   for index in range(workloads.HISTORY_JOBS)]
        self.client.submit(history, owner="history")
        with JobStore(self.db) as store:
            lease = store.lease("history", workloads.HISTORY_JOBS,
                                ttl_s=3600.0)
            for job in lease.jobs:
                store.complete(job.id, lease.lease_id,
                               {"digest": checks.noop_digest(job.spec)})
        self.launcher = Launcher(
            self.db, launcher_id="bench-launcher",
            run_store=RunStore(os.path.join(self.args.work, "runs")))
        # one throwaway chunk loads every lazily imported module
        chunk = next(workloads.job_chunks(self.args.seed, 99))
        self.drain(chunk, owner="warmup")
        self.chunks = workloads.job_chunks(self.args.seed, self.args.stream)

    def drain(self, chunk, owner=OWNER):
        self.client.submit(
            [self.job_spec(name, kind, spec) for name, kind, spec in chunk],
            owner=owner)
        self.launcher.run(exit_on_idle=True)

    def measure(self, units, log):
        """Submit and drain ``units`` chunks; returns the result fields."""
        root = log.name_id(spans.ROOT) if log else None
        timed, errors = [], []
        busy = 0.0
        for _unit in range(units):
            chunk = next(self.chunks)
            settle()
            span = log.open(root) if log else None
            started = time.perf_counter()
            try:
                self.drain(chunk)
            except Exception:  # noqa: BLE001 - counted via job states
                errors.append(traceback.format_exc(limit=3))
            elapsed = time.perf_counter() - started
            if log:
                log.close(span)
            busy += elapsed
            timed.append(elapsed * 1e3)
        return self.collect(timed, busy, errors)

    def collect(self, timed, busy, errors):
        """Read every job back from the store and check it."""
        records = self.client.jobs(owner=self.OWNER, limit=10 ** 9)
        jobs = [{"name": r.name, "kind": r.kind, "spec": r.spec,
                 "state": r.state, "result": r.result} for r in records]
        critical = {}
        for job in jobs:
            if job["kind"] == "noop":
                continue
            spec = job["spec"]
            seed = spec["seed"] if job["kind"] == "graph" else spec["graph_seed"]
            graph = self.random_task_graph(int(seed),
                                           num_tasks=int(spec["tasks"]))
            critical[job["name"]] = checks.critical_path(
                {n: t.duration_s for n, t in graph.tasks.items()},
                {n: graph.dependencies(n) for n in graph.tasks},
            )
        bad = checks.check_jobs(jobs, critical)
        reasons = errors + bad
        makespan = sum((job["result"] or {}).get("makespan", 0.0)
                       for job in jobs)
        self.client.close()
        return {
            "latencies_ms": [(r.updated - r.created) * 1e3
                             for r in records],
            "timed_ms": timed, "busy_s": busy, "requests": len(records),
            "attempted": len(records),
            "failed": len({reason.split(":", 1)[0] for reason in bad})
            or len(errors),
            "reasons": reasons[:MAX_REASONS], "makespan_s": makespan,
        }


RUNNERS = {
    "compile-cold": CompileCold,
    "recompile-warm": RecompileWarm,
    "service-drain": ServiceDrain,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--stream", type=int, default=0)
    parser.add_argument("--streams", type=int, default=1)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() when the parent spawned us")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    runner = RUNNERS[args.workload](args)
    runner.setup()
    setup_s = time.monotonic() - args.spawned
    log = spans.SpanLog() if args.trace else None
    patches = spans.install(log) if log else None
    units = max(1, round(args.budget / runner.unit_seconds))
    try:
        result = runner.measure(units, log)
    finally:
        if patches:
            patches.remove()
    result["setup_s"] = setup_s
    result["rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if log:
        result["spans"] = os.path.join(args.work, "spans.npz")
        log.save(result["spans"])
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
