"""Spans around the program's layer entry points, and self time.

The traced measurement process calls :func:`install`, which wraps the
public entry point of every layer (class methods on their class, free
functions in every ``repro`` module that imported them) with a timer
that records one span: name, parent, start and end. Spans live in
memory in flat arrays with a parent link and are written out once,
at the end, with :meth:`SpanLog.save`. The program's source is not
touched.

A layer's *self time* is the duration of its spans minus the part of
each span that its child spans cover (:func:`self_times`), so nested
layers are never double counted and the benchmark's own request span
keeps exactly the time no layer claims (``bench.unattributed_ms``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

#: Name of the benchmark's own per-request (or per-chunk) span.
ROOT = "bench|request"


class SpanLog:
    """Spans as parallel arrays: name id, parent index, start, end."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = []
        #: counts recorded at the same boundaries (hits, lookups, ...)
        self.counts: Dict[str, float] = {}

    def name_id(self, name: str) -> int:
        """Intern ``name`` ("layer|entry point")."""
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    def open(self, name_id: int) -> int:
        """Start a span under the innermost open span; returns its index."""
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(self.clock())
        self.end.append(0.0)
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        """End the span ``index`` (the innermost open one)."""
        self.end[index] = self.clock()
        self.stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        """Add to a named count."""
        self.counts[key] = self.counts.get(key, 0) + amount

    def save(self, path: str) -> None:
        """Write every span and count to ``path`` (``.npz``)."""
        np.savez(
            path,
            names=np.array(self.names, dtype=object),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            count_keys=np.array(sorted(self.counts), dtype=object),
            count_values=np.array(
                [self.counts[k] for k in sorted(self.counts)], dtype=float
            ),
        )


def load(path: str) -> Tuple[List[str], np.ndarray, np.ndarray,
                             np.ndarray, np.ndarray, Dict[str, float]]:
    """Read what :meth:`SpanLog.save` wrote."""
    with np.load(path, allow_pickle=True) as data:
        counts = dict(zip(data["count_keys"].tolist(),
                          data["count_values"].tolist()))
        return (data["names"].tolist(), data["name"].copy(),
                data["parent"].copy(), data["start"].copy(),
                data["end"].copy(), counts)


def self_times(parent: Sequence[int], start: Sequence[float],
               end: Sequence[float]) -> np.ndarray:
    """Each span's duration minus the time its children cover.

    Children are merged as intervals and clipped to the parent, so
    overlapping or overhanging children are not subtracted twice.
    """
    parent = np.asarray(parent, dtype=np.int64)
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    own = end - start
    children = np.nonzero(parent >= 0)[0]
    order = children[np.lexsort((start[children], parent[children]))]
    covered = np.zeros(len(start))
    current, lo, hi = -1, 0.0, 0.0
    for index in order.tolist():
        up = int(parent[index])
        a = max(start[index], start[up])
        b = min(end[index], end[up])
        if up != current:
            if current >= 0:
                covered[current] += hi - lo
            current, lo, hi = up, a, max(a, b)
            continue
        if a > hi:
            covered[current] += hi - lo
            lo, hi = a, max(a, b)
        else:
            hi = max(hi, b)
    if current >= 0:
        covered[current] += hi - lo
    return np.maximum(own - covered, 0.0)


# -- patching ------------------------------------------------------------

#: (layer, module, attribute) of every wrapped entry point. An attribute
#: ``Class.method`` is patched on the class; a free function is patched
#: in every loaded ``repro`` module that holds it; a ``!`` prefix limits
#: the patch to the named module only.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    # kernel-DSL frontend
    ("core.dsl", "repro.core.dsl.parser", "parse"),
    ("core.dsl", "repro.core.dsl.kernel_dsl", "compile_kernel"),
    ("core.dsl", "repro.core.dsl.kernel_dsl", "kernel_names"),
    ("core.dsl", "repro.core.dsl.typecheck", "check_program"),
    ("core.dsl", "repro.core.dsl.workflow", "Pipeline.task"),
    ("core.dsl", "repro.core.dsl.workflow", "Pipeline.to_ir"),
    ("core.dsl", "repro.core.dsl.workflow", "lint_pipeline_contracts"),
    ("core.dsl", "repro.core.analysis.specs", "extract_kernel_sources"),
    ("core.dsl", "repro.obs.driver", "load_kernel_sources"),
    ("core.dsl", "repro.obs.driver", "pipeline_from_sources"),
    # the compile entry points: the glue between the layers
    ("core.compiler", "repro.core.compiler", "EverestCompiler.compile"),
    ("core.compiler", "repro.obs.driver", "run_traced"),
    # IR passes, digests and verification
    ("core.ir", "repro.core.ir.passes.pass_manager", "PassManager.run"),
    ("core.ir", "repro.core.ir.passes.partitioning",
     "HardwarePartitioningPass.run"),
    ("core.ir", "repro.core.ir.digest", "module_digest"),
    ("core.ir", "repro.core.ir.digest", "function_digest"),
    ("core.ir", "repro.core.ir.digest", "!print_module"),
    ("core.ir", "repro.core.ir.verifier", "verify"),
    ("core.ir", "repro.core.ir.module", "Module.clone"),
    # static analysis gate
    ("core.analysis", "repro.core.analysis", "analyze_module_cached"),
    ("core.analysis", "repro.core.analysis.concurrency",
     "check_pipeline_concurrency"),
    ("core.analysis", "repro.core.analysis.absint", "function_facts"),
    ("core.analysis", "repro.core.analysis.cache", "AnalysisCache.get"),
    ("core.analysis", "repro.core.analysis.cache", "AnalysisCache.put"),
    # design-space exploration
    ("core.dse", "repro.core.dse.explorer", "Explorer.run"),
    ("core.dse", "repro.core.dse.cost_model", "evaluate_variant"),
    ("core.dse", "repro.core.dse.cost_model", "price_variant"),
    ("core.dse", "repro.core.dse.cost_model", "prepare_variant_module"),
    ("core.dse", "repro.core.dse.cache", "CostCache.get"),
    ("core.dse", "repro.core.dse.cache", "CostCache.put"),
    # HLS
    ("core.hls", "repro.core.hls.bambu", "synthesize"),
    ("core.hls", "repro.core.hls.bambu", "synthesize_function"),
    ("core.hls", "repro.core.hls.scheduling", "schedule_loop"),
    # backend codegen and packaging
    ("core.backend", "repro.core.backend.sycl_gen", "generate_sycl"),
    ("core.backend", "repro.core.hls.bambu", "AcceleratorDesign.bitstream"),
    ("core.backend", "repro.core.backend.packaging",
     "VariantPackage.add_variant"),
    # runtime: placement, variant selection, deployment
    ("runtime", "repro.runtime.orchestrator", "Orchestrator.deploy"),
    ("runtime", "repro.runtime.scheduler", "TierPlacer.place"),
    ("runtime", "repro.workflow.plan", "build_task_graph"),
    ("runtime", "repro.runtime.orchestrator",
     "Orchestrator._select_variants"),
    # workflow engines (process bodies run inside Process._step)
    ("workflow", "repro.workflow.server", "WorkflowServer.run"),
    ("workflow", "repro.workflow.recovery", "ResilientServer.run"),
    ("workflow", "repro.platform.simulator", "Process._step"),
    ("workflow", "repro.workflow.worker", "Worker.execution_time"),
    # platform simulator and topology
    ("platform", "repro.platform.simulator", "Simulator.run"),
    ("platform", "repro.platform.topology", "build_reference_ecosystem"),
    # chaos generation
    ("chaos", "repro.chaos.graphgen", "random_task_graph"),
    ("chaos", "repro.chaos.schedule", "generate_schedule"),
    # job store
    ("jobstore", "repro.workflow.jobstore", "JobStore.__init__"),
    ("jobstore", "repro.workflow.jobstore", "JobStore.submit"),
    ("jobstore", "repro.workflow.jobstore", "JobStore.lease"),
    ("jobstore", "repro.workflow.jobstore", "JobStore.complete"),
    ("jobstore", "repro.workflow.jobstore", "JobStore.heartbeat"),
    ("jobstore", "repro.workflow.jobstore", "JobStore.expire_leases"),
    ("jobstore", "repro.workflow.jobstore", "JobStore.drained"),
    ("jobstore", "repro.workflow.jobstore", "JobStore.bind_run"),
    # durable journal and run store
    ("journal", "repro.workflow.journal", "RunJournal.append"),
    ("journal", "repro.workflow.journal", "RunJournal.close"),
    ("journal", "repro.workflow.runstore", "RunStore.create_run"),
    ("journal", "os", "!fsync"),
    # launcher
    ("launcher", "repro.workflow.launcher", "Launcher.run"),
    ("launcher", "repro.workflow.launcher", "Launcher.execute_job"),
    # the program's own tracer
    ("obs", "repro.obs.tracer", "Tracer.span"),
    ("obs", "repro.obs.tracer", "Tracer._close_span"),
    ("obs", "repro.obs.tracer", "Tracer.complete"),
    ("obs", "repro.obs.tracer", "Tracer.instant"),
    ("obs", "repro.obs.tracer", "Tracer.counter"),
)


def _hit_counter(prefix: str):
    def on_result(log: SpanLog, result) -> None:
        log.count(f"{prefix}.lookups")
        if result is not None:
            log.count(f"{prefix}.hits")
    return on_result


def _graph_tasks(log: SpanLog, args) -> None:
    graph = args[1] if len(args) > 1 else None
    if graph is not None:
        log.count("workflow.tasks", len(graph.tasks))


#: Counts taken from the results of some entry points.
RESULT_HOOKS = {
    "AnalysisCache.get": _hit_counter("core.analysis"),
    "CostCache.get": _hit_counter("core.dse.cost"),
}
#: Counts taken from the arguments of some entry points.
ARG_HOOKS = {
    "WorkflowServer.run": _graph_tasks,
    "ResilientServer.run": _graph_tasks,
}


def _wrap(log: SpanLog, name: str, function: Callable) -> Callable:
    name_id = log.name_id(name)
    label = name.split("|", 1)[1]
    on_result = RESULT_HOOKS.get(label)
    on_args = ARG_HOOKS.get(label)

    @functools.wraps(function)
    def traced(*args, **kwargs):
        if not log.stack:
            # outside the benchmark's request spans (set-up, checks)
            return function(*args, **kwargs)
        if on_args is not None:
            on_args(log, args)
        index = log.open(name_id)
        try:
            result = function(*args, **kwargs)
        finally:
            log.close(index)
        if on_result is not None:
            on_result(log, result)
        return result

    return traced


_MISSING = object()


class Patches:
    """Installed wrappers; :meth:`remove` restores the originals."""

    def __init__(self):
        self._undo: List[Tuple[object, str, object]] = []

    def set(self, owner: object, attribute: str, value: object) -> None:
        """Replace ``owner.attribute``, remembering the original."""
        self._undo.append(
            (owner, attribute, vars(owner).get(attribute, _MISSING)))
        setattr(owner, attribute, value)

    def remove(self) -> None:
        """Restore every original, newest first."""
        while self._undo:
            owner, attribute, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)


def install(log: SpanLog,
            entry_points: Sequence[Tuple[str, str, str]] = ENTRY_POINTS
            ) -> Patches:
    """Wrap every entry point so its calls are recorded in ``log``."""
    patches = Patches()
    for layer, module_name, attribute in entry_points:
        module = importlib.import_module(module_name)
        only_here = attribute.startswith("!")
        attribute = attribute.lstrip("!")
        if "." in attribute:
            class_name, method = attribute.split(".")
            owner = getattr(module, class_name)
            original = inspect.getattr_static(owner, method)
            if isinstance(original, (staticmethod, classmethod)):
                raise TypeError(f"{attribute}: wrap plain methods only")
            patches.set(owner, method,
                        _wrap(log, f"{layer}|{attribute}", original))
            continue
        original = getattr(module, attribute)
        wrapped = _wrap(log, f"{layer}|{attribute}", original)
        holders = [module] if only_here else [
            loaded for loaded_name, loaded in list(sys.modules.items())
            if loaded is not None and (loaded_name == "repro"
                                       or loaded_name.startswith("repro."))
            and getattr(loaded, attribute, None) is original
        ]
        for holder in holders:
            patches.set(holder, attribute, wrapped)
    return patches


# -- per-layer metrics ---------------------------------------------------

#: The per-layer metrics the traced run reports, with their units.
PER_LAYER_UNITS: Dict[str, str] = {
    "core.dsl.self_ms": "ms",
    "core.dsl.parses": "count",
    "core.ir.passes_ms": "ms",
    "core.ir.digest_prints": "count",
    "core.analysis.self_ms": "ms",
    "core.analysis.hit_ratio": "ratio",
    "core.dse.self_ms": "ms",
    "core.dse.evaluations": "count",
    "core.dse.cost_hit_ratio": "ratio",
    "core.dse.cache_store_ms": "ms",
    "core.hls.schedule_ms": "ms",
    "core.hls.synth_ms": "ms",
    "core.backend.codegen_ms": "ms",
    "runtime.place_ms": "ms",
    "runtime.select_ms": "ms",
    "runtime.deploy_self_ms": "ms",
    "workflow.engine_ms": "ms",
    "workflow.task_runs": "count",
    "workflow.useful_ratio": "ratio",
    "platform.sim_ms": "ms",
    "platform.us_per_event": "us",
    "chaos.gen_ms": "ms",
    "jobstore.submit_ms": "ms",
    "jobstore.lease_ms.p50": "ms",
    "jobstore.lease_ms.p99": "ms",
    "jobstore.complete_ms": "ms",
    "jobstore.heartbeat_ms": "ms",
    "jobstore.expire_ms": "ms",
    "journal.append_ms": "ms",
    "journal.fsyncs": "count",
    "launcher.self_ms": "ms",
    "obs.tracer_ms": "ms",
    "bench.unattributed_ms": "ms",
    "bench.trace_overhead_ratio": "ratio",
}

#: Self-time metrics: metric -> span names ("layer|entry") summed.
_SELF_MS = {
    "core.ir.passes_ms": ("core.ir|PassManager.run",
                          "core.ir|HardwarePartitioningPass.run"),
    "core.dse.cache_store_ms": ("core.dse|CostCache.put",),
    "core.hls.schedule_ms": ("core.hls|schedule_loop",),
    "core.hls.synth_ms": ("core.hls|synthesize",
                          "core.hls|synthesize_function"),
    "runtime.place_ms": ("runtime|TierPlacer.place",
                         "runtime|build_task_graph"),
    "runtime.select_ms": ("runtime|Orchestrator._select_variants",),
    "runtime.deploy_self_ms": ("runtime|Orchestrator.deploy",),
    "workflow.engine_ms": ("workflow|WorkflowServer.run",
                           "workflow|ResilientServer.run",
                           "workflow|Process._step"),
    "platform.sim_ms": ("platform|Simulator.run",),
    "jobstore.submit_ms": ("jobstore|JobStore.submit",),
    "jobstore.complete_ms": ("jobstore|JobStore.complete",),
    "jobstore.heartbeat_ms": ("jobstore|JobStore.heartbeat",),
    "jobstore.expire_ms": ("jobstore|JobStore.expire_leases",),
    "journal.append_ms": ("journal|RunJournal.append",),
    "launcher.self_ms": ("launcher|Launcher.run",
                         "launcher|Launcher.execute_job"),
}
#: Whole-layer self time metrics: metric -> layer.
_LAYER_MS = {
    "core.dsl.self_ms": "core.dsl",
    "core.analysis.self_ms": "core.analysis",
    "core.dse.self_ms": "core.dse",
    "core.backend.codegen_ms": "core.backend",
    "chaos.gen_ms": "chaos",
    "obs.tracer_ms": "obs",
    "bench.unattributed_ms": "bench",
}
#: Call-count metrics: metric -> span name counted.
_CALLS = {
    "core.dsl.parses": "core.dsl|parse",
    "core.ir.digest_prints": "core.ir|print_module",
    "core.dse.evaluations": "core.dse|evaluate_variant",
    "workflow.task_runs": "workflow|Worker.execution_time",
    "journal.fsyncs": "journal|fsync",
}


def layer_metrics(names: List[str], name: np.ndarray, parent: np.ndarray,
                  start: np.ndarray, end: np.ndarray,
                  counts: Dict[str, float], requests: int
                  ) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-request layer metrics and per-request self ms by layer.

    ``bench.trace_overhead_ratio`` is not computed here: it needs the
    untraced run as well.
    """
    own = self_times(parent, start, end) * 1e3
    per_name = np.bincount(name, weights=own, minlength=len(names))
    calls = np.bincount(name, minlength=len(names))
    by_name = dict(zip(names, per_name.tolist()))
    calls_by_name = dict(zip(names, calls.tolist()))
    layers: Dict[str, float] = {}
    for label, value in by_name.items():
        layer = label.split("|", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + value / requests
    metrics: Dict[str, float] = {}
    for metric, labels in _SELF_MS.items():
        metrics[metric] = sum(by_name.get(l, 0.0) for l in labels) / requests
    for metric, layer in _LAYER_MS.items():
        metrics[metric] = layers.get(layer, 0.0)
    for metric, label in _CALLS.items():
        metrics[metric] = calls_by_name.get(label, 0) / requests

    def ratio(hits: str, total: str) -> float:
        return counts.get(hits, 0) / counts[total] if counts.get(total) else 0.0

    metrics["core.analysis.hit_ratio"] = ratio("core.analysis.hits",
                                               "core.analysis.lookups")
    metrics["core.dse.cost_hit_ratio"] = ratio("core.dse.cost.hits",
                                               "core.dse.cost.lookups")
    runs = calls_by_name.get("workflow|Worker.execution_time", 0)
    metrics["workflow.useful_ratio"] = (
        counts.get("workflow.tasks", 0) / runs if runs else 0.0
    )
    events = calls_by_name.get("workflow|Process._step", 0)
    metrics["platform.us_per_event"] = (
        by_name.get("platform|Simulator.run", 0.0) * 1e3 / events
        if events else 0.0
    )
    lease_id = names.index("jobstore|JobStore.lease") \
        if "jobstore|JobStore.lease" in names else -1
    leases = (end - start)[name == lease_id] * 1e3
    metrics["jobstore.lease_ms.p50"] = (
        float(np.percentile(leases, 50)) if len(leases) else 0.0)
    metrics["jobstore.lease_ms.p99"] = (
        float(np.percentile(leases, 99)) if len(leases) else 0.0)
    return metrics, layers

