"""Output checks that do not trust the program under test.

Each check returns ``None`` when the output is right and a one-line
reason when it is wrong. The references come from the benchmark: numpy
evaluations built by the generator, digests recomputed here from the
canonical spec, critical paths computed here from task durations.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

#: float32 kernels against a float64 reference.
RTOL = 1e-3
ATOL = 1e-4
#: Simulated-time slack for the critical-path bound.
TIME_EPS = 1e-9


def check_kernel_output(kernel: str, got: np.ndarray,
                        expected: np.ndarray) -> Optional[str]:
    """The interpreted variant must match the numpy reference."""
    got = np.asarray(got)
    expected = np.asarray(expected)
    if got.shape != expected.shape:
        return f"{kernel}: shape {got.shape} != reference {expected.shape}"
    if not np.all(np.isfinite(got)):
        return f"{kernel}: non-finite output"
    if not np.allclose(got, expected, rtol=RTOL, atol=ATOL):
        worst = float(np.max(np.abs(got - expected)))
        return f"{kernel}: differs from reference by up to {worst:.3g}"
    return None


def check_deployment(expected_tasks: Iterable[str],
                     completed_tasks: Iterable[str]) -> Optional[str]:
    """Every task of the deployed pipeline must have completed."""
    missing = set(expected_tasks) - set(completed_tasks)
    if missing:
        return f"deployment left tasks incomplete: {sorted(missing)}"
    return None


def noop_digest(spec: Mapping) -> str:
    """The digest a ``noop`` job must report, recomputed here."""
    canonical = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def critical_path(durations: Mapping[str, float],
                  dependencies: Mapping[str, Sequence[str]]) -> float:
    """Longest chain of task durations through the dependency DAG."""
    finish: Dict[str, float] = {}

    def finish_of(task: str) -> float:
        if task not in finish:
            finish[task] = durations[task] + max(
                (finish_of(dep) for dep in dependencies.get(task, ())),
                default=0.0,
            )
        return finish[task]

    return max((finish_of(task) for task in durations), default=0.0)


def _twin_key(spec: Mapping) -> str:
    plain = {key: value for key, value in spec.items() if key != "durable"}
    return json.dumps(plain, sort_keys=True)


def check_jobs(jobs: Sequence[Mapping],
               critical_paths: Mapping[str, float]) -> List[str]:
    """Check drained jobs; returns one reason per wrong job.

    ``jobs`` are dicts with ``name``, ``kind``, ``spec``, ``state`` and
    ``result``; ``critical_paths`` maps job names of graph-running
    jobs to the critical path of their task graph.
    """
    failures = []
    plain_digests = {
        _twin_key(job["spec"]): (job.get("result") or {}).get("digest")
        for job in jobs
        if job["kind"] == "chaos" and not job["spec"].get("durable")
    }
    for job in jobs:
        name, kind, spec = job["name"], job["kind"], job["spec"]
        result = job.get("result") or {}
        if job["state"] != "done":
            failures.append(f"{name}: ended {job['state']}")
            continue
        if kind == "noop" and result.get("digest") != noop_digest(spec):
            failures.append(f"{name}: noop digest {result.get('digest')} "
                            f"!= {noop_digest(spec)}")
            continue
        if kind == "chaos" and spec.get("durable"):
            twin = plain_digests.get(_twin_key(spec))
            if twin is None or result.get("digest") != twin:
                failures.append(f"{name}: durable digest "
                                f"{result.get('digest')} != plain run {twin}")
                continue
        if name in critical_paths:
            makespan = result.get("makespan")
            if makespan is None or (
                    makespan + TIME_EPS < critical_paths[name]):
                failures.append(f"{name}: makespan {makespan} shorter than "
                                f"critical path {critical_paths[name]}")
    return failures
