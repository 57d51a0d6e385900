"""The repo benchmark: compile-cold, recompile-warm and service-drain.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload compile-cold --seed 1 \\
        --seconds 15 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1``
the per-layer metrics; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Each measurement runs in a fresh process (``child.py``) on inputs
generated from ``--seed``; every cache, job store and run store lives
in a temporary directory under ``.perfbench-work/`` in the checkout,
removed on exit. See ``README.md`` beside this file for what each
metric and workload means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

#: Untraced measurement processes per ``--trace 0`` run; set-up time is
#: the median over them.
PROCESSES = 3
#: Longest a measurement process may take beyond its budget.
CHILD_SLACK_S = 60.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
    "sim_makespan_s": "s",
}


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def metadata(root: str) -> dict:
    """Run metadata recorded beside the metrics (never gated on)."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None
    lines = 0
    for directory, _dirs, files in os.walk(os.path.join(root, "src")):
        for file_name in files:
            if file_name.endswith(".py"):
                with open(os.path.join(directory, file_name), "rb") as f:
                    lines += sum(1 for _ in f)
    return {"git_sha": sha, "python": platform.python_version(),
            "nproc": os.cpu_count(), "src_lines": lines}


def run_child(root: str, work_root: str, workload: str, seed: int,
              stream: int, streams: int, budget: float, trace: int) -> dict:
    """Run one measurement process to completion; returns its result."""
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root)
    out = os.path.join(work, "result.json")
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": os.path.join(root, "src"),
        "PYTHONHASHSEED": "0",
        "XDG_CACHE_HOME": os.path.join(work, "xdg-cache"),
        "XDG_STATE_HOME": os.path.join(work, "xdg-state"),
        "XDG_DATA_HOME": os.path.join(work, "xdg-data"),
        "TMPDIR": work,
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    command = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--stream", str(stream), "--streams", str(streams),
        "--budget", repr(budget),
        "--trace", str(trace), "--work", work, "--out", out,
        "--spawned", repr(time.monotonic()),
    ]
    try:
        done = subprocess.run(command, cwd=root, env=env,
                              timeout=budget + CHILD_SLACK_S,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload} measurement timed out") from exc
    if done.returncode != 0:
        raise BenchmarkError(
            f"{workload} measurement exited {done.returncode}:\n"
            f"{done.stderr[-4000:]}")
    with open(out, encoding="utf-8") as handle:
        result = json.load(handle)
    if trace:
        loaded = spans.load(result["spans"])
        metrics, layers = spans.layer_metrics(*loaded, result["requests"])
        result["layer_metrics"], result["layers"] = metrics, layers
    shutil.rmtree(work, ignore_errors=True)
    return result


def percentile(values, q: float) -> float:
    """Inclusive-method percentile ``q`` (0-100) of ``values``."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[int(q) - 1]


def end_to_end(results) -> dict:
    """The end-to-end metrics over the untraced processes."""
    latencies = [v for r in results for v in r["latencies_ms"]]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "requests_per_s": sum(r["requests"] for r in results)
        / sum(r["busy_s"] for r in results),
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": percentile(latencies, 90),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in results),
        "success_ratio": 1.0 - failed / attempted,
        "sim_makespan_s": sum(r["makespan_s"] for r in results),
    }


def overhead(untraced: dict, traced: dict) -> float:
    """Traced over untraced time for the same leading requests, minus 1."""
    count = min(len(untraced["timed_ms"]), len(traced["timed_ms"]))
    return (sum(traced["timed_ms"][:count])
            / sum(untraced["timed_ms"][:count]) - 1.0)


def measure(root: str, workload: str, seed: int, seconds: float,
            trace: int):
    """Run the measurement processes.

    Returns the result line's fields, the per-layer self-time table
    (traced runs only), the failure reasons and the sample count.
    """
    work_root = os.path.join(root, ".perfbench-work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=work_root)
    try:
        if trace:
            # same stream both times, so the overhead compares like inputs
            untraced = run_child(root, work, workload, seed, 0, 1,
                                 seconds / 2, 0)
            traced = run_child(root, work, workload, seed, 0, 1,
                               seconds / 2, 1)
            results = [untraced, traced]
            metrics = dict(traced["layer_metrics"])
            metrics["bench.trace_overhead_ratio"] = overhead(untraced, traced)
            units = spans.PER_LAYER_UNITS
            layers = traced["layers"]
        else:
            results = [
                run_child(root, work, workload, seed, stream, PROCESSES,
                          seconds / PROCESSES, 0)
                for stream in range(PROCESSES)
            ]
            metrics = end_to_end(results)
            units = END_TO_END_UNITS
            layers = None
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    reasons = [reason for r in results for reason in r["reasons"]]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    samples = sum(len(r["latencies_ms"]) for r in results)
    return result, layers, reasons, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # on SIGTERM, unwind so the running measurement process is killed
    # and waited for and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the root of a repro checkout "
              "(src/repro not found)", file=sys.stderr)
        return 2
    try:
        result, layers, reasons, samples = measure(
            root, args.workload, args.seed, args.seconds, args.trace)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(f"# workload {args.workload}: "
          f"{workloads.WORKLOADS[args.workload]}")
    print(f"# samples {samples}, attempted "
          f"{result['attempted']}, failed {result['failed']} "
          f"(failed_ratio {result['failed'] / result['attempted']:.4f})")
    for reason in reasons:
        print("# failure: " + reason.strip().replace("\n", "\n#   "))
    if layers:
        print("# self ms per request by layer:")
        for layer, value in sorted(layers.items(), key=lambda kv: -kv[1]):
            print(f"#   {layer:14s} {value:10.4f}")
    for name, metric in result["metrics"].items():
        print(f"# {name:28s} {metric['value']:14.6g} {metric['unit']}")
    print(f"# meta {json.dumps(metadata(root), sort_keys=True)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
