"""Launchers: detached processes that lease and execute jobs.

A launcher is the service's compute side (Balsam's ``balsamlauncher``
shape): it connects to the shared :class:`~repro.workflow.jobstore.
JobStore`, leases a batch of ready jobs, executes them one by one on
the simulated platform, heartbeats its lease while it works, and
reports each job ``done``/``failed`` back to the store. Many
launchers drain one store concurrently — the lease transaction
guarantees no job is ever assigned to two of them — and a launcher
that dies mid-lease merely lets its lease expire: the store returns
its unfinished jobs to the ready queue for the survivors.

Job kinds a launcher knows how to execute:

``noop``
    No work; the result digest is derived from the spec. The
    throughput yardstick.
``graph``
    A seeded random task graph (``seed``, ``tasks``, ``workers``)
    executed to completion on the :class:`ResilientServer` with no
    faults; the result records the deterministic trace digest.
``chaos``
    A seeded fault-injection scenario (``graph_seed``, ``fault_seed``,
    ``tasks``, ``workers``, fault counts) on the same engine. With
    ``durable: true`` in the spec and a run store attached, the
    execution is write-ahead journaled under run id ``job-<id>`` — a
    launcher killed mid-job leaves a resumable journal, and the
    re-execution reproduces the unbroken run's trace digest
    byte-identically (the PR 6 contract).

Unknown kinds fail the job with its error recorded, so a newer
client's submissions degrade loudly, not silently.
"""

from __future__ import annotations

import hashlib
import time
import uuid
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.obs import current_metrics
from repro.workflow.jobstore import (
    JobRecord,
    JobStore,
    canonical_spec,
)
from repro.workflow.runstore import RunStore

#: Run-store ``kind`` for journaled service job executions.
SERVICE_RUN_KIND = "service"


def _noop_job(spec: Dict) -> Dict:
    digest = hashlib.sha256(
        canonical_spec(spec).encode()
    ).hexdigest()[:16]
    return {"digest": digest}


def _graph_job(spec: Dict) -> Dict:
    from repro.chaos import random_task_graph
    from repro.workflow.recovery import ResilientServer
    from repro.workflow.worker import Worker

    graph = random_task_graph(
        int(spec.get("seed", 0)),
        num_tasks=int(spec.get("tasks", 6)),
    )
    workers = [
        Worker(f"w{index}", node_name=f"n{index}", cpus=2)
        for index in range(int(spec.get("workers", 2)))
    ]
    trace, _ = ResilientServer(workers).run(graph)
    return {"digest": trace.digest(), "makespan": trace.makespan}


def _chaos_job(spec: Dict, journal=None, resume=None) -> Dict:
    from repro.chaos import (
        ChaosConfig,
        generate_schedule,
        random_task_graph,
    )
    from repro.workflow.recovery import ResilientServer
    from repro.workflow.scheduler import make_policy
    from repro.workflow.worker import Worker

    graph = random_task_graph(
        int(spec.get("graph_seed", 0)),
        num_tasks=int(spec.get("tasks", 9)),
    )
    workers = [
        Worker(f"w{index}", node_name=f"n{index}", cpus=2)
        for index in range(int(spec.get("workers", 3)))
    ]
    config = ChaosConfig(
        crashes=int(spec.get("crashes", 1)),
        link_faults=int(spec.get("link_faults", 1)),
        reconfig_faults=int(spec.get("reconfig_faults", 1)),
        stragglers=int(spec.get("stragglers", 1)),
        task_faults=int(spec.get("task_faults", 1)),
    )
    schedule = generate_schedule(
        graph, [worker.name for worker in workers],
        int(spec.get("fault_seed", 0)), config,
    )
    server = ResilientServer(
        workers, policy=make_policy(spec.get("policy", "b-level")),
    )
    trace, stats = server.run(
        graph, chaos=schedule, journal=journal, resume=resume,
    )
    return {
        "digest": trace.digest(),
        "makespan": trace.makespan,
        "retries": stats.retries,
    }


@dataclass
class LauncherStats:
    """What one :meth:`Launcher.run` drain accomplished."""

    leases: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    crashed: bool = False
    job_ids: list = field(default_factory=list)

    @property
    def executed(self) -> int:
        """Jobs this launcher finished, one way or another."""
        return self.completed + self.failed + self.cancelled


class Launcher:
    """Leases batches of ready jobs from a store and executes them.

    ``lease_ttl_s`` is how long the store waits for a heartbeat before
    declaring this launcher dead and re-leasing its jobs;
    ``heartbeat_every`` is how many jobs it executes between
    heartbeats (so the TTL must comfortably cover that many job
    durations — tuning guidance in ``docs/SERVICE.md``). A ``clock``
    override propagates to the store connection, keeping lease-expiry
    semantics testable without sleeping.
    """

    def __init__(
        self,
        db_path,
        launcher_id: Optional[str] = None,
        lease_size: int = 8,
        lease_ttl_s: float = 60.0,
        heartbeat_every: int = 4,
        run_store: Optional[RunStore] = None,
        clock: Optional[Callable[[], float]] = None,
    ):
        """Configure a launcher against the store at ``db_path``."""
        self.db_path = db_path
        self.launcher_id = (
            launcher_id or f"launcher-{uuid.uuid4().hex[:6]}"
        )
        self.lease_size = max(1, lease_size)
        self.lease_ttl_s = lease_ttl_s
        self.heartbeat_every = max(1, heartbeat_every)
        self.run_store = run_store
        self.clock = clock

    # -- job execution -------------------------------------------------

    def execute_job(self, job: JobRecord,
                    store: JobStore) -> Dict:
        """Run one job's payload; returns its result record.

        Durable chaos jobs are journaled in the run store under
        ``job-<id>``; if that run already exists in-flight (a previous
        launcher died mid-job), the journal is replayed and execution
        *resumes* — already-executed payloads are skipped and the
        digest matches an unbroken run.
        """
        spec = dict(job.spec)
        kind = job.kind
        if kind == "noop":
            return _noop_job(spec)
        if kind == "graph":
            return _graph_job(spec)
        if kind == "chaos":
            if spec.get("durable") and self.run_store is not None:
                return self._durable_chaos(job, spec, store)
            return _chaos_job(spec)
        raise ValueError(f"unknown job kind {kind!r}")

    def _durable_chaos(self, job: JobRecord, spec: Dict,
                       store: JobStore) -> Dict:
        from repro.errors import JournalError

        run_id = job.run_id or f"job-{job.id}"
        try:
            self.run_store.run_dir(run_id)
            exists = True
        except JournalError:
            exists = False
        if exists:
            _meta, state, journal = self.run_store.prepare_resume(
                run_id
            )
            if state.finished:
                journal.close()
                return {"digest": state.digest, "resumed": True}
            resume = state
        else:
            _run_id, journal = self.run_store.create_run(
                SERVICE_RUN_KIND,
                {"job": job.id, "name": job.name, **spec},
                run_id=run_id,
            )
            resume = None
        store.bind_run(job.id, run_id)
        try:
            result = _chaos_job(spec, journal=journal, resume=resume)
        finally:
            journal.close()
        if resume is not None:
            result["resumed"] = True
        return result

    # -- the drain loop ------------------------------------------------

    def run(
        self,
        max_jobs: Optional[int] = None,
        exit_on_idle: bool = False,
        idle_sleep_s: float = 0.02,
        max_idle_polls: int = 500,
        crash_after: Optional[int] = None,
    ) -> LauncherStats:
        """Lease and execute until the store drains; returns stats.

        The loop reclaims expired leases, takes a batch, executes it
        with heartbeats every ``heartbeat_every`` jobs, and exits once
        no job is staged, ready or running. While other launchers
        still hold running jobs it polls (their jobs may yet expire
        back into the queue); ``exit_on_idle`` exits at the first
        empty lease instead. ``crash_after`` is the test/chaos hook:
        the launcher "dies" after finishing that many jobs, leaving
        the rest of its lease held but unheartbeated — exactly what a
        SIGKILL does.
        """
        stats = LauncherStats()
        metrics = current_metrics()
        with JobStore(self.db_path, clock=self.clock) as store:
            idle = 0
            while True:
                store.expire_leases()
                lease = store.lease(
                    self.launcher_id, self.lease_size,
                    ttl_s=self.lease_ttl_s,
                )
                if not lease.jobs:
                    if store.drained():
                        break
                    if exit_on_idle:
                        break
                    idle += 1
                    if idle >= max_idle_polls:
                        break
                    time.sleep(idle_sleep_s)
                    continue
                idle = 0
                stats.leases += 1
                cancels = {
                    job.id for job in lease.jobs
                    if job.cancel_requested
                }
                since_heartbeat = 0
                for job in lease.jobs:
                    if (crash_after is not None
                            and stats.executed >= crash_after):
                        stats.crashed = True
                        return stats
                    if job.id in cancels:
                        store.cancel_leased(job.id, lease.lease_id)
                        stats.cancelled += 1
                        continue
                    started = time.perf_counter()
                    try:
                        result = self.execute_job(job, store)
                    except Exception as exc:
                        store.fail(job.id, lease.lease_id, str(exc))
                        stats.failed += 1
                    else:
                        store.complete(job.id, lease.lease_id,
                                       result)
                        stats.completed += 1
                        stats.job_ids.append(job.id)
                    metrics.histogram(
                        "service.job_seconds",
                        "wall time of one job execution",
                    ).observe(time.perf_counter() - started,
                              kind=job.kind)
                    since_heartbeat += 1
                    if since_heartbeat >= self.heartbeat_every:
                        _n, cancel_ids = store.heartbeat(
                            lease.lease_id, ttl_s=self.lease_ttl_s,
                        )
                        cancels.update(cancel_ids)
                        since_heartbeat = 0
                    if (max_jobs is not None
                            and stats.executed >= max_jobs):
                        return stats
        return stats
