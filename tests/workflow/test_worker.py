"""Worker slot accounting, reset, and slowdown-aware execution time."""

import pytest

from repro.errors import WorkflowError
from repro.platform.node import Node
from repro.workflow.worker import Worker


def make_worker(cpus=4, **kwargs) -> Worker:
    return Worker("w0", node_name="n0", cpus=cpus, **kwargs)


class TestAcquire:
    def test_acquire_and_free_counts(self):
        worker = make_worker(cpus=4)
        worker.acquire(3)
        assert worker.busy_cpus == 3
        assert worker.free_cpus == 1
        assert worker.can_run(1)
        assert not worker.can_run(2)

    def test_zero_request_rejected(self):
        worker = make_worker()
        with pytest.raises(WorkflowError, match="must be positive"):
            worker.acquire(0)
        assert worker.busy_cpus == 0

    def test_negative_request_rejected(self):
        worker = make_worker()
        with pytest.raises(WorkflowError, match="must be positive"):
            worker.acquire(-2)
        assert worker.busy_cpus == 0

    def test_over_capacity_rejected(self):
        worker = make_worker(cpus=2)
        worker.acquire(2)
        with pytest.raises(WorkflowError, match="only 0 free"):
            worker.acquire(1)
        assert worker.busy_cpus == 2


class TestRelease:
    def test_release_returns_slots(self):
        worker = make_worker(cpus=4)
        worker.acquire(4)
        worker.release(3)
        assert worker.free_cpus == 3

    def test_zero_release_rejected(self):
        worker = make_worker()
        worker.acquire(1)
        with pytest.raises(WorkflowError, match="must be positive"):
            worker.release(0)
        assert worker.busy_cpus == 1

    def test_negative_release_rejected(self):
        """A negative release would silently inflate capacity."""
        worker = make_worker(cpus=2)
        worker.acquire(1)
        with pytest.raises(WorkflowError, match="must be positive"):
            worker.release(-3)
        assert worker.busy_cpus == 1
        assert worker.free_cpus == 1

    def test_over_release_rejected(self):
        worker = make_worker()
        worker.acquire(1)
        with pytest.raises(WorkflowError, match="only 1 busy"):
            worker.release(2)
        assert worker.busy_cpus == 1

    def test_release_without_acquire_rejected(self):
        worker = make_worker()
        with pytest.raises(WorkflowError, match="only 0 busy"):
            worker.release(1)


class TestReset:
    def test_reset_clears_runtime_state(self):
        worker = make_worker(cpus=4)
        worker.acquire(2)
        worker.store.update({"a", "b"})
        worker.slowdown = 3.0
        worker.reset()
        assert worker.busy_cpus == 0
        assert worker.store == set()
        assert worker.slowdown == 1.0


class TestExecutionTime:
    def test_nominal(self):
        assert make_worker().execution_time(2.0) == 2.0

    def test_speed_factor_divides(self):
        worker = make_worker(speed_factor=2.0)
        assert worker.execution_time(2.0) == 1.0

    def test_worker_slowdown_multiplies(self):
        worker = make_worker()
        worker.slowdown = 4.0
        assert worker.execution_time(1.5) == 6.0

    def test_node_slowdown_compounds(self):
        node = Node(name="n0")
        node.apply_slowdown(2.0)
        worker = make_worker(node=node)
        worker.slowdown = 3.0
        assert worker.execution_time(1.0) == pytest.approx(6.0)
        node.clear_slowdown()
        assert worker.execution_time(1.0) == pytest.approx(3.0)
