"""Each distinct kernel-DSL source is parsed once per compile.

A ``Pipeline`` keeps one compiled module per distinct source until
``to_ir`` clones it: ``pipeline_from_sources`` and the contract lint
read kernel signatures from it, and the compiler hands its lowered
module to the lint instead of recompiling. These tests count calls to
the DSL parser along the whole traced journey.
"""

import collections
import os

import pytest

from repro.core.dsl import kernel_dsl
from repro.core.dsl.workflow import Pipeline, lint_pipeline_contracts
from repro.core.ir.types import F32, TensorType
from repro.errors import ParseError
from repro.obs.driver import load_kernel_sources, run_traced

EXAMPLES = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "examples"
)

TWO_KERNELS = """
kernel scale(X: tensor<16xf32>) -> tensor<16xf32> {
  Y = X * 2.0
  return Y
}
kernel act(X: tensor<16xf32>) -> tensor<16xf32> {
  Y = relu(X)
  return Y
}
"""


@pytest.fixture
def parses(monkeypatch):
    """Counter of DSL parser calls, keyed by source text."""
    counts = collections.Counter()
    original = kernel_dsl.parse

    def counting(source):
        counts[source] += 1
        return original(source)

    monkeypatch.setattr(kernel_dsl, "parse", counting)
    return counts


def _assert_once_per_block(parses, path):
    blocks = set(load_kernel_sources(path))
    assert set(parses) == blocks
    assert all(count == 1 for count in parses.values()), parses


def test_traced_example_parses_each_block_once(parses):
    path = os.path.join(EXAMPLES, "quickstart.py")
    run_traced(path)
    _assert_once_per_block(parses, path)


def test_traced_two_kernel_spec_parses_once(parses, tmp_path):
    path = tmp_path / "pair.edsl"
    path.write_text(TWO_KERNELS)
    traced = run_traced(str(path))
    assert [task.name for task in traced.app.pipeline.tasks] == [
        "scale", "act"]
    _assert_once_per_block(parses, str(path))


def test_tasks_sharing_a_source_compile_it_once(parses):
    pipeline = Pipeline("shared")
    raw = pipeline.source("raw", TensorType((16,), F32))
    scaled = pipeline.task("scale", TWO_KERNELS, inputs=[raw])
    active = pipeline.task("act", TWO_KERNELS, inputs=[scaled.output()])
    pipeline.sink("out", active.output())
    assert not parses  # tasks compile lazily
    assert not lint_pipeline_contracts(pipeline).items
    module = pipeline.to_ir()
    assert [f.name for f in module.functions()] == ["scale", "act"]
    assert parses == {TWO_KERNELS: 1}


def test_a_source_that_fails_to_compile_is_not_memoized(parses):
    pipeline = Pipeline("broken")
    raw = pipeline.source("raw", TensorType((16,), F32))
    pipeline.task("bad", "kernel bad(", inputs=[raw])
    assert not lint_pipeline_contracts(pipeline).items
    with pytest.raises(ParseError, match="expected"):
        pipeline.to_ir()
    assert parses == {"kernel bad(": 2}
