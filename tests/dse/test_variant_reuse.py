"""One synthesis and one lowering per variant per compile.

The DSE prices an FPGA point by preparing (knob-transforming and
lowering) the kernel and synthesizing it; packaging then emits that
same variant. :func:`synthesize_variant` memoizes the design on the
point's prepared-cache entry, so packaging reuses what pricing built,
and prepared modules are keyed without ``threads`` (no pass reads it),
so CPU points that differ only in threads share one lowered module.
These tests count the work and pin the cache hygiene around it.
"""

import dataclasses

import pytest

import repro.core.hls.bambu as bambu
from repro.core.compiler import EverestCompiler
from repro.core.dse.cache import (
    DEFAULT_PREPARED_CAPACITY,
    clear_caches,
    prepared_cache,
)
from repro.core.dse.cost_model import (
    prepare_variant_module,
    synthesize_variant,
)
from repro.core.dse.space import DesignSpace
from repro.core.dsl.annotations import SecurityAnnotation, Sensitivity
from repro.core.dsl.workflow import Pipeline
from repro.core.ir import F32, TensorType
from repro.core.ir.passes.pass_manager import PassManager
from repro.core.ir.printer import print_module
from repro.core.variants import VariantKnobs
from repro.obs import observe, session

KERNEL = """
kernel scale(X: tensor<64xf32>, G: tensor<64xf32>)
        -> tensor<64xf32> {
  Y = relu(X * G) + X
  return Y
}
"""


def one_kernel_pipeline(sensitive=False, name="scale", source=KERNEL):
    pipeline = Pipeline(f"app_{name}")
    extra = {}
    if sensitive:
        extra["security"] = SecurityAnnotation(
            sensitivity=Sensitivity.CONFIDENTIAL)
    x = pipeline.source("x", TensorType((64,), F32), **extra)
    g = pipeline.source("g", TensorType((64,), F32))
    task = pipeline.task(name, source, inputs=[x, g])
    pipeline.sink("out", task.output(0))
    return pipeline


@pytest.fixture
def counts(monkeypatch):
    """Counts of HLS runs and pass-pipeline runs."""
    counted = {"synth": 0, "passes": 0}
    synthesize_function = bambu.synthesize_function
    run = PassManager.run

    def counting_synth(*args, **kwargs):
        counted["synth"] += 1
        return synthesize_function(*args, **kwargs)

    def counting_run(self, *args, **kwargs):
        counted["passes"] += 1
        return run(self, *args, **kwargs)

    monkeypatch.setattr(bambu, "synthesize_function", counting_synth)
    monkeypatch.setattr(PassManager, "run", counting_run)
    return counted


def artifact_fields(app):
    """Every packaged artifact, in packaging order, without the
    per-process variant ids (binary names embed them)."""
    fields = []
    for _id, artifact in sorted(app.package.artifacts.items()):
        payload = dataclasses.asdict(artifact.payload)
        if artifact.kind == "binary":
            payload.pop("name")
        fields.append((artifact.kind, payload, artifact.signature))
    return fields


def fpga_points(space):
    return [k for k in space.points() if k.target == "fpga"]


class TestOncePerVariant:
    def test_synthesis_runs_once_per_fpga_point(self, counts):
        space = DesignSpace.small()
        app = EverestCompiler(space=space, emit_artifacts=True).compile(
            one_kernel_pipeline())
        bitstreams = [a for a in app.package.artifacts.values()
                      if a.kind == "bitstream"]
        assert len(bitstreams) == len(fpga_points(space)) == 2
        assert counts["synth"] == len(fpga_points(space))

    def test_passes_run_once_per_prepared_key(self, counts):
        """cpu/t1 and cpu/t4 share one lowered module: three pass
        pipelines (cpu, fpga/u1, fpga/u4), not four."""
        app = EverestCompiler(space=DesignSpace.small(),
                              emit_artifacts=True).compile(
            one_kernel_pipeline())
        assert len(app.package.artifacts) == 4
        assert counts["passes"] == 3

    def test_threads_share_a_module_but_dift_does_not(
            self, sensitive_module):
        t1 = prepare_variant_module(sensitive_module, "score",
                                    VariantKnobs(threads=1))
        t4 = prepare_variant_module(sensitive_module, "score",
                                    VariantKnobs(threads=4))
        dift = prepare_variant_module(sensitive_module, "score",
                                      VariantKnobs(threads=4, dift=True))
        assert t4 is t1
        assert dift is not t1
        assert "secure.taint" in print_module(dift)
        assert "secure.taint" not in print_module(t1)

    def test_sensitive_kernel_keeps_dift_in_key(self, counts):
        """A DIFT kernel is explored with dift=True only; its packaged
        variants are built from instrumented modules, still once per
        prepared key."""
        app = EverestCompiler(space=DesignSpace.small(),
                              emit_artifacts=True).compile(
            one_kernel_pipeline(sensitive=True))
        assert app.sensitive_kernels == {"scale"}
        assert counts["passes"] == 3
        assert counts["synth"] == 2
        variants = app.exploration["scale"].feasible
        assert variants and all(v.knobs.dift for v in variants)
        for variant in variants:
            prepared = prepare_variant_module(
                app.module, "scale", variant.knobs)
            assert "secure." in print_module(prepared)
        assert counts["passes"] == 3  # all of those were cache hits


class TestCacheHygiene:
    def test_clear_caches_drops_designs(self, gemm_module, counts):
        knobs = VariantKnobs(target="fpga", unroll=2)
        first = synthesize_variant(gemm_module, "gemm", knobs)
        assert synthesize_variant(gemm_module, "gemm", knobs) is first
        assert counts["synth"] == 1
        clear_caches()
        again = synthesize_variant(gemm_module, "gemm", knobs)
        assert again is not first
        assert counts["synth"] == 2
        assert again.report() == first.report()

    def test_designs_count_as_prepared_lookups(self, gemm_module):
        """A design is served from its prepared entry: one counted
        lookup per call, however much of the entry is built."""
        knobs = VariantKnobs(target="fpga", unroll=2)
        stats = prepared_cache().stats
        before = stats.snapshot()
        synthesize_variant(gemm_module, "gemm", knobs)
        synthesize_variant(gemm_module, "gemm", knobs)
        delta = stats.delta(before)
        assert (delta.misses, delta.stores, delta.hits) == (1, 1, 1)

    def test_prepared_cache_stays_under_cap(self):
        space = DesignSpace(targets=("fpga",), unrolls=(1,))
        compiler = EverestCompiler(space=space, emit_artifacts=True)
        for index in range(DEFAULT_PREPARED_CAPACITY + 8):
            name = f"k{index}"
            source = (f"kernel {name}(X: tensor<64xf32>, "
                      "G: tensor<64xf32>) -> tensor<64xf32> {\n"
                      "  Y = X * G\n  return Y\n}\n")
            compiler.compile(one_kernel_pipeline(name=name, source=source))
        assert len(prepared_cache()) <= DEFAULT_PREPARED_CAPACITY
        assert prepared_cache().stats.evictions >= 8

    def test_cold_prepared_warm_cost_is_identical(self):
        """A recompile whose cost cache is warm but whose prepared
        cache was emptied re-synthesizes during packaging; artifacts
        and the trace match the first compile byte for byte."""

        def compile_traced():
            with observe(session(deterministic=True)) as obs:
                app = EverestCompiler(
                    space=DesignSpace.small(), emit_artifacts=True,
                ).compile(one_kernel_pipeline(sensitive=True))
            return artifact_fields(app), obs.tracer.to_json()

        cold = compile_traced()
        prepared_cache().clear()
        cost_warm_prepared_cold = compile_traced()
        all_warm = compile_traced()
        assert cost_warm_prepared_cold == cold
        assert all_warm == cold
