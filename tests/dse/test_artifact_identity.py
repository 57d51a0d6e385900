"""Packaged artifacts are byte-identical to ones built with empty caches.

Packaging reuses the HLS design and the prepared module that DSE
pricing memoized (:func:`repro.core.dse.cost_model.synthesize_variant`).
The reference here builds every variant's artifact after
``clear_caches()``, so nothing is reused; the package manifest, each
SYCL source, each bitstream, each signature and the deployment's
variant selections must match it, in serial and in process-pool mode
(where the designs stay in the pool children and the parent
synthesizes again while packaging).
"""

import dataclasses
from pathlib import Path

import pytest

from repro.core.backend.packaging import VariantPackage
from repro.core.compiler import EverestCompiler
from repro.core.dse.cache import clear_caches
from repro.core.dse.space import DesignSpace
from repro.core.ir.digest import module_digest
from repro.obs.driver import load_kernel_sources, pipeline_from_sources
from repro.platform.topology import build_reference_ecosystem
from repro.runtime.orchestrator import Orchestrator

MATMUL = """
kernel dense(A: tensor<8x8xf32>, B: tensor<8x8xf32>, D: tensor<8x8xf32>)
        -> tensor<8x8xf32> {
  H = tanh(A @ B + D)
  Y = sigmoid(H) * D + A
  return Y
}
"""

SENSITIVE = """
kernel guard(X: tensor<128xf32> @sensitive, U: tensor<128xf32>,
             V: tensor<128xf32>) -> tensor<128xf32> {
  Y = tanh(X) * U + V
  Z = relu(Y) * V + X
  return Z
}
"""

#: CPU thread variants that share one lowered module, and several
#: FPGA points.
SPACE = DesignSpace(
    targets=("cpu", "fpga"),
    threads=(1, 4),
    unrolls=(1, 2, 4),
    tiles=(0, 8),
)

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

#: name -> kernel-DSL source blocks of the pipeline.
SOURCES = {
    "quickstart": lambda: load_kernel_sources(
        str(EXAMPLES / "quickstart.py")),
    "secure_pipeline": lambda: load_kernel_sources(
        str(EXAMPLES / "secure_pipeline.py")),
    "matmul": lambda: [MATMUL],
    "sensitive": lambda: [SENSITIVE],
}


def selections(app):
    return Orchestrator(build_reference_ecosystem()).deploy(app).selections


def reference_package(compiler, app):
    """The package rebuilt with every cache emptied before each variant."""
    digest = module_digest(app.module)
    package = VariantPackage(application=app.name,
                             signing_key=compiler.signing_key)
    for kernel in app.package.kernels():
        for variant in app.package.variants_for(kernel):
            clear_caches()
            package.add_variant(
                variant, compiler._build_artifact(app.module, variant,
                                                  digest))
    return package


@pytest.mark.parametrize("workers,workers_mode",
                         [(1, "thread"), (2, "process")])
@pytest.mark.parametrize("name", sorted(SOURCES))
def test_artifacts_match_uncached_reference(name, workers, workers_mode):
    pipeline = pipeline_from_sources(name, SOURCES[name]())
    compiler = EverestCompiler(space=SPACE, emit_artifacts=True,
                               workers=workers, workers_mode=workers_mode)
    app = compiler.compile(pipeline)
    package = app.package
    assert len(package.artifacts) == sum(
        len(result.feasible) for result in app.exploration.values())
    kinds = {artifact.kind for artifact in package.artifacts.values()}
    assert kinds == {"binary", "bitstream"}

    reference = reference_package(compiler, app)
    assert package.manifest() == reference.manifest()
    assert sorted(package.artifacts) == sorted(reference.artifacts)
    for variant_id, artifact in package.artifacts.items():
        expected = reference.artifacts[variant_id]
        assert artifact.kind == expected.kind
        assert artifact.payload == expected.payload
        assert artifact.signature == expected.signature
    assert package.verify_integrity()
    assert selections(app) == selections(
        dataclasses.replace(app, package=reference))
