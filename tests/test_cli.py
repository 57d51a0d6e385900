"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.core.dse.cost_model import (
    prepare_variant_module,
    synthesize_variant,
)
from repro.core.dsl.kernel_dsl import compile_kernel
from repro.core.hls.bambu import HLSOptions, synthesize
from repro.core.hls.scheduling import ResourceBudget
from repro.core.variants import VariantKnobs

KERNEL = """
kernel scale(X: tensor<64xf32>, G: tensor<64xf32>)
        -> tensor<64xf32> {
  Y = relu(X * G)
  return Y
}
"""


@pytest.fixture
def dsl_file(tmp_path):
    path = tmp_path / "k.edsl"
    path.write_text(KERNEL)
    return str(path)


class TestCLI:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "dialects" in out
        assert "tensor" in out

    def test_compile(self, dsl_file, capsys):
        assert main(["compile", dsl_file]) == 0
        out = capsys.readouterr().out
        assert "scale" in out
        assert "front" in out

    def test_synth(self, dsl_file, capsys):
        assert main(["synth", dsl_file, "--kernel", "scale",
                     "--unroll", "2"]) == 0
        out = capsys.readouterr().out
        assert "latency" in out
        assert "resources" in out

    def test_explore(self, dsl_file, capsys):
        assert main(["explore", dsl_file, "--kernel", "scale"]) == 0
        out = capsys.readouterr().out
        assert "cpu/t1" in out
        assert "fpga" in out

    def test_emit_ir(self, dsl_file, capsys):
        assert main(["emit", dsl_file, "--kernel", "scale"]) == 0
        out = capsys.readouterr().out
        assert "builtin.module" in out
        assert "tensor.relu" in out

    def test_emit_sycl(self, dsl_file, capsys):
        assert main(["emit", dsl_file, "--kernel", "scale",
                     "--what", "sycl"]) == 0
        out = capsys.readouterr().out
        assert "sycl::queue" in out

    def test_emit_rtl(self, dsl_file, capsys):
        assert main(["emit", dsl_file, "--kernel", "scale",
                     "--what", "rtl"]) == 0
        out = capsys.readouterr().out
        assert "module scale" in out

    def test_emit_rtl_uses_the_variant_recipe(self, dsl_file, capsys):
        """``emit --what rtl`` prints the design DSE and packaging use
        for the same knobs (unroll budget included)."""
        assert main(["emit", dsl_file, "--kernel", "scale",
                     "--what", "rtl", "--unroll", "4"]) == 0
        out = capsys.readouterr().out
        design = synthesize_variant(
            compile_kernel(KERNEL), "scale",
            VariantKnobs(target="fpga", unroll=4))
        assert out == design.rtl() + "\n"

    @pytest.mark.parametrize("unroll,clock_mhz", [(1, 250.0), (4, 150.0)])
    def test_synth_report_matches_explicit_options(
            self, dsl_file, capsys, unroll, clock_mhz):
        """The synth report equals synthesizing the prepared module
        with spelled-out options, as the command did before it used
        the shared recipe."""
        assert main(["synth", dsl_file, "--kernel", "scale",
                     "--unroll", str(unroll),
                     "--clock-mhz", str(clock_mhz)]) == 0
        out = capsys.readouterr().out
        knobs = VariantKnobs(target="fpga", unroll=unroll,
                             clock_hz=clock_mhz * 1e6)
        prepared = prepare_variant_module(compile_kernel(KERNEL), "scale",
                                          knobs)
        options = HLSOptions(
            clock_hz=clock_mhz * 1e6,
            budget=ResourceBudget(fadd=4 * unroll, fmul=4 * unroll),
        )
        assert out == synthesize(prepared, "scale", options).report() + "\n"

    def test_emit_lowered(self, dsl_file, capsys):
        assert main(["emit", dsl_file, "--kernel", "scale",
                     "--what", "lowered-ir"]) == 0
        out = capsys.readouterr().out
        assert "kernel.for" in out

    def test_bad_space(self, dsl_file):
        with pytest.raises(SystemExit):
            main(["compile", dsl_file, "--space", "galactic"])

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit):
            main([])
