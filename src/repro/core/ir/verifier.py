"""Structural verification of IR modules.

Checks, in order:

1. every operation's dialect and kind are registered, and its
   structural constraints (operand/result/region counts plus the op's
   own verifier) hold (IR001/IR002);
2. terminator placement — terminator-trait ops appear only as the last
   op of a block, and blocks of region-carrying ops that require
   termination end with the right terminator (IR004/IR005);
3. SSA visibility — each operand is defined before use, either earlier
   in the same block, as an enclosing block argument, or earlier in an
   enclosing (non-isolated) region (IR003);
4. use-def consistency — ``value.uses`` agrees with actual operand
   lists (IR006/IR007).

Two entry points share one walker:

* :func:`verify` — fail fast, raising :class:`VerificationError` at
  the first defect (the raised exception carries the partial
  ``diagnostics`` collection);
* :func:`verify_diagnostics` — collect *every* defect into a
  :class:`~repro.core.analysis.diagnostics.Diagnostics` and return it,
  never raising. This is what the pass manager and the lint CLI use.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Set

from repro.core.ir.dialects import (
    TRAIT_ISOLATED,
    TRAIT_TERMINATOR,
    lookup_op,
)
from repro.core.ir.module import Module
from repro.core.ir.ops import Block, Operation, Value
from repro.errors import VerificationError

if TYPE_CHECKING:
    from repro.core.analysis.diagnostics import Diagnostics

_REQUIRED_TERMINATORS = {
    "func.func": "func.return",
    "kernel.for": "kernel.yield",
    "workflow.pipeline": "workflow.yield",
}


class _Verifier:
    """One verification sweep, optionally stopping at the first error."""

    def __init__(self, diagnostics: Diagnostics, fail_fast: bool):
        self.diagnostics = diagnostics
        self.fail_fast = fail_fast

    def fail(self, code: str, message: str, anchor: str = "") -> None:
        diagnostic = self.diagnostics.error(
            code, message, anchor=anchor, analysis="verifier"
        )
        if self.fail_fast:
            exc = VerificationError(diagnostic.render())
            exc.diagnostics = self.diagnostics
            raise exc

    # ------------------------------------------------------------------

    def run(self, module: Module) -> None:
        self.verify_op(module.op, visible=set())
        self.verify_uses(module)

    def verify_op(self, op: Operation, visible: Set[Value]) -> None:
        opdef = self._lookup(op)
        if opdef is None:
            return

        try:
            opdef.check(op)
        except Exception as exc:
            text = str(exc)
            if not text.startswith(op.name):
                text = f"{op.name}: {text}"
            self.fail("IR002", text, anchor=op.name)

        for operand in op.operands:
            if operand not in visible:
                self.fail(
                    "IR003",
                    f"{op.name}: operand %{operand.name} is not visible "
                    f"at its use (use before def, or crossing an "
                    f"isolated region)",
                    anchor=op.name,
                )

        isolated = opdef.has_trait(TRAIT_ISOLATED)
        inner_visible: Set[Value] = set() if isolated else set(visible)
        for region in op.regions:
            for block in region.blocks:
                self.verify_block(op, block, set(inner_visible))

    def verify_block(self, parent: Operation, block: Block,
                     visible: Set[Value]) -> None:
        visible.update(block.arguments)
        operations = block.operations
        for index, op in enumerate(operations):
            is_last = index == len(operations) - 1
            opdef = self._lookup(op)
            if opdef is not None and opdef.has_trait(
                TRAIT_TERMINATOR
            ) and not is_last:
                self.fail(
                    "IR004",
                    f"terminator {op.name} is not the last operation of "
                    f"its block (inside {parent.name})",
                    anchor=op.name,
                )
            self.verify_op(op, visible)
            visible.update(op.results)

        required = _REQUIRED_TERMINATORS.get(parent.name)
        if required is not None and operations:
            last = operations[-1]
            if last.name != required:
                self.fail(
                    "IR005",
                    f"{parent.name}: block must end with {required}, "
                    f"found {last.name}",
                    anchor=parent.name,
                )

    def verify_uses(self, module: Module) -> None:
        all_ops: List[Operation] = list(module.walk())
        for op in all_ops:
            for operand in op.operands:
                if op not in operand.uses:
                    self.fail(
                        "IR006",
                        f"use-def inconsistency: {op.name} uses "
                        f"%{operand.name} but is missing from its "
                        f"use list",
                        anchor=op.name,
                    )
        defined: Set[int] = set()
        for op in all_ops:
            for result in op.results:
                if id(result) in defined:
                    self.fail(
                        "IR007",
                        f"value %{result.name} defined more than once",
                        anchor=op.name,
                    )
                defined.add(id(result))

    # ------------------------------------------------------------------

    def _lookup(self, op: Operation):
        try:
            return lookup_op(op.name)
        except Exception as exc:
            self.fail("IR001", str(exc), anchor=op.name)
            return None


def _new_diagnostics() -> "Diagnostics":
    # Imported on use: importing core.analysis runs its package, which
    # imports core.hls, which imports core.ir, so a module-level import
    # here makes ``import repro.core.hls`` fail on a cold interpreter.
    from repro.core.analysis.diagnostics import Diagnostics

    return Diagnostics()


def verify(module: Module) -> None:
    """Verify a module; raises :class:`VerificationError` on failure."""
    _Verifier(_new_diagnostics(), fail_fast=True).run(module)


def verify_diagnostics(
    module: Module, diagnostics: Optional[Diagnostics] = None
) -> Diagnostics:
    """Collect every structural defect; never raises."""
    if diagnostics is None:
        diagnostics = _new_diagnostics()
    _Verifier(diagnostics, fail_fast=False).run(module)
    return diagnostics
