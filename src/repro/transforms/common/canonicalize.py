"""The canonicalisation pipeline: constant folding + CSE + DCE to a fixpoint."""

from __future__ import annotations

from ...ir.core import Operation
from ...ir.pass_manager import ModulePass
from .constant_folding import fold_constants
from .cse import eliminate_common_subexpressions
from .dce import eliminate_dead_code


def canonicalize(module: Operation, max_iterations: int = 10) -> int:
    """Run fold/CSE/DCE repeatedly until nothing changes; return total rewrites."""
    total = 0
    for _ in range(max_iterations):
        changed = 0
        changed += fold_constants(module)
        changed += eliminate_common_subexpressions(module)
        changed += eliminate_dead_code(module)
        total += changed
        if changed == 0:
            break
    return total


class CanonicalizePass(ModulePass):
    """Fold constants, deduplicate pure ops and drop dead code, to a fixpoint."""

    name = "canonicalize"

    def apply(self, module: Operation) -> None:
        canonicalize(module)
