"""The canonicalisation pipeline: constant folding + CSE, then DCE.

One forward sweep folds, simplifies and deduplicates (a constant a fold
creates is looked up at once), then a worklist removes what became dead.
That is the fixpoint fold -> CSE -> DCE reaches: folding never needs CSE or
DCE to find more work, and CSE and DCE never enable a fold.
"""

from __future__ import annotations

from ...ir.core import Operation
from ...ir.pass_manager import ModulePass
from .constant_folding import fold
from .cse import sweep
from .dce import eliminate_dead_code


def canonicalize(module: Operation) -> int:
    """Fold, deduplicate and drop dead code under ``module``; return total rewrites."""
    folded, deduplicated = sweep(module, fold)
    return folded + deduplicated + eliminate_dead_code(module)


class CanonicalizePass(ModulePass):
    """Fold constants, deduplicate pure ops and drop dead code."""

    name = "canonicalize"

    def apply(self, module: Operation) -> None:
        canonicalize(module)
