"""Dead code elimination: remove pure operations whose results are unused."""

from __future__ import annotations

from ...ir.core import Operation
from ...ir.pass_manager import ModulePass
from ...ir.traits import IsTerminator, is_pure


def _is_trivially_dead(op: Operation) -> bool:
    if op.has_trait(IsTerminator):
        return False
    if not is_pure(op):
        return False
    return all(not result.uses for result in op.results)


def eliminate_dead_code(module: Operation) -> int:
    """Erase dead pure ops until a fixpoint; return the number of erased ops."""
    erased_total = 0
    changed = True
    while changed:
        changed = False
        # Walk in reverse so users are visited (and erased) before producers.
        for op in list(module.walk(reverse=True)):
            if op is module or op.parent is None:
                continue
            if _is_trivially_dead(op):
                op.erase()
                erased_total += 1
                changed = True
    return erased_total


class DeadCodeEliminationPass(ModulePass):
    """Remove operations that are pure and unused."""

    name = "dce"

    def apply(self, module: Operation) -> None:
        eliminate_dead_code(module)
