"""Dead code elimination: remove pure operations whose results are unused."""

from __future__ import annotations

from ...ir.core import OpResult, Operation
from ...ir.pass_manager import ModulePass
from ...ir.traits import IsTerminator, is_pure


def _is_trivially_dead(op: Operation) -> bool:
    if any(result.uses for result in op.results):
        return False
    return not op.has_trait(IsTerminator) and is_pure(op)


def eliminate_dead_code(module: Operation) -> int:
    """Erase dead pure ops; return the number of erased ops.

    One worklist, seeded in reverse walk order (users before producers):
    erasing an op pushes the producers of its operands, so a dead chain goes
    in one call, whatever order its ops sit in.
    """
    erased = 0
    worklist = list(module.walk(reverse=True))[:0:-1]  # popped in walk order
    while worklist:
        op = worklist.pop()
        if op.parent is not None and _is_trivially_dead(op):
            worklist += [
                operand.op for nested in op.walk() for operand in nested._operands
                if operand.__class__ is OpResult and _within(operand.op, module)
            ]
            op.erase()
            erased += 1
    return erased


def _within(op: Operation, root: Operation) -> bool:
    while op is not None and op is not root:
        op = op.parent_op
    return op is root


class DeadCodeEliminationPass(ModulePass):
    """Remove operations that are pure and unused."""

    name = "dce"

    def apply(self, module: Operation) -> None:
        eliminate_dead_code(module)
