"""Loop-invariant code motion.

Pure operations inside ``scf.for`` / ``scf.parallel`` bodies whose operands are
all defined outside the loop are hoisted in front of the loop.  The paper
relies on the equivalent MLIR pass (``loop-invariant-code-motion``) and on
hoisting loop-invariant MPI setup code out of time loops.
"""

from __future__ import annotations

from ...dialects import scf
from ...ir.core import BlockArgument, Operation, Region, SSAValue
from ...ir.pass_manager import ModulePass
from ...ir.traits import IsTerminator, is_pure


def _defined_inside(value: SSAValue, region: Region) -> bool:
    """Whether ``value`` is defined inside ``region`` (including nested regions).

    A loop's induction variable is an argument of its body: inside.
    """
    block = value.block if isinstance(value, BlockArgument) else value.op.parent
    while block is not None and block.parent is not None:
        if block.parent is region:
            return True
        parent_op = block.parent.parent
        block = parent_op.parent if parent_op is not None else None
    return False


def _hoistable(op: Operation, loop_region: Region) -> bool:
    if op.regions or op.has_trait(IsTerminator) or not is_pure(op):
        return False
    return not any(_defined_inside(operand, loop_region) for operand in op._operands)


def hoist_loop_invariant_code(module: Operation) -> int:
    """Hoist invariant pure ops out of scf loops; return the number hoisted.

    Loops are visited outer first; what an inner loop hoists lands in a body
    already visited, so the loops that received ops are visited again, in
    rounds: the order whole-module sweeps to a fixpoint give, in one pass.
    """
    hoisted = 0
    loops = [op for op in module.walk() if isinstance(op, _LOOPS)]
    while loops:
        received: set[Operation] = set()
        for loop in loops:
            parent_block = loop.parent
            if parent_block is None:
                continue
            body_region = loop.regions[0]
            moved = False
            for op in body_region.block.ops[:]:
                if _hoistable(op, body_region):
                    body_region.block.detach_op(op)
                    parent_block.insert_op_before(op, loop)
                    moved = True
                    hoisted += 1
            outer = parent_block.parent_op
            if moved and isinstance(outer, _LOOPS) and outer.regions[0].block is parent_block:
                received.add(outer)
        loops = [loop for loop in loops if loop in received]
    return hoisted


_LOOPS = (scf.ForOp, scf.ParallelOp)


class LoopInvariantCodeMotionPass(ModulePass):
    """Hoist pure loop-invariant operations out of scf loops."""

    name = "loop-invariant-code-motion"

    def apply(self, module: Operation) -> None:
        hoist_loop_invariant_code(module)
