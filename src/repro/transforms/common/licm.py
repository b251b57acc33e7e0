"""Loop-invariant code motion.

Pure operations inside ``scf.for`` / ``scf.parallel`` bodies whose operands are
all defined outside the loop are hoisted in front of the loop.  The paper
relies on the equivalent MLIR pass (``loop-invariant-code-motion``) and on
hoisting loop-invariant MPI setup code out of time loops.
"""

from __future__ import annotations

from ...dialects import scf
from ...ir.core import Operation, Region, SSAValue
from ...ir.pass_manager import ModulePass
from ...ir.traits import IsTerminator, is_pure


def _defined_inside(value: SSAValue, region: Region) -> bool:
    """Whether ``value`` is defined inside ``region`` (including nested regions)."""
    owner = value.owner
    current = owner if isinstance(owner, Operation) else owner.parent_op
    # For block arguments, ``owner`` is the block; its parent op may be the loop
    # itself (induction variable) which counts as "inside".
    if not isinstance(owner, Operation):
        block = owner
        parent_region = block.parent
        while parent_region is not None:
            if parent_region is region:
                return True
            parent_op = parent_region.parent
            if parent_op is None or parent_op.parent is None:
                return False
            parent_region = parent_op.parent.parent
        return False
    while current is not None:
        if current.parent_region is region:
            return True
        current = current.parent_op
    return False


def _hoistable(op: Operation, loop_region: Region) -> bool:
    if op.has_trait(IsTerminator):
        return False
    if not is_pure(op):
        return False
    if op.regions:
        return False
    return all(not _defined_inside(operand, loop_region) for operand in op.operands)


def hoist_loop_invariant_code(module: Operation) -> int:
    """Hoist invariant pure ops out of scf loops; return the number hoisted."""
    hoisted = 0
    changed = True
    while changed:
        changed = False
        for loop in list(module.walk()):
            if not isinstance(loop, (scf.ForOp, scf.ParallelOp)):
                continue
            if loop.parent is None:
                continue
            body_region = loop.regions[0]
            parent_block = loop.parent_block
            if parent_block is None:
                continue
            for op in list(body_region.block.ops):
                if _hoistable(op, body_region):
                    body_region.block.detach_op(op)
                    parent_block.insert_op_before(op, loop)
                    hoisted += 1
                    changed = True
    return hoisted


class LoopInvariantCodeMotionPass(ModulePass):
    """Hoist pure loop-invariant operations out of scf loops."""

    name = "loop-invariant-code-motion"

    def apply(self, module: Operation) -> None:
        hoist_loop_invariant_code(module)
