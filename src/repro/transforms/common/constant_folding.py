"""Constant folding for the arith dialect.

Binary/unary arith operations whose operands are all produced by
``arith.constant`` are replaced by a new constant.  Together with CSE and DCE
this forms the canonicalisation pipeline, and is what makes the compile-time
known stencil bounds pay off (paper §4.1: "known bounds enable constant
folding of most of the memory access address computations").  A fold
applies the op's record in :data:`repro.dialects.arith.SEMANTICS`, the
function the tree walker applies; where that raises (``divf`` by zero) the
op is left as it is, and ops whose record says ``folds=False`` are never
folded.
"""

from __future__ import annotations

import math
from typing import Optional, Union

from ...dialects import arith
from ...ir.attributes import FloatAttr, IntegerAttr
from ...ir.core import Operation, SSAValue
from ...ir.pass_manager import ModulePass
from ...ir.types import is_float_type

Number = Union[int, float]


def _constant_value(value: SSAValue) -> Optional[Number]:
    owner = value.owner
    if isinstance(owner, arith.ConstantOp):
        return owner.literal()
    return None


def _make_constant(value: Number, type_) -> arith.ConstantOp:
    if is_float_type(type_):
        return arith.ConstantOp(FloatAttr(float(value), type_), type_)
    return arith.ConstantOp(IntegerAttr(int(value), type_), type_)


def _try_fold(op: Operation, record: Optional[arith.Semantics]) -> Optional[arith.ConstantOp]:
    if isinstance(op, arith.SelectOp):
        condition = _constant_value(op.operands[0])
        if condition is None:
            return None
        chosen = op.operands[1] if condition else op.operands[2]
        constant = _constant_value(chosen)
        if constant is None:
            return None
        return _make_constant(constant, op.results[0].type)
    operands = [_constant_value(operand) for operand in op.operands]
    if None in operands:
        return None
    try:
        value = record.scalar(*operands)
    except ZeroDivisionError:  # divf by zero: the walker raises here too
        return None
    return _make_constant(value, op.results[0].type)


def _adds_nothing(constant: Optional[Number], op: Operation) -> bool:
    """Whether ``x + constant`` (``x - constant`` for a subtraction) is ``x``
    for every ``x``: an integer 0, and the float zero whose sign keeps
    ``-0.0`` (``-0.0 + 0.0`` is ``+0.0``): ``-0.0`` to add, ``+0.0`` to
    subtract."""
    if constant != 0:
        return False
    if isinstance(constant, int):
        return True
    return (math.copysign(1.0, constant) < 0) == (op.name == "arith.addf")


def _try_algebraic_simplification(op: Operation) -> Optional[SSAValue]:
    """x+0, x*1 style simplifications returning an existing value."""
    if op.name in ("arith.addi", "arith.addf", "arith.subi", "arith.subf"):
        if _adds_nothing(_constant_value(op.operands[1]), op):
            return op.operands[0]
        if op.name in ("arith.addi", "arith.addf") and \
                _adds_nothing(_constant_value(op.operands[0]), op):
            return op.operands[1]
    if op.name in ("arith.muli", "arith.mulf"):
        for this, other in ((0, 1), (1, 0)):
            constant = _constant_value(op.operands[this])
            if constant == 1:
                return op.operands[other]
    return None


def fold(op: Operation) -> Optional[Operation]:
    """Simplify or fold ``op``: return ``op`` if unchanged, else its new
    constant, or None if an existing value replaced it."""
    if op.parent is None:
        return op
    record = arith.SEMANTICS.get(arith.op_key(op))
    if (record is None or not record.folds) and not isinstance(op, arith.SelectOp):
        return op
    simplified = _try_algebraic_simplification(op)
    if simplified is not None:
        op.results[0].replace_by(simplified)
        op.erase()
        return None
    replacement = _try_fold(op, record)
    if replacement is None:
        return op
    op.parent.insert_op_before(replacement, op)
    op.results[0].replace_by(replacement.results[0])
    op.erase()
    return replacement


def fold_constants(module: Operation) -> int:
    """Fold constant arith expressions under ``module``; return the fold count.

    One pre-order sweep is the fixpoint: definitions come before their uses.
    """
    return sum(fold(op) is not op for op in module.walk())


class ConstantFoldingPass(ModulePass):
    """Fold arith expressions over compile-time constants."""

    name = "constant-folding"

    def apply(self, module: Operation) -> None:
        fold_constants(module)
