"""Constant folding for the arith dialect.

Binary/unary arith operations whose operands are all produced by
``arith.constant`` are replaced by a new constant.  Together with CSE and DCE
this forms the canonicalisation pipeline, and is what makes the compile-time
known stencil bounds pay off (paper §4.1: "known bounds enable constant
folding of most of the memory access address computations").  A fold
computes what the tree walker does; where the walker raises (``divf`` by
zero) the op is left as it is.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

import numpy as np

from ...dialects import arith
from ...ir.attributes import FloatAttr, IntegerAttr
from ...ir.core import Operation, SSAValue
from ...ir.pass_manager import ModulePass
from ...ir.types import i1, is_float_type

Number = Union[int, float]

_INT_FOLDERS: dict[str, Callable[[int, int], int]] = {
    "arith.addi": lambda a, b: a + b,
    "arith.subi": lambda a, b: a - b,
    "arith.muli": lambda a, b: a * b,
    "arith.divsi": lambda a, b: int(a / b) if b != 0 else 0,
    "arith.remsi": lambda a, b: int(a - b * int(a / b)) if b != 0 else 0,
    "arith.minsi": min,
    "arith.maxsi": max,
    "arith.andi": lambda a, b: a & b,
}

#: A folder returning None leaves the op unfolded.
_FLOAT_FOLDERS: dict[str, Callable[[float, float], Optional[float]]] = {
    "arith.addf": lambda a, b: a + b,
    "arith.subf": lambda a, b: a - b,
    "arith.mulf": lambda a, b: a * b,
    "arith.divf": lambda a, b: a / b if b else None,
    "arith.maximumf": lambda a, b: float(np.maximum(a, b)),
    "arith.minimumf": lambda a, b: float(np.minimum(a, b)),
}

_CMPI_FOLDERS: dict[str, Callable[[int, int], bool]] = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "slt": lambda a, b: a < b,
    "sle": lambda a, b: a <= b,
    "sgt": lambda a, b: a > b,
    "sge": lambda a, b: a >= b,
    "ult": lambda a, b: abs(a) < abs(b),
    "ule": lambda a, b: abs(a) <= abs(b),
    "ugt": lambda a, b: abs(a) > abs(b),
    "uge": lambda a, b: abs(a) >= abs(b),
}


def _constant_value(value: SSAValue) -> Optional[Number]:
    owner = value.owner
    if isinstance(owner, arith.ConstantOp):
        return owner.literal()
    return None


def _make_constant(value: Number, type_) -> arith.ConstantOp:
    if is_float_type(type_):
        return arith.ConstantOp(FloatAttr(float(value), type_), type_)
    return arith.ConstantOp(IntegerAttr(int(value), type_), type_)


def _try_fold(op: Operation) -> Optional[arith.ConstantOp]:
    if op.name in _INT_FOLDERS or op.name in _FLOAT_FOLDERS:
        lhs = _constant_value(op.operands[0])
        rhs = _constant_value(op.operands[1])
        if lhs is None or rhs is None:
            return None
        folder = _INT_FOLDERS.get(op.name) or _FLOAT_FOLDERS[op.name]
        value = folder(lhs, rhs)
        return None if value is None else _make_constant(value, op.results[0].type)
    if op.name == "arith.negf":
        operand = _constant_value(op.operands[0])
        if operand is None:
            return None
        return _make_constant(-operand, op.results[0].type)
    if op.name == "arith.cmpi":
        lhs = _constant_value(op.operands[0])
        rhs = _constant_value(op.operands[1])
        if lhs is None or rhs is None:
            return None
        assert isinstance(op, arith.CmpiOp)
        result = _CMPI_FOLDERS[op.predicate](int(lhs), int(rhs))
        return _make_constant(int(result), i1)
    if op.name == "arith.select":
        condition = _constant_value(op.operands[0])
        if condition is None:
            return None
        chosen = op.operands[1] if condition else op.operands[2]
        constant = _constant_value(chosen)
        if constant is None:
            return None
        return _make_constant(constant, op.results[0].type)
    if op.name == "arith.index_cast":
        operand = _constant_value(op.operands[0])
        if operand is None:
            return None
        return _make_constant(int(operand), op.results[0].type)
    return None


def _try_algebraic_simplification(op: Operation) -> Optional[SSAValue]:
    """x+0, x*1, x*0 style simplifications returning an existing value."""
    if op.name in ("arith.addi", "arith.addf", "arith.subi", "arith.subf"):
        rhs = _constant_value(op.operands[1])
        if rhs == 0:
            return op.operands[0]
        if op.name in ("arith.addi", "arith.addf"):
            lhs = _constant_value(op.operands[0])
            if lhs == 0:
                return op.operands[1]
    if op.name in ("arith.muli", "arith.mulf"):
        for this, other in ((0, 1), (1, 0)):
            constant = _constant_value(op.operands[this])
            if constant == 1:
                return op.operands[other]
    return None


_FOLDABLE = {*_INT_FOLDERS, *_FLOAT_FOLDERS, "arith.negf", "arith.cmpi",
             "arith.select", "arith.index_cast"}


def fold(op: Operation) -> Optional[Operation]:
    """Simplify or fold ``op``: return ``op`` if unchanged, else its new
    constant, or None if an existing value replaced it."""
    if op.name not in _FOLDABLE or op.parent is None:
        return op
    simplified = _try_algebraic_simplification(op)
    if simplified is not None:
        op.results[0].replace_by(simplified)
        op.erase()
        return None
    replacement = _try_fold(op)
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
