"""The arith dialect: integer and floating-point arithmetic on scalar values.

**One op table.**  What each element-wise op computes is written once, in
:data:`SEMANTICS`: one :class:`Semantics` record per op, keyed by its name,
and one per compare predicate, keyed ``"arith.cmpf:oeq"`` (:func:`op_key`).
Every consumer reads it.  The tree walker registers each record's ``scalar``
function as the op's handler, and constant folding applies the same function.
The vectorizer takes an op exactly when its record has a NumPy spelling, and
the nest printer and the stencil-level walker use that spelling.  The flop
model reads ``flops``, and vectorized reductions read ``reduce``.  ``None``
in a record means the form does not exist: with no NumPy spelling a nest
using the op is walked (the recorded ``VectorizationError`` fallback), with
no ``reduce`` the op is no ``scf.reduce`` combiner.  ``folds=False`` leaves
the op to run time.  ``arith.constant`` and ``arith.select`` are structure,
not arithmetic, and have no record.

**The arithmetic rule, for every level and every tier, f32 included.**  A
value read from memory is widened the way ``ndarray.item()`` widens it: any
float to f64, any integer to a 64-bit integer, whatever the element type of
the buffer.  All arithmetic happens on the widened values.  The only
rounding to a narrower element type is the store into a buffer, and
``arith.truncf``, which rounds to f32 and keeps the result wide.  So an f32
program computes in f64 and rounds once per stored cell: the walker's
``memref.load``/``memref.store`` per cell, ``stencil.access``/
``stencil.store`` per region, the generated NumPy per block.  A native
spelling has to do the same (load, convert to ``double``, compute, convert on
store) to stay bit-identical.  Integer results are exact while they fit in
i64: the walker and the folder compute with python's unbounded ``int`` where
NumPy wraps.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Optional, Union

import numpy as np

from ..ir.attributes import Attribute, FloatAttr, IntegerAttr, StringAttr, TypeAttribute
from ..ir.core import Operation, SSAValue
from ..ir.traits import ConstantLike, Pure
from ..ir.types import IntegerType, i1, index, is_float_type, is_integer_like


class ConstantOp(Operation):
    """Materialise a compile-time integer or float constant."""

    name = "arith.constant"
    traits = frozenset([Pure(), ConstantLike()])

    def __init__(self, value: Attribute, result_type: Optional[TypeAttribute] = None):
        if result_type is None:
            if isinstance(value, (IntegerAttr, FloatAttr)):
                result_type = value.type
            else:
                raise ValueError("arith.constant needs an explicit result type")
        super().__init__(attributes={"value": value}, result_types=[result_type])

    @staticmethod
    def from_int(value: int, type: TypeAttribute = index) -> "ConstantOp":
        return ConstantOp(IntegerAttr(value, type), type)

    @staticmethod
    def from_float(value: float, type: TypeAttribute) -> "ConstantOp":
        return ConstantOp(FloatAttr(value, type), type)

    @property
    def value(self) -> Attribute:
        return self.attributes["value"]

    @property
    def result(self) -> SSAValue:
        return self.results[0]

    def literal(self) -> Union[int, float]:
        value = self.value
        if isinstance(value, IntegerAttr):
            return value.value
        if isinstance(value, FloatAttr):
            return value.value
        raise TypeError(f"unsupported constant payload {value!r}")

    def scalar(self) -> Union[bool, int, float, None]:
        """The python value the tree walker binds: ``bool`` for ``i1``,
        ``int`` for other integers, ``float`` for floats (None: another
        payload)."""
        value = self.value
        if isinstance(value, IntegerAttr):
            result_type = self.results[0].type
            if isinstance(result_type, IntegerType) and result_type.width == 1:
                return bool(value.value)
            return int(value.value)
        if isinstance(value, FloatAttr):
            return float(value.value)
        return None

    def verify_(self) -> None:
        value = self.attributes.get("value")
        if not isinstance(value, (IntegerAttr, FloatAttr)):
            raise ValueError("arith.constant requires an integer or float value attribute")


class _BinaryOp(Operation):
    """Shared implementation for binary ops where result type == operand type."""

    traits = frozenset([Pure()])

    def __init__(self, lhs: SSAValue, rhs: SSAValue, result_type: Optional[TypeAttribute] = None):
        super().__init__(
            operands=[lhs, rhs],
            result_types=[result_type if result_type is not None else lhs.type],
        )

    @property
    def lhs(self) -> SSAValue:
        return self.operands[0]

    @property
    def rhs(self) -> SSAValue:
        return self.operands[1]

    @property
    def result(self) -> SSAValue:
        return self.results[0]

    #: What the operand type must be (None: anything), and what to say if not.
    _operand_check: Optional[tuple[Callable[[Attribute], bool], str]] = None

    def verify_(self) -> None:
        operand_type = self._operands[0].type
        if operand_type != self._operands[1].type:
            raise ValueError(f"{self.name}: operand types must match")
        if self._operand_check is not None:
            accepts, expected = self._operand_check
            if not accepts(operand_type):
                raise ValueError(f"{self.name}: expects {expected} operands")


class _IntBinaryOp(_BinaryOp):
    _operand_check = (is_integer_like, "integer or index")


class _FloatBinaryOp(_BinaryOp):
    _operand_check = (is_float_type, "floating point")


class AddiOp(_IntBinaryOp):
    name = "arith.addi"


class SubiOp(_IntBinaryOp):
    name = "arith.subi"


class MuliOp(_IntBinaryOp):
    name = "arith.muli"


class DivSIOp(_IntBinaryOp):
    name = "arith.divsi"


class RemSIOp(_IntBinaryOp):
    name = "arith.remsi"


class MinSIOp(_IntBinaryOp):
    name = "arith.minsi"


class MaxSIOp(_IntBinaryOp):
    name = "arith.maxsi"


class AndIOp(_IntBinaryOp):
    name = "arith.andi"


class AddfOp(_FloatBinaryOp):
    name = "arith.addf"


class SubfOp(_FloatBinaryOp):
    name = "arith.subf"


class MulfOp(_FloatBinaryOp):
    name = "arith.mulf"


class DivfOp(_FloatBinaryOp):
    name = "arith.divf"


class MaximumfOp(_FloatBinaryOp):
    name = "arith.maximumf"


class MinimumfOp(_FloatBinaryOp):
    name = "arith.minimumf"


class NegfOp(Operation):
    """Floating point negation."""

    name = "arith.negf"
    traits = frozenset([Pure()])

    def __init__(self, operand: SSAValue):
        super().__init__(operands=[operand], result_types=[operand.type])

    @property
    def result(self) -> SSAValue:
        return self.results[0]


#: Integer comparison predicates in MLIR order.
CMPI_PREDICATES = ("eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge")
#: Float comparison predicates (ordered comparisons only).
CMPF_PREDICATES = ("false", "oeq", "ogt", "oge", "olt", "ole", "one", "ord")


class CmpiOp(Operation):
    """Integer comparison producing an i1."""

    name = "arith.cmpi"
    traits = frozenset([Pure()])

    def __init__(self, predicate: str, lhs: SSAValue, rhs: SSAValue):
        if predicate not in CMPI_PREDICATES:
            raise ValueError(f"unknown cmpi predicate {predicate!r}")
        super().__init__(
            operands=[lhs, rhs],
            attributes={"predicate": StringAttr(predicate)},
            result_types=[i1],
        )

    @property
    def predicate(self) -> str:
        attr = self.attributes["predicate"]
        assert isinstance(attr, StringAttr)
        return attr.data

    @property
    def result(self) -> SSAValue:
        return self.results[0]

    def verify_(self) -> None:
        attr = self.attributes.get("predicate")
        if not isinstance(attr, StringAttr) or attr.data not in CMPI_PREDICATES:
            raise ValueError("arith.cmpi requires a valid predicate attribute")


class CmpfOp(Operation):
    """Floating point comparison producing an i1."""

    name = "arith.cmpf"
    traits = frozenset([Pure()])

    def __init__(self, predicate: str, lhs: SSAValue, rhs: SSAValue):
        if predicate not in CMPF_PREDICATES:
            raise ValueError(f"unknown cmpf predicate {predicate!r}")
        super().__init__(
            operands=[lhs, rhs],
            attributes={"predicate": StringAttr(predicate)},
            result_types=[i1],
        )

    @property
    def predicate(self) -> str:
        attr = self.attributes["predicate"]
        assert isinstance(attr, StringAttr)
        return attr.data

    @property
    def result(self) -> SSAValue:
        return self.results[0]


class SelectOp(Operation):
    """Ternary select: ``condition ? true_value : false_value``."""

    name = "arith.select"
    traits = frozenset([Pure()])

    def __init__(self, condition: SSAValue, true_value: SSAValue, false_value: SSAValue):
        super().__init__(
            operands=[condition, true_value, false_value],
            result_types=[true_value.type],
        )

    @property
    def result(self) -> SSAValue:
        return self.results[0]

    def verify_(self) -> None:
        if self.operands[1].type != self.operands[2].type:
            raise ValueError("arith.select branch types must match")


class _CastOp(Operation):
    traits = frozenset([Pure()])

    def __init__(self, operand: SSAValue, result_type: TypeAttribute):
        super().__init__(operands=[operand], result_types=[result_type])

    @property
    def result(self) -> SSAValue:
        return self.results[0]


class IndexCastOp(_CastOp):
    """Cast between index and integer types."""

    name = "arith.index_cast"


class SIToFPOp(_CastOp):
    """Signed integer to floating point conversion."""

    name = "arith.sitofp"


class FPToSIOp(_CastOp):
    """Floating point to signed integer conversion."""

    name = "arith.fptosi"


class ExtFOp(_CastOp):
    """Floating point widening (f32 -> f64)."""

    name = "arith.extf"


class TruncFOp(_CastOp):
    """Floating point narrowing (f64 -> f32)."""

    name = "arith.truncf"


class ExtSIOp(_CastOp):
    """Signed integer widening."""

    name = "arith.extsi"


class TruncIOp(_CastOp):
    """Integer narrowing."""

    name = "arith.trunci"


# ---------------------------------------------------------------------------
# the op table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Semantics:
    """What one element-wise op computes, in every form the stack uses.

    * ``scalar`` -- the function of widened python values: the tree walker's
      handler applies it and, when ``folds``, constant folding applies it to
      constant operands.  Where it raises (``divf`` by zero: python floats
      raise ``ZeroDivisionError``) the walker fails and the folder leaves the
      op as it is.
    * ``array`` -- the NumPy expression over widened arrays, NumPy spelled
      ``_np`` and the operands ``{a}``/``{b}``; :attr:`numpy` is it as a
      function.  None: the vectorizer has no spelling, so a nest using the op
      is walked (a recorded ``VectorizationError`` fallback).
    * ``ufunc`` -- the NumPy ufunc writing the same result into existing
      memory (``out=``); None: no in-place form (a cast may return its
      operand itself).
    * ``dtype`` -- the result dtype over widened arrays; None: the operand's.
    * ``python`` -- the expression over python scalars (None: ``array``).
    * ``flops`` -- the weight of one application in the flop model.
    * ``reduce`` -- None: not an ``scf.reduce`` combiner; else whether the
      combine order is observable (float ``+``/``*`` do not associate bit for
      bit, so a vectorized reduction replays the walker's left fold).  The
      combine is ``ufunc``.
    """

    arity: int
    scalar: Callable[..., Any]
    array: Optional[str] = None
    ufunc: Optional[str] = None
    dtype: Optional[np.dtype] = None
    python: Optional[str] = None
    flops: int = 0
    reduce: Optional[bool] = None
    folds: bool = True

    def __post_init__(self) -> None:
        if self.python is None:
            object.__setattr__(self, "python", self.array)

    @cached_property
    def numpy(self) -> Callable[..., Any]:
        """``array`` as a function of its operands."""
        return eval(f"lambda a, b=None: {self.array.format(a='a', b='b')}", {"_np": np})


def _divsi(a: int, b: int) -> int:
    """Division truncated toward zero, exact for every i64 (no float on the
    way); 0 when ``b`` is 0, the walker's long-standing choice."""
    if not b:
        return 0
    quotient = abs(a) // abs(b)
    return quotient if (a < 0) == (b < 0) else -quotient


def _remsi(a: int, b: int) -> int:
    """The remainder of :func:`_divsi` (the sign of ``a``); 0 when ``b`` is 0."""
    return a - b * _divsi(a, b) if b else 0


def _unsigned(compare: Callable[[int, int], bool]) -> Callable[[int, int], bool]:
    """``compare`` of both operands read as unsigned.  Modulo 2**64 orders an
    operand that fits its width w <= 64 (``index`` is 64 bits) as modulo 2**w
    does: non-negative values in order, then the negative ones in order."""
    return lambda a, b: compare(a % (1 << 64), b % (1 << 64))


def _compares() -> dict[str, Semantics]:
    """One record per compare predicate.  ``cmpf`` ``one`` is true when an
    operand is NaN (python ``!=``, NumPy ``not_equal``): that is Fortran's
    ``/=``, which the PSyclone frontend maps to it, and MLIR's ``une``.
    ``ord`` is false when an operand is NaN."""
    table = {
        f"{CmpfOp.name}:false": Semantics(2, lambda a, b: False, dtype=_B, folds=False),
        f"{CmpfOp.name}:ord": Semantics(2, lambda a, b: a == a and b == b, dtype=_B,
                                        folds=False),
    }
    for signed, ordered, compare, ufunc in (
        ("eq", "oeq", operator.eq, "equal"), ("ne", "one", operator.ne, "not_equal"),
        ("slt", "olt", operator.lt, "less"), ("sle", "ole", operator.le, "less_equal"),
        ("sgt", "ogt", operator.gt, "greater"), ("sge", "oge", operator.ge, "greater_equal"),
    ):
        spelling = f"_np.{ufunc}({{a}}, {{b}})"
        table[f"{CmpiOp.name}:{signed}"] = Semantics(2, compare, spelling, ufunc, _B)
        table[f"{CmpfOp.name}:{ordered}"] = Semantics(2, compare, spelling, ufunc, _B,
                                                       folds=False)
        if signed.startswith("s"):
            table[f"{CmpiOp.name}:u{signed[1:]}"] = Semantics(2, _unsigned(compare), dtype=_B)
    return table


_F, _I, _B = np.dtype(np.float64), np.dtype(np.int64), np.dtype(np.bool_)
_WIDEN = "_np.asarray({a}, dtype=_np.float64)"

#: The semantics of every element-wise op, keyed by :func:`op_key`.
SEMANTICS: dict[str, Semantics] = {
    AddiOp.name: Semantics(2, operator.add, "({a} + {b})", "add", _I, reduce=False),
    SubiOp.name: Semantics(2, operator.sub, "({a} - {b})", "subtract", _I),
    MuliOp.name: Semantics(2, operator.mul, "({a} * {b})", "multiply", _I, reduce=False),
    DivSIOp.name: Semantics(2, _divsi),
    RemSIOp.name: Semantics(2, _remsi),
    MinSIOp.name: Semantics(2, min, "_np.minimum({a}, {b})", "minimum", _I, reduce=False),
    MaxSIOp.name: Semantics(2, max, "_np.maximum({a}, {b})", "maximum", _I, reduce=False),
    AndIOp.name: Semantics(2, operator.and_),
    AddfOp.name: Semantics(2, operator.add, "({a} + {b})", "add", _F, flops=1, reduce=True),
    SubfOp.name: Semantics(2, operator.sub, "({a} - {b})", "subtract", _F, flops=1),
    MulfOp.name: Semantics(2, operator.mul, "({a} * {b})", "multiply", _F, flops=1,
                           reduce=True),
    DivfOp.name: Semantics(2, operator.truediv, "({a} / {b})", "divide", _F, flops=4),
    MaximumfOp.name: Semantics(2, np.maximum, "_np.maximum({a}, {b})", "maximum", _F,
                               flops=1, reduce=False),
    MinimumfOp.name: Semantics(2, np.minimum, "_np.minimum({a}, {b})", "minimum", _F,
                               flops=1, reduce=False),
    NegfOp.name: Semantics(1, operator.neg, "(-{a})", "negative", flops=1),
    IndexCastOp.name: Semantics(1, int),
    SIToFPOp.name: Semantics(1, float, _WIDEN, dtype=_F, python="float({a})", folds=False),
    ExtFOp.name: Semantics(1, float, _WIDEN, dtype=_F, python="float({a})", folds=False),
    TruncFOp.name: Semantics(
        1, lambda v: float(np.float32(v)),
        "_np.asarray(_np.asarray({a}, dtype=_np.float32), dtype=_np.float64)",
        dtype=_F, python="float(_np.float32({a}))", folds=False),
    FPToSIOp.name: Semantics(1, int, "_np.asarray({a}).astype(_np.int64)", dtype=_I,
                             python="int({a})", folds=False),
    ExtSIOp.name: Semantics(1, int, "{a}", folds=False),
    TruncIOp.name: Semantics(1, int, "{a}", folds=False),
    **_compares(),
}


def op_key(op: Operation) -> str:
    """The :data:`SEMANTICS` key of ``op``: its name, a compare's with its
    predicate (``"arith.cmpf:oeq"``)."""
    if isinstance(op, (CmpiOp, CmpfOp)):
        return f"{op.name}:{op.predicate}"
    return op.name
