"""The arith dialect: integer and floating-point arithmetic on scalar values."""

from __future__ import annotations

from typing import Callable, Optional, Union

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


#: Binary ops usable as ``scf.reduce`` combiners, with the metadata execution
#: backends need: the NumPy ufunc implementing the combine, and whether the
#: combine order is observable in the result (floating-point ``+``/``*`` are
#: not associative bit-wise, so a vectorized reduction must replay the tree
#: walker's sequential left-fold; selection ops and integer ops are exact in
#: any order).  Keyed by operation name so lowered modules can be inspected
#: without isinstance checks.
REDUCTION_OP_METADATA: dict[str, tuple[str, bool]] = {
    AddfOp.name: ("add", True),
    MulfOp.name: ("multiply", True),
    AddiOp.name: ("add", False),
    MuliOp.name: ("multiply", False),
    MinimumfOp.name: ("minimum", False),
    MaximumfOp.name: ("maximum", False),
    MinSIOp.name: ("minimum", False),
    MaxSIOp.name: ("maximum", False),
}
