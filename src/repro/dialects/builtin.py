"""The builtin dialect: the module container and generic conversion casts."""

from __future__ import annotations

from typing import Optional, Sequence

from ..ir.attributes import Attribute, StringAttr, TypeAttribute
from ..ir.builder import build_single_block_region
from ..ir.core import Operation, Region, SSAValue
from ..ir.traits import IsolatedFromAbove, Pure


class ModuleOp(Operation):
    """Top-level container for a compilation unit."""

    name = "builtin.module"
    traits = frozenset([IsolatedFromAbove()])

    def __init__(self, ops: Sequence[Operation] = (), sym_name: Optional[str] = None):
        attributes: dict[str, Attribute] = {}
        if sym_name is not None:
            attributes["sym_name"] = StringAttr(sym_name)
        super().__init__(
            attributes=attributes,
            regions=[build_single_block_region(ops=ops)],
        )

    @property
    def body(self) -> Region:
        return self.regions[0]

    @property
    def ops(self) -> list[Operation]:
        return self.body.block.ops

    def add_op(self, op: Operation) -> Operation:
        return self.body.block.add_op(op)

    def verify_(self) -> None:
        if len(self.regions) != 1:
            raise ValueError("builtin.module must have exactly one region")
        if len(self.regions[0].blocks) != 1:
            raise ValueError("builtin.module region must have exactly one block")


class UnrealizedConversionCastOp(Operation):
    """A cast between types that have no registered conversion.

    Used exactly as in the paper's fig. 4 to view a ``!stencil.field`` as a
    ``memref`` before handing it to ``dmp.swap``.
    """

    name = "builtin.unrealized_conversion_cast"
    traits = frozenset([Pure()])

    def __init__(self, inputs: Sequence[SSAValue], result_types: Sequence[TypeAttribute]):
        super().__init__(operands=list(inputs), result_types=list(result_types))

    @staticmethod
    def get(value: SSAValue, result_type: TypeAttribute) -> "UnrealizedConversionCastOp":
        return UnrealizedConversionCastOp([value], [result_type])

    @property
    def input(self) -> SSAValue:
        return self.operands[0]

    @property
    def output(self) -> SSAValue:
        return self.results[0]
