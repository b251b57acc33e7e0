"""The func dialect: function definition, call and return."""

from __future__ import annotations

from typing import Optional, Sequence

from ..ir.attributes import StringAttr, SymbolRefAttr, TypeAttribute
from ..ir.core import Block, Operation, Region, SSAValue
from ..ir.traits import HasParent, IsolatedFromAbove, IsTerminator, SymbolOp
from ..ir.types import FunctionType


class FuncOp(Operation):
    """A function definition (or declaration, when the body region is empty)."""

    name = "func.func"
    traits = frozenset([IsolatedFromAbove(), SymbolOp()])

    def __init__(
        self,
        sym_name: str,
        function_type: FunctionType,
        region: Optional[Region] = None,
        visibility: Optional[str] = None,
    ):
        attributes = {
            "sym_name": StringAttr(sym_name),
            "function_type": function_type,
        }
        if visibility is not None:
            attributes["sym_visibility"] = StringAttr(visibility)
        if region is None:
            region = Region(Block(arg_types=function_type.inputs))
        super().__init__(attributes=attributes, regions=[region])

    @staticmethod
    def external(sym_name: str, inputs: Sequence[TypeAttribute], outputs: Sequence[TypeAttribute]) -> "FuncOp":
        """Create an external function declaration (no body)."""
        func = FuncOp.create(
            attributes={
                "sym_name": StringAttr(sym_name),
                "function_type": FunctionType(inputs, outputs),
                "sym_visibility": StringAttr("private"),
            },
            regions=[Region()],
        )
        return func

    @property
    def sym_name(self) -> str:
        attr = self.attributes["sym_name"]
        assert isinstance(attr, StringAttr)
        return attr.data

    @property
    def function_type(self) -> FunctionType:
        attr = self.attributes["function_type"]
        assert isinstance(attr, FunctionType)
        return attr

    @property
    def body(self) -> Region:
        return self.regions[0]

    @property
    def is_declaration(self) -> bool:
        return not self.regions[0].blocks

    @property
    def args(self) -> list[SSAValue]:
        return list(self.body.block.args)

    def verify_(self) -> None:
        if "sym_name" not in self.attributes:
            raise ValueError("func.func requires a sym_name attribute")
        if not isinstance(self.attributes.get("function_type"), FunctionType):
            raise ValueError("func.func requires a function_type attribute")
        if self.is_declaration:
            return
        block = self.body.block
        if len(block.args) != len(self.function_type.inputs):
            raise ValueError(
                "func.func entry block arguments do not match the function type"
            )
        for arg, expected in zip(block.args, self.function_type.inputs):
            if arg.type != expected:
                raise ValueError(
                    f"func.func entry block argument type {arg.type} does not match "
                    f"function type input {expected}"
                )


class ReturnOp(Operation):
    """Return from the enclosing function."""

    name = "func.return"
    traits = frozenset([IsTerminator(), HasParent("func.func")])

    def __init__(self, values: Sequence[SSAValue] = ()):
        super().__init__(operands=list(values))

    def verify_(self) -> None:
        parent = self.parent_op
        if parent is None or not isinstance(parent, FuncOp):
            return
        expected = parent.function_type.outputs
        if len(expected) != len(self.operands):
            raise ValueError(
                f"func.return has {len(self.operands)} operands but the function "
                f"returns {len(expected)} values"
            )
        for operand, expected_type in zip(self.operands, expected):
            if operand.type != expected_type:
                raise ValueError(
                    f"func.return operand type {operand.type} does not match "
                    f"function result type {expected_type}"
                )


class CallOp(Operation):
    """Direct call to a named function."""

    name = "func.call"

    def __init__(
        self,
        callee: str | SymbolRefAttr,
        arguments: Sequence[SSAValue] = (),
        result_types: Sequence[TypeAttribute] = (),
    ):
        if isinstance(callee, str):
            callee = SymbolRefAttr(callee)
        super().__init__(
            operands=list(arguments),
            attributes={"callee": callee},
            result_types=list(result_types),
        )

    @property
    def callee(self) -> str:
        attr = self.attributes["callee"]
        assert isinstance(attr, SymbolRefAttr)
        return attr.string_value

    def verify_(self) -> None:
        if not isinstance(self.attributes.get("callee"), SymbolRefAttr):
            raise ValueError("func.call requires a callee symbol attribute")
