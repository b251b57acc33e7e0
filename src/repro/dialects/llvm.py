"""A minimal llvm dialect: pointer type and the conversions the MPI lowering needs."""

from __future__ import annotations

from ..ir.attributes import TypeAttribute
from ..ir.core import Operation, SSAValue
from ..ir.traits import Pure


class LLVMPointerType(TypeAttribute):
    """An opaque pointer (``!llvm.ptr``)."""

    name = "llvm.ptr"

    def parameters(self) -> tuple:
        return ()

    def print_parameters(self, printer) -> str:
        return ""

    def __str__(self) -> str:
        return "!llvm.ptr"


class IntToPtrOp(Operation):
    """Convert an integer address to an opaque pointer."""

    name = "llvm.inttoptr"
    traits = frozenset([Pure()])

    def __init__(self, operand: SSAValue):
        super().__init__(operands=[operand], result_types=[LLVMPointerType()])

    @property
    def result(self) -> SSAValue:
        return self.results[0]


class NullOp(Operation):
    """Materialise a null pointer."""

    name = "llvm.mlir.null"
    traits = frozenset([Pure()])

    def __init__(self):
        super().__init__(result_types=[LLVMPointerType()])

    @property
    def result(self) -> SSAValue:
        return self.results[0]

