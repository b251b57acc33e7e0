"""The PSyclone xDSL backend: PSy-IR -> stencil dialect.

Mirrors §5.2.1: stencils are identified in the Fortran loop nests, each loop
nest becomes one ``stencil.apply`` (with accesses derived from the array
subscripts), and the surrounding iteration (e.g. the tracer-advection outer
loop of 100 iterations) becomes an ``scf.for`` around the stencil sequence.
Arrays become ``!stencil.field`` kernel arguments shared by all stencils.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...core import CompiledProgram, ExecutionConfig, ExecutionResult, Session, Target

from ...dialects import arith, builtin, func, scf, stencil
from ...ir import Builder, FunctionType, f32, f64, index
from .fortran_parser import parse_fortran
from .psyir import (
    ArrayReference,
    Assignment,
    BinaryOperation,
    Comparison,
    Literal,
    Loop,
    Merge,
    Reference,
    Schedule,
    UnaryOperation,
)

#: Fortran relational operators -> ordered arith.cmpf predicates.
_CMPF_PREDICATES = {
    ">": "ogt", "<": "olt", ">=": "oge", "<=": "ole", "==": "oeq", "/=": "one",
}


class StencilExtractionError(Exception):
    """Raised when a loop nest cannot be recognised as a stencil."""


@dataclass
class ExtractedStencil:
    """One stencil identified in the Fortran source."""

    output: str
    inputs: list[str]
    assignment: Assignment
    loop_variables: tuple[str, ...]

    @property
    def accesses(self) -> list[ArrayReference]:
        found: list[ArrayReference] = []

        def visit(node) -> None:
            if isinstance(node, ArrayReference):
                found.append(node)
            elif isinstance(node, (BinaryOperation, Comparison)):
                visit(node.lhs)
                visit(node.rhs)
            elif isinstance(node, UnaryOperation):
                visit(node.operand)
            elif isinstance(node, Merge):
                visit(node.true_value)
                visit(node.false_value)
                visit(node.condition)

        visit(self.assignment.rhs)
        return found

    def halo(self) -> int:
        radius = 0
        for access in self.accesses:
            for offset in access.offsets:
                radius = max(radius, abs(offset))
        return radius


def extract_stencils(schedule: Schedule) -> list[ExtractedStencil]:
    """Identify stencil computations in the loop nests of a schedule."""
    stencils: list[ExtractedStencil] = []
    for node in schedule.body:
        if not isinstance(node, Loop):
            continue
        loop_variables: list[str] = []
        current = node
        while True:
            loop_variables.append(current.variable)
            body = current.body
            if len(body) == 1 and isinstance(body[0], Loop):
                current = body[0]
                continue
            break
        assignments = [stmt for stmt in current.body if isinstance(stmt, Assignment)]
        if not assignments:
            raise StencilExtractionError(
                "innermost loop body contains no array assignments"
            )
        for assignment in assignments:
            inputs: list[str] = []

            def visit(expr) -> None:
                if isinstance(expr, ArrayReference) and expr.name not in inputs:
                    inputs.append(expr.name)
                elif isinstance(expr, (BinaryOperation, Comparison)):
                    visit(expr.lhs)
                    visit(expr.rhs)
                elif isinstance(expr, UnaryOperation):
                    visit(expr.operand)
                elif isinstance(expr, Merge):
                    visit(expr.true_value)
                    visit(expr.false_value)
                    visit(expr.condition)

            visit(assignment.rhs)
            stencils.append(
                ExtractedStencil(
                    output=assignment.lhs.name,
                    inputs=inputs,
                    assignment=assignment,
                    loop_variables=tuple(reversed(loop_variables)),
                )
            )
    if not stencils:
        raise StencilExtractionError("no stencil loop nests found in the subroutine")
    return stencils


class PsycloneXDSLBackend:
    """Compile a Fortran kernel to a stencil-level module."""

    def __init__(self, *, dtype=np.float32):
        self.element_type = f32 if np.dtype(dtype) == np.float32 else f64

    def build_module(
        self,
        source_or_schedule: str | Schedule,
        shape: Sequence[int],
        *,
        iterations: int = 1,
        scalars: Optional[dict[str, float]] = None,
    ) -> builtin.ModuleOp:
        """Build the stencil-level module for a kernel over ``shape`` grid points."""
        schedule = (
            source_or_schedule
            if isinstance(source_or_schedule, Schedule)
            else parse_fortran(source_or_schedule)
        )
        scalars = scalars or {}
        stencils = extract_stencils(schedule)
        shape = tuple(int(s) for s in shape)
        rank = len(shape)
        halo = max((s.halo() for s in stencils), default=0)
        halo = max(halo, 1)

        field_bounds = stencil.StencilBoundsAttr([-halo] * rank, [s + halo for s in shape])
        store_bounds = stencil.StencilBoundsAttr([0] * rank, list(shape))
        field_type = stencil.FieldType(field_bounds, self.element_type)
        temp_type = stencil.TempType(store_bounds, self.element_type)

        array_names = schedule.array_names()
        arg_types = [field_type] * len(array_names) + [index]
        kernel = func.FuncOp(schedule.name, FunctionType(arg_types, []))
        builder = Builder.at_end(kernel.body.block)
        field_args = {name: arg for name, arg in zip(array_names, kernel.args)}
        iterations_arg = kernel.args[len(array_names)]

        zero = builder.insert(arith.ConstantOp.from_int(0)).result
        one = builder.insert(arith.ConstantOp.from_int(1)).result
        outer = scf.ForOp(zero, iterations_arg, one)
        builder.insert(outer)
        builder.insert(func.ReturnOp([]))
        body = Builder.at_end(outer.body.block)

        for extracted in stencils:
            loads = {
                name: body.insert(stencil.LoadOp(field_args[name]))
                for name in extracted.inputs
            }
            apply_op = stencil.ApplyOp(
                [loads[name].result for name in extracted.inputs], [temp_type]
            )
            body.insert(apply_op)
            apply_builder = Builder.at_end(apply_op.body.block)
            operand_index = {name: i for i, name in enumerate(extracted.inputs)}
            loop_variables = extracted.loop_variables

            def emit(node):
                if isinstance(node, Literal):
                    return apply_builder.insert(
                        arith.ConstantOp.from_float(node.value, self.element_type)
                    ).result
                if isinstance(node, Reference):
                    if node.name not in scalars:
                        raise StencilExtractionError(
                            f"scalar {node.name!r} needs a value (pass it via scalars=...)"
                        )
                    return apply_builder.insert(
                        arith.ConstantOp.from_float(scalars[node.name], self.element_type)
                    ).result
                if isinstance(node, UnaryOperation):
                    operand = emit(node.operand)
                    return apply_builder.insert(arith.NegfOp(operand)).result
                if isinstance(node, ArrayReference):
                    offsets = _offsets_in_dimension_order(node, loop_variables)
                    region_arg = apply_op.region_args[operand_index[node.name]]
                    return apply_builder.insert(
                        stencil.AccessOp(region_arg, offsets)
                    ).result
                if isinstance(node, BinaryOperation):
                    lhs = emit(node.lhs)
                    rhs = emit(node.rhs)
                    op_cls = {
                        "+": arith.AddfOp, "-": arith.SubfOp,
                        "*": arith.MulfOp, "/": arith.DivfOp,
                    }[node.operator]
                    return apply_builder.insert(op_cls(lhs, rhs)).result
                if isinstance(node, Comparison):
                    lhs = emit(node.lhs)
                    rhs = emit(node.rhs)
                    predicate = _CMPF_PREDICATES[node.operator]
                    return apply_builder.insert(
                        arith.CmpfOp(predicate, lhs, rhs)
                    ).result
                if isinstance(node, Merge):
                    condition = emit(node.condition)
                    true_value = emit(node.true_value)
                    false_value = emit(node.false_value)
                    return apply_builder.insert(
                        arith.SelectOp(condition, true_value, false_value)
                    ).result
                raise StencilExtractionError(f"cannot lower PSy-IR node {node!r}")

            result = emit(extracted.assignment.rhs)
            apply_builder.insert(stencil.ReturnOp([result]))
            body.insert(
                stencil.StoreOp(
                    apply_op.results[0], field_args[extracted.output], store_bounds
                )
            )

        body.insert(scf.YieldOp([]))
        return builtin.ModuleOp([kernel])

    def compile(
        self,
        source_or_schedule: "str | Schedule",
        shape: Sequence[int],
        *,
        target: Optional["Target"] = None,
        iterations: int = 1,
        scalars: Optional[dict[str, float]] = None,
    ) -> "CompiledProgram":
        """Build the stencil module and run the shared pipeline for ``target``.

        The PSyclone analogue of ``Operator.compile``: one call from Fortran
        source (or a parsed schedule) to a :class:`~repro.core.CompiledProgram`
        ready for a session plan.
        """
        from ...core import compile_from_frontend, cpu_target

        return compile_from_frontend(
            "psyclone.lower",
            lambda: self.build_module(
                source_or_schedule, shape, iterations=iterations, scalars=scalars
            ),
            target or cpu_target(),
        )

    def run(
        self,
        program: "CompiledProgram",
        fields: Sequence[np.ndarray],
        iterations: int,
        *,
        function: Optional[str] = None,
        config: Optional["ExecutionConfig"] = None,
        session: Optional["Session"] = None,
        **overrides: Any,
    ) -> "ExecutionResult":
        """Execute a compiled kernel through the Session API.

        ``fields`` are the (halo-extended) global buffers in the kernel's
        argument order — i.e. ``schedule.array_names()`` order — updated in
        place.  ``config``/``overrides`` configure the execution
        (:class:`~repro.core.ExecutionConfig` fields); ``session`` defaults
        to the process-wide default session.
        """
        from ...core import default_session

        active = session or default_session()
        # function=None defers to the plan's default-function resolution
        # (prefer "kernel", error on ambiguity).
        return active.run(
            program, list(fields), [int(iterations)],
            function=function, config=config, **overrides,
        )


def _offsets_in_dimension_order(
    reference: ArrayReference, loop_variables: tuple[str, ...]
) -> list[int]:
    """Map Fortran subscripts (i, j, k) onto stencil offsets in dimension order.

    Fortran arrays are indexed ``(i, j, k)`` with ``i`` the fastest dimension
    while our fields use row-major logical coordinates; the loop nest order
    (outermost first) defines the dimension order of the stencil.
    """
    by_variable = {idx.variable: idx.offset for idx in reference.indices}
    offsets = []
    for variable in loop_variables:
        offsets.append(by_variable.get(variable, 0))
    return offsets
