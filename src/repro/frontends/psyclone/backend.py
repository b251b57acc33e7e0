"""The PSyclone xDSL backend: PSy-IR -> stencil dialect.

Mirrors §5.2.1: stencils are identified in the Fortran loop nests, each loop
nest becomes one ``stencil.apply`` (with accesses derived from the array
subscripts), and the surrounding iteration (e.g. the tracer-advection outer
loop of 100 iterations) becomes an ``scf.for`` around the stencil sequence.
Arrays become ``!stencil.field`` kernel arguments shared by all stencils.

The stencil-level module is built by the builder the Devito and OEC
frontends share (:mod:`repro.frontends.oec.builder`), iterating the kernel
in place; this module keeps the parsing, the stencil extraction, the scalar
lookup and a walk of the PSy-IR nodes onto the builder's expression methods.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Any, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...core import CompiledProgram, ExecutionConfig, ExecutionResult, Session, Target

from ...dialects import builtin
from ...ir import f32, f64
from ..oec.builder import StencilExpressionBuilder, StencilKernel
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
        return _array_references(self.assignment.rhs)

    def halo(self) -> int:
        return max((abs(o) for access in self.accesses for o in access.offsets), default=0)


def _array_references(node) -> list[ArrayReference]:
    """Every array reference under ``node``, in evaluation order."""
    if isinstance(node, ArrayReference):
        return [node]
    if isinstance(node, (BinaryOperation, Comparison)):
        return _array_references(node.lhs) + _array_references(node.rhs)
    if isinstance(node, UnaryOperation):
        return _array_references(node.operand)
    if isinstance(node, Merge):
        return [ref for part in (node.true_value, node.false_value, node.condition)
                for ref in _array_references(part)]
    return []


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
            references = _array_references(assignment.rhs)
            stencils.append(
                ExtractedStencil(
                    output=assignment.lhs.name,
                    inputs=list(dict.fromkeys(ref.name for ref in references)),
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
        scalars: Optional[dict[str, float]] = None,
    ) -> builtin.ModuleOp:
        """Build the stencil-level module for a kernel over ``shape`` grid points.

        The iteration count is the kernel's run-time argument (:meth:`run`).
        """
        schedule = (
            source_or_schedule
            if isinstance(source_or_schedule, Schedule)
            else parse_fortran(source_or_schedule)
        )
        stencils = extract_stencils(schedule)
        halo = max(1, *(extracted.halo() for extracted in stencils))
        names = schedule.array_names()
        field = {name: i for i, name in enumerate(names)}
        # The kernel iterates its Fortran arrays in place: no buffer rotation.
        kernel = StencilKernel(
            schedule.name, shape, halo, self.element_type, len(names), None
        )
        for extracted in stencils:
            kernel.apply(
                [kernel.load(field[name]) for name in extracted.inputs],
                partial(_lower, extracted, scalars or {}),
                field[extracted.output],
            )
        return kernel.finish()

    def compile(
        self,
        source_or_schedule: "str | Schedule",
        shape: Sequence[int],
        *,
        target: Optional["Target"] = None,
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
            lambda: self.build_module(source_or_schedule, shape, scalars=scalars),
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


def _lower(
    extracted: ExtractedStencil, scalars: dict[str, float], cell: StencilExpressionBuilder
):
    """Emit the right-hand side of ``extracted`` for one cell."""
    operands = {name: i for i, name in enumerate(extracted.inputs)}

    def lower(node):
        if isinstance(node, Literal):
            return cell.constant(node.value)
        if isinstance(node, Reference):
            if node.name not in scalars:
                raise StencilExtractionError(
                    f"scalar {node.name!r} needs a value (pass it via scalars=...)"
                )
            return cell.constant(scalars[node.name])
        if isinstance(node, UnaryOperation):
            return cell.neg(lower(node.operand))
        if isinstance(node, ArrayReference):
            offsets = _offsets_in_dimension_order(node, extracted.loop_variables)
            return cell.access(operands[node.name], offsets)
        if isinstance(node, BinaryOperation):
            return cell.binary(node.operator, lower(node.lhs), lower(node.rhs))
        if isinstance(node, Comparison):
            predicate = _CMPF_PREDICATES[node.operator]
            return cell.compare(predicate, lower(node.lhs), lower(node.rhs))
        if isinstance(node, Merge):
            condition = lower(node.condition)
            return cell.select(condition, lower(node.true_value), lower(node.false_value))
        raise StencilExtractionError(f"cannot lower PSy-IR node {node!r}")

    return lower(extracted.assignment.rhs)


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
