"""The mini-Devito Operator: lowers symbolic equations and runs them.

Two back-ends are provided, mirroring the paper's comparison:

* ``backend="xdsl"`` — the shared-stack path: the equations are lowered to the
  stencil dialect, compiled by :func:`repro.core.compile_stencil_program` for
  the requested target (sequential, OpenMP, MPI, GPU, FPGA) and executed by
  the IR interpreter / simulated MPI runtime.
* ``backend="native"`` — the "standalone Devito" baseline: the same update
  expressions are executed directly with vectorised numpy, using exactly the
  same time-buffer rotation, so the two back-ends produce identical data and
  serve as each other's oracle in tests.

The lowering builds no operation itself: like the PSyclone and OEC
frontends, it goes through the shared stencil-program builder
(:mod:`repro.frontends.oec.builder`).  This module keeps what is Devito's:
the kernel's field slots, one load per (function, time offset) shared by the
equations, the time-buffer rotation, and a walk of the ``Expr`` nodes onto
the builder's expression methods.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np

from ...core import (
    CompiledProgram,
    ExecutionConfig,
    Session,
    Target,
    compile_from_frontend,
    cpu_target,
    default_session,
)
from ...dialects import builtin
from ...ir import SSAValue, f32, f64
from ...machine.kernel_model import ProgramCharacteristics, characterize_module
from ..oec.builder import StencilExpressionBuilder, StencilKernel
from .symbolic import Access, BinOp, Eq, Expr, Function, Scalar, Symbol, TimeFunction


class OperatorError(Exception):
    """Raised when equations cannot be lowered or executed."""


# ---------------------------------------------------------------------------
# Lowering symbolic equations to the stencil dialect
# ---------------------------------------------------------------------------

@dataclass
class _FieldSlot:
    """One field argument of the generated kernel."""

    function: Function
    buffer_index: int  # time buffer index (0 for plain Functions)
    argument_index: int


class _EquationLowerer:
    """Builds a stencil-level module from explicit update equations."""

    def __init__(self, equations: Sequence[Eq], dt: float, name: str):
        self.equations = list(equations)
        self.dt = float(dt)
        self.name = name
        self.updated: list[TimeFunction] = []
        self.read_only: list[Function] = []
        self._validate()

    def _validate(self) -> None:
        seen: set[int] = set()
        for equation in self.equations:
            lhs = equation.lhs
            if not isinstance(lhs, Access) or lhs.time_offset != 1:
                raise OperatorError(
                    "every equation must assign to a forward time access "
                    "(Eq(u.forward, ...)); use solve() to rearrange the PDE"
                )
            function = lhs.function
            if not isinstance(function, TimeFunction):
                raise OperatorError("updates must target TimeFunctions")
            if id(function) in seen:
                raise OperatorError(f"function {function.name} is updated twice")
            seen.add(id(function))
            self.updated.append(function)
        for equation in self.equations:
            for access in equation.rhs.accesses():
                target = access.function
                if isinstance(target, TimeFunction):
                    if id(target) not in seen:
                        raise OperatorError(
                            f"TimeFunction {target.name} is read but never updated"
                        )
                elif all(target is not existing for existing in self.read_only):
                    self.read_only.append(target)

    # -- helpers -----------------------------------------------------------------
    def field_slots(self) -> list[_FieldSlot]:
        slots: list[_FieldSlot] = []
        for function in self.updated + self.read_only:
            for buffer in range(function.buffers):
                slots.append(_FieldSlot(function, buffer, len(slots)))
        return slots

    def build_module(self) -> builtin.ModuleOp:
        slots = self.field_slots()
        position = {(id(s.function), s.buffer_index): s.argument_index for s in slots}

        def field_for(access: Access) -> int:
            # Buffer 0 carries time t, buffer 1 carries t-1, the last buffer
            # is the oldest and is overwritten with t+1.
            function_id, time_offset = _read_key(access)
            buffer = {0: 0, -1: 1, +1: access.function.buffers - 1}.get(time_offset)
            if buffer is None:
                raise OperatorError(f"unsupported time offset {time_offset}")
            return position[(function_id, buffer)]

        # Rotate the time buffers: the freshly written (last) buffer of each
        # TimeFunction becomes time t, every other buffer moves one back.
        rotation = [
            slot.argument_index + (slot.function.buffers - 1 if slot.buffer_index == 0 else -1)
            for slot in slots
        ]
        first = self.updated[0]
        kernel = StencilKernel(
            self.name, first.grid.shape, max(f.halo for f in self.updated + self.read_only),
            f32 if first.dtype == np.float32 else f64, len(slots), rotation,
        )
        # One load per (function, time offset) actually read, shared by every
        # equation that reads it.
        loads: dict[tuple[int, int], SSAValue] = {}
        for equation in self.equations:
            operands: dict[tuple[int, int], int] = {}
            for access in equation.rhs.accesses():
                key = _read_key(access)
                if key not in loads:
                    loads[key] = kernel.load(field_for(access))
                operands.setdefault(key, len(operands))
            kernel.apply(
                [loads[key] for key in operands],
                partial(self._lower, equation.rhs, operands),
                field_for(equation.lhs),
            )
        return kernel.finish()

    def _lower(self, expr: Expr, operands: dict, cell: StencilExpressionBuilder):
        """Emit ``expr`` for one cell; ``operands`` maps a read to its apply operand."""
        if isinstance(expr, Scalar):
            return cell.constant(expr.value)
        if isinstance(expr, Symbol):
            return cell.constant(self.dt if expr.name == "dt" else expr.default)
        if isinstance(expr, Function):
            expr = expr._as_access()
        if isinstance(expr, Access):
            return cell.access(operands[_read_key(expr)], expr.space_offsets)
        if isinstance(expr, BinOp):
            lhs = self._lower(expr.lhs, operands, cell)
            return cell.binary(expr.op, lhs, self._lower(expr.rhs, operands, cell))
        raise OperatorError(f"cannot lower expression node {expr!r}")


def _read_key(access: Access) -> tuple[int, int]:
    """What one load serves: the function and, for a TimeFunction, the time offset."""
    offset = access.time_offset if isinstance(access.function, TimeFunction) else 0
    return id(access.function), offset


# ---------------------------------------------------------------------------
# Native (numpy) execution - the standalone-Devito baseline
# ---------------------------------------------------------------------------

class _NativeExecutor:
    """Vectorised numpy execution of the update equations."""

    def __init__(self, equations: Sequence[Eq], dt: float):
        self.equations = list(equations)
        self.dt = float(dt)

    def run(self, timesteps: int) -> None:
        functions = [eq.lhs.function for eq in self.equations]
        grid = functions[0].grid
        halo = max(f.halo for f in functions)
        interior = tuple(slice(halo, halo + s) for s in grid.shape)
        # Rotation state per updated function: order[0] holds time t, the last
        # entry is the oldest buffer (overwritten with t+1).
        order: dict[int, list[int]] = {
            id(f): list(range(f.buffers)) for f in functions
        }

        for _ in range(int(timesteps)):
            updates = []
            for equation in self.equations:
                function = equation.lhs.function
                value = self._evaluate(equation.rhs, order, interior, halo)
                updates.append((function, value))
            for function, value in updates:
                target_buffer = order[id(function)][-1]
                function.data_with_halo[target_buffer][interior] = value
            for function, _ in updates:
                state = order[id(function)]
                order[id(function)] = [state[-1]] + state[:-1]

    def _evaluate(self, expr: Expr, order, interior, halo):
        if isinstance(expr, Scalar):
            return expr.value
        if isinstance(expr, Symbol):
            return self.dt if expr.name == "dt" else expr.default
        if isinstance(expr, Access):
            function = expr.function
            if isinstance(function, TimeFunction):
                state = order[id(function)]
                if expr.time_offset == 0:
                    buffer = state[0]
                elif expr.time_offset == -1:
                    buffer = state[1]
                else:
                    raise OperatorError("native backend reads only t and t-1")
                array = function.data_with_halo[buffer]
            else:
                array = function.data_with_halo
            slices = tuple(
                slice(halo + off, halo + off + extent)
                for off, extent in zip(expr.space_offsets, function.grid.shape)
            )
            return array[slices]
        if isinstance(expr, Function):
            return self._evaluate(expr._as_access(), order, interior, halo)
        if isinstance(expr, BinOp):
            lhs = self._evaluate(expr.lhs, order, interior, halo)
            rhs = self._evaluate(expr.rhs, order, interior, halo)
            if expr.op == "+":
                return lhs + rhs
            if expr.op == "-":
                return lhs - rhs
            if expr.op == "*":
                return lhs * rhs
            return lhs / rhs
        raise OperatorError(f"cannot evaluate expression node {expr!r}")


# ---------------------------------------------------------------------------
# Operator
# ---------------------------------------------------------------------------

class Operator:
    """Compile and run a set of explicit update equations (mini Devito)."""

    def __init__(
        self,
        equations: Eq | Sequence[Eq],
        *,
        backend: str = "xdsl",
        target: Optional[Target] = None,
        name: str = "kernel",
        config: Optional[ExecutionConfig] = None,
        session: Optional[Session] = None,
    ):
        if isinstance(equations, Eq):
            equations = [equations]
        if not equations:
            raise OperatorError("an Operator needs at least one equation")
        if backend not in ("xdsl", "native"):
            raise OperatorError(f"unknown backend {backend!r}")
        self.equations = list(equations)
        self.backend = backend
        self.target = target or cpu_target()
        #: Execution configuration (one object across all frontends).
        self.config = ExecutionConfig.coerce(config)
        #: The Session owning the runtime resources; ``None`` uses the
        #: process-wide default session.
        self.session = session
        self.name = name
        self._compiled: Optional[CompiledProgram] = None
        self._compiled_dt: Optional[float] = None
        #: The pre-resolved execution plan for the compiled program, reused
        #: across apply() calls (the amortized hot path of repro.core.session).
        self._plan = None

    # -- compilation ------------------------------------------------------------
    def compile(self, dt: float) -> CompiledProgram:
        """Lower to the stencil dialect and run the shared pipeline (JIT-style)."""
        if self._compiled is not None and self._compiled_dt == dt:
            return self._compiled
        self._compiled = compile_from_frontend(
            "devito.lower", lambda: self.stencil_module(dt), self.target
        )
        self._compiled_dt = dt
        if self._plan is not None:
            self._plan.close()
            self._plan = None
        return self._compiled

    def stencil_module(self, dt: float = 1.0) -> builtin.ModuleOp:
        """The stencil-level module before target lowering (for inspection)."""
        return _EquationLowerer(self.equations, dt, self.name).build_module()

    def characteristics(self, dt: float = 1.0) -> ProgramCharacteristics:
        """Kernel characteristics used by the performance models."""
        module = self.stencil_module(dt)
        from ...transforms.stencil import infer_shapes

        infer_shapes(module)
        return characterize_module(module)

    def apply(self, time: int, dt: float = 1.0e-3) -> None:
        """Advance the equations ``time`` steps with time step ``dt``."""
        if time < 0:
            raise OperatorError("the number of time steps must be non-negative")
        if self.backend == "native":
            _NativeExecutor(self.equations, dt).run(time)
            return
        program = self.compile(dt)
        arguments = self._field_arguments()
        plan = self.plan(dt)
        plan.run(arguments, [int(time)])

    def plan(self, dt: float = 1.0e-3):
        """The session :class:`~repro.core.session.Plan` for this operator.

        Compiled (and planned) once, reused across ``apply()`` calls; a new
        ``dt`` recompiles and re-plans.
        """
        program = self.compile(dt)
        plan = self._plan
        if plan is None or plan.closed or plan.session.closed:
            session = self.session or default_session()
            plan = session.plan(program, function=self.name, config=self.config)
            self._plan = plan
        return plan

    def _field_arguments(self) -> list[np.ndarray]:
        lowerer = _EquationLowerer(self.equations, self._compiled_dt or 1.0, self.name)
        arrays: list[np.ndarray] = []
        for slot in lowerer.field_slots():
            function = slot.function
            if isinstance(function, TimeFunction):
                arrays.append(function.data_with_halo[slot.buffer_index])
            else:
                arrays.append(function.data_with_halo)
        return arrays

    # -- result bookkeeping ------------------------------------------------------------
    @staticmethod
    def buffer_holding_time(function: TimeFunction, timesteps: int) -> int:
        """Which buffer of ``function`` holds the data of time ``timesteps``.

        Both back-ends rotate buffers identically, so this mapping is shared.
        """
        buffers = function.buffers
        return (-timesteps) % buffers if buffers > 2 else timesteps % buffers
