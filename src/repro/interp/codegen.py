"""Megakernel code generation: trace a function once, emit one function.

Walking the lowered IR op by op costs a handler dispatch per op and an
environment update per value; on small grids run for many timesteps that
dispatch — not the NumPy work — dominates.  This module is the one compiled
tier of the stack, and its two ends: a function is *traced* once
(:func:`trace_program`) and *emitted* per rank and buffer layout
(:func:`emit_megakernel`) as a single straight-line Python function — fused
whole-array NumPy statements for every compiled nest, ``dmp.swap``
isend/irecv posts, interior-box execution and halo completion points inlined
at fixed program points, the time loop a plain ``for`` — compiled with
:func:`compile` and executed directly.  A kernel that completes halos is a
generator that yields each pending halo at its completion point to its
driver, which lands it: :func:`repro.core.rank.run_blocking`, or — for the
ranks of a thread-world job — the scheduler of
:func:`repro.core.rank.run_scheduled`, which runs every rank on one thread.

Between the two ends sits the schedule (:mod:`repro.interp.schedule`), a
plain value: the trace is resolved once, and each emission plans it against
the buffer layout (:func:`~repro.interp.schedule.plan_megakernel`) and
prints the schedule (:func:`~repro.interp.schedule.print_python`), as the
stack's levels do.  The trace resolves every fused nest against its symbols
once, into a :class:`~repro.interp.nestplan.FusedNest`: emit-time constants
folded into its affine terms and literals, its other scalars named by trace
symbol, its values by instruction position and its reductions by numbered
``_env`` slots.  Nothing after the trace reads the IR; :func:`emit_megakernel`
binds the islands and ``_env`` slots the printed kernel names back to the
trace's ops and values.

What the tracer cannot fuse becomes an **island**: a run of consecutive ops
the tree walker executes in place, in program order, on one
:class:`~repro.interp.interpreter.Interpreter` per run that shares the rank's
communicator, tracer and statistics.  Its environment maps the traced values
the island reads to their current ones (the rotating buffers, the step),
and what islands and fused reductions produce lives in the kernel's
``_env``, where later islands and nests read it.  In-flight halos land before
an island runs.  Islands are what ``gpu.host_synchronize``, ``hls.dataflow``,
MPI calls outside a lowered swap, scalar arithmetic, ops around the time loop
and nests the vectorizer rejects become.

A halo exchange has two spellings and one plan.  A ``dmp.swap`` is a swap
step; so is the message group ``convert-dmp-to-mpi`` lowers one to (rank
query, request array, packing copies, ``MPI_Isend``/``MPI_Irecv``,
``MPI_Waitall``, unpacking copies), found by :func:`_message_groups` from the
swap declaration its request array keeps.  Both post and land through
:func:`~repro.interp.interpreter.post_swap` / ``complete_swap`` with the same
:class:`~repro.interp.schedule.SwapMessagePlan`, so both emit the same
kernel, hoisted statistics aside (the walker of the ``MPI_*`` form counts
messages, not ``halo_swaps`` or halo elements).

Halo exchanges overlap compute wherever
:func:`~repro.interp.nestplan.plan_nest` proves it safe: a nest's interior
runs while its halos are in flight and its boundary strips after they land.
There is no switch to turn that off; the tree walker, whose exchanges
block, is the blocking reference.  Every statistics counter of a fused op is
*statically hoisted*: the emitted function adds ``once + trips *
per_iteration`` to each field up front; islands count their own ops as they
walk them.  Fields and statistics equal the tree walker's, except the two
counters that say how a run went: ``ops_executed`` (a fused nest is one op)
and ``halo_swaps_overlapped`` (the walker never overlaps).

What the tracer cannot prove about the *structure* — no time loop it can
bound, loop-carried values that are not a permutation of buffer arguments —
and what the planner cannot slice (aliased regions, rotation-dependent
schedules) raise :class:`CodegenError` with an explicit reason; the caller
(:func:`repro.core.rank.run_rank`) records a :class:`CodegenFallback` and
runs the tree walker instead.  Field arguments that share memory are a
property of one run, not of the layout: :meth:`CompiledMegakernel.start`
bounces that run alone to the tree walker.

Set ``REPRO_DUMP_MEGAKERNEL=1`` to dump every generated source to stderr.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import os
import sys
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from ..dialects import arith, builtin, dmp, func, omp, scf
from ..ir.core import OpResult, Operation, SSAValue
from .interpreter import Interpreter, _wrap_argument, post_swap
from .nestplan import Affine, CodegenError, FusedNest
from .schedule import Island, Loop, Swap, plan_megakernel, print_python
from .thread_team import get_thread_team
from .vectorize import CompiledKernel, CompiledNest


@dataclass(frozen=True)
class CodegenFallback:
    """Why a plan bounced to the tree walker (mirrors VectorizeFallback)."""

    function_name: str
    reason: str

    def __str__(self) -> str:
        return f"{self.function_name}: {self.reason}"


#: Symbolic values of the tracer:
#:   ("arg", i)    — function block argument i (constant across iterations)
#:   ("const", x)  — compile-time literal
#:   ("slot", k)   — loop-carried value k of the time loop (rotates per step)
#:   ("final", k)  — result k of the time loop (slot k after the last step)
#:   ("iv",)       — the time-loop induction variable
#:   ("env", k)    — known only at run time: a result of an island or of a
#:                   fused reduction, kept in the kernel's ``_env`` under
#:                   the trace's value ``env[k]``
_Sym = tuple

#: The symbols a fused swap or nest may name a buffer by.
_BUFFERS = ("arg", "slot", "final")

#: The symbols a nest may read a scalar operand by.
_SCALARS = ("const", "arg", "iv", "env")

#: The counters the tracer hoists, in the order the kernel adds them.
_TRACED_COUNTERS = (
    "ops_executed", "omp_regions", "omp_barriers", "kernel_launches", "halo_swaps",
)


@dataclass(eq=False)
class MegakernelTrace:
    """One traced function: its steps and hoisted statistics.

    ``pre``, ``body`` and ``post`` hold the steps before, inside and after
    the time loop ``loop`` (without one, everything is ``body``, run once):
    :class:`~repro.interp.schedule.Swap`,
    :class:`~repro.interp.schedule.Island` and
    :class:`~repro.interp.nestplan.FusedNest` records in program order.  The
    in-flight halo bookkeeping (prefix completion before a swap of the same
    buffer, overlap decisions at each nest, completion before an island and
    at the end of a segment) is planned by
    :func:`~repro.interp.schedule.plan_megakernel` against the buffer
    layout, where the geometry is known.  ``once`` and ``per_trip`` count the
    fused ops' statistics outside and inside the time loop.

    The IR stays here: ``islands[i]`` is island ``i``'s ``(ops, inputs,
    constants)`` — the traced values it reads that the kernel passes at each
    call, and the literal ones — and ``env[k]`` the value ``_env`` slot ``k``
    keeps.  ``walked_nests`` counts the vectorized nests left to islands
    (walked cell by cell although the vectorizer compiled them).
    """

    function_name: str
    func_op: Any
    loop: Optional[Loop]
    pre: list
    body: list
    post: list
    islands: list
    env: list
    arg_count: int
    once: dict
    per_trip: dict
    walked_nests: int
    #: Whether an island may send, receive or synchronize through the
    #: communicator: then the kernel communicates outside its swaps.
    island_messages: bool

    @property
    def has_islands(self) -> bool:
        return bool(self.islands)


#: The message-passing ops and ``MPI_*`` calls that pass no message.
_LOCAL_MPI = frozenset({
    "mpi.init", "mpi.finalize", "mpi.comm_rank", "mpi.comm_size",
    "mpi.unwrap_memref", "mpi.allocate_requests", "mpi.get_request",
    "mpi.set_null_request", "MPI_Init", "MPI_Finalize", "MPI_Comm_rank",
    "MPI_Comm_size",
})


def _passes_messages(islands: list, module) -> bool:
    """Whether walking ``islands`` may pass a message: a ``dmp.swap``, an
    ``mpi`` op or ``MPI_*`` call outside :data:`_LOCAL_MPI`, at any depth and
    through calls to functions of ``module``."""
    functions = {op.sym_name: op for op in module.walk()
                 if isinstance(op, func.FuncOp)}
    pending = [op for ops, _, _ in islands for op in ops]
    seen: set = set()
    while pending:
        for op in pending.pop().walk():
            name = op.name
            if isinstance(op, func.CallOp):
                name = op.callee
                if name in functions and name not in seen:
                    seen.add(name)
                    pending.append(functions[name])
            if name == "dmp.swap" or (
                name.startswith(("mpi.", "MPI_")) and name not in _LOCAL_MPI
            ):
                return True
    return False


def trace_program(func_op, kernel: CompiledKernel) -> MegakernelTrace:
    """Trace one function into a :class:`MegakernelTrace`.

    The time loop is the first top-level ``scf.for`` that carries values or
    is not a compiled nest; its bounds must be constants or function
    arguments, its step a positive constant, and the values it carries a
    permutation of distinct buffer arguments.  Every op is fused — constants,
    casts, ``dmp.swap`` of a buffer argument or the message group lowered
    from one, OpenMP structure, compiled
    nests whose geometry is an emit-time constant — or walked as part of an
    island.  Raises :class:`CodegenError` (with the fallback reason) when the
    function does not have that shape.
    """
    return _Tracer(func_op, kernel).trace()


#: The ops ``convert-dmp-to-mpi`` (and ``convert-mpi-to-llvm`` after it)
#: emits for one ``dmp.swap``, at any depth, besides ``arith`` and calls to
#: ``MPI_*``.
_GROUP_OPS = frozenset({
    "mpi.comm_rank", "mpi.allocate_requests", "mpi.get_request",
    "mpi.set_null_request", "mpi.unwrap_memref", "mpi.isend", "mpi.irecv",
    "mpi.waitall", "memref.alloc", "memref.dealloc", "memref.subview",
    "memref.copy", "memref.extract_aligned_pointer_as_index", "llvm.inttoptr",
    "scf.if", "scf.yield",
})


def _lowered_swap_kind(op: Operation) -> bool:
    if isinstance(op, func.CallOp):
        return op.callee.startswith("MPI_")
    return op.name in _GROUP_OPS or op.name.startswith("arith.")


def _message_groups(ops: list[Operation]) -> dict[int, tuple]:
    """The message groups ``convert-dmp-to-mpi`` lowered swaps to, in ``ops``.

    Returns ``{start: (stop, request array op, values read from outside)}``
    for every group :func:`_message_group` finds.
    """
    position = {op: index for index, op in enumerate(ops)}
    groups: dict[int, tuple] = {}
    for anchor in ops:
        if anchor.name == "mpi.allocate_requests" \
                and dmp.declared_exchanges(anchor) is not None:
            group = _message_group(anchor, ops, position)
            if group is not None:
                groups[group[0]] = group[1:]
    return groups


def _message_group(anchor: Operation, ops: list[Operation],
                   position: dict) -> Optional[tuple]:
    """The group grown from the request array ``anchor``, or None.

    The group grows along def-use edges: it takes in the user of every value
    it defines, and the definer of every value it reads unless that is a
    constant or not of a lowered-swap kind (the swapped buffer's cast).  It
    is one when it holds that one request array and lowered-swap ops only,
    and spans ``ops[start:stop]`` with nothing else in between but
    constants.  Returns ``(start, stop, anchor, values read from outside)``.
    """
    def top(op: Operation) -> Optional[Operation]:
        """The op of ``ops`` that holds ``op`` (None: not in this block)."""
        while op is not None and op not in position:
            op = op.parent_op
        return op

    members, todo = {anchor}, [anchor]
    defined: set[SSAValue] = set()
    read: set[SSAValue] = set()
    while todo:
        for inner in todo.pop().walk():
            if not _lowered_swap_kind(inner):
                return None
            linked = {
                top(use.operation) for result in inner.results
                for use in result.uses
            }
            for operand in inner.operands:
                definer = top(operand.op) if isinstance(operand, OpResult) else None
                if definer is not None and _lowered_swap_kind(definer) \
                        and not isinstance(definer, arith.ConstantOp):
                    linked.add(definer)
            if None in linked:
                return None  # a value used outside the block
            defined.update(_defines(inner))
            read.update(inner.operands)
            todo.extend(linked - members)
            members |= linked
    span = sorted(position[op] for op in members)
    first, stop = span[0], span[-1] + 1
    if sum(op.name == "mpi.allocate_requests" for op in members) != 1 \
            or not all(op in members or isinstance(op, arith.ConstantOp)
                       for op in ops[first:stop]):
        return None
    return first, stop, anchor, read - defined


def _defines(op: Operation):
    """The values ``op`` defines itself: its results and its blocks' arguments."""
    yield from op.results
    for region in op.regions:
        for block in region.blocks:
            yield from block.args


class _Unresolved(Exception):
    """A value of a nest the trace cannot name at emit time: it is walked."""


class _Tracer:
    def __init__(self, func_op, kernel: CompiledKernel):
        self.func_op = func_op
        self.kernel = kernel
        self.sym: dict[SSAValue, _Sym] = {}
        self.once = dict.fromkeys(_TRACED_COUNTERS, 0)
        self.per_trip = dict.fromkeys(_TRACED_COUNTERS, 0)
        #: Where fused ops are counted: ``once`` or ``per_trip``.
        self.counts = self.once
        #: The steps of the segment being traced, and the ops walked since
        #: its last step (the island being gathered).
        self.steps: list = []
        self.walked: list[Operation] = []
        self.islands: list[tuple] = []
        self.env: list[SSAValue] = []
        self.walked_nests = 0
        self.swaps = 0

    def trace(self) -> MegakernelTrace:
        block = self.func_op.body.block
        for index, block_arg in enumerate(block.args):
            self.sym[block_arg] = ("arg", index)
        ops = list(block.ops)
        if not ops or ops[-1].name != "func.return":
            raise CodegenError("the function must end in func.return")
        ops.pop()
        self.once["ops_executed"] += 1  # the func.return
        loop_index = next(
            (index for index, op in enumerate(ops) if self._is_time_loop(op)), None
        )
        if loop_index is None:
            # No time loop: the whole body runs once, as its only trip.
            self.counts = self.per_trip
            loop, pre, body, post = None, [], self._segment(ops), []
        else:
            pre = self._segment(ops[:loop_index])
            loop, body = self._trace_loop(ops[loop_index])
            post = self._segment(ops[loop_index + 1:])
        return MegakernelTrace(
            self.func_op.sym_name, self.func_op, loop, pre, body, post,
            self.islands, self.env, len(block.args), self.once, self.per_trip,
            self.walked_nests,
            bool(self.islands) and _passes_messages(self.islands, self.func_op.parent_op),
        )

    def _is_time_loop(self, op: Operation) -> bool:
        return isinstance(op, scf.ForOp) and bool(
            op.iter_args or self.kernel.nest_for(op) is None
        )

    def _env(self, value: SSAValue) -> _Sym:
        """A new ``_env`` slot, for a value known only at run time."""
        self.env.append(value)
        return ("env", len(self.env) - 1)

    # -- the time loop --------------------------------------------------------
    def _trace_loop(self, op: scf.ForOp) -> tuple[Loop, list]:
        self.once["ops_executed"] += 1  # the scf.for
        lower = self._bound_sym(op.lower_bound, "lower bound")
        upper = self._bound_sym(op.upper_bound, "upper bound")
        step_sym = self.sym.get(op.step, ("env",))
        if step_sym[0] != "const" or not self._is_int(step_sym[1]) \
                or step_sym[1] <= 0:
            raise CodegenError(
                "the time-loop step must be a positive constant"
            )
        init_args: list[int] = []
        for value in op.iter_args:
            sym = self.sym.get(value, ("env",))
            if sym[0] != "arg" or sym[1] in init_args:
                raise CodegenError(
                    "every loop-carried value must be a distinct function "
                    "argument"
                )
            init_args.append(sym[1])
        block = op.body.block
        self.sym[block.args[0]] = ("iv",)
        for slot, block_arg in enumerate(block.args[1:]):
            self.sym[block_arg] = ("slot", slot)
        body_ops = list(block.ops)
        terminator = body_ops.pop() if body_ops else None
        if not isinstance(terminator, scf.YieldOp):
            raise CodegenError("the time-loop body must end in scf.yield")
        self.counts = self.per_trip
        body = self._segment(body_ops)
        self.per_trip["ops_executed"] += 1  # the scf.yield, once per trip
        self.counts = self.once
        perm = [self.sym.get(operand, ("env",)) for operand in terminator.operands]
        if any(sym[0] != "slot" for sym in perm) or \
                sorted(sym[1] for sym in perm) != list(range(len(op.iter_args))):
            raise CodegenError(
                "the time loop must yield a permutation of its loop-carried "
                "values"
            )
        # A buffer reachable both directly (as the function argument) and
        # through a rotating slot would make nest geometry parity-dependent
        # in ways per-parity planning cannot always separate; reject.
        for step in body:
            syms = [step.src] if isinstance(step, Swap) else \
                step.syms if isinstance(step, FusedNest) else []
            for sym in syms:
                if sym[0] == "arg" and sym[1] in init_args:
                    raise CodegenError(
                        "a field argument is used both directly and as a "
                        "loop-carried buffer"
                    )
        for slot, result in enumerate(op.results):
            self.sym[result] = ("final", slot)
        loop = Loop(lower, upper, step_sym[1], init_args, [sym[1] for sym in perm])
        return loop, body

    def _bound_sym(self, value: SSAValue, what: str) -> _Sym:
        sym = self.sym.get(value, ("env",))
        if sym[0] == "const":
            if not self._is_int(sym[1]):
                raise CodegenError(f"the time-loop {what} must be an integer")
            return sym
        if sym[0] == "arg":
            return sym
        raise CodegenError(
            f"the time-loop {what} must be a constant or a function argument"
        )

    # -- segments: fused ops and islands --------------------------------------
    def _segment(self, ops: list[Operation]) -> list:
        """The steps of one segment (before, inside or after the time loop)."""
        outer, self.steps = self.steps, []
        self._trace_ops(ops)
        steps, self.steps = self.steps, outer
        return steps

    def _trace_ops(self, ops: list[Operation]) -> None:
        self._flush()
        groups = _message_groups(ops)
        index = 0
        while index < len(ops):
            group = groups.get(index)
            if group is not None and self._fuse_group(ops[index:group[0]], *group[1:]):
                index = group[0]
                continue
            op = ops[index]
            index += 1
            if self._fuse(op):
                self.counts["ops_executed"] += 1
            else:
                self.walked.append(op)
                self.walked_nests += sum(
                    self.kernel.nest_for(inner) is not None for inner in op.walk()
                )
                for result in op.results:
                    self.sym[result] = self._env(result)
        self._flush()

    def _fuse_group(self, ops: list[Operation], anchor: Operation,
                    reads: set) -> bool:
        """Fuse one lowered swap's message group as a swap step of its buffer.

        ``ops`` is the group's span, constants it shares with its neighbours
        included (they fuse as anywhere); ``reads`` are the values it takes
        from outside.  Besides constants that must be exactly one buffer:
        the swapped array.  False leaves the ops to walk.
        """
        shared = [op for op in ops if isinstance(op, arith.ConstantOp)]
        local = {op.results[0] for op in shared}
        data = [
            value for value in reads
            if value not in local and self.sym.get(value, ("env",))[0] != "const"
        ]
        if len(data) != 1 or self.sym.get(data[0], ("env",))[0] not in _BUFFERS \
                or any(op.scalar() is None for op in shared):
            return False
        for op in shared:
            self._fuse(op)
        # The walker counts the group's messages, not a dmp.swap: the step
        # hoists no ``halo_swaps``.  The group counts as one op.
        self.counts["ops_executed"] += len(shared) + 1
        self._swap(anchor, self.sym[data[0]], counted=False)
        return True

    def _swap(self, declaring: Operation, src: _Sym, counted: bool) -> None:
        """Append a swap step of ``src`` with the exchanges ``declaring``
        declares (``counted``: its walker counts the halo elements)."""
        grid, exchanges = dmp.declared_exchanges(declaring)
        self._append(Swap(self.swaps, src, grid, tuple(exchanges), counted))
        self.swaps += 1

    def _append(self, step) -> None:
        self._flush()
        self.steps.append(step)

    def _flush(self) -> None:
        """Close the island gathered so far (ops walked since the last step)."""
        if not self.walked:
            return
        ops, self.walked = self.walked, []
        defined = {value for op in ops for inner in op.walk()
                   for value in _defines(inner)}
        inputs: list[SSAValue] = []
        constants: dict[SSAValue, Any] = {}
        for op in ops:
            for inner in op.walk():
                for operand in inner.operands:
                    if operand in defined or operand in constants \
                            or operand in inputs:
                        continue
                    sym = self.sym.get(operand)
                    if sym is None:
                        raise CodegenError("value has no traceable definition")
                    if sym[0] == "const":
                        constants[operand] = sym[1]
                    elif sym[0] != "env":
                        inputs.append(operand)
        self.steps.append(Island(len(self.islands),
                                 tuple(self.sym[value] for value in inputs)))
        self.islands.append((ops, inputs, constants))

    def _fuse(self, op: Operation) -> bool:
        """Fuse ``op`` (symbols, steps, counters); False leaves it to walk."""
        if isinstance(op, arith.ConstantOp):
            literal = op.scalar()
            if literal is None:
                return False
            self.sym[op.results[0]] = ("const", literal)
            return True
        if isinstance(op, builtin.UnrealizedConversionCastOp):
            sym = self.sym.get(op.operands[0], ("env",))
            if sym[0] == "env":
                return False  # the walker holds the value: it casts it too
            self.sym[op.results[0]] = sym
            return True
        if isinstance(op, dmp.SwapOp):
            src = self.sym.get(op.data, ("env",))
            if src[0] not in _BUFFERS:
                return False
            self._swap(op, src, counted=True)
            self.counts["halo_swaps"] += 1
            return True
        if isinstance(op, omp.ParallelOp):
            self.counts["omp_regions"] += 1
            self._trace_ops(list(op.body.block.ops))
            return True
        if op.name == "omp.barrier":
            self.counts["omp_barriers"] += 1
            return True
        if op.name == "omp.terminator":
            return True
        if isinstance(op, (scf.ParallelOp, omp.WsLoopOp, scf.ForOp)):
            return self._fuse_nest(op)
        return False

    def _fuse_nest(self, op: Operation) -> bool:
        nest = self.kernel.nest_for(op)
        if nest is None:
            return False
        try:
            fused = self._fused(nest)
        except _Unresolved:
            return False
        if isinstance(op, scf.ParallelOp) and "gpu_kernel" in op.attributes:
            self.counts["kernel_launches"] += 1
        self._append(fused)
        return True

    # -- resolving a nest against the trace -----------------------------------
    def _fused(self, nest: CompiledNest) -> FusedNest:
        """``nest`` resolved against the trace's symbols (a
        :class:`FusedNest`); raises :class:`_Unresolved` when its geometry is
        not an emit-time integer or a value has no symbol it may be read by.

        Its reduction results get ``_env`` slots, which islands and later
        nests read them by.
        """
        positions = {instr[1]: position for position, instr in enumerate(nest.instrs)
                     if instr[0] != "store"}
        grids: dict[int, Affine] = {}  # by the compiled affine: one per value

        def ref(compiled: tuple) -> tuple:
            kind = compiled[0]
            if kind == "arr":
                return ("arr", positions[compiled[1]])
            if kind == "free":
                sym = self._scalar(compiled[1])
                return ("const", sym[1]) if sym[0] == "const" else ("free", sym)
            if kind == "aff":
                key = id(compiled[1])
                if key not in grids:
                    grids[key] = self._affine(compiled[1])
                return ("aff", grids[key])
            return compiled

        instrs = []
        for instr in nest.instrs:
            kind = instr[0]
            if kind in ("load", "store"):
                sym = self.sym.get(instr[2], ("env",))
                if sym[0] not in _BUFFERS:
                    raise _Unresolved
                axes = tuple(self._affine(axis, geometry=True) for axis in instr[3])
                value = positions[instr[1]] if kind == "load" else ref(instr[1])
                instrs.append((kind, value, sym, axes))
            elif kind == "reduce":
                instrs.append((kind, positions[instr[1]], *instr[2:4],
                               ref(instr[4]), ref(instr[5]), instr[6]))
            else:
                head = 2 if kind == "select" else 3
                instrs.append((kind, positions[instr[1]], *instr[2:head],
                               *map(ref, instr[head:])))
        def integers(dims) -> tuple:
            """Each dimension's ``(lower, upper, step)`` as emit-time integers."""
            return tuple(tuple(self._affine(term, geometry=True).const for term in bound)
                         for bound in dims)

        bounds, count_bounds = integers(nest.bounds), integers(nest.count_bounds)
        reductions = tuple(map(self._env, nest.reduce_results))
        self.sym.update(zip(nest.reduce_results, reductions))
        return FusedNest(bounds, count_bounds, tuple(instrs), reductions)

    def _scalar(self, value: SSAValue) -> _Sym:
        """The symbol a nest reads a scalar from outside it by."""
        sym = self.sym.get(value)
        if sym is None or sym[0] not in _SCALARS:
            raise _Unresolved
        return sym

    def _affine(self, affine, geometry: bool = False) -> Affine:
        """``affine`` with its emit-time constants folded; a term of the
        nest's ``geometry`` must fold to an integer."""
        const, free = affine.const, []
        for value, coeff in affine.free.items():
            sym = self._scalar(value)
            if sym[0] != "const":
                free.append((sym, coeff))
            elif geometry and not self._is_int(sym[1]):
                raise _Unresolved
            else:
                const += coeff * int(sym[1])
        if geometry and free:
            raise _Unresolved
        return Affine(dict(affine.coeffs), const, tuple(free))

    # -- leaves ---------------------------------------------------------------
    @staticmethod
    def _is_int(value) -> bool:
        return isinstance(value, int) and not isinstance(value, bool)


def _walk_island(ops: list, inputs: list, constants: dict,
                 walker: Interpreter, env: dict, *values) -> None:
    """Walk one island's ``ops`` in place, its ``inputs`` bound to
    ``values`` (the kernel's current ones) and its ``constants``."""
    env.update(constants)
    for value, current in zip(inputs, values):
        env[value] = _wrap_argument(current, value.type)
    for op in ops:
        walker._eval(op, env)


class CompiledMegakernel:
    """One compiled megakernel: a single Python function per (plan, rank).

    A kernel that completes halos is a generator: it yields each posted
    :class:`~repro.interp.interpreter.PendingHalo` at its completion point,
    and whoever drives it lands the halo before resuming it —
    :func:`repro.core.rank.run_blocking` blocks in ``complete_swap``, the
    thread world's scheduler (:func:`repro.core.rank.run_scheduled`)
    resumes the rank once its receives have arrived.  ``start`` re-checks
    what only the concrete call can prove — pairwise buffer aliasing — and
    bounces that run to the tree walker when the guard fails.
    """

    __slots__ = ("label", "source", "array_indices", "traced", "team_size",
                 "completes", "island_messages", "_module", "_functions", "_fn")

    def __init__(self, label: str, source: str, array_indices: tuple,
                 namespace: dict, traced: bool = False, team_size: int = 1,
                 module=None, island_messages: bool = False):
        self.label = label
        self.source = source
        self.array_indices = array_indices
        #: Whether span bookkeeping was inlined at emission time.  Traced and
        #: untraced kernels are separate cache entries; the untraced source is
        #: statement-identical to a build without observability at all.
        self.traced = traced
        #: The thread team boxes deal their blocks to (``_team``) has this
        #: many threads; 1: every box runs inline.
        self.team_size = team_size
        #: Whether an island may pass messages: the kernel then communicates
        #: outside its posts and completions (see
        #: :attr:`MegakernelTrace.island_messages`).
        self.island_messages = island_messages
        #: The module islands are walked in (None: the kernel has none).
        self._module = module
        self._functions = None if module is None else {
            op.sym_name: op for op in module.walk() if isinstance(op, func.FuncOp)
        }
        code = compile(source, f"<megakernel:{label}>", "exec")
        exec(code, namespace)
        self._fn = namespace["_megakernel"]
        #: Whether the kernel completes halos: a generator of them.
        self.completes = inspect.isgeneratorfunction(self._fn)

    def start(self, args, stats, comm=None, tracer=None, team=None):
        """The run as an iterator of the halos it completes; None bounces it
        to the tree walker (aliased buffers).

        A kernel that completes nothing has run when this returns.  ``team``
        is the thread team a kernel deals its boxes' blocks to; None takes
        the process-wide team of :attr:`team_size` threads.
        """
        if _aliased([args[index] for index in self.array_indices]):
            return None
        extra: list = []
        if self.traced:
            extra.append(tracer)
        if self.uses_team:
            extra.append(team or get_thread_team(self.team_size))
        if self._module is not None:
            walker = Interpreter(
                self._module, comm=comm, functions=self._functions, tracer=tracer
            )
            walker.stats = stats
            extra.append(walker)
        halos = self._fn(args, stats, comm, *extra)
        return halos if self.completes else ()

    @property
    def uses_team(self) -> bool:
        """Whether a box's blocks are dealt to a thread team."""
        return self.team_size > 1


def _aliased(arrays) -> bool:
    """Whether any two of ``arrays`` share memory."""
    return any(
        np.shares_memory(first, second)
        for first, second in itertools.combinations(arrays, 2)
    )


def megakernel_signature(args) -> tuple:
    """The layout key of an argument list: count + per-array (i, shape,
    dtype, C-contiguous)."""
    return (
        len(args),
        tuple(
            (index, value.shape, value.dtype.str, value.flags.c_contiguous)
            for index, value in enumerate(args)
            if isinstance(value, np.ndarray)
        ),
    )


# ---------------------------------------------------------------------------
# emission: plan, print, bind
# ---------------------------------------------------------------------------

def emit_megakernel(trace: MegakernelTrace, layout: tuple, *, rank: int = 0,
                    size: int = 1, label: Optional[str] = None,
                    traced: bool = False, threads: int = 1) -> CompiledMegakernel:
    """Emit (and compile) the megakernel of ``trace`` for one rank.

    Plans it (:func:`~repro.interp.schedule.plan_megakernel`), prints the
    schedule (:func:`~repro.interp.schedule.print_python`) and binds the
    islands and ``_env`` slots the kernel reads in ``_ctx`` to the trace's
    ops and values.  ``layout`` is :func:`megakernel_signature` of the
    arguments, the buffer layout the generated code is specialized to and
    the key callers cache it by.  Raises :class:`CodegenError` with a
    fallback reason when that geometry cannot be emitted (aliased regions,
    rotation-dependent geometry, un-sliceable regions...).

    With ``traced=True`` the generated function takes a ``_tracer`` argument
    and brackets each timestep, nest, and halo post/wait with span
    bookkeeping.  With ``traced=False`` (the default) no bookkeeping is
    emitted at all — the source is statement-identical to a build without
    the observability layer.  ``threads`` is the team size a box's blocks
    are dealt to (at most one thread per full block).
    """
    schedule = plan_megakernel(trace, layout, rank, size, threads)
    label = label or f"{trace.function_name}@r{rank}of{size}"
    source, ctx = print_python(schedule, label, traced)
    if os.environ.get("REPRO_DUMP_MEGAKERNEL", "0") not in ("", "0"):
        print(f"# --- megakernel {label} ---\n{source}", file=sys.stderr)

    def bound(entry):
        if isinstance(entry, Island):
            return functools.partial(_walk_island, *trace.islands[entry.index])
        return trace.env[entry[1]] if isinstance(entry, tuple) else entry

    namespace = {"_np": np, "_ctx": tuple(map(bound, ctx)), "_post": post_swap,
                 "_fold": _fold, "_call": _call}
    return CompiledMegakernel(
        label, source, schedule.array_indices, namespace, traced=traced,
        team_size=threads if schedule.uses_team else 1,
        module=trace.func_op.parent_op if trace.has_islands else None,
        island_messages=trace.island_messages,
    )


def _fold(ufunc, sequential: bool, flattened: np.ndarray, init):
    """Fold the iteration space (in visit order) into ``init`` with ``ufunc``."""
    if flattened.size == 0:
        return init
    if not sequential:
        return ufunc(init, ufunc.reduce(flattened))
    # Order-sensitive combiners (float +/*) must replay the tree walker's
    # left-fold bit-for-bit: ufunc.accumulate is defined as the sequential
    # recurrence r[i] = r[i-1] op a[i] (never pairwise), and ravel() of the
    # iteration space is exactly the tree walker's visit order.
    chain = np.empty(flattened.size + 1, dtype=flattened.dtype)
    chain[0] = init
    chain[1:] = flattened
    return ufunc.accumulate(chain)[-1]


def _call(function):
    """Run one team thread's function (``ThreadTeam.map`` applies this to each)."""
    return function()


def program_fingerprint(text: str) -> str:
    """A stable content hash for megakernel cache keys."""
    return hashlib.sha256(text.encode()).hexdigest()
