"""Megakernel code generation: trace a function once, emit one function.

Walking the lowered IR op by op costs a handler dispatch per op and an
environment update per value; on small grids run for many timesteps that
dispatch — not the NumPy work — dominates.  This module is the one compiled
tier of the stack: a function is *traced* once (:func:`trace_program`) and
*emitted* per rank and buffer layout (:func:`emit_megakernel`) as a single
straight-line Python function — fused whole-array NumPy statements for every
compiled nest, ``dmp.swap`` isend/irecv posts, interior-box execution and
halo completion points inlined at fixed program points, the time loop a
plain ``for`` — compiled with :func:`compile` and executed directly.  A
kernel that completes halos is a generator that yields each pending halo at
its completion point to its driver, which lands it: blocking, or — for the
ranks of a thread-world job — the scheduler of
:func:`repro.core.rank.run_scheduled`, which runs every rank on one thread.

Emission is two steps, each reading the last one's product, as the stack's
levels do.  :func:`plan_megakernel` plans each segment of the trace (before,
inside and after the time loop) against the buffer layout into a
:class:`KernelSchedule`: lists of :class:`Post`, :class:`Complete`,
:class:`Island` and :class:`Nest` steps, from which the hoisted statistics
are summed.  :func:`print_python` spells a schedule as Python source; only
it plans boxes, allocates scratch and ``_ctx`` slots, and writes spans.
The layout — :func:`megakernel_signature` of the arguments: their count and
each array's index, shape, dtype and C-contiguity, the key callers cache
kernels by — is the planner's whole input: it never sees an array, so a
schedule is a function of its cache key and outlives any buffers.
Contiguity decides whether a box may be spelled pitched (over flat spans of
its buffers, see :mod:`repro.interp.nestplan`).  The region views the time
loop's boxes read and write are bound once per rotation phase, ahead of the
loop, and rotate with the buffers: every parity plans the same steps.

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
:class:`~repro.interp.interpreter.SwapMessagePlan`, so both emit the same
kernel, hoisted statistics aside (the walker of the ``MPI_*`` form counts
messages, not ``halo_swaps`` or halo elements).

Halo exchanges overlap compute wherever
:func:`~repro.interp.nestplan.plan_nest` proves it safe: a nest's interior
runs while its halos are in flight and its boundary strips after they land.
There is no switch to turn that off; the tree walker, whose exchanges
block, is the blocking reference.

The discipline mirrors the interpreter exactly:

* the statements of a nest are not written here: each nest is planned once
  per buffer layout by :func:`repro.interp.nestplan.plan_nest` — concrete
  bounds, the aliasing verdict, the overlap split and, with
  ``threads_per_rank > 1``, team chunks — and each box is planned once by
  :func:`~repro.interp.nestplan.plan_box` and written by
  :func:`~repro.interp.nestplan.print_numpy`, the one instruction -> NumPy
  printer, with literal slices (``b0[2:130, ...]``): in-place ``out=``
  statements and, for a box over the cell budget, the block loop around
  them; the scratch slots they write become locals allocated once, ahead
  of the time loop, and team chunks become local functions run on the
  rank's :class:`~repro.interp.thread_team.ThreadTeam`.  Every later buffer
  parity of the time loop must plan the same steps, dtypes included, for
  one printed body to be exact for all of them;
* swap geometry comes from :func:`repro.interp.interpreter.swap_message_plan`
  and the exchange itself is the interpreter's ``post_swap`` /
  ``complete_swap`` pair, for either spelling: the kernel posts, its driver
  completes;
* every statistics counter of a fused op is *statically hoisted*: the
  emitted function adds ``once + trips * per_iteration`` to each field up
  front; islands count their own ops as they walk them.  Fields and
  statistics equal the tree walker's, except the two counters that say how
  a run went: ``ops_executed`` (a fused nest is one op) and
  ``halo_swaps_overlapped`` (the walker never overlaps).

What the tracer cannot prove about the *structure* — no time loop it can
bound, loop-carried values that are not a permutation of buffer arguments —
and what the planner cannot slice (aliased regions, rotation-dependent
schedules) raise :class:`CodegenError` with an explicit reason; the caller
(:func:`repro.core.rank.run_rank`) records a :class:`CodegenFallback` and
runs the tree walker instead.  Field arguments that share memory are a
property of one run, not of the layout: :meth:`CompiledMegakernel.run`
bounces that run alone to the tree walker.

Set ``REPRO_DUMP_MEGAKERNEL=1`` to dump every generated source to stderr.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import itertools
import math
import os
import sys
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from ..dialects import arith, builtin, dmp, func, omp, scf
from ..ir.core import OpResult, Operation, SSAValue
from .interpreter import (
    Interpreter,
    SwapMessagePlan,
    _wrap_argument,
    complete_swap,
    post_swap,
    swap_message_plan,
)
from .nestplan import CodegenError, NestPlan, local_name, plan_box, plan_nest, print_numpy
from .vectorize import CompiledKernel, CompiledNest, operand_refs


class CodegenFallback:
    """Why a plan bounced to the tree walker (mirrors VectorizeFallback)."""

    __slots__ = ("function_name", "reason")

    def __init__(self, function_name: str, reason: str):
        self.function_name = function_name
        self.reason = reason

    def __str__(self) -> str:
        return f"{self.function_name}: {self.reason}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CodegenFallback({self.function_name!r}, {self.reason!r})"


#: Symbolic values of the tracer:
#:   ("arg", i)    — function block argument i (constant across iterations)
#:   ("const", x)  — compile-time literal
#:   ("slot", k)   — loop-carried value k of the time loop (rotates per step)
#:   ("final", k)  — result k of the time loop (slot k after the last step)
#:   ("iv",)       — the time-loop induction variable
#:   ("env",)      — known only at run time: a result of an island or of a
#:                   fused reduction, kept in the kernel's ``_env``
_Sym = tuple

#: The symbols a fused swap or nest may name a buffer by.
_BUFFERS = ("arg", "slot", "final")

#: The symbols a nest may read a scalar operand by.
_SCALARS = ("const", "arg", "iv", "env")

#: The counters the tracer hoists, in the order the kernel adds them.
_TRACED_COUNTERS = (
    "ops_executed", "omp_regions", "omp_barriers", "kernel_launches", "halo_swaps",
)
#: ... followed by those the schedule adds once it has the buffers.
_HOISTED_COUNTERS = _TRACED_COUNTERS + (
    "cells_updated", "mpi_messages", "halo_elements_exchanged",
    "halo_swaps_overlapped",
)


class _LoopInfo:
    """The traced time loop: bounds, carried-slot initialization, rotation."""

    __slots__ = ("op", "lower", "upper", "step", "init_args", "perm")

    def __init__(self, op, lower: _Sym, upper: _Sym, step: int,
                 init_args: list[int], perm: list[int]):
        self.op = op
        self.lower = lower
        self.upper = upper
        self.step = step
        #: ``init_args[k]`` = the function-argument index slot ``k`` starts as.
        self.init_args = init_args
        #: ``perm[j]`` = the slot whose value becomes slot ``j`` next step.
        self.perm = perm


class _Island:
    """Ops the megakernel cannot fuse, walked in place by the tree walker.

    ``inputs`` are the traced values the ops read that the kernel passes at
    each call, in order; ``constants`` the literal ones.  Everything else the
    ops read was produced into the environment before them.
    """

    __slots__ = ("ops", "inputs", "constants")

    def __init__(self, ops: list[Operation], inputs: list[SSAValue],
                 constants: dict[SSAValue, Any]):
        self.ops = ops
        self.inputs = inputs
        self.constants = constants

    def __call__(self, walker: Interpreter, env: dict, *values) -> None:
        env.update(self.constants)
        for value, current in zip(self.inputs, values):
            env[value] = _wrap_argument(current, value.type)
        for op in self.ops:
            walker._eval(op, env)


class MegakernelTrace:
    """One traced function: its steps and hoisted statistics.

    ``pre``, ``body`` and ``post`` hold the steps before, inside and after
    the time loop (without one, everything is ``body``, run once):
    ``("swap", op, src_sym, ordinal)`` (``op`` is the ``dmp.swap`` or the
    request array of its lowered message group), ``("nest", op, nest,
    base_syms)`` and ``("island", island, input_syms)`` records in program
    order.  The
    in-flight halo bookkeeping (prefix completion before a swap of the same
    buffer, overlap decisions at each nest, completion before an island and
    at the end of a segment) is planned by :func:`plan_megakernel` against
    the buffer layout, where the geometry is known.  ``once`` and
    ``per_trip`` count the fused ops' statistics outside and inside the time
    loop.
    ``walked_nests`` counts the vectorized nests left to islands (walked cell
    by cell although the vectorizer compiled them).
    """

    __slots__ = ("function_name", "func_op", "loop", "pre", "body", "post",
                 "sym", "arg_count", "once", "per_trip",
                 "walked_nests", "has_islands", "uses_env", "island_messages")

    def __init__(self, function_name: str, func_op, loop, pre, body, post, sym,
                 arg_count: int, once: dict, per_trip: dict,
                 walked_nests: int = 0):
        self.function_name = function_name
        self.func_op = func_op
        self.loop = loop
        self.pre = pre
        self.body = body
        self.post = post
        self.sym = sym
        self.arg_count = arg_count
        self.once = once
        self.per_trip = per_trip
        self.walked_nests = walked_nests
        self.has_islands = any(
            step[0] == "island" for step in (*pre, *body, *post)
        )
        self.uses_env = any(entry[0] == "env" for entry in sym.values())
        #: Whether an island may send, receive or synchronize through the
        #: communicator: then the kernel communicates outside its swaps.
        self.island_messages = self.has_islands and _passes_messages(
            [step[1] for step in (*pre, *body, *post) if step[0] == "island"],
            func_op.parent_op,
        )


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
    pending = [op for island in islands for op in island.ops]
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
            defined.update(inner.results)
            for region in inner.regions:
                for block in region.blocks:
                    defined.update(block.args)
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
        self.steps: list[tuple] = []
        self.walked: list[Operation] = []
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
            self.func_op.sym_name, self.func_op, loop, pre, body, post, self.sym,
            len(block.args), self.once, self.per_trip,
            self.walked_nests,
        )

    def _is_time_loop(self, op: Operation) -> bool:
        return isinstance(op, scf.ForOp) and bool(
            op.iter_args or self.kernel.nest_for(op) is None
        )

    # -- the time loop --------------------------------------------------------
    def _trace_loop(self, op: scf.ForOp) -> tuple[_LoopInfo, list]:
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
        for kind, *rest in body:
            syms = [rest[1]] if kind == "swap" else rest[2] if kind == "nest" else []
            for sym in syms:
                if sym[0] == "arg" and sym[1] in init_args:
                    raise CodegenError(
                        "a field argument is used both directly and as a "
                        "loop-carried buffer"
                    )
        for slot, result in enumerate(op.results):
            self.sym[result] = ("final", slot)
        loop = _LoopInfo(op, lower, upper, step_sym[1], init_args,
                         [sym[1] for sym in perm])
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
    def _segment(self, ops: list[Operation]) -> list[tuple]:
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
                    self.sym[result] = ("env",)
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
        self._append(("swap", anchor, self.sym[data[0]], self.swaps))
        self.swaps += 1
        return True

    def _append(self, step: tuple) -> None:
        self._flush()
        self.steps.append(step)

    def _flush(self) -> None:
        """Close the island gathered so far (ops walked since the last step)."""
        if not self.walked:
            return
        ops, self.walked = self.walked, []
        defined: set[SSAValue] = set()
        for op in ops:
            for inner in op.walk():
                defined.update(inner.results)
                for region in inner.regions:
                    for block in region.blocks:
                        defined.update(block.args)
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
        self.steps.append((
            "island", _Island(ops, inputs, constants),
            [self.sym[value] for value in inputs],
        ))

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
            self._append(("swap", op, src, self.swaps))
            self.swaps += 1
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
        base_syms = None if nest is None else self._nest_buffers(nest)
        if base_syms is None:
            return False
        if isinstance(op, scf.ParallelOp) and "gpu_kernel" in op.attributes:
            self.counts["kernel_launches"] += 1
        for result in op.results:  # reductions: bound into _env
            self.sym[result] = ("env",)
        self._append(("nest", op, nest, base_syms))
        return True

    def _nest_buffers(self, nest: CompiledNest) -> Optional[list[_Sym]]:
        """The symbols of a nest's load/store buffers, in instruction order.

        None when the nest's geometry or values cannot be resolved at emit
        time: then it is walked.
        """
        for lower, upper, step in (*nest.bounds, *nest.count_bounds):
            if not all(map(self._is_const_affine, (lower, upper, step))):
                return None
        base_syms: list[_Sym] = []
        for instr in nest.instrs:
            if instr[0] in ("load", "store"):
                base_sym = self.sym.get(instr[2], ("env",))
                if base_sym[0] not in _BUFFERS:
                    return None
                if not all(map(self._is_const_affine, instr[3])):
                    return None
                base_syms.append(base_sym)
            for ref in operand_refs(instr):
                # Values (unlike geometry) may be known only at run time.
                if ref[0] == "free":
                    free = (ref[1],)
                elif ref[0] == "aff":
                    free = ref[1].free
                else:
                    continue
                for value in free:
                    sym = self.sym.get(value)
                    if sym is None or sym[0] not in _SCALARS:
                        return None
        return base_syms

    def _is_const_affine(self, affine) -> bool:
        """Whether ``affine``'s free terms are all emit-time integers."""
        for value in affine.free:
            sym = self.sym.get(value)
            if sym is None or sym[0] != "const" or not self._is_int(sym[1]):
                return False
        return True

    # -- leaves ---------------------------------------------------------------
    @staticmethod
    def _is_int(value) -> bool:
        return isinstance(value, int) and not isinstance(value, bool)


class CompiledMegakernel:
    """One compiled megakernel: a single Python function per (plan, rank).

    A kernel that completes halos is a generator: it yields each posted
    :class:`~repro.interp.interpreter.PendingHalo` at its completion point,
    and whoever drives it lands the halo before resuming it — :meth:`run`
    blocks in ``complete_swap``, the thread world's scheduler
    (:func:`repro.core.rank.run_scheduled`) resumes the rank once its
    receives have arrived.  ``start`` and ``run`` re-check what only the
    concrete call can prove — pairwise buffer aliasing — and bounce that
    run to the tree walker when the guard fails.
    """

    __slots__ = ("label", "source", "array_indices", "traced", "uses_team",
                 "completes", "island_messages", "_module", "_functions", "_fn")

    def __init__(self, label: str, source: str, array_indices: tuple,
                 namespace: dict, traced: bool = False, uses_team: bool = False,
                 module=None, island_messages: bool = False):
        self.label = label
        self.source = source
        self.array_indices = array_indices
        #: Whether span bookkeeping was inlined at emission time.  Traced and
        #: untraced kernels are separate cache entries; the untraced source is
        #: statement-identical to a build without observability at all.
        self.traced = traced
        #: Whether boxes run as chunks on a thread team (``_team``).
        self.uses_team = uses_team
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
        is the rank's thread team, which a kernel emitted for ``threads > 1``
        runs its chunks on.
        """
        if _aliased([args[index] for index in self.array_indices]):
            return None
        extra: list = []
        if self.traced:
            extra.append(tracer)
        if self.uses_team:
            extra.append(team)
        if self._module is not None:
            walker = Interpreter(
                self._module, comm=comm, functions=self._functions, tracer=tracer
            )
            walker.stats = stats
            extra.append(walker)
        halos = self._fn(args, stats, comm, *extra)
        return halos if self.completes else ()

    def run(self, args, stats, comm=None, tracer=None, team=None) -> bool:
        """Execute, landing each halo as it is yielded; False bounces to the
        tree walker (aliased buffers)."""
        halos = self.start(args, stats, comm, tracer, team)
        if halos is None:
            return False
        for halo in halos:
            complete_swap(comm, halo)
        return True


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
# the schedule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Post:
    """Post the halo exchange of swap ``ordinal`` on buffer ``src``.

    ``shape`` and ``dtype`` are the swapped array's, which the plan's
    slices and messages apply to.
    """

    ordinal: int
    src: _Sym
    plan: SwapMessagePlan
    shape: tuple
    dtype: str


@dataclass(frozen=True)
class Complete:
    """Land the halos of swap ``ordinal`` (``elements`` as the walker counts).

    An ``overlapped`` completion lands while the nest before it runs: after
    that nest's boxes, before its strips.
    """

    ordinal: int
    overlapped: bool
    elements: int


@dataclass(frozen=True)
class Island:
    """Walk ``island`` in place, on the current values of ``syms``."""

    island: _Island
    syms: list


@dataclass(frozen=True)
class Nest:
    """Run a planned nest: its boxes, the overlapped completions that follow
    it in the segment, then its strips."""

    plan: NestPlan


@dataclass
class KernelSchedule:
    """One megakernel planned for one rank and buffer layout.

    ``pre``, ``body`` and ``post`` are the steps of the trace's segments in
    the order they run; ``body`` is the same for every buffer parity of the
    time loop.  ``array_indices`` are the arguments the kernel gets arrays
    for.
    """

    trace: MegakernelTrace
    array_indices: tuple
    pre: list
    body: list
    post: list

    @property
    def hoisted(self) -> tuple[dict, dict]:
        """The hoisted statistics: outside the time loop, and per trip."""
        return (_hoisted(self.trace.once, self.pre + self.post),
                _hoisted(self.trace.per_trip, self.body))

    @property
    def uses_team(self) -> bool:
        """Whether boxes run as chunks on a thread team."""
        return any(isinstance(step, Nest) and len(step.plan.boxes) > 1
                   for step in (*self.pre, *self.body, *self.post))


def _hoisted(traced: dict, steps: list) -> dict:
    """The traced counters and, summed over ``steps``, those they add."""
    def total(kind: type, count) -> int:
        return sum(count(step) for step in steps if isinstance(step, kind))

    return traced | {
        "cells_updated": total(Nest, lambda step: step.plan.cells),
        "mpi_messages": total(Post, lambda step: len(step.plan.sends)),
        "halo_elements_exchanged": total(Complete, lambda step: step.elements),
        "halo_swaps_overlapped": total(Complete, lambda step: step.overlapped),
    }


def _perm_order(perm: list[int]) -> int:
    order = 1
    seen: set[int] = set()
    for start in range(len(perm)):
        if start in seen:
            continue
        length, position = 0, start
        while position not in seen:
            seen.add(position)
            position = perm[position]
            length += 1
        order = math.lcm(order, length)
    return order


def plan_megakernel(trace: MegakernelTrace, layout: tuple, rank: int = 0,
                    size: int = 1, threads: int = 1) -> KernelSchedule:
    """Plan the megakernel of ``trace`` for one rank and buffer layout.

    ``layout`` is :func:`megakernel_signature` of the arguments — their
    count and each array's index, shape, dtype and contiguity — and all the planner
    reads of them; ``threads`` is the team size boxes are split for.  Each
    segment is planned against the layout — swap prefix completion, overlap
    split, boxes — and the time loop's once per buffer parity: one printed
    body is exact for every parity when all of them plan the same steps as
    the first, dtypes included.  Raises :class:`CodegenError` with the
    fallback reason when they do not, or when the layout cannot be sliced
    (aliased regions, out-of-range indices...).
    """
    count, entries = layout
    if count != trace.arg_count:
        raise CodegenError(f"expected {trace.arg_count} arguments, got {count}")
    buffers = {entry[0]: entry for entry in entries}
    loop = trace.loop
    parities = 1 if loop is None else _perm_order(loop.perm)
    if parities > 8:
        raise CodegenError("buffer rotation period too long to validate")
    slots = [] if loop is None else list(loop.init_args)
    if not all(index in buffers for index in slots):
        raise CodegenError("a loop-carried buffer argument is not an array")
    # One message plan per swap: the parities' Post steps compare equal.
    swap_plan = functools.cache(lambda op: swap_message_plan(op, rank))

    def buffer_for(sym: _Sym, slots: list) -> tuple:
        """The layout entry ``(index, shape, dtype, C-contiguous)`` of the
        buffer ``sym``."""
        # After the time loop the slots hold its results ("final").
        index = slots[sym[1]] if sym[0] in ("slot", "final") else sym[1]
        if index not in buffers:
            raise CodegenError("a traced buffer argument is not an array")
        return buffers[index]

    def segment(steps: list, slots: list) -> list:
        """The steps of one trace segment over the (parity) buffers ``slots``."""
        planned: list = []
        # In-flight swaps: (ordinal, elements the walker counts landing,
        # (buffer, message plan)), in posting order.
        inflight: list[tuple] = []

        def land(count: int, overlapped: bool = False) -> None:
            """Land the first ``count`` in-flight halos, in posting order."""
            planned.extend(Complete(ordinal, overlapped, elements)
                           for ordinal, elements, _ in inflight[:count])
            del inflight[:count]

        for step in steps:
            if step[0] == "swap":
                _, op, src, ordinal = step
                buffer, shape, dtype, _ = buffer_for(src, slots)
                # Receives match by (source, tag) in posting order, and swaps
                # reuse direction tags: land the prefix of halos up to the
                # last one on this buffer, before re-posting it.
                land(1 + max(
                    (index for index, (*_, halo) in enumerate(inflight)
                     if halo[0] == buffer),
                    default=-1,
                ))
                if size == 1:
                    continue
                plan = swap_plan(op)
                planned.append(Post(ordinal, src, plan, shape, dtype))
                # A lowered group's walker counts messages, not halo elements.
                elements = plan.elements if isinstance(op, dmp.SwapOp) else 0
                inflight.append((ordinal, elements, (buffer, plan)))
            elif step[0] == "island":
                land(len(inflight))
                planned.append(Island(step[1], step[2]))
            else:
                _, _, nest, syms = step
                plan = plan_nest(
                    nest, [buffer_for(sym, slots) for sym in syms], syms, trace.sym,
                    [halo for *_, halo in inflight], threads,
                )
                if plan.waits:
                    land(len(inflight))
                planned.append(Nest(plan))
                if plan.strips:
                    land(len(inflight), overlapped=True)
        # A halo still in flight at the end of the segment lands there.
        land(len(inflight))
        return planned

    pre = segment(trace.pre, [])
    body = segment(trace.body, slots)
    # The loop's results are the slots after however many trips run: the
    # ops after it must not depend on which rotation that is either.
    post = segment(trace.post, slots)
    for _parity in range(1, parities):
        slots = [slots[j] for j in loop.perm]
        if segment(trace.body, slots) != body or segment(trace.post, slots) != post:
            raise CodegenError("buffer rotation changes nest geometry")
    return KernelSchedule(trace, tuple(buffers), pre, body, post)


# ---------------------------------------------------------------------------
# emission: plan, then print
# ---------------------------------------------------------------------------

def emit_megakernel(trace: MegakernelTrace, layout: tuple, *, rank: int = 0,
                    size: int = 1, label: Optional[str] = None,
                    traced: bool = False, threads: int = 1) -> CompiledMegakernel:
    """Emit (and compile) the megakernel of ``trace`` for one rank.

    Plans it (:func:`plan_megakernel`) and prints the schedule
    (:func:`print_python`).  ``layout`` is :func:`megakernel_signature` of
    the arguments, the buffer layout the generated code is specialized to
    and the key callers cache it by.  Raises :class:`CodegenError` with a
    fallback reason when that geometry cannot be emitted (aliased regions,
    rotation-dependent geometry, un-sliceable regions...).

    With ``traced=True`` the generated function takes a ``_tracer`` argument
    and brackets each timestep, nest, and halo post/wait with span
    bookkeeping.  With ``traced=False`` (the default) no bookkeeping is
    emitted at all — the source is statement-identical to a build without
    the observability layer.  ``threads`` is the team size boxes are split
    for (one chunk per thread, where big enough).
    """
    schedule = plan_megakernel(trace, layout, rank, size, threads)
    label = label or f"{trace.function_name}@r{rank}of{size}"
    source, ctx = print_python(schedule, label, traced)
    if os.environ.get("REPRO_DUMP_MEGAKERNEL", "0") not in ("", "0"):
        print(f"# --- megakernel {label} ---\n{source}", file=sys.stderr)
    namespace = {"_np": np, "_ctx": ctx, "_post": post_swap,
                 "_fold": _fold, "_call": _call}
    return CompiledMegakernel(
        label, source, schedule.array_indices, namespace, traced=traced,
        uses_team=schedule.uses_team,
        module=trace.func_op.parent_op if trace.has_islands else None,
        island_messages=trace.island_messages,
    )


def print_python(schedule: KernelSchedule, label: str,
                 traced: bool = False) -> tuple[str, tuple]:
    """Print ``schedule`` as the source of one Python function.

    Returns the source of ``_megakernel`` and the ``_ctx`` tuple it reads
    (message plans, islands, reduction results, index grids).  Each box is
    planned (:func:`~repro.interp.nestplan.plan_box`) and written by
    :func:`~repro.interp.nestplan.print_numpy` with literal slices; the
    scratch slots it writes and the team chunks it runs as are set up once,
    ahead of the time loop.  ``traced`` brackets each step with spans.
    """
    printer = _PythonPrinter(schedule, traced)
    pre = printer.segment(schedule.pre)
    body = printer.segment(schedule.body, in_loop=schedule.trace.loop is not None)
    post = printer.segment(schedule.post)
    return printer.render(label, pre, body, post), tuple(printer.ctx)


class _PythonPrinter:
    def __init__(self, schedule: KernelSchedule, traced: bool):
        self.schedule = schedule
        self.trace = schedule.trace
        self.traced = traced
        self.static_env = {value: sym[1] for value, sym in self.trace.sym.items()
                           if sym[0] == "const"}
        # The scratch allocations and team-chunk functions that run once,
        # ahead of the time loop; the lines of the segment being printed,
        # with their relative indentation; what the kernel reads in ``_ctx``.
        self.setup: list[str] = []
        self.lines: list[str] = []
        self.ctx: list[Any] = []
        # The region views of the time loop's boxes, bound once per rotation
        # phase ahead of it: their names by (buffer symbol, index).
        self.in_loop = False
        self.loop_views: dict[tuple, str] = {}
        self._var = 0
        self._spans = 0

    def _new_var(self, prefix: str) -> str:
        self._var += 1
        return f"{prefix}{self._var}"

    def _add_ctx(self, value) -> int:
        self.ctx.append(value)
        return len(self.ctx) - 1

    @contextlib.contextmanager
    def _span(self, name: str, opened: bool = True):
        """Bracket the lines printed inside with a span (traced kernels only)."""
        opened = opened and self.traced
        if opened:
            self._spans += 1
            var = f"_sp{self._spans}"
            self.lines.append(f"{var} = _tracer.begin('{name}')")
        yield
        if opened:
            self.lines.append(f"_tracer.end('{name}', {var})")

    def segment(self, steps: list, in_loop: bool = False) -> list[str]:
        """The source lines of one segment's steps (``in_loop``: the time
        loop's body)."""
        self.lines, self.in_loop = [], in_loop
        for position, step in enumerate(steps):
            if isinstance(step, Post):
                with self._span("halo.post"):
                    self.lines.append(f"_h{step.ordinal} = _post(_comm, {local_name(step.src)}, "
                                      f"_ctx[{self._add_ctx(step.plan)}])")
            elif isinstance(step, Complete) and not step.overlapped:
                self._complete(step)  # (an overlapped one lands inside its nest)
            elif isinstance(step, Island):
                values = "".join(f", {local_name(sym)}" for sym in step.syms)
                self.lines.append(
                    f"_ctx[{self._add_ctx(step.island)}](_walker, _env{values})"
                )
            elif isinstance(step, Nest):
                self._nest(step.plan, itertools.takewhile(
                    lambda later: isinstance(later, Complete) and later.overlapped,
                    steps[position + 1:],
                ))
        return self.lines

    def _complete(self, step: Complete) -> None:
        """Yield the pending halo to the kernel's driver, which lands it."""
        with self._span("halo.wait"):
            self.lines.append(f"yield _h{step.ordinal}")

    def _nest(self, plan: NestPlan, landed) -> None:
        """Print one nest: its boxes, the completions ``landed`` (those of an
        overlapped nest), then its strips."""
        with self._span("nest"):
            with self._span("nest.interior", bool(plan.strips)):
                reduced = self._print_boxes(plan)
            for step in landed:
                self._complete(step)
            with self._span("nest.boundary", bool(plan.strips)):
                for strip in plan.strips:
                    self.lines.extend(self._print(plan, strip)[0])
        # Reductions (never chunked, never split) are what islands and later
        # nests read the nest's results as.
        for value, name in zip(plan.nest.reduce_results, reduced):
            self.lines.append(f"_env[_ctx[{self._add_ctx(value)}]] = {name}")

    def _print_boxes(self, plan: NestPlan) -> list[str]:
        """Inline one box, or run its team chunks on ``_team``.

        Each chunk becomes a local function defined ahead of the time loop —
        it reads the rotating buffers as closure variables — with scratch of
        its own.  Returns the names of the box's reduction results.
        """
        if len(plan.boxes) == 1:
            lines, reduced = self._print(plan, plan.boxes[0])
            self.lines.extend(lines)
            return reduced
        names = []
        for dims in plan.boxes:
            lines, _ = self._print(plan, dims)
            names.append(self._new_var("_c"))
            self.setup.append(f"def {names[-1]}():")
            self.setup.extend("    " + line for line in _block(lines))
        self.lines.append(f"_team.map(_call, ({', '.join(names)},))")
        return []

    def _print(self, plan: NestPlan, dims) -> tuple[list[str], list[str]]:
        """Plan one box of ``plan`` and print it; its scratch goes to the setup.

        The region views it reads and writes are bound after its comment,
        or once per rotation phase ahead of the time loop when it runs in
        the loop.
        """
        box = plan_box(plan, dims)
        views: dict[tuple, str] = {}
        setup, lines, reduced = print_numpy(
            box, self._new_var, lambda ref: self._outer_source(ref, box.dims),
            lambda sym, index: self._view(sym, index, views),
        )
        self.setup.extend(setup)
        bound = [f"{name} = {local_name(sym)}{index}"
                 for (sym, index), name in views.items()]
        return [lines[0], *bound, *lines[1:]], reduced

    def _view(self, sym: _Sym, index: str, views: dict) -> str:
        """The local holding the view ``index`` of the buffer ``sym``.

        In the time loop a view of a rotating buffer is bound for every
        buffer of its rotation cycle, ahead of the loop, and rotates with
        them; one of a fixed argument is bound once.  Elsewhere it goes to
        ``views``, which the box binds itself.
        """
        if self.in_loop:
            views = self.loop_views
            if sym[0] == "slot" and (sym, index) not in views:
                perm, slot = self.trace.loop.perm, sym[1]
                while (("slot", slot), index) not in views:
                    views[(("slot", slot), index)] = self._new_var("_r")
                    slot = perm[slot]
        key = (sym, index)
        if key not in views:
            views[key] = self._new_var("_r")
        return views[key]

    def _scalar_src(self, value: SSAValue) -> str:
        """The expression of a traced scalar that is known at run time only."""
        sym = self.trace.sym[value]
        if sym[0] == "env":
            return f"_env[_ctx[{self._add_ctx(value)}]]"
        return f"a{sym[1]}" if sym[0] == "arg" else "_t"

    def _outer_source(self, ref: tuple, box_dims) -> str:
        """A run-time scalar, or an affine index grid over the box.

        A grid is materialized from its emit-time terms into ``_ctx``; the
        free terms known only at run time are added to it by the kernel.
        """
        if ref[0] == "free":
            return self._scalar_src(ref[1])
        affine = ref[1]
        late = "".join(
            f" + {coeff} * int({self._scalar_src(value)})"
            for value, coeff in affine.free.items()
            if value not in self.static_env
        )
        grid: Any = affine.const + sum(
            coeff * int(self.static_env[value])
            for value, coeff in affine.free.items() if value in self.static_env
        )
        for dim, coeff in affine.coeffs.items():
            lower, upper, step = box_dims[dim]
            shape = [1] * len(box_dims)
            shape[dim] = len(range(lower, upper, step))
            grid = grid + coeff * np.arange(
                lower, upper, step, dtype=np.int64).reshape(shape)
        if isinstance(grid, np.ndarray):
            source = f"_ctx[{self._add_ctx(grid)}]"
            return f"({source}{late})" if late else source
        return f"({int(grid)}{late})" if late else repr(int(grid))

    # -- source assembly ------------------------------------------------------
    def render(self, label: str, pre: list[str], body: list[str],
                post: list[str]) -> str:
        trace, schedule = self.trace, self.schedule
        indent = "    "
        lines = [f"# megakernel {label}"]
        lines += [f"a{index} = _args[{index}]" for index in range(trace.arg_count)]
        loop = trace.loop
        lines += ["_trips = 1"] if loop is None else [
            f"_lo = {_bound_source(loop.lower)}", f"_hi = {_bound_source(loop.upper)}",
            f"_st = {loop.step}", "_trips = len(range(_lo, _hi, _st))",
        ]
        hoisted = schedule.hoisted
        for field in _HOISTED_COUNTERS:
            once, per_trip = (counts[field] for counts in hoisted)
            terms = ([str(once)] if once or field == "ops_executed" else []) + (
                [f"_trips * {per_trip}"] if per_trip or field == "ops_executed"
                else []
            )
            if terms:
                lines.append(f"_stats.{field} += {' + '.join(terms)}")
        if trace.has_islands or trace.uses_env:
            lines.append("_env = {}")
        lines.extend(self.setup)
        lines.extend(pre)
        if loop is None:
            lines.extend(body)
        else:
            for slot, index in enumerate(loop.init_args):
                lines.append(f"b{slot} = a{index}")
            lines.extend(f"{name} = {local_name(sym)}{index}"
                         for (sym, index), name in self.loop_views.items())
            lines.append("for _t in range(_lo, _hi, _st):")
            loop_body = list(body)
            perm = loop.perm
            if perm != list(range(len(perm))):
                # The buffers rotate, and each view of one with them.
                targets = [f"b{j}" for j in range(len(perm))]
                sources = [f"b{j}" for j in perm]
                for (sym, index), name in self.loop_views.items():
                    if sym[0] == "slot" and perm[sym[1]] != sym[1]:
                        targets.append(name)
                        sources.append(self.loop_views[(("slot", perm[sym[1]]), index)])
                loop_body.append(f"{', '.join(targets)} = {', '.join(sources)}")
            if self.traced:
                # One "step" span per time-loop trip, rotation included —
                # mirrors the tree walker's per-iteration span.
                loop_body = (
                    ["_spt = _tracer.begin('step')"]
                    + loop_body
                    + ["_tracer.end('step', _spt)"]
                )
            lines.extend(indent + line for line in _block(loop_body))
        lines.extend(post)
        lines.append("return True")
        params = ["_args", "_stats", "_comm"]
        params += ["_tracer"] * self.traced + ["_team"] * schedule.uses_team
        params += ["_walker"] * trace.has_islands
        return (
            f"def _megakernel({', '.join(params)}):\n"
            + "\n".join(indent + line for line in lines) + "\n"
        )


def _block(lines: list[str]) -> list[str]:
    """``lines`` as the body of a block: ``pass`` where they are only
    comments (a box whose store is its own load prints no statement)."""
    if all(line.lstrip().startswith("#") for line in lines):
        return [*lines, "pass"]
    return lines


def _bound_source(sym: _Sym) -> str:
    return str(sym[1]) if sym[0] == "const" else f"int(a{sym[1]})"


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
    """Run one team chunk (``ThreadTeam.map`` applies this to each)."""
    return function()


def program_fingerprint(text: str) -> str:
    """A stable content hash for megakernel cache keys."""
    return hashlib.sha256(text.encode()).hexdigest()
