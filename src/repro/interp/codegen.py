"""Megakernel code generation: trace the time loop once, emit one function.

Even with vectorized nests, every timestep of an interpreted ``Plan.run()``
still walks the lowered IR op by op: handler dispatch, pending-halo checks,
environment dict traffic.  On small grids with many timesteps that
dispatch — not the NumPy work — dominates.  This module erases it: the
program's time loop is *traced* once (:func:`trace_program`) and *emitted*
(:func:`emit_megakernel`) as a single straight-line Python function — fused
whole-array NumPy statements for every compiled nest, ``dmp.swap``
isend/irecv posts, interior-box execution and halo completion points inlined
at fixed program points — compiled with :func:`compile` and executed directly.

The discipline mirrors the interpreter exactly:

* the statements of a nest are not written here: they come from
  :func:`repro.interp.vectorize.emit_nest`, the one instruction -> NumPy
  mapping, which a ``CompiledNest`` wraps in a function of its region views
  and this emitter inlines with literal slices (``b0[2:130, ...]``) — in-place
  ``out=`` statements and, for a box over the cell budget, the block loop
  around them, with the nested indentation they arrive in; the scratch slots
  they write become locals allocated once, ahead of the time loop;
* the slices come from the *real* ``CompiledNest`` geometry machinery
  (``_resolve_regions`` with its aliasing check, ``_plan_overlap``), replayed
  at emit time against the concrete buffers, so the generated slices and the
  overlap decisions are the ones the dynamic path would have made;
* swap geometry comes from :func:`repro.interp.interpreter.swap_message_plan`
  and the exchange itself is the interpreter's ``post_swap`` /
  ``complete_swap`` pair, called directly;
* every statistics counter is *statically hoisted*: the emitted function adds
  ``pre + trips * per_iteration`` to each field up front, reproducing the
  interpreter loop's counts bit-for-bit.

Anything the tracer cannot prove — data-dependent control flow, runtime-
dependent nest geometry, reductions, aliased buffers, untraceable ops — is
rejected with a :class:`CodegenError` carrying an explicit reason string; the
caller (:func:`repro.core.rank.run_rank`) then records a
:class:`CodegenFallback` and runs the interpreter loop instead, exactly like
:class:`~repro.interp.vectorize.VectorizeFallback` does per nest.

Set ``REPRO_DUMP_MEGAKERNEL=1`` to dump every generated source to stderr.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any, Optional

import numpy as np

from ..dialects import arith, builtin, dmp, omp, scf
from ..ir.attributes import FloatAttr, IntegerAttr
from ..ir.core import Operation, SSAValue
from ..ir.types import IntegerType
from .interpreter import PendingHalo, complete_swap, post_swap, swap_message_plan
from .vectorize import (
    CompiledKernel,
    CompiledNest,
    _Bailout,
    _block_extents,
    _constant_operand,
    _dump_generated,
    _operand_refs,
    emit_nest,
)


class CodegenError(Exception):
    """A program (or one plan of it) cannot be megakernel-compiled.

    The message is the fallback reason surfaced to users; it must say *what*
    the tracer could not prove, not where it gave up.
    """


class CodegenFallback:
    """Why a plan bounced to the interpreter loop (mirrors VectorizeFallback)."""

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
#:   ("iv",)       — the time-loop induction variable
_Sym = tuple


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


class MegakernelTrace:
    """One traced program: steps of the loop body plus hoisted statistics.

    ``steps`` holds ``("swap", op, src_sym, ordinal)`` and
    ``("nest", op, nest, base_syms)`` records in program order; the in-flight
    halo bookkeeping (prefix completion before a swap of the same buffer,
    overlap decisions at each nest) is replayed by the emitter against the
    concrete buffers, where the geometry is known.
    """

    __slots__ = ("function_name", "func_op", "loop", "steps", "sym", "overlap",
                 "arg_count", "pre_ops", "iter_ops", "iter_omp_regions",
                 "iter_omp_barriers", "iter_kernel_launches", "iter_halo_swaps")

    def __init__(self, function_name: str, func_op, loop, steps, sym,
                 overlap: bool, arg_count: int, pre_ops: int, iter_ops: int,
                 iter_omp_regions: int, iter_omp_barriers: int,
                 iter_kernel_launches: int, iter_halo_swaps: int):
        self.function_name = function_name
        self.func_op = func_op
        self.loop = loop
        self.steps = steps
        self.sym = sym
        self.overlap = overlap
        self.arg_count = arg_count
        self.pre_ops = pre_ops
        self.iter_ops = iter_ops
        self.iter_omp_regions = iter_omp_regions
        self.iter_omp_barriers = iter_omp_barriers
        self.iter_kernel_launches = iter_kernel_launches
        self.iter_halo_swaps = iter_halo_swaps


def trace_program(func_op, kernel: CompiledKernel, *,
                  overlap: bool = True) -> MegakernelTrace:
    """Trace one function into a :class:`MegakernelTrace`.

    Raises :class:`CodegenError` (with the fallback reason) when the function
    does not fit the megakernel shape: an optional constant/cast preamble, at
    most one loop-carried ``scf.for`` time loop whose body consists solely of
    halo swaps, OpenMP structure and compiled vectorizable nests, and a bare
    ``func.return``.
    """
    return _Tracer(func_op, kernel, overlap).trace()


class _Tracer:
    def __init__(self, func_op, kernel: CompiledKernel, overlap: bool):
        self.func_op = func_op
        self.kernel = kernel
        self.overlap = overlap
        self.sym: dict[SSAValue, _Sym] = {}
        self.steps: list[tuple] = []
        self.iter_ops = 0
        self.iter_omp_regions = 0
        self.iter_omp_barriers = 0
        self.iter_kernel_launches = 0
        self.iter_halo_swaps = 0

    def trace(self) -> MegakernelTrace:
        block = self.func_op.body.block
        for index, block_arg in enumerate(block.args):
            self.sym[block_arg] = ("arg", index)
        ops = list(block.ops)
        if not ops:
            raise CodegenError("the function body is empty")

        loop_index: Optional[int] = None
        for index, op in enumerate(ops):
            if isinstance(op, scf.ForOp) and op.iter_args:
                loop_index = index
                break

        if loop_index is None:
            # No time loop: the whole body is one straight-line segment.
            terminator = ops[-1]
            self._require_bare_return(terminator)
            loop = None
            pre_ops = 1  # the func.return
            self._trace_segment(ops[:-1])
        else:
            for op in ops[:loop_index]:
                self._trace_preamble_op(op)
            loop_op = ops[loop_index]
            remainder = ops[loop_index + 1 :]
            if len(remainder) != 1:
                raise CodegenError(
                    "operations after the time loop cannot be megakernel-"
                    "compiled"
                )
            self._require_bare_return(remainder[0])
            for result in loop_op.results:
                if result.uses:
                    raise CodegenError(
                        "the time loop's results are used after the loop"
                    )
            loop = self._trace_loop(loop_op)
            pre_ops = loop_index + 2  # preamble + scf.for + func.return

        return MegakernelTrace(
            self.func_op.sym_name, self.func_op, loop, self.steps, self.sym,
            self.overlap, len(block.args), pre_ops, self.iter_ops,
            self.iter_omp_regions, self.iter_omp_barriers,
            self.iter_kernel_launches, self.iter_halo_swaps,
        )

    # -- structure ----------------------------------------------------------
    @staticmethod
    def _require_bare_return(op: Operation) -> None:
        if op.name != "func.return" or op.operands:
            raise CodegenError(
                "the function must end in a value-less func.return"
            )

    def _trace_preamble_op(self, op: Operation) -> None:
        if isinstance(op, arith.ConstantOp):
            self.sym[op.results[0]] = ("const", self._constant_literal(op))
            return
        if isinstance(op, builtin.UnrealizedConversionCastOp):
            self.sym[op.results[0]] = self._sym_of(op.operands[0])
            return
        raise CodegenError(
            f"operation {op.name!r} before the time loop cannot be "
            "megakernel-compiled"
        )

    def _trace_loop(self, op: scf.ForOp) -> _LoopInfo:
        lower = self._bound_sym(op.lower_bound, "lower bound")
        upper = self._bound_sym(op.upper_bound, "upper bound")
        step_sym = self._sym_of(op.step)
        if step_sym[0] != "const" or not self._is_int(step_sym[1]) \
                or step_sym[1] <= 0:
            raise CodegenError(
                "the time-loop step must be a positive constant"
            )
        init_args: list[int] = []
        for value in op.iter_args:
            sym = self._sym_of(value)
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
        terminator = body_ops[-1] if body_ops else None
        if not isinstance(terminator, scf.YieldOp):
            raise CodegenError("the time-loop body must end in scf.yield")
        self._trace_segment(body_ops[:-1])
        self.iter_ops += 1  # the scf.yield is dispatched once per iteration
        perm: list[int] = []
        for operand in terminator.operands:
            sym = self._sym_of(operand)
            if sym[0] != "slot":
                raise CodegenError(
                    "the time loop must yield a permutation of its "
                    "loop-carried values"
                )
            perm.append(sym[1])
        if sorted(perm) != list(range(len(op.iter_args))):
            raise CodegenError(
                "the time loop must yield a permutation of its loop-carried "
                "values"
            )
        # A buffer reachable both directly (as the function argument) and
        # through a rotating slot would make nest geometry parity-dependent
        # in ways the per-parity replay cannot always separate; reject.
        for kind, *rest in self.steps:
            syms = [rest[1]] if kind == "swap" else rest[2]
            for sym in syms:
                if sym[0] == "arg" and sym[1] in init_args:
                    raise CodegenError(
                        "a field argument is used both directly and as a "
                        "loop-carried buffer"
                    )
        return _LoopInfo(op, lower, upper, step_sym[1], init_args, perm)

    def _bound_sym(self, value: SSAValue, what: str) -> _Sym:
        sym = self._sym_of(value)
        if sym[0] == "const":
            if not self._is_int(sym[1]):
                raise CodegenError(f"the time-loop {what} must be an integer")
            return sym
        if sym[0] == "arg":
            return sym
        raise CodegenError(
            f"the time-loop {what} must be a constant or a function argument"
        )

    # -- the loop-body segment ----------------------------------------------
    def _trace_segment(self, ops: list[Operation]) -> None:
        for op in ops:
            self._trace_op(op)

    def _trace_op(self, op: Operation) -> None:
        self.iter_ops += 1
        name = op.name
        if isinstance(op, arith.ConstantOp):
            self.sym[op.results[0]] = ("const", self._constant_literal(op))
            return
        if isinstance(op, builtin.UnrealizedConversionCastOp):
            self.sym[op.results[0]] = self._sym_of(op.operands[0])
            return
        if isinstance(op, dmp.SwapOp):
            src = self._sym_of(op.data)
            if src[0] not in ("arg", "slot"):
                raise CodegenError(
                    "dmp.swap operates on a buffer that is not a function "
                    "argument"
                )
            ordinal = self.iter_halo_swaps
            self.iter_halo_swaps += 1
            self.steps.append(("swap", op, src, ordinal))
            return
        if isinstance(op, omp.ParallelOp):
            self.iter_omp_regions += 1
            self._trace_segment(list(op.body.block.ops))
            return
        if name == "omp.barrier":
            self.iter_omp_barriers += 1
            return
        if name == "omp.terminator":
            return
        if isinstance(op, (scf.ParallelOp, omp.WsLoopOp, scf.ForOp)):
            self._trace_nest(op)
            return
        raise CodegenError(
            f"operation {name!r} cannot be megakernel-compiled"
        )

    def _trace_nest(self, op: Operation) -> None:
        if isinstance(op, scf.ParallelOp) and "gpu_kernel" in op.attributes:
            self.iter_kernel_launches += 1
        nest = self.kernel.nest_for(op)
        if nest is None:
            fallback = self.kernel.fallback_for(op)
            raise CodegenError(
                str(fallback) if fallback is not None
                else f"{op.name} has no compiled vectorized nest"
            )
        if nest.has_reduce:
            raise CodegenError(
                "reduction nests cannot be megakernel-compiled"
            )
        if op.results:
            raise CodegenError(
                "loop nests producing values cannot be megakernel-compiled"
            )
        base_syms = self._validate_nest(nest)
        self.steps.append(("nest", op, nest, base_syms))

    def _validate_nest(self, nest: CompiledNest) -> list[_Sym]:
        """Check the nest's geometry and value refs are emit-time resolvable.

        Returns the symbolic identities of every load/store base buffer, in
        instruction order (consumed by the loop-carried-alias check and the
        emitter's buffer binding).
        """
        for lower, upper, step in (*nest.bounds, *nest.count_bounds):
            for affine in (lower, upper, step):
                self._require_const_affine(affine)
        base_syms: list[_Sym] = []
        for instr in nest.instrs:
            if instr[0] in ("load", "store"):
                base_sym = self._sym_of(instr[2])
                if base_sym[0] not in ("arg", "slot"):
                    raise CodegenError(
                        "nest buffer is not a function argument"
                    )
                base_syms.append(base_sym)
                for affine in instr[3]:
                    self._require_const_affine(affine)
            for ref in _operand_refs(instr):
                self._validate_ref(ref)
        return base_syms

    def _validate_ref(self, ref: tuple) -> None:
        tag = ref[0]
        if tag in ("arr", "const"):
            return
        if tag == "free":
            sym = self.sym.get(ref[1])
            if sym is None or sym[0] not in ("const", "arg", "iv"):
                raise CodegenError(
                    "nest reads a value the tracer cannot resolve"
                )
            return
        # ("aff", affine): materialized per box; its free terms must be
        # emit-time constants.
        self._require_const_affine(ref[1])

    def _require_const_affine(self, affine) -> None:
        for value in affine.free:
            sym = self.sym.get(value)
            if sym is None or sym[0] != "const" or not self._is_int(sym[1]):
                raise CodegenError(
                    "nest geometry depends on runtime values"
                )

    # -- leaves ---------------------------------------------------------------
    def _constant_literal(self, op: arith.ConstantOp):
        attr = op.value
        if isinstance(attr, IntegerAttr):
            result_type = op.results[0].type
            if isinstance(result_type, IntegerType) and result_type.width == 1:
                return bool(attr.value)
            return int(attr.value)
        if isinstance(attr, FloatAttr):
            return float(attr.value)
        raise CodegenError("unsupported constant payload")

    def _sym_of(self, value: SSAValue) -> _Sym:
        sym = self.sym.get(value)
        if sym is None:
            raise CodegenError(
                "value has no traceable definition"
            )
        return sym

    @staticmethod
    def _is_int(value) -> bool:
        return isinstance(value, int) and not isinstance(value, bool)


class CompiledMegakernel:
    """One compiled megakernel: a single Python function per (plan, rank).

    ``run`` re-checks what only the concrete call can prove — argument
    layout and pairwise buffer aliasing — and returns False to bounce that
    run to the interpreter loop when the guard fails.
    """

    __slots__ = ("label", "source", "signature", "array_indices", "traced", "_fn")

    def __init__(self, label: str, source: str, signature: tuple,
                 array_indices: tuple, namespace: dict, traced: bool = False):
        self.label = label
        self.source = source
        self.signature = signature
        self.array_indices = array_indices
        #: Whether span bookkeeping was inlined at emission time.  Traced and
        #: untraced kernels are separate cache entries; the untraced source is
        #: statement-identical to a build without observability at all.
        self.traced = traced
        code = compile(source, f"<megakernel:{label}>", "exec")
        exec(code, namespace)
        self._fn = namespace["_megakernel"]

    def matches(self, args) -> bool:
        """Whether ``args`` has the traced layout (count, shapes, dtypes)."""
        count, arrays = self.signature
        if len(args) != count:
            return False
        array_positions = set()
        for index, shape, dtype in arrays:
            value = args[index]
            if not isinstance(value, np.ndarray) or value.shape != shape \
                    or value.dtype.str != dtype:
                return False
            array_positions.add(index)
        for index, value in enumerate(args):
            if index not in array_positions and isinstance(value, np.ndarray):
                return False
        return True

    def run(self, args, stats, comm=None, tracer=None) -> bool:
        """Execute; False bounces to the interpreter (aliased buffers)."""
        arrays = [args[index] for index in self.array_indices]
        for first in range(len(arrays)):
            for second in range(first + 1, len(arrays)):
                if np.shares_memory(arrays[first], arrays[second]):
                    return False
        if self.traced:
            self._fn(args, stats, comm, tracer)
        else:
            self._fn(args, stats, comm)
        return True


def megakernel_signature(args) -> tuple:
    """The layout key of an argument list: count + per-array (i, shape, dtype)."""
    return (
        len(args),
        tuple(
            (index, value.shape, value.dtype.str)
            for index, value in enumerate(args)
            if isinstance(value, np.ndarray)
        ),
    )


# ---------------------------------------------------------------------------
# the emitter
# ---------------------------------------------------------------------------

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


def _slice_src(slices) -> str:
    parts = []
    for piece in slices:
        if piece.step in (None, 1):
            parts.append(f"{piece.start}:{piece.stop}")
        else:
            parts.append(f"{piece.start}:{piece.stop}:{piece.step}")
    return ", ".join(parts)


def _slice_key(slices) -> tuple:
    return tuple((piece.start, piece.stop, piece.step) for piece in slices)


def emit_megakernel(trace: MegakernelTrace, sample_args, *, rank: int = 0,
                    size: int = 1, label: Optional[str] = None,
                    traced: bool = False) -> CompiledMegakernel:
    """Emit (and compile) the megakernel of ``trace`` for one rank.

    ``sample_args`` fixes the buffer layout the generated code is specialized
    to; :meth:`CompiledMegakernel.matches` gates reuse on later calls.
    Raises :class:`CodegenError` with a fallback reason when the concrete
    geometry cannot be emitted (aliased fields, rotation-dependent geometry,
    un-sliceable regions...).

    With ``traced=True`` the generated function takes a fourth ``_tracer``
    argument and brackets each timestep, nest, and halo post/wait with span
    bookkeeping.  With ``traced=False`` (the default) no bookkeeping is
    emitted at all — the source is statement-identical to a build without
    the observability layer.
    """
    emitter = _MegakernelEmitter(trace, list(sample_args), rank, size,
                                 traced=traced)
    return emitter.emit(
        label or f"{trace.function_name}@r{rank}of{size}"
    )


class _MegakernelEmitter:
    def __init__(self, trace: MegakernelTrace, args: list, rank: int, size: int,
                 traced: bool = False):
        self.trace = trace
        self.args = args
        self.rank = rank
        self.size = size
        self.traced = traced
        self._span = 0
        if len(args) != trace.arg_count:
            raise CodegenError(
                f"expected {trace.arg_count} arguments, got {len(args)}"
            )
        self.static_env = {
            value: sym[1] for value, sym in trace.sym.items()
            if sym[0] == "const"
        }
        self.array_indices = tuple(
            index for index, value in enumerate(args)
            if isinstance(value, np.ndarray)
        )
        arrays = [args[index] for index in self.array_indices]
        for first in range(len(arrays)):
            for second in range(first + 1, len(arrays)):
                if np.shares_memory(arrays[first], arrays[second]):
                    raise CodegenError("field arguments alias each other")
        # Source-building state (filled by the parity-0 replay): the scratch
        # allocations that run once, ahead of the time loop, and the lines of
        # the loop body with their relative indentation.
        self.setup: list[str] = []
        self.lines: list[str] = []
        self.ctx: list[Any] = []
        self._var = 0
        self.iter_cells = 0
        self.iter_mpi_messages = 0
        self.iter_halo_elements = 0
        self.iter_overlapped = 0

    # -- argument/slot resolution -------------------------------------------
    def _array_for(self, sym: _Sym, slot_arrays: list) -> np.ndarray:
        if sym[0] == "slot":
            return slot_arrays[sym[1]]
        value = self.args[sym[1]]
        if not isinstance(value, np.ndarray):
            raise CodegenError("a traced buffer argument is not an array")
        return value

    @staticmethod
    def _var_for(sym: _Sym) -> str:
        return f"b{sym[1]}" if sym[0] == "slot" else f"a{sym[1]}"

    def _new_var(self, prefix: str) -> str:
        self._var += 1
        return f"{prefix}{self._var}"

    def _span_lines(self, name: str) -> tuple[str, str]:
        """Begin/end source lines for one inlined span (unique local var)."""
        self._span += 1
        var = f"_sp{self._span}"
        return (
            f"{var} = _tracer.begin('{name}')",
            f"_tracer.end('{name}', {var})",
        )

    def _add_ctx(self, value) -> int:
        self.ctx.append(value)
        return len(self.ctx) - 1

    # -- top level -----------------------------------------------------------
    def emit(self, label: str) -> CompiledMegakernel:
        trace = self.trace
        loop = trace.loop
        if loop is None:
            parities = 1
            init_slots: list = []
        else:
            parities = _perm_order(loop.perm)
            if parities > 8:
                raise CodegenError(
                    "buffer rotation period too long to validate"
                )
            init_slots = [self.args[index] for index in loop.init_args]
            for value in init_slots:
                if not isinstance(value, np.ndarray):
                    raise CodegenError(
                        "a loop-carried buffer argument is not an array"
                    )
        slot_arrays = list(init_slots)
        reference = self._replay(slot_arrays, emit=True)
        for _parity in range(1, parities):
            slot_arrays = [slot_arrays[j] for j in loop.perm]
            if self._replay(slot_arrays, emit=False) != reference:
                raise CodegenError("buffer rotation changes nest geometry")
        source = self._render(label)
        _dump_generated(f"megakernel {label}", source)
        namespace = {
            "_np": np,
            "_ctx": tuple(self.ctx),
            "_post": post_swap,
            "_cm": complete_swap,
        }
        return CompiledMegakernel(
            label, source, megakernel_signature(self.args),
            self.array_indices, namespace, traced=self.traced,
        )

    # -- one-iteration replay -------------------------------------------------
    def _replay(self, slot_arrays: list, emit: bool) -> tuple:
        """Replay one loop iteration against concrete (parity) buffers.

        Returns the geometry signature of every action taken; the emit pass
        (parity 0) additionally records source lines, context values and the
        hoisted per-iteration statistics.  Every decision — swap prefix
        completion, overlap split, slice resolution — is the one the dynamic
        path would make, so comparing signatures across parities proves the
        single emitted body is exact for all of them.
        """
        actions: list[tuple] = []
        # In-flight swaps: (ordinal, unposted PendingHalo) — the geometry
        # the interpreter would hold on ``pending_halos`` at this point.
        inflight: list[tuple] = []

        def complete(entries: list[tuple], overlapped: bool) -> None:
            for ordinal, halo in entries:
                actions.append(("complete", ordinal, overlapped))
                if emit:
                    if self.traced:
                        begin, end = self._span_lines("halo.wait")
                        self.lines.append(begin)
                        self.lines.append(f"_cm(_comm, _h{ordinal})")
                        self.lines.append(end)
                    else:
                        self.lines.append(f"_cm(_comm, _h{ordinal})")
                    self.iter_halo_elements += halo.plan.elements
                    if overlapped:
                        self.iter_overlapped += 1

        for step in self.trace.steps:
            if step[0] == "swap":
                _, op, src, ordinal = step
                array = self._array_for(src, slot_arrays)
                actions.append(("swap", ordinal, array.shape, array.dtype.str))
                # complete_pending_halos_touching: the posting-order prefix
                # up to the last halo sharing this buffer.
                last = -1
                for index, (_, halo) in enumerate(inflight):
                    if halo.array is array or np.shares_memory(halo.array, array):
                        last = index
                if last >= 0:
                    complete(inflight[: last + 1], overlapped=False)
                    del inflight[: last + 1]
                if self.size == 1:
                    continue
                plan = swap_message_plan(op, self.rank)
                entry = (ordinal, PendingHalo(array, plan))
                if emit:
                    slot = self._add_ctx(plan)
                    variable = self._var_for(src)
                    if self.traced:
                        begin, end = self._span_lines("halo.post")
                        self.lines.append(begin)
                        self.lines.append(
                            f"_h{ordinal} = _post(_comm, {variable}, "
                            f"_ctx[{slot}])"
                        )
                        self.lines.append(end)
                    else:
                        self.lines.append(
                            f"_h{ordinal} = _post(_comm, {variable}, "
                            f"_ctx[{slot}])"
                        )
                    self.iter_mpi_messages += len(plan.sends)
                if self.trace.overlap:
                    inflight.append(entry)
                else:
                    complete([entry], overlapped=False)
            else:
                _, op, nest, base_syms = step
                self._replay_nest(
                    nest, base_syms, slot_arrays, inflight, actions,
                    complete, emit,
                )

        if inflight:
            if self.trace.loop is not None:
                raise CodegenError(
                    "a halo exchange is still in flight at the end of the "
                    "time-loop body"
                )
            # No time loop: the interpreter completes leftovers at function
            # end (non-overlapped).
            complete(inflight, overlapped=False)
            inflight.clear()
        return tuple(actions)

    def _replay_nest(self, nest: CompiledNest, base_syms, slot_arrays,
                     inflight, actions, complete, emit: bool) -> None:
        env = self.static_env
        arrays = [self._array_for(sym, slot_arrays) for sym in base_syms]
        try:
            dims = nest._concrete_dims(env, nest.bounds)
            cells = nest._cell_count(env)
            resolved = nest._resolve_regions(
                arrays, env, dims, check_aliasing=True
            )
            overlap_plan = None
            if inflight:
                halos = [halo for _, halo in inflight]
                plan = nest._plan_overlap(env, dims, resolved, halos)
                if plan is None:
                    complete(list(inflight), overlapped=False)
                    inflight.clear()
                elif plan != "defer":
                    overlap_plan = plan
            actions.append(("nest", cells, tuple(dims)))
            if emit:
                self.iter_cells += cells
            spans = emit and self.traced
            if spans:
                nest_begin, nest_end = self._span_lines("nest")
                self.lines.append(nest_begin)
            if overlap_plan is None:
                self._emit_box(nest, base_syms, dims, resolved, actions, emit)
            else:
                interior_dims, strips = overlap_plan
                interior_dims = [tuple(dim) for dim in interior_dims]
                interior = nest._resolve_regions(arrays, env, interior_dims)
                if spans:
                    in_begin, in_end = self._span_lines("nest.interior")
                    self.lines.append(in_begin)
                self._emit_box(
                    nest, base_syms, interior_dims, interior, actions, emit
                )
                if spans:
                    self.lines.append(in_end)
                complete(list(inflight), overlapped=True)
                inflight.clear()
                if spans:
                    bd_begin, bd_end = self._span_lines("nest.boundary")
                    self.lines.append(bd_begin)
                for strip_dims in strips:
                    strip_dims = [tuple(dim) for dim in strip_dims]
                    strip = nest._resolve_regions(arrays, env, strip_dims)
                    self._emit_box(
                        nest, base_syms, strip_dims, strip, actions, emit
                    )
                if spans:
                    self.lines.append(bd_end)
            if spans:
                self.lines.append(nest_end)
        except _Bailout as bail:
            raise CodegenError(f"nest cannot be emitted: {bail.reason}")

    # -- one box of one nest --------------------------------------------------
    def _emit_box(self, nest: CompiledNest, base_syms, box_dims, resolved,
                  actions, emit: bool) -> None:
        """Inline the statements of one (nest, box) pair, literal slices in.

        The statements are :func:`repro.interp.vectorize.emit_nest`'s — the
        ones a :class:`CompiledNest` function runs, block loop included — fed
        literal region views; their scratch slots become locals allocated
        once, ahead of the time loop.
        """
        regions = resolved[2]
        actions.append((
            "box",
            tuple(box_dims),
            tuple(
                (position, _slice_key(slices), view_shape, region_shape)
                for position, (array, slices, view_shape, region_shape)
                in regions.items()
            ),
        ))
        if not emit:
            return
        trips = tuple(len(range(lower, upper, step)) for lower, upper, step in box_dims)
        loads: dict[int, tuple] = {}
        stores: dict[int, tuple] = {}
        for (position, is_store), region, sym in zip(
            nest._accesses, regions.values(), base_syms
        ):
            array, slices, view_shape, _ = region
            source = f"{self._var_for(sym)}[{_slice_src(slices)}]"
            shape = trips if is_store else view_shape
            if array[slices].shape != shape:
                source += f".reshape({shape!r})"
            if is_store:
                stores[position] = (source, array.dtype)
            else:
                loads[position] = (source, array.dtype, view_shape)
        setup, lines, _ = emit_nest(
            nest.instrs, loads, stores,
            lambda ref: self._outer_operand(ref, box_dims),
            trips, _block_extents(trips), self._new_var,
        )
        self.setup.extend(setup)
        self.lines.extend(lines)

    def _outer_operand(self, ref: tuple, box_dims) -> tuple:
        """The operand descriptor of a free scalar or an affine value grid."""
        if ref[0] == "free":
            sym = self.trace.sym[ref[1]]
            if sym[0] == "const":
                return _constant_operand(sym[1])
            if sym[0] == "arg":
                return (f"a{sym[1]}", False, None, ())
            return ("_t", False, "pyint", ())
        # ("aff", affine) — materialized per box; geometry-free terms were
        # validated to be emit-time constants.
        value = CompiledNest._materialize(ref[1], list(box_dims), self.static_env)
        if isinstance(value, np.ndarray):
            slot = self._add_ctx(value)
            return (f"_ctx[{slot}]", True, np.dtype(np.int64), value.shape)
        return (repr(int(value)), False, "pyint", ())

    # -- source assembly ------------------------------------------------------
    @staticmethod
    def _bound_src(sym: _Sym) -> str:
        if sym[0] == "const":
            return str(sym[1])
        return f"int(a{sym[1]})"

    def _render(self, label: str) -> str:
        trace = self.trace
        indent = "    "
        body: list[str] = [f"# megakernel {label}"]
        for index in range(trace.arg_count):
            body.append(f"a{index} = _args[{index}]")
        loop = trace.loop
        if loop is None:
            body.append("_trips = 1")
        else:
            body.append(f"_lo = {self._bound_src(loop.lower)}")
            body.append(f"_hi = {self._bound_src(loop.upper)}")
            body.append(f"_st = {loop.step}")
            body.append("_trips = len(range(_lo, _hi, _st))")
        body.append(
            f"_stats.ops_executed += {trace.pre_ops} + _trips * {trace.iter_ops}"
        )
        for field, per_iteration in (
            ("omp_regions", trace.iter_omp_regions),
            ("omp_barriers", trace.iter_omp_barriers),
            ("kernel_launches", trace.iter_kernel_launches),
            ("halo_swaps", trace.iter_halo_swaps),
            ("cells_updated", self.iter_cells),
            ("mpi_messages", self.iter_mpi_messages),
            ("halo_elements_exchanged", self.iter_halo_elements),
            ("halo_swaps_overlapped", self.iter_overlapped),
        ):
            if per_iteration:
                body.append(f"_stats.{field} += _trips * {per_iteration}")
        body.extend(self.setup)
        if loop is None:
            body.extend(self.lines)
        else:
            for slot, index in enumerate(loop.init_args):
                body.append(f"b{slot} = a{index}")
            body.append("for _t in range(_lo, _hi, _st):")
            loop_body = list(self.lines)
            perm = loop.perm
            if perm != list(range(len(perm))):
                targets = ", ".join(f"b{j}" for j in range(len(perm)))
                sources = ", ".join(f"b{j}" for j in perm)
                loop_body.append(f"{targets} = {sources}")
            if self.traced:
                # One "step" span per time-loop trip, rotation included —
                # mirrors the interpreter's per-iteration span.
                loop_body = (
                    ["_spt = _tracer.begin('step')"]
                    + loop_body
                    + ["_tracer.end('step', _spt)"]
                )
            if not loop_body:
                loop_body.append("pass")
            body.extend(indent + line for line in loop_body)
        body.append("return True")
        header = (
            "def _megakernel(_args, _stats, _comm, _tracer):\n"
            if self.traced else
            "def _megakernel(_args, _stats, _comm):\n"
        )
        return header + "\n".join(indent + line for line in body) + "\n"


def program_fingerprint(text: str) -> str:
    """A stable content hash for megakernel cache keys."""
    return hashlib.sha256(text.encode()).hexdigest()
