"""The megakernel schedule: a plain value between the trace and the source.

:func:`plan_megakernel` plans each segment of a
:class:`~repro.interp.codegen.MegakernelTrace` (before, inside and after the
time loop) against one rank's buffer layout into a :class:`KernelSchedule`,
and :func:`print_python` spells the schedule as the source of one Python
function.  The trace and the schedule share one step vocabulary:

* a trace segment holds :class:`Swap`, :class:`Island` and
  :class:`~repro.interp.nestplan.FusedNest` steps in program order;
* a schedule segment holds :class:`Post`, :class:`Complete`,
  :class:`Island` and :class:`Nest` steps in the order they run: each swap
  becomes the post of its :class:`SwapMessagePlan` and its completion where
  the halo must have landed, each fused nest a
  :class:`~repro.interp.nestplan.NestPlan` of its boxes.

A schedule holds nothing of the IR: buffers and scalars are named by trace
symbol, an island by its number in the trace, a value kept in the kernel's
``_env`` by its ``("env", k)`` slot.  So it pickles, compares equal to its
copy and prints without its module.  Besides its steps it holds the time
loop (:class:`Loop`), the argument count, the arrays' argument indices and
the hoisted statistics — once, and per trip of the time loop.

The layout — :func:`~repro.interp.codegen.megakernel_signature` of the
arguments: their count and each array's index, shape, dtype and
C-contiguity — is the planner's whole input: it never sees an array, so a
schedule is a function of the kernel's cache key.  Every buffer parity of the
time loop must plan the same steps, dtypes included, for one printed body to
be exact for all of them.  Only the printer plans boxes, allocates scratch
and ``_ctx`` slots, and writes spans.  The ``_ctx`` tuple it returns holds
the message plans and index grids the kernel reads, and, in place of the
islands and ``_env`` keys, the :class:`Island` steps and ``("env", k)`` slots
that :func:`~repro.interp.codegen.emit_megakernel` binds to the trace's ops
and values.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from .interpreter import SwapMessagePlan, message_plan
from .nestplan import CodegenError, NestPlan, local_name, plan_box, plan_nest, print_numpy


# ---------------------------------------------------------------------------
# steps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Swap:
    """A halo exchange of the buffer ``src`` (a trace step): swap
    ``ordinal`` of the trace, its ``dmp.grid`` and declared ``exchanges``,
    and whether the walker of its spelling counts its halo elements."""

    ordinal: int
    src: tuple
    grid: Any
    exchanges: tuple
    counted: bool


@dataclass(frozen=True)
class Island:
    """Walk island ``index`` of the trace in place, on the current values
    of ``syms`` (a step of the trace and of the schedule)."""

    index: int
    syms: tuple


@dataclass(frozen=True)
class Post:
    """Post the halo exchange of swap ``ordinal`` on buffer ``src``.

    ``shape`` and ``dtype`` are the swapped array's, which the plan's
    slices and messages apply to.
    """

    ordinal: int
    src: tuple
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
class Nest:
    """Run a planned nest: its boxes, the overlapped completions that follow
    it in the segment, then its strips."""

    plan: NestPlan


@dataclass(frozen=True)
class Loop:
    """The time loop: bounds (trace symbols), step, the argument each
    loop-carried slot starts as, and ``perm[j]``, the slot whose value
    becomes slot ``j`` next step."""

    lower: tuple
    upper: tuple
    step: int
    init_args: list
    perm: list


@dataclass
class KernelSchedule:
    """One megakernel planned for one rank and buffer layout.

    ``pre``, ``body`` and ``post`` are the steps of the trace's segments in
    the order they run; ``body`` is the same for every buffer parity of the
    time loop ``loop`` (None: ``body`` runs once).  ``array_indices`` are the
    arguments the kernel gets arrays for, and ``hoisted`` the statistics it
    adds: outside the time loop, and per trip.
    """

    arg_count: int
    loop: Optional[Loop]
    array_indices: tuple
    hoisted: tuple
    pre: list
    body: list
    post: list

    @property
    def uses_team(self) -> bool:
        """Whether boxes run as chunks on a thread team."""
        return any(isinstance(step, Nest) and len(step.plan.boxes) > 1
                   for step in (*self.pre, *self.body, *self.post))

    @property
    def has_islands(self) -> bool:
        return any(isinstance(step, Island) for step in (*self.pre, *self.body, *self.post))

    @property
    def uses_env(self) -> bool:
        """Whether the kernel keeps values in ``_env``: islands' results,
        and reductions', which later islands and nests read."""
        return self.has_islands or any(isinstance(step, Nest) and step.plan.nest.has_reduce
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


def _perm_order(perm: list[int], bound: int) -> int:
    """The order of the permutation ``perm``, or ``bound + 1`` when above it."""
    power, order = list(perm), 1
    while power != sorted(perm) and order <= bound:
        power, order = [perm[slot] for slot in power], order + 1
    return order


def plan_megakernel(trace, layout: tuple, rank: int = 0,
                    size: int = 1, threads: int = 1) -> KernelSchedule:
    """Plan the megakernel of ``trace`` for one rank and buffer layout.

    ``layout`` is :func:`~repro.interp.codegen.megakernel_signature` of the
    arguments — their count and each array's index, shape, dtype and
    contiguity — and all the planner reads of them; ``threads`` is the team
    size boxes are split for.  Each segment is planned against the layout —
    swap prefix completion, overlap split, boxes — and the time loop's once
    per buffer parity: one printed body is exact for every parity when all
    of them plan the same steps as the first, dtypes included.  Raises
    :class:`CodegenError` with the fallback reason when they do not, or when
    the layout cannot be sliced (aliased regions, out-of-range indices...).
    """
    count, entries = layout
    if count != trace.arg_count:
        raise CodegenError(f"expected {trace.arg_count} arguments, got {count}")
    buffers = {entry[0]: entry for entry in entries}
    loop = trace.loop
    parities = 1 if loop is None else _perm_order(loop.perm, 8)
    if parities > 8:
        raise CodegenError("buffer rotation period too long to validate")
    slots = [] if loop is None else list(loop.init_args)
    if not all(index in buffers for index in slots):
        raise CodegenError("a loop-carried buffer argument is not an array")

    def buffer_for(sym: tuple, slots: list) -> tuple:
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
            if isinstance(step, Swap):
                buffer, shape, dtype, _ = buffer_for(step.src, slots)
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
                plan = message_plan(step.grid, step.exchanges, rank)
                planned.append(Post(step.ordinal, step.src, plan, shape, dtype))
                # A lowered group's walker counts messages, not halo elements.
                inflight.append((step.ordinal, plan.elements if step.counted else 0,
                                 (buffer, plan)))
            elif isinstance(step, Island):
                land(len(inflight))
                planned.append(step)
            else:
                plan = plan_nest(
                    step, [buffer_for(sym, slots) for sym in step.syms],
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
    hoisted = (_hoisted(trace.once, pre + post), _hoisted(trace.per_trip, body))
    return KernelSchedule(trace.arg_count, loop, tuple(buffers), hoisted,
                          pre, body, post)


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def print_python(schedule: KernelSchedule, label: str,
                 traced: bool = False) -> tuple[str, tuple]:
    """Print ``schedule`` as the source of one Python function.

    Returns the source of ``_megakernel`` and the ``_ctx`` tuple it reads
    (message plans, index grids, and the :class:`Island` steps and
    ``("env", k)`` slots the emitter binds).  Each box is planned
    (:func:`~repro.interp.nestplan.plan_box`) and written by
    :func:`~repro.interp.nestplan.print_numpy` with literal slices; the
    scratch slots it writes and the team chunks it runs as are set up once,
    ahead of the time loop.  ``traced`` brackets each step with spans.
    """
    printer = _PythonPrinter(schedule, traced)
    pre = printer.segment(schedule.pre)
    body = printer.segment(schedule.body, in_loop=schedule.loop is not None)
    post = printer.segment(schedule.post)
    return printer.render(label, pre, body, post), tuple(printer.ctx)


class _PythonPrinter:
    def __init__(self, schedule: KernelSchedule, traced: bool):
        self.schedule = schedule
        self.traced = traced
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
                    f"_ctx[{self._add_ctx(step)}](_walker, _env{values})"
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
        for slot, name in zip(plan.nest.reductions, reduced):
            self.lines.append(f"_env[_ctx[{self._add_ctx(slot)}]] = {name}")

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

    def _view(self, sym: tuple, index: str, views: dict) -> str:
        """The local holding the view ``index`` of the buffer ``sym``.

        In the time loop a view of a rotating buffer is bound for every
        buffer of its rotation cycle, ahead of the loop, and rotates with
        them; one of a fixed argument is bound once.  Elsewhere it goes to
        ``views``, which the box binds itself.
        """
        if self.in_loop:
            views = self.loop_views
            if sym[0] == "slot" and (sym, index) not in views:
                perm, slot = self.schedule.loop.perm, sym[1]
                while (("slot", slot), index) not in views:
                    views[(("slot", slot), index)] = self._new_var("_r")
                    slot = perm[slot]
        key = (sym, index)
        if key not in views:
            views[key] = self._new_var("_r")
        return views[key]

    def _scalar_src(self, sym: tuple) -> str:
        """The expression of a scalar that is known at run time only."""
        if sym[0] == "env":
            return f"_env[_ctx[{self._add_ctx(sym)}]]"
        return f"a{sym[1]}" if sym[0] == "arg" else "_t"

    def _outer_source(self, ref: tuple, box_dims) -> str:
        """A run-time scalar, or an affine index grid over the box.

        A grid is materialized from its emit-time terms into ``_ctx``; the
        free terms known only at run time are added to it by the kernel.
        """
        if ref[0] == "free":
            return self._scalar_src(ref[1])
        affine = ref[1]
        late = "".join(f" + {coeff} * int({self._scalar_src(sym)})"
                       for sym, coeff in affine.free)
        grid: Any = affine.const
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
        schedule = self.schedule
        indent = "    "
        lines = [f"# megakernel {label}"]
        lines += [f"a{index} = _args[{index}]" for index in range(schedule.arg_count)]
        loop = schedule.loop
        lines += ["_trips = 1"] if loop is None else [
            f"_lo = {_bound_source(loop.lower)}", f"_hi = {_bound_source(loop.upper)}",
            f"_st = {loop.step}", "_trips = len(range(_lo, _hi, _st))",
        ]
        for field in schedule.hoisted[0]:
            once, per_trip = (counts[field] for counts in schedule.hoisted)
            terms = ([str(once)] if once or field == "ops_executed" else []) + (
                [f"_trips * {per_trip}"] if per_trip or field == "ops_executed"
                else []
            )
            if terms:
                lines.append(f"_stats.{field} += {' + '.join(terms)}")
        if schedule.uses_env:
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
        params += ["_walker"] * schedule.has_islands
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


def _bound_source(sym: tuple) -> str:
    return str(sym[1]) if sym[0] == "const" else f"int(a{sym[1]})"
