"""Box planning and NumPy printing of resolved nests.

:mod:`repro.interp.vectorize` compiles a loop nest into instructions, and the
megakernel tracer resolves them against its trace into a :class:`FusedNest`:
plain values, its emit-time constants folded, every other name a trace
symbol or an instruction position.  This module decides, against the buffer
layout of one megakernel emission, *where* those instructions run and *how*
they are spelled, and it never sees the IR.  The layout is all it reads of
the buffers: an access names its buffer by argument index, with that
buffer's shape and dtype, and never holds the array.  A **box** is one
rectangular piece of a nest's iteration space that becomes one straight-line
group of statements: the whole nest, an overlap interior, a boundary strip or
a thread-team chunk.

* :func:`plan_nest` settles a nest once per buffer layout: its concrete
  bounds, the aliasing verdict, the split into an interior that runs while
  halos are in flight and the boundary strips after them, and the team
  chunks.  Regions are compared by buffer index and per-axis index ranges:
  distinct field arguments never share memory in a run (the megakernel's
  run guard sends a run whose fields do to the tree walker), and two regions
  of one buffer overlap exactly when their index ranges meet on every axis.
* :func:`plan_box` plans one of those boxes as a :class:`BoxPlan`: its
  geometry (one :class:`Access` record per load and store, in instruction
  order), one :class:`Value` record per instruction (operands, dtype, shape
  and where it is written) and the block walk.
* :func:`print_numpy` writes a plan's statements and reads everything it
  writes, the ``# box`` comment included, from the plan.

The printed code writes each value once.  Every array-valued ``arith``
result of known dtype and full shape is computed with ``out=`` into one of a
few scratch slots, handed from value to value by a last-read liveness pass,
and the last op of a single-store nest writes the target region itself, so a
stencil step allocates nothing and copies nothing.  A box of more than
:data:`_BLOCK_CELLS` cells is walked in blocks that keep the innermost
dimension whole, so the whole expression DAG of a block is produced and
consumed in cache (wave3d so4 on 128^3: 32 field-sized temporaries of 16 MB
become five 272 KiB slots).

A box is printed in one of two spellings, and its ``# box`` comment says
which and why:

* **pitched** — every value but the stored ones is computed over one
  contiguous span of the buffers, the way native code addresses a box by
  flat offsets: a load is the 1-D slice of its buffer from its region's
  first cell, as long as the box's first to last cell, and a scratch slot is
  allocated at the buffers' pitch and used as the same span.  The ufunc
  calls are those of the strided spelling in the same order, so each cell
  gets the same bits; NumPy runs one inner loop per call instead of one per
  row.  The pad cells between rows are computed too and thrown away.  Only
  the store is N-D: the in-target op and the commits read slots cut to the
  box and loads as region views, and write the target region alone, so no
  halo or pad cell is ever written.
* **strided** — every value is an N-D region view or a slot of the box's
  shape.

A box is pitched when every access is full rank, maps axis ``d`` to nest
dimension ``d`` and steps by one; every accessed buffer has one shape and is
C-contiguous (the layout says so); there is no reduction, index grid or
division (a zero in a pad cell would make it warn); every value the store
reads is a load of the stored dtype or a slot, which have N-D views; and the
span is under twice the box's cells — a row's padding shorter than the row,
which keeps a 3-D strip along a middle axis strided.

A block loads, computes and then stores; that equals per-cell execution
exactly when a store region overlaps a load only as the same cell read
earlier in the body, which the aliasing verdict establishes before anything
is planned.  Boxes the slicing model cannot reproduce exactly (aliased
read/write buffers with shifted offsets, out-of-range indices that python's
negative indexing would wrap, non-positive steps, shapes that do not
broadcast) raise :class:`CodegenError` while planning, and the run goes to
the tree walker instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from ..dialects.arith import SEMANTICS
from .thread_team import split_trip_counts


class CodegenError(Exception):
    """A program (or one plan of it) cannot be megakernel-compiled.

    The message is the fallback reason surfaced to users; it must say *what*
    the tracer could not prove, not where it gave up.
    """


def _rejected(reason: str) -> CodegenError:
    return CodegenError(f"nest cannot be emitted: {reason}")


def local_name(sym: tuple) -> str:
    """The kernel local holding a traced value at run time."""
    if sym[0] == "iv":
        return "_t"
    return f"a{sym[1]}" if sym[0] == "arg" else f"b{sym[1]}"


# ---------------------------------------------------------------------------
# resolved nests
# ---------------------------------------------------------------------------


def operand_refs(instr: tuple) -> tuple:
    """The value references an instruction reads (its layout, in one place;
    see :mod:`repro.interp.vectorize`)."""
    kind = instr[0]
    if kind == "load":
        return ()
    if kind == "store":
        return (instr[1],)
    if kind == "reduce":
        return instr[4:6]
    return instr[2:] if kind == "select" else instr[3:]


@dataclass(frozen=True)
class Affine:
    """``sum(coeffs[d] * iv_d) + const + sum(coeff * symbol)`` in a resolved
    nest: ``free`` holds the terms known only at run time, as ``(trace
    symbol, coefficient)`` pairs in the order the nest compiled them, and the
    emit-time constants are folded into ``const``."""

    coeffs: dict
    const: int
    free: tuple = ()


@dataclass(frozen=True)
class FusedNest:
    """A compiled nest resolved against its trace, as plain values.

    ``bounds`` and ``count_bounds`` are the ``(lower, upper, step)`` ints of
    each dimension (see :class:`repro.interp.vectorize.CompiledNest`).
    ``instrs`` are the nest's instructions with every name resolved: a result
    is named by its instruction's position, the buffer of a load or store by
    its trace symbol and an index by an :class:`Affine`; a scalar from
    outside the nest is ``("const", literal)`` when the trace knows it at
    emit time, else ``("free", symbol)``.  ``reductions`` are the
    ``("env", k)`` slots the reduction results are kept in, in order.
    """

    bounds: tuple
    count_bounds: tuple
    instrs: tuple
    reductions: tuple

    @property
    def has_reduce(self) -> bool:
        """Reductions fold in iteration order: never chunked, never split."""
        return bool(self.reductions)

    @property
    def accesses(self) -> tuple:
        """``(instruction index, is store)`` of every load and store."""
        return tuple((position, instr[0] == "store")
                     for position, instr in enumerate(self.instrs)
                     if instr[0] in ("load", "store"))

    @property
    def syms(self) -> list:
        """The trace symbols of the accessed buffers, in instruction order."""
        return [self.instrs[position][2] for position, _ in self.accesses]


# ---------------------------------------------------------------------------
# spellings and dtypes
# ---------------------------------------------------------------------------
#
# A binary or unary instruction is spelled as its op's record in the op table
# (repro.dialects.arith.SEMANTICS) says: the NumPy expression, the python
# scalar one, or its ufunc writing into existing memory (``out=``).


def _literal(value) -> str:
    """The source of a scalar literal (repr round-trips floats exactly)."""
    if isinstance(value, float) and not math.isfinite(value):
        return f'float("{value!r}")'
    return repr(value)


def _literal_dtype(value) -> str:
    if isinstance(value, bool):
        return "pybool"
    return "pyint" if isinstance(value, int) else "pyfloat"


def _widened(dtype: np.dtype) -> np.dtype:
    """The dtype a loaded region computes in: ``ndarray.item()``'s, per cell."""
    if dtype.kind == "f":
        return dtype if dtype.itemsize == 8 else np.dtype(np.float64)
    if dtype.kind == "b" or dtype == np.dtype(np.int64):
        return dtype
    return np.dtype(np.int64)


def _broadcast(a: tuple, b: tuple) -> tuple:
    """NumPy's broadcast of two shapes whose extents are ints or source names.

    Every array of a nest has the nest's rank (scalars have shape ``()``) and
    every extent is 1 or the block's, spelled the same way (``_n<d>`` for the
    ragged last block of a dimension).
    """
    if a == b or not b:
        return a
    if not a:
        return b
    if len(a) == len(b) and all(x == y or 1 in (x, y) for x, y in zip(a, b)):
        return tuple(y if x == 1 else x for x, y in zip(a, b))
    raise _rejected("operand shapes do not broadcast")


def _binary_dtype(key: str, a: "Operand", b: "Operand"):
    """The result dtype of a binary op over these operands: its record's when
    NumPy is sure to give that, else None (unknown)."""
    result = SEMANTICS[key].dtype
    if result.kind == "b":
        return result
    kinds = []
    for operand in (a, b):
        dtype = operand.dtype
        if operand.is_array:
            if not isinstance(dtype, np.dtype):
                return None
        elif dtype not in ("pyint", "pyfloat"):
            return None
        kinds.append(dtype)
    arrays = [dtype for dtype in kinds if isinstance(dtype, np.dtype)]
    if arrays and all(dtype == result for dtype in arrays) and (
            result.kind == "f" or "pyfloat" not in kinds):
        return result
    return None


def _unary_dtype(key: str, a: "Operand"):
    result = SEMANTICS[key].dtype
    if result is None:  # negf / extsi / trunci keep their operand's dtype
        return a.dtype
    if a.is_array:
        return result
    return "pyfloat" if result.kind == "f" else "pyint"


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

#: A box of more iteration-space cells than this runs block by block, so that
#: every value of a block's expression DAG is written and read back while it
#: is still in cache instead of streaming field-sized arrays through it.
#: 16-32 Ki cells (128-256 KiB per f64 value, a handful of values alive) was
#: the best band for wave3d so4 on 128^3, 64^3 and (8, 256, 256) with a 4 MiB
#: L2; 64 Ki cells is already 25 % slower.
_BLOCK_CELLS = 32768

#: A box smaller than this (in iteration-space cells) is not worth spreading
#: over a thread team: the dispatch overhead would exceed the NumPy work.
_TEAM_MIN_CELLS = 4096


def _concrete_dims(bounds) -> list[tuple[int, int, int]]:
    dims = [tuple(bound) for bound in bounds]
    if any(step <= 0 for _, _, step in dims):
        # The interpreter defines the (error) semantics of non-positive steps.
        raise _rejected("non-positive loop step")
    return dims


def _trips(dims) -> tuple:
    return tuple(len(range(*dim)) for dim in dims)


@dataclass(slots=True)
class Access:
    """One load or store of a box: its buffer and the region it touches.

    ``buffer`` is the argument index of the accessed buffer and ``ranges``
    the indices ``slices`` select along each of its axes (``slice.indices``
    of its extents, so their lengths are the shape NumPy gives the region).
    ``view_shape`` has the nest's rank with the trip count at every mapped
    dimension and 1 elsewhere (loads broadcast into the iteration space);
    ``region_shape`` has the buffer's rank and is the shape stores are
    shaped to.  ``extents`` and ``contiguous`` are the buffer's shape and
    whether it is C-contiguous, which decide the pitched spelling.  Two
    accesses are equal when a box plan reads the same of them: which buffer
    it is is not compared, its region, ``dtype`` and geometry are.
    """

    position: int
    is_store: bool
    sym: tuple
    buffer: int = field(compare=False)
    dtype: np.dtype
    slices: tuple
    view_shape: tuple
    region_shape: tuple
    ranges: tuple = field(compare=False)
    extents: tuple
    contiguous: bool

    def same_region(self, other: "Access") -> bool:
        return self.buffer == other.buffer and self.slices == other.slices

    def overlaps(self, other: "Access") -> bool:
        """Whether the two regions share a cell: one buffer, and on every
        axis their index ranges meet."""
        return self.buffer == other.buffer and all(map(_meet, self.ranges, other.ranges))


def _meet(a: range, b: range) -> bool:
    """Whether two index ranges of positive step share an index.

    Past the later start, ``a``'s indices repeat their residues modulo
    ``b.step`` every ``b.step // gcd`` of them, so those decide.
    """
    later = a[-(-(max(a.start, b.start) - a.start) // a.step):]
    return any(index in b for index in later[:b.step // math.gcd(a.step, b.step)])


def _resolve(nest: FusedNest, dims, buffers) -> list[Access]:
    """The :class:`Access` of every load and store of ``nest`` over ``dims``.

    ``buffers`` are the accessed buffers' ``(argument index, shape, dtype,
    C-contiguous)`` layout entries, one per load/store in instruction order.
    Raises :class:`CodegenError` when a region cannot be reproduced exactly
    by slicing.
    """
    trips = _trips(dims)
    accesses = []
    for (position, is_store), (buffer, shape, dtype, contiguous) in zip(
            nest.accesses, buffers):
        _, _, sym, axes = nest.instrs[position]
        if len(axes) != len(shape):
            raise _rejected("access rank does not match the memref rank")
        slices = []
        ranges = []
        view_shape = [1] * len(dims)
        region_shape = [1] * len(shape)
        used_dims: list[int] = []
        for axis, affine in enumerate(axes):
            offset = affine.const
            if not affine.coeffs:
                if not 0 <= offset < shape[axis]:
                    raise _rejected("constant index outside the memref extent")
                slices.append(slice(offset, offset + 1))
                ranges.append(range(offset, offset + 1))
                continue
            mapping = list(affine.coeffs.items())
            if len(mapping) != 1 or mapping[0][1] != 1:
                raise _rejected("non-unit-stride index expression cannot be sliced")
            dim = mapping[0][0]
            if used_dims and dim <= used_dims[-1]:
                raise _rejected(
                    "transposed or repeated induction variables in one access"
                )
            used_dims.append(dim)
            lower, upper, step = dims[dim]
            start = lower + offset
            last = start + (trips[dim] - 1) * step
            if trips[dim] and (start < 0 or last >= shape[axis]):
                # Out-of-range accesses would wrap (negative) or raise in the
                # tree walker; preserve those semantics by falling back.
                raise _rejected(
                    "out-of-range access would wrap or raise in the tree walker"
                )
            slices.append(slice(start, upper + offset, step))
            ranges.append(range(*slices[-1].indices(shape[axis])))
            if len(ranges[-1]) != trips[dim]:
                # Only an empty loop gets here: a negative stop wraps its
                # slice round to cells the tree walker never touches.
                raise _rejected("an empty loop's slice would wrap to a non-empty region")
            view_shape[dim] = trips[dim]
            region_shape[axis] = trips[dim]
        if is_store and len(used_dims) != len(dims):
            raise _rejected(
                "store does not cover every nest dimension "
                "(iterations would collapse onto the same cells)"
            )
        accesses.append(Access(position, is_store, sym, buffer, np.dtype(dtype),
                               tuple(slices), tuple(view_shape),
                               tuple(region_shape), tuple(ranges), tuple(shape),
                               contiguous))
    return accesses


def _aliasing_is_safe(accesses: list[Access]) -> bool:
    """Check that loading a block, then storing it, matches per-cell execution.

    True when every store region overlaps a load only as the same region
    read earlier in the body, and another store only as the same region:
    then no cell written by one block (or box) is read by another.
    """
    stores = [access for access in accesses if access.is_store]
    for store in stores:
        for other in accesses:
            if other.is_store and other.position >= store.position:
                continue
            if store.same_region(other) and other.position < store.position:
                # A load reads its own cell before writing it; a store
                # re-writes it identically: program order is preserved.
                continue
            if other.overlaps(store):
                return False
    return True


def _split_overlap(nest: FusedNest, dims, accesses: list[Access], halos):
    """Partition ``dims`` into an interior box and boundary strips.

    ``halos`` are the in-flight swaps as ``(argument index of the swapped
    buffer, SwapMessagePlan)`` pairs.  The interior contains exactly the
    iterations whose loads provably avoid every in-flight halo region, so it
    can execute before the receives complete.  Returns ``(interior dims,
    [strip dims, ...])`` — no strips when the nest reads no pending halo, so
    those halos stay in flight for a later consumer — or None when the split
    cannot be proven safe (the halos must land first).
    """
    if nest.has_reduce or any(step != 1 for _, _, step in dims):
        return None
    forbidden: dict[int, list[tuple[int, int]]] = {}
    for buffer, message_plan in halos:
        for access in accesses:
            if access.buffer != buffer:
                continue
            if access.is_store:
                # Stores into the swapped buffer: completion would race with
                # (or be clobbered by) the interior commit.
                return None
            for recv_slice, _, _, _, axis in message_plan.receives:
                box = recv_slice[axis]
                start = access.slices[axis].start
                affine = nest.instrs[access.position][3][axis]
                if not affine.coeffs:
                    if box.start <= start < box.stop:
                        return None  # every iteration reads the halo
                    continue
                dim = next(iter(affine.coeffs))
                offset = start - dims[dim][0]
                forbidden.setdefault(dim, []).append(
                    (box.start - offset, box.stop - offset)
                )
    interior = [[lower, upper] for lower, upper, _ in dims]
    for dim, intervals in forbidden.items():
        lower, upper = interior[dim]
        changed = True
        while changed:
            changed = False
            for begin, end in intervals:
                if begin <= lower < end:
                    lower, changed = end, True
                if begin < upper <= end:
                    upper, changed = begin, True
        for begin, end in intervals:
            if max(begin, lower) < min(end, upper):
                return None  # a halo-dependent band strictly inside
        if lower >= upper:
            return None  # no interior left: nothing to overlap with
        interior[dim] = [lower, upper]
    strips = []
    for dim, (lower, upper, _) in enumerate(dims):
        ilower, iupper = interior[dim]
        prefix = [(interior[k][0], interior[k][1], 1) for k in range(dim)]
        suffix = dims[dim + 1:]
        if lower < ilower:
            strips.append([*prefix, (lower, ilower, 1), *suffix])
        if iupper < upper:
            strips.append([*prefix, (iupper, upper, 1), *suffix])
    return [(lower, upper, 1) for lower, upper in interior], strips


def _team_chunks(dims, threads: int) -> list:
    """The boxes ``dims`` runs as: one per team thread when worthwhile.

    Chunks split the outermost dimension only, which keeps their store
    regions disjoint.
    """
    if threads > 1:
        trips = _trips(dims)
        if trips and trips[0] >= 2 and math.prod(trips) >= _TEAM_MIN_CELLS:
            lower, _, step = dims[0]
            return [
                [(lower + start * step, lower + end * step, step), *dims[1:]]
                for start, end in split_trip_counts(trips[0], threads)
            ]
    return [dims]


@dataclass(slots=True)
class NestPlan:
    """One nest settled against a buffer layout: the boxes it runs as.

    ``boxes`` run first — the whole nest or its overlap interior, as one box
    or one per team chunk — and ``strips``, the boundary of an overlapped
    nest, after its halos land; each is the ``dims`` of a box, which
    :func:`plan_box` plans.  ``waits`` says the in-flight halos must land
    before the nest runs at all.  ``accesses`` are the whole nest's, and
    ``buffers`` the layout entries they were resolved against.  Two plans
    are equal when they plan the same boxes of the same nest over the same
    accesses, whichever buffers those are: a box's regions follow from its
    dims and the nest's.
    """

    nest: FusedNest
    buffers: list = field(compare=False)
    dims: list
    accesses: list
    cells: int
    waits: bool
    boxes: list
    strips: list


def plan_nest(nest: FusedNest, buffers: list, halos: list, threads: int) -> NestPlan:
    """Settle ``nest`` over the buffers ``buffers`` lays out: its boxes.

    ``buffers`` are the ``(argument index, shape, dtype, C-contiguous)``
    layout entries of the accessed buffers (one per load/store in
    instruction order), ``halos`` the in-flight swaps as ``(buffer, message
    plan)`` pairs and ``threads`` the team size boxes are chunked for.
    Raises :class:`CodegenError` when the nest cannot be emitted by slicing.
    """
    dims = _concrete_dims(nest.bounds)
    cells = math.prod(
        _trips(_concrete_dims(nest.count_bounds))
    ) if nest.count_bounds else 0
    accesses = _resolve(nest, dims, buffers)
    if not _aliasing_is_safe(accesses):
        raise _rejected(
            "aliasing stores: load/store regions overlap between "
            "cells, so per-cell execution order is observable"
        )
    split = _split_overlap(nest, dims, accesses, halos) if halos else None
    interior, strips = split or (dims, [])
    return NestPlan(
        nest, buffers, dims, accesses, cells,
        bool(halos) and split is None,
        _team_chunks(interior, 1 if nest.has_reduce else threads), strips,
    )


# ---------------------------------------------------------------------------
# one box: its values and block walk
# ---------------------------------------------------------------------------

def _block_extents(trips: tuple) -> tuple:
    """The block shape of a box: at most ``_BLOCK_CELLS`` cells.

    Blocks keep the innermost dimension whole (it is the contiguous one) and
    shrink from the outermost; a box that fits the budget is its own block.
    """
    block = list(trips)
    for dim in range(len(trips) - 1):
        inner = math.prod(trips[dim + 1:])
        if block[dim] * inner <= _BLOCK_CELLS:
            break
        block[dim] = max(1, _BLOCK_CELLS // inner)
    return tuple(block)


def _grid_shape(affine, shape: tuple) -> tuple:
    """The shape of an affine index grid materialized over a box of ``shape``."""
    return tuple(
        extent if dim in affine.coeffs else 1 for dim, extent in enumerate(shape)
    )


@dataclass(eq=False, slots=True)
class Operand:
    """What an instruction reads: a reference and the value's type.

    ``ref`` is an operand reference of a :class:`FusedNest` instruction.
    ``dtype`` is a numpy dtype, a ``"pyint"``/``"pyfloat"``/``"pybool"``
    marker, or None (unknown); ``shape`` the extents of one block (``()``
    for python scalars).
    """

    ref: tuple
    is_array: bool
    dtype: Any
    shape: tuple


@dataclass(eq=False, slots=True)
class Value:
    """The plan of one instruction of a box.

    ``result`` types the value it defines (an :class:`Operand` of the
    instruction's own result; None for stores and reductions) and ``slot``
    says where that is written: None for an allocating expression,
    ``"target"`` for the store target region, in place, or the index of a
    scratch slot.  A store's ``access`` is its target, and ``convert`` says
    the stored value is broadcast and cast on commit.
    """

    instr: tuple
    operands: list
    result: Optional[Operand] = None
    slot: Any = None
    access: Optional[Access] = None
    convert: bool = False


class BoxPlan:
    """One box of a nest, planned: geometry, value records and block walk.

    ``shape`` is the box's iteration-space shape and ``block`` the shape it
    is walked in (``shape`` itself for a single block, and always for a
    reduction, which folds in iteration order); ``looped`` are the
    dimensions a block loop walks and ``local`` the extents of one block
    (``_n<d>`` where the last block of dimension ``d`` is ragged).
    ``slots`` holds the dtype of each scratch slot and ``slot_shape`` the
    shape each is allocated as, ``copy`` whether stored values are
    materialised before any commit (several stores).  ``pitches`` are the
    element strides of the buffers when the box is spelled pitched (None:
    strided), ``span`` the cells from its first cell to its last in them,
    and ``why`` says why it is spelled the way it is.
    """

    __slots__ = ("dims", "accesses", "shape", "block", "looped", "local",
                 "values", "slots", "copy", "pitches", "span", "why", "slot_shape")

    @property
    def ragged(self) -> bool:
        return any(self.local[dim] != self.block[dim] for dim in self.looped)


def _span(extents: tuple, pitches: tuple) -> int:
    """The cells from the first cell of a box of ``extents`` to its last."""
    return 1 + sum((extent - 1) * pitch for extent, pitch in zip(extents, pitches))


def _pitched(nest: FusedNest, plan: BoxPlan) -> tuple[Optional[tuple], str]:
    """The buffer pitches a box is spelled pitched over (None: strided), and why.

    Pitched, every value but the stored ones is computed over one
    contiguous span of the buffers, which is exact only when each access
    maps axis ``d`` to nest dimension ``d`` with unit steps over one
    C-contiguous shape, and pays only while that span is under twice the
    box's cells.  Pad cells (between the box's rows) are computed too, so a
    division, which a zero in one would make warn, stays strided.
    """
    if nest.has_reduce:
        return None, "a reduction"
    if any(ref[0] == "aff" and ref[1].coeffs
           for instr in nest.instrs for ref in operand_refs(instr)):
        return None, "an index grid"
    if any(instr[0] == "binary" and SEMANTICS[instr[2]].ufunc == "divide"
           for instr in nest.instrs):
        return None, "a division"
    if any(step != 1 for _, _, step in plan.dims):
        return None, "a non-unit step"
    rank = len(plan.shape)
    for access in plan.accesses:
        axes = nest.instrs[access.position][3]
        if len(axes) != rank or any(
                affine.coeffs != {axis: 1} for axis, affine in enumerate(axes)):
            return None, "an access that is not full rank on its own dims"
    extents = {access.extents for access in plan.accesses}
    if len(extents) != 1:
        return None, "buffers of different shapes"
    if not all(access.contiguous for access in plan.accesses):
        return None, "a non-contiguous buffer"
    cells = math.prod(plan.shape)
    if not cells:
        return None, "an empty box"
    (extents,) = extents
    pitches = tuple(math.prod(extents[axis + 1:]) for axis in range(rank))
    span = _span(plan.shape, pitches)
    if span >= 2 * cells:
        return None, f"span {span} >= 2 x {cells} cells"
    return pitches, f"span {span} of {cells} cells"


def _stores_read_regions(plan: BoxPlan) -> bool:
    """Whether every array the store reads — the in-target op's operands and
    each stored value — is a load or a slot, which have an N-D view: a
    pitched box computes everything else over its span."""
    records = {value.result.ref[1]: value for value in plan.values if value.result}
    reads = []
    for value in plan.values:
        if value.slot == "target":
            reads.extend(value.operands)
        elif value.instr[0] == "store":
            reads.append(value.operands[0])
    for item in reads:
        if not item.is_array:
            continue
        record = records[item.ref[1]]
        if record.access is not None:
            if record.result.dtype != record.access.dtype:
                return False  # a widened load is a copy of its span
        elif record.slot is None:
            return False
    return True


def plan_box(nest_plan: NestPlan, dims) -> BoxPlan:
    """Plan one box of a planned nest: the ``dims`` part of its iteration space.

    Resolves the box's accesses, then types every instruction's values block by block and assigns their
    storage.  Each value is written once.  An array result whose dtype is
    known and whose shape is the block's goes into a scratch slot that a
    last-read liveness pass hands on to later values, and the last op of a
    single-store nest into the target region itself; python scalars,
    ``select``, the casts, values of unknown dtype or lower rank and the
    stored values of a multi-store nest keep their allocating expressions.
    Raises :class:`CodegenError` when the shapes show the nest cannot be
    executed by broadcasting.
    """
    nest = nest_plan.nest
    plan = BoxPlan()
    plan.dims = [tuple(dim) for dim in dims]
    plan.accesses = nest_plan.accesses if plan.dims == nest_plan.dims else _resolve(
        nest, plan.dims, nest_plan.buffers)
    plan.shape = shape = _trips(plan.dims)
    plan.block = block = shape if nest.has_reduce else _block_extents(shape)
    plan.looped = [dim for dim in range(len(shape)) if block[dim] != shape[dim]]
    plan.local = local = tuple(
        shape[dim] if dim not in plan.looped
        else block[dim] if shape[dim] % block[dim] == 0 else f"_n{dim}"
        for dim in range(len(shape))
    )
    instrs = nest.instrs

    def block_shape(extents: tuple) -> tuple:
        return tuple(1 if extent == 1 else local[dim]
                     for dim, extent in enumerate(extents))

    # Liveness: the position of the last instruction that reads each value's
    # storage.  A cast may return its operand, so its result shares the
    # operand's storage; a stored value is read when the block commits.
    storage: dict[int, int] = {}
    last_read: dict[int, int] = {}
    store_positions = []
    last_compute = -1
    for position, instr in enumerate(instrs):
        if instr[0] == "store":
            store_positions.append(position)
        elif instr[0] != "load":
            last_compute = position
            if (instr[0] == "unary" and SEMANTICS[instr[2]].ufunc is None
                    and instr[3][0] == "arr"):
                storage[instr[1]] = storage.get(instr[3][1], instr[3][1])
        for ref in operand_refs(instr):
            if ref[0] == "arr":
                last_read[storage.get(ref[1], ref[1])] = (
                    len(instrs) if instr[0] == "store" else position
                )
    # With several stores in one nest, an earlier commit may mutate memory
    # that a later store's value still *views* (loads and broadcasts avoid
    # copies); materialise every value in that case so the committed data
    # is what was computed, not what the buffer holds mid-commit.
    plan.copy = len(store_positions) > 1
    # The op that may write the target region itself: the last computation of
    # a single-store nest, feeding that store.  Nothing reads a load after
    # it, and the loads that overlap the target are the same cells.
    in_target = None
    if len(store_positions) == 1 and last_compute >= 0 and \
            instrs[store_positions[0]][1] == ("arr", instrs[last_compute][1]):
        in_target = last_compute

    access_at = {access.position: access for access in plan.accesses}
    plan.slots = []
    free_slots: dict[np.dtype, list[int]] = {}
    slot_of: dict[int, int] = {}
    typed: dict[int, Operand] = {}
    plan.values = []

    def operand(ref: tuple) -> Operand:
        if ref[0] == "arr":
            return typed[ref[1]]
        if ref[0] == "free":
            return Operand(ref, False, "pyint" if ref[1][0] == "iv" else None, ())
        if ref[0] == "const":
            return Operand(ref, False, _literal_dtype(ref[1]), ())
        if ref[1].coeffs:  # ("aff", affine): an index grid over the box
            return Operand(ref, True, np.dtype(np.int64),
                           block_shape(_grid_shape(ref[1], shape)))
        return Operand(ref, False, "pyint", ())

    def compute(position: int, instr: tuple, operands: list, ufunc,
                dtype, result_shape) -> None:
        """Type an arith result and choose its storage."""
        is_array = any(item.is_array for item in operands)
        result = typed[instr[1]] = Operand(("arr", instr[1]), is_array, dtype,
                                           result_shape)
        slot = None
        if ufunc and is_array and isinstance(dtype, np.dtype) \
                and result_shape == local:
            if position == in_target and \
                    access_at[store_positions[0]].dtype == dtype:
                slot = "target"
            else:
                pool = free_slots.setdefault(dtype, [])
                if not pool:
                    pool.append(len(plan.slots))
                    plan.slots.append(dtype)
                slot = slot_of[instr[1]] = pool.pop()
        plan.values.append(Value(instr, operands, result, slot))

    for position, instr in enumerate(instrs):
        kind = instr[0]
        # A slot is free from its value's last read on: the instruction
        # reading it may already write its own result there (same cells).
        for ref in operand_refs(instr):
            if ref[0] == "arr":
                value = storage.get(ref[1], ref[1])
                if last_read[value] == position and value in slot_of:
                    slot = slot_of.pop(value)
                    free_slots[plan.slots[slot]].append(slot)
        if kind == "load":
            access = access_at[position]
            result = typed[instr[1]] = Operand(
                ("arr", instr[1]), True, _widened(access.dtype),
                block_shape(access.view_shape),
            )
            plan.values.append(Value(instr, [], result, access=access))
        elif kind == "store":
            access = access_at[position]
            stored = operand(instr[1])
            if _broadcast(stored.shape, local) != local:
                raise _rejected(
                    "store value cannot be broadcast to the iteration space"
                )
            # (Otherwise broadcast and astype are both the identity.)
            convert = plan.copy or not (
                stored.is_array and stored.dtype == access.dtype
                and stored.shape == local
            )
            plan.values.append(
                Value(instr, [stored], access=access, convert=convert)
            )
        elif kind == "binary":
            a, b = operand(instr[3]), operand(instr[4])
            compute(position, instr, [a, b], SEMANTICS[instr[2]].ufunc,
                    _binary_dtype(instr[2], a, b), _broadcast(a.shape, b.shape))
        elif kind == "unary":
            a = operand(instr[3])
            compute(position, instr, [a], SEMANTICS[instr[2]].ufunc,
                    _unary_dtype(instr[2], a), a.shape)
        elif kind == "select":
            cond, a, b = (operand(ref) for ref in instr[2:5])
            dtype = (
                a.dtype if a.is_array and b.is_array
                and isinstance(a.dtype, np.dtype) and a.dtype == b.dtype else None
            )
            result = typed[instr[1]] = Operand(
                ("arr", instr[1]), True, dtype,
                _broadcast(_broadcast(cond.shape, a.shape), b.shape),
            )
            plan.values.append(Value(instr, [cond, a, b], result))
        else:  # reduce
            plan.values.append(Value(instr, [operand(ref) for ref in instr[4:6]]))
    plan.pitches, plan.why = _pitched(nest, plan)
    if plan.pitches is not None and not _stores_read_regions(plan):
        plan.pitches, plan.why = None, "a stored value with no N-D view"
    plan.slot_shape, plan.span = block, None
    if plan.pitches is not None:
        plan.span = _span(shape, plan.pitches)
        # Allocated at the buffers' pitch from the first dimension a block
        # spans on, so that slot and buffer cells share flat offsets.
        first = next((dim for dim, extent in enumerate(block) if extent > 1),
                     len(block) - 1)
        plan.slot_shape = block[:first + 1] + plan.accesses[0].extents[first + 1:]
    return plan


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def _spelled(shape: tuple) -> str:
    return f"({', '.join(map(str, shape))}{',' if len(shape) == 1 else ''})"


def _dtype_source(dtype: np.dtype) -> str:
    return f"_np.{dtype.type.__name__}"


def _slice_source(slices) -> str:
    return ", ".join(
        f"{piece.start}:{piece.stop}" if piece.step in (None, 1)
        else f"{piece.start}:{piece.stop}:{piece.step}"
        for piece in slices
    )


def _index_source(access: Access) -> str:
    """The N-D region of ``access`` as an index of its buffer, shaped as its
    view."""
    source = f"[{_slice_source(access.slices)}]"
    if tuple(map(len, access.ranges)) != access.view_shape:
        source += f".reshape({access.view_shape!r})"
    return source


def _span_source(extents: tuple, pitches: tuple) -> str:
    """The span of a block of ``extents`` (ints or ``_n<d>`` names)."""
    constant = 1 + sum((extent - 1) * pitch for extent, pitch in zip(extents, pitches)
                       if isinstance(extent, int))
    terms = [f"({extent} - 1) * {pitch}" for extent, pitch in zip(extents, pitches)
             if not isinstance(extent, int)]
    return " + ".join([*terms, str(constant)])


def print_numpy(
    plan: BoxPlan,
    new_var: Callable[[str], str],
    outer: Callable[[tuple], str],
    local_view: Callable[[tuple, str], str],
) -> tuple[list[str], list[str], list[str]]:
    """Write one planned box as NumPy statements.

    ``new_var(prefix)`` names a fresh local, ``outer(ref)`` spells a
    ``("free", symbol)`` scalar known only at run time or an ``("aff",
    affine)`` index grid over the box, and ``local_view(sym, index)`` names a
    local the caller binds to the view ``<buffer><index>`` of the buffer
    the trace symbol ``sym`` names, ahead of the box.  Returns ``(setup,
    lines, reduced)``: the scratch allocations (to run once, before
    ``lines`` and before any loop around them), the statements with their
    relative indentation — a comment recording the plan, the block loop,
    per block the instructions in order and then the stores — and the name
    of each reduction result.

    A pitched box computes over 1-D spans: each load is the span of its
    buffer from its region's first cell, and each slot the same span of an
    array allocated at the buffers' pitch.  Only the store is N-D: the
    in-target op and the commits read loads as regions and slots cut to the
    box, and write the target region alone.
    """
    shape, block, looped, local = plan.shape, plan.block, plan.looped, plan.local
    pitches = plan.pitches
    setup: list[str] = []
    grids: list[str] = []  # index grids bound once, ahead of the block loop
    head: list[str] = []  # the loop headers and the extents of this block
    for depth, dim in enumerate(looped):
        pad = "    " * depth
        head.append(f"{pad}for _i{dim} in range(0, {shape[dim]}, {block[dim]}):")
        if local[dim] != block[dim]:
            head.append(
                f"{pad}    _n{dim} = min({block[dim]}, {shape[dim]} - _i{dim})"
            )
    ragged = plan.ragged
    # What each block starts with: its offset into the spans, the span it
    # covers, the slots cut to it.
    per_block: list[str] = []
    span = None if pitches is None else _span_source(local, pitches)
    if pitches is not None and looped:
        per_block.append(
            "_o = " + " + ".join(f"_i{dim} * {pitches[dim]}" for dim in looped))
        if ragged:
            per_block.append(f"_m = {span}")
            span = "_m"

    def sliced(source: str, extents: tuple) -> str:
        """A region view of ``extents``, restricted to this block."""
        parts = [
            f"_i{dim}:_i{dim} + {local[dim]}"
            if dim in looped and extents[dim] != 1 else ":"
            for dim in range(len(shape))
        ]
        while parts and parts[-1] == ":":
            parts.pop()
        if not parts:
            return source
        if not source.isidentifier():
            name = new_var("_r")
            grids.append(f"{name} = {source}")
            source = name
        return f"{source}[{', '.join(parts)}]"

    def region(access: Access) -> str:
        """The N-D region of ``access`` in this block."""
        return sliced(local_view(access.sym, _index_source(access)), access.view_shape)

    def flat(access: Access) -> str:
        """The span of ``access``'s buffer that this block computes over."""
        first = sum(piece.start * pitch for piece, pitch in zip(access.slices, pitches))
        name = local_view(access.sym, f".reshape(-1)[{first}:{first + plan.span}]")
        return f"{name}[_o:_o + {span}]" if looped else name

    targets = {
        access.position: region(access) for access in plan.accesses if access.is_store
    }
    records = {value.result.ref[1]: value for value in plan.values if value.result}
    names: dict[int, str] = {}
    # The spelling of each run-time scalar, and of each index grid by its
    # Affine object: the uses of one value share a grid, equal expressions of
    # two values do not (the nest resolves each value to one Affine).
    outers: dict = {}
    slot_arrays: dict[int, str] = {}
    slot_names: dict[int, str] = {}  # what ops write: pitched, the slot's span
    slot_regions: dict[int, str] = {}  # pitched: the slot cut to the box
    statements: list[str] = []
    commits: list[str] = []
    reduced: list[str] = []

    def source_of(item: Operand) -> str:
        ref = item.ref
        if ref[0] == "arr":
            return names[ref[1]]
        if ref[0] == "const":
            return _literal(ref[1])
        key = id(ref[1]) if ref[0] == "aff" else ref
        expr = outers.get(key)
        if expr is None:
            expr = outer(ref)
            if item.is_array:
                piece = sliced(expr, _grid_shape(ref[1], shape))
                if piece != expr:
                    expr = new_var("_v")
                    statements.append(f"{expr} = {piece}")
            outers[key] = expr
        return expr

    def stored(item: Operand) -> str:
        """What the store reads: the N-D view of a pitched box's value."""
        if pitches is None or item.ref[0] != "arr":
            return source_of(item)
        record = records[item.ref[1]]
        if record.access is not None:
            return region(record.access)
        if record.slot == "target":
            return names[item.ref[1]]
        if record.slot not in slot_regions:
            name = slot_arrays[record.slot]
            parts = [":" if extent == local[dim] else f":{local[dim]}"
                     for dim, extent in enumerate(plan.slot_shape)]
            while parts and parts[-1] == ":":
                parts.pop()
            if parts:
                cut, name = name, new_var("_b")
                (per_block if ragged else setup).append(
                    f"{name} = {cut}[{', '.join(parts)}]")
            slot_regions[record.slot] = name
        return slot_regions[record.slot]

    def bind(result: int, expr: str) -> None:
        name = names[result] = new_var("_v")
        statements.append(f"{name} = {expr}")

    def slot_name(slot: int) -> str:
        if slot not in slot_names:
            name = slot_arrays[slot] = new_var("_s")
            setup.append(
                f"{name} = _np.empty({_spelled(plan.slot_shape)}, "
                f"{_dtype_source(plan.slots[slot])})"
            )
            if pitches is not None:
                cut = new_var("_s")
                (per_block if ragged else setup).append(
                    f"{cut} = {name}.reshape(-1)[:{span}]")
                name = cut
            elif ragged:
                cut = ", ".join(f":{local[dim]}" for dim in range(looped[-1] + 1))
                view_name = new_var("_b")
                per_block.append(f"{view_name} = {name}[{cut}]")
                name = view_name
            slot_names[slot] = name
        return slot_names[slot]

    for value in plan.values:
        instr = value.instr
        kind = instr[0]
        if kind == "load":
            access = value.access
            source = region(access) if pitches is None else flat(access)
            if value.result.dtype != access.dtype:
                bind(instr[1], f"_np.asarray({source}, "
                               f"dtype={_dtype_source(value.result.dtype)})")
            elif looped:
                bind(instr[1], source)
            else:
                names[instr[1]] = source
        elif kind == "store":
            target = targets[value.access.position]
            expr = stored(value.operands[0])
            if expr == target:
                continue  # its op wrote the target region in place
            if value.convert:
                name = new_var("_v")
                statements.append(
                    f"{name} = _np.broadcast_to(_np.asarray({expr}), "
                    f"{_spelled(local)}).astype("
                    f"{_dtype_source(value.access.dtype)}, copy={plan.copy})"
                )
                expr = name
            commits.append(f"{target}[...] = {expr}")
        elif kind == "reduce":
            _, _, ufunc, sequential, _, _, convert = instr
            name = new_var("_v")
            folded, init = value.operands
            statements.append(
                f"{name} = {convert}(_fold(_np.{ufunc}, {sequential}, "
                f"_np.broadcast_to(_np.asarray({source_of(folded)}), "
                f"{_spelled(local)}).ravel(), {source_of(init)}))"
            )
            reduced.append(name)
        else:
            if value.slot == "target":
                sources = [stored(item) for item in value.operands]
            else:
                sources = [source_of(item) for item in value.operands]
            if kind == "select":
                bind(instr[1], f"_np.where({', '.join(sources)})")
                continue
            record = SEMANTICS[instr[2]]
            template = record.array if value.operands[0].is_array else record.python
            if value.slot is None:
                bind(instr[1], template.format(a=sources[0], b=sources[-1]))
                continue
            if value.slot == "target":
                (out,) = targets.values()  # a single-store nest's target
            else:
                out = slot_name(value.slot)
            statements.append(f"_np.{record.ufunc}({', '.join(sources)}, out={out})")
            names[instr[1]] = out

    sizes = [dtype.itemsize for dtype in plan.slots]
    scratch = " + ".join(
        f"{sizes.count(size)} x {size * math.prod(plan.slot_shape)} B"
        for size in sorted(set(sizes), reverse=True)
    ) or "none"
    if reduced:
        decision = "not blocked (reduction)"
    elif not looped:
        decision = "single block"
    else:
        count = math.prod(-(-shape[dim] // block[dim]) for dim in looped)
        decision = f"{count} blocks of {_spelled(block)}"
    spelling = "strided" if pitches is None else "pitched"
    pad = "    " * len(looped)
    return (
        setup,
        [f"# box {_spelled(shape)}: {spelling} ({plan.why}), {decision}, "
         f"scratch {scratch}"]
        + grids + head
        + [pad + line for line in (*per_block, *statements, *commits)],
        reduced,
    )
