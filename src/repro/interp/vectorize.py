"""Vectorized NumPy compilation of lowered loop nests.

The tree-walking interpreter dispatches every lowered operation once *per grid
cell*, which makes the cost of a stencil sweep proportional to ``cells x ops``
python bytecode dispatches.  This module removes the per-cell dispatch: it
pattern-matches the loop nests produced by ``convert-stencil-to-scf`` (and the
OpenMP conversion) and compiles each nest *once* into whole-array NumPy slice
expressions — the moral equivalent of the C code Devito generates.

A nest is a short instruction list (load, store, binary, unary, select,
reduce), and :func:`emit_nest` is the only place an instruction becomes NumPy
source.  Its one caller is the megakernel emitter
(:mod:`repro.interp.codegen`): it settles once per buffer layout what only
concrete buffers can settle — bounds, region slices, aliasing, the
halo-overlap split, thread-team chunks (all :class:`CompiledNest` methods) —
and inlines the statements of every resulting box with literal slices.

The emitted code writes each value once.  Every array-valued ``arith`` result
of known dtype and full shape is computed with ``out=`` into one of a few
scratch arrays, handed from value to value by a last-read liveness pass, and
the last op of a single-store nest writes the target region itself, so a
stencil step allocates nothing and copies nothing.  A box of more than
:data:`_BLOCK_CELLS` cells is walked in blocks that keep the innermost
dimension whole, so the whole expression DAG of a block is produced and
consumed in cache (wave3d so4 on 128^3: 32 field-sized temporaries of 16 MB
become five 256 KiB slots).

A nest is vectorizable when

* it is an ``scf.parallel`` / ``omp.wsloop`` nest, or an ``scf.for`` (without
  loop-carried values), possibly perfectly nested;
* inner ``scf.for`` bounds are either nest-invariant, or the ``min``-clamped
  tile pattern emitted by ``convert-stencil-to-scf{tile}`` (lower bound = an
  outer tile origin, upper bound = ``arith.minsi(origin + tile, extent)``):
  the (origin, intra-tile) loop pair walks its extent contiguously, so it is
  *collapsed* back into one whole-extent unit-step dimension and the nest
  becomes plain whole-array slices again;
* every index expression is affine in the induction variables with unit
  coefficients (``iv + c`` per memref axis, or a nest-invariant constant);
* the body consists only of ``memref.load`` / ``memref.store``, pure
  element-wise ``arith`` ops (including ``cmpf``/``cmpi``/``select`` chains,
  which become ``np.where`` trees), and optionally a terminating
  ``scf.reduce`` whose combiner is one of the ops in
  :data:`repro.dialects.arith.REDUCTION_OP_METADATA` — compiled into a NumPy
  reduction that replays the tree walker's deterministic left-fold (via
  ``ufunc.accumulate`` for order-sensitive float ``+``/``*``).

Anything else — data-dependent control flow, MPI operations, non-affine
indices — is left to the tree walker, *per nest*: the megakernel walks such a
nest in place, so one non-vectorizable region never forfeits the speedup of
its neighbours.  Every rejection is described by a :class:`VectorizeFallback`
carrying an explicit reason string, surfaced via
:meth:`CompiledKernel.fallback_for`.

Equivalence with the tree walker is bit-exact: scalar loads are widened to
float64 exactly as ``ndarray.item()`` does, the element-wise expressions apply
the same operation tree in the same order, reductions fold in iteration order
(and are never blocked), and stores down-cast on assignment.  A block loads,
computes and then stores; that equals per-cell execution exactly when a store
region overlaps a load only as the same cell read earlier in the body, which
is what the aliasing verdict establishes before anything is emitted.  Boxes
the slicing model cannot reproduce exactly (aliased read/write buffers with
shifted offsets, out-of-range indices that python's negative indexing would
wrap, non-positive steps) raise :class:`_Bailout` at emission, and the run
goes to the tree walker instead.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Optional, Union

import numpy as np

from ..dialects import arith, func, memref, omp, scf
from ..ir.attributes import FloatAttr, IntegerAttr
from ..ir.core import Operation, SSAValue
from ..ir.types import IndexType, IntegerType, is_float_type


class VectorizationError(Exception):
    """Internal: raised while analysing a nest that cannot be vectorized."""


class VectorizeFallback:
    """Why a nest could not be vectorized (the megakernel walks it in place)."""

    __slots__ = ("op_name", "reason")

    def __init__(self, op_name: str, reason: str):
        self.op_name = op_name
        self.reason = reason

    def __str__(self) -> str:
        return f"{self.op_name}: {self.reason}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VectorizeFallback({self.op_name!r}, {self.reason!r})"


class _Bailout(Exception):
    """Internal: a concrete box the slicing model cannot reproduce."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


# ---------------------------------------------------------------------------
# affine index expressions
# ---------------------------------------------------------------------------

class _Affine:
    """``sum(coeffs[d] * iv_d) + sum(free[v] * env[v]) + const``.

    ``free`` terms are SSA values defined outside the nest; the megakernel
    emitter resolves them against the values it traced.
    """

    __slots__ = ("coeffs", "const", "free")

    def __init__(
        self,
        coeffs: Optional[dict[int, int]] = None,
        const: int = 0,
        free: Optional[dict[SSAValue, int]] = None,
    ):
        self.coeffs: dict[int, int] = dict(coeffs or {})
        self.const = int(const)
        self.free: dict[SSAValue, int] = dict(free or {})

    @property
    def is_invariant(self) -> bool:
        """True when the expression does not involve any induction variable."""
        return not self.coeffs

    @property
    def is_literal(self) -> bool:
        return not self.coeffs and not self.free

    def combine(self, other: "_Affine", sign: int) -> "_Affine":
        result = _Affine(self.coeffs, self.const + sign * other.const, self.free)
        for dim, coeff in other.coeffs.items():
            updated = result.coeffs.get(dim, 0) + sign * coeff
            if updated:
                result.coeffs[dim] = updated
            else:
                result.coeffs.pop(dim, None)
        for value, coeff in other.free.items():
            updated = result.free.get(value, 0) + sign * coeff
            if updated:
                result.free[value] = updated
            else:
                result.free.pop(value, None)
        return result

    def scale(self, factor: int) -> "_Affine":
        if factor == 0:
            return _Affine()
        return _Affine(
            {d: c * factor for d, c in self.coeffs.items()},
            self.const * factor,
            {v: c * factor for v, c in self.free.items()},
        )

    def invariant_value(self, env: dict) -> int:
        """Evaluate a nest-invariant expression against the environment."""
        total = self.const
        for value, coeff in self.free.items():
            total += coeff * int(env[value])
        return total


def _affine_equal(a: _Affine, b: _Affine) -> bool:
    return a.coeffs == b.coeffs and a.const == b.const and a.free == b.free


# ---------------------------------------------------------------------------
# the one instruction -> NumPy mapping
# ---------------------------------------------------------------------------
#
# Every nest instruction is rendered to Python source by :func:`emit_nest`
# from the templates below, and by nothing else: the megakernel emitter
# (repro.interp.codegen) inlines the statements with literal slices.  Each
# template applies the NumPy call / Python operator the tree walker applies
# per cell.

# Compile-time operand references of an instruction:
#   ("arr", value)   — tensor computed by an earlier instruction of the nest
#   ("const", x)     — compile-time literal
#   ("aff", affine)  — affine index expression (materialised as an int grid)
#   ("free", value)  — scalar defined outside the nest
_Ref = tuple


def _operand_refs(instr: tuple) -> tuple:
    """The value references an instruction reads (its layout, in one place)."""
    kind = instr[0]
    if kind == "load":
        return ()
    if kind == "store":
        return (instr[1],)
    if kind == "reduce":
        return instr[4:6]
    return instr[2:] if kind == "select" else instr[3:]

#: Binary ops as ``(expression, ufunc)``: the expression is what the tree
#: walker applies per cell (and what two python scalars keep); the ufunc is the
#: same operation spelled so that it can write into existing memory
#: (``_np.<ufunc>(a, b, out=...)``).
_BINARY_EXPRESSIONS: dict[str, tuple[str, str]] = {
    "arith.addf": ("({a} + {b})", "add"),
    "arith.subf": ("({a} - {b})", "subtract"),
    "arith.mulf": ("({a} * {b})", "multiply"),
    "arith.divf": ("({a} / {b})", "divide"),
    "arith.maximumf": ("_np.maximum({a}, {b})", "maximum"),
    "arith.minimumf": ("_np.minimum({a}, {b})", "minimum"),
    "arith.addi": ("({a} + {b})", "add"),
    "arith.subi": ("({a} - {b})", "subtract"),
    "arith.muli": ("({a} * {b})", "multiply"),
    "arith.minsi": ("_np.minimum({a}, {b})", "minimum"),
    "arith.maxsi": ("_np.maximum({a}, {b})", "maximum"),
    "arith.cmpf:oeq": ("_np.equal({a}, {b})", "equal"),
    "arith.cmpf:ogt": ("_np.greater({a}, {b})", "greater"),
    "arith.cmpf:oge": ("_np.greater_equal({a}, {b})", "greater_equal"),
    "arith.cmpf:olt": ("_np.less({a}, {b})", "less"),
    "arith.cmpf:ole": ("_np.less_equal({a}, {b})", "less_equal"),
    "arith.cmpf:one": ("_np.not_equal({a}, {b})", "not_equal"),
    "arith.cmpi:eq": ("_np.equal({a}, {b})", "equal"),
    "arith.cmpi:ne": ("_np.not_equal({a}, {b})", "not_equal"),
    "arith.cmpi:slt": ("_np.less({a}, {b})", "less"),
    "arith.cmpi:sle": ("_np.less_equal({a}, {b})", "less_equal"),
    "arith.cmpi:sgt": ("_np.greater({a}, {b})", "greater"),
    "arith.cmpi:sge": ("_np.greater_equal({a}, {b})", "greater_equal"),
}

#: Unary ops as ``(array expression, python-scalar expression, ufunc)``: the
#: tree walker converts scalars with ``float()``/``int()``, whole arrays need
#: the dtype-converting NumPy form of the same conversion.  The casts have no
#: ufunc, and their result may be their operand itself (``np.asarray`` of an
#: array that already has the dtype).
_UNARY_EXPRESSIONS: dict[str, tuple[str, str, Optional[str]]] = {
    "arith.negf": ("(-{a})", "(-{a})", "negative"),
    "arith.sitofp": ("_np.asarray({a}, dtype=_np.float64)", "float({a})", None),
    "arith.extf": ("_np.asarray({a}, dtype=_np.float64)", "float({a})", None),
    "arith.truncf": (
        "_np.asarray(_np.asarray({a}, dtype=_np.float32), dtype=_np.float64)",
        "float(_np.float32({a}))",
        None,
    ),
    "arith.fptosi": ("_np.asarray({a}).astype(_np.int64)", "int({a})", None),
    "arith.extsi": ("{a}", "{a}", None),
    "arith.trunci": ("{a}", "{a}", None),
}

_FLOAT_BINOPS = frozenset({
    "arith.addf", "arith.subf", "arith.mulf", "arith.divf",
    "arith.maximumf", "arith.minimumf",
})

_INT_BINOPS = frozenset({
    "arith.addi", "arith.subi", "arith.muli", "arith.minsi", "arith.maxsi",
})


def _constant_operand(value) -> tuple:
    """The operand descriptor (see :func:`emit_nest`) of a scalar literal."""
    if isinstance(value, bool):
        marker = "pybool"
    elif isinstance(value, int):
        marker = "pyint"
    else:
        marker = "pyfloat"
    if isinstance(value, float) and not math.isfinite(value):
        return (f'float("{value!r}")', False, marker, ())
    # repr round-trips floats exactly.
    return (repr(value), False, marker, ())


def _widened(source: str, dtype: np.dtype) -> tuple[str, np.dtype]:
    """Widen a loaded region exactly as ``ndarray.item()`` does per cell."""
    if dtype.kind == "f":
        if dtype.itemsize == 8:
            return source, dtype
        return f"_np.asarray({source}, dtype=_np.float64)", np.dtype(np.float64)
    if dtype.kind == "b" or dtype == np.dtype(np.int64):
        return source, dtype
    return f"_np.asarray({source}, dtype=_np.int64)", np.dtype(np.int64)


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
    raise _Bailout("operand shapes do not broadcast")


def _binary_dtype(name: str, a: tuple, b: tuple):
    if name.startswith("arith.cmp"):
        return np.dtype(np.bool_)
    kinds = []
    for operand in (a, b):
        dtype = operand[2]
        if operand[1]:
            if not isinstance(dtype, np.dtype):
                return None
        elif dtype not in ("pyint", "pyfloat"):
            return None
        kinds.append(dtype)
    arrays = [dtype for dtype in kinds if isinstance(dtype, np.dtype)]
    if not arrays:
        return None
    if name in _FLOAT_BINOPS:
        if all(dtype == np.float64 for dtype in arrays):
            return np.dtype(np.float64)
        return None
    if name in _INT_BINOPS:
        if all(dtype == np.int64 for dtype in arrays) and "pyfloat" not in kinds:
            return np.dtype(np.int64)
    return None


def _unary_dtype(name: str, a: tuple):
    if name in ("arith.sitofp", "arith.extf", "arith.truncf"):
        return np.dtype(np.float64) if a[1] else "pyfloat"
    if name == "arith.fptosi":
        return np.dtype(np.int64) if a[1] else "pyint"
    return a[2]  # negf / extsi / trunci keep their operand's dtype


#: A box of more iteration-space cells than this runs block by block, so that
#: every value of a block's expression DAG is written and read back while it
#: is still in cache instead of streaming field-sized arrays through it.
#: 16-32 Ki cells (128-256 KiB per f64 value, a handful of values alive) was
#: the best band for wave3d so4 on 128^3, 64^3 and (8, 256, 256) with a 4 MiB
#: L2; 64 Ki cells is already 25 % slower.
_BLOCK_CELLS = 32768


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


def _spelled(shape: tuple) -> str:
    return f"({', '.join(map(str, shape))}{',' if len(shape) == 1 else ''})"


def _dtype_source(dtype: np.dtype) -> str:
    return f"_np.{dtype.type.__name__}"


def emit_nest(
    instrs: list[tuple],
    loads: dict[int, tuple],
    stores: dict[int, tuple],
    outer: Callable[[_Ref], tuple],
    nest_shape: tuple,
    block: tuple,
    new_var: Callable[[str], str],
) -> tuple[list[str], list[str], list[str]]:
    """Render one box of a nest's ``instrs`` as NumPy statements.

    The caller names everything that lives outside the nest:

    * ``loads[position] = (source, dtype, shape)`` — an expression for the
      load's region view, already shaped to broadcast into the iteration
      space, and the buffer's dtype;
    * ``stores[position] = (source, dtype)`` — an expression for the target
      region view, shaped like the iteration space, and the buffer's dtype;
    * ``outer(ref)`` — the operand descriptor of a ``("free", value)`` or
      ``("aff", affine)`` reference;
    * ``nest_shape`` — the iteration-space shape of the box, and ``block`` —
      the shape it is walked in (:func:`_block_extents`; ``nest_shape``
      itself for a single block, and always for a reduction, which folds in
      iteration order);
    * ``new_var(prefix)`` — a fresh local name.

    An operand descriptor is ``(expression, is_array, dtype, shape)``;
    ``is_array`` picks between the array and python-scalar unary templates,
    ``dtype`` is a numpy dtype, a ``"pyint"``/``"pyfloat"``/``"pybool"``
    marker, or None (unknown).  The extents of a shape are ints — the
    megakernel knows its buffers — and an array's extent is the iteration
    space's or 1.

    Each value is written once.  An array result whose dtype is known and
    whose shape is the block's is computed with ``out=`` into a scratch slot
    that a last-read liveness pass hands on to later values, and the last op
    of a single-store nest writes the target region itself; python scalars,
    ``select``, the casts, values of unknown dtype or lower rank and the
    stored values of a multi-store nest keep their allocating expressions.
    When ``block`` is smaller than ``nest_shape`` the statements sit in a loop
    over the blocks, each block loading, computing and then storing — legal
    exactly when :meth:`CompiledNest._aliasing_is_safe` holds, which the
    caller establishes first: a store region then overlaps a load only as the
    same cell, read earlier.

    Returns ``(setup, lines, reduced)``: the scratch allocations (to run
    once, before ``lines`` and before any loop around them), the statements
    with their relative indentation — a comment recording the decision, the
    block loop, per block the instructions in order and then the stores —
    and the name of each reduction result.  Raises :class:`_Bailout` when
    the shapes show the nest cannot be executed by broadcasting.
    """
    rank = len(nest_shape)
    looped = [dim for dim in range(rank) if block[dim] != nest_shape[dim]]
    setup: list[str] = []
    regions: list[str] = []  # region views bound once, ahead of the block loop
    head: list[str] = []  # the loop headers and the extents of this block
    local = list(nest_shape)
    for depth, dim in enumerate(looped):
        pad = "    " * depth
        head.append(
            f"{pad}for _i{dim} in range(0, {nest_shape[dim]}, {block[dim]}):"
        )
        if nest_shape[dim] % block[dim] == 0:
            local[dim] = block[dim]
        else:
            local[dim] = f"_n{dim}"
            head.append(
                f"{pad}    _n{dim} = min({block[dim]}, "
                f"{nest_shape[dim]} - _i{dim})"
            )
    local = tuple(local)
    ragged = any(local[dim] != block[dim] for dim in looped)

    def region(source: str) -> str:
        if not looped or source.isidentifier():
            return source
        name = new_var("_r")
        regions.append(f"{name} = {source}")
        return name

    def sliced(source: str, shape: tuple) -> tuple[str, tuple]:
        """A region view of extents ``shape``, restricted to this block."""
        parts = [
            f"_i{dim}:_i{dim} + {local[dim]}"
            if dim in looped and shape[dim] != 1 else ":"
            for dim in range(rank)
        ]
        while parts and parts[-1] == ":":
            parts.pop()
        if not parts:
            return source, shape
        return (
            f"{region(source)}[{', '.join(parts)}]",
            tuple(1 if extent == 1 else local[dim]
                  for dim, extent in enumerate(shape)),
        )

    # Liveness: the position of the last instruction that reads each value's
    # storage.  A cast may return its operand, so its result shares the
    # operand's storage; a stored value is read when the block commits.
    storage: dict[SSAValue, SSAValue] = {}
    last_read: dict[SSAValue, int] = {}
    store_positions = []
    last_compute = -1
    for position, instr in enumerate(instrs):
        if instr[0] == "store":
            store_positions.append(position)
        elif instr[0] != "load":
            last_compute = position
            if (instr[0] == "unary" and _UNARY_EXPRESSIONS[instr[2]][2] is None
                    and instr[3][0] == "arr"):
                storage[instr[1]] = storage.get(instr[3][1], instr[3][1])
        for ref in _operand_refs(instr):
            if ref[0] == "arr":
                last_read[storage.get(ref[1], ref[1])] = (
                    len(instrs) if instr[0] == "store" else position
                )
    # With several stores in one nest, an earlier commit may mutate memory
    # that a later store's value still *views* (loads and broadcasts avoid
    # copies); materialise every value in that case so the committed data
    # is what was computed, not what the buffer holds mid-commit.
    force_copy = len(store_positions) > 1
    # The op that may write the target region itself: the last computation of
    # a single-store nest, feeding that store.  Nothing reads a load after
    # it, and the loads that overlap the target are the same cells.
    in_target = None
    if len(store_positions) == 1 and last_compute >= 0 and \
            instrs[store_positions[0]][1] == ("arr", instrs[last_compute][1]):
        in_target = last_compute

    targets = {
        position: (sliced(source, nest_shape)[0], dtype)
        for position, (source, dtype) in stores.items()
    }
    free_slots: dict[np.dtype, list[str]] = {}
    slot_of: dict[SSAValue, tuple[np.dtype, str]] = {}
    slot_sizes: list[int] = []
    slot_views: list[str] = []
    values: dict[SSAValue, tuple] = {}
    outers: dict[_Ref, tuple] = {}
    statements: list[str] = []
    commits: list[str] = []
    reduced: list[str] = []

    def resolve(ref: _Ref) -> tuple:
        if ref[0] == "arr":
            return values[ref[1]]
        if ref[0] == "const":
            return _constant_operand(ref[1])
        operand = outers.get(ref)
        if operand is None:
            expr, is_array, dtype, shape = outer(ref)
            if is_array:
                piece, shape = sliced(expr, shape)
                if piece != expr:
                    expr = new_var("_v")
                    statements.append(f"{expr} = {piece}")
            operand = outers[ref] = (expr, is_array, dtype, shape)
        return operand

    def bind(result: SSAValue, expr: str, is_array: bool, dtype, shape) -> None:
        name = new_var("_v")
        statements.append(f"{name} = {expr}")
        values[result] = (name, is_array, dtype, shape)

    def compute(position: int, result: SSAValue, template: str, ufunc,
                operands: list, dtype, shape) -> None:
        """Bind an arith result: in place when it is a block-shaped array."""
        sources = [operand[0] for operand in operands]
        is_array = any(operand[1] for operand in operands)
        if not (ufunc and is_array and isinstance(dtype, np.dtype)
                and shape == local):
            expr = template.format(a=sources[0], b=sources[-1])
            bind(result, expr, is_array, dtype, shape)
            return
        if position == in_target and targets[store_positions[0]][1] == dtype:
            out = targets[store_positions[0]][0]
        else:
            pool = free_slots.setdefault(dtype, [])
            if not pool:
                name = new_var("_s")
                setup.append(
                    f"{name} = _np.empty({_spelled(block)}, {_dtype_source(dtype)})"
                )
                slot_sizes.append(dtype.itemsize)
                if ragged:
                    cut = ", ".join(f":{local[dim]}" for dim in range(looped[-1] + 1))
                    view = new_var("_b")
                    slot_views.append(f"{view} = {name}[{cut}]")
                    name = view
                pool.append(name)
            out = pool.pop()
            slot_of[result] = (dtype, out)
        statements.append(f"_np.{ufunc}({', '.join(sources)}, out={out})")
        values[result] = (out, True, dtype, shape)

    for position, instr in enumerate(instrs):
        kind = instr[0]
        # A slot is free from its value's last read on: the instruction
        # reading it may already write its own result there (same cells).
        for ref in _operand_refs(instr):
            if ref[0] == "arr":
                value = storage.get(ref[1], ref[1])
                if last_read[value] == position and value in slot_of:
                    dtype, name = slot_of.pop(value)
                    free_slots[dtype].append(name)
        if kind == "load":
            source, dtype, shape = loads[position]
            source, shape = sliced(source, shape)
            source, dtype = _widened(source, dtype)
            bind(instr[1], source, True, dtype, shape)
        elif kind == "store":
            target, target_dtype = targets[position]
            expr, is_array, dtype, shape = resolve(instr[1])
            if _broadcast(shape, local) != local:
                raise _Bailout(
                    "store value cannot be broadcast to the iteration space"
                )
            if expr == target:
                continue  # its op wrote the target region in place
            if force_copy or not (is_array and dtype == target_dtype
                                  and shape == local):
                # (Otherwise broadcast and astype are both the identity.)
                name = new_var("_v")
                statements.append(
                    f"{name} = _np.broadcast_to(_np.asarray({expr}), "
                    f"{_spelled(local)}).astype({_dtype_source(target_dtype)}, "
                    f"copy={force_copy})"
                )
                expr = name
            commits.append(f"{target}[...] = {expr}")
        elif kind == "binary":
            _, result, name, a_ref, b_ref = instr
            a, b = resolve(a_ref), resolve(b_ref)
            compute(
                position, result, *_BINARY_EXPRESSIONS[name], [a, b],
                _binary_dtype(name, a, b), _broadcast(a[3], b[3]),
            )
        elif kind == "unary":
            _, result, name, a_ref = instr
            a = resolve(a_ref)
            array_form, scalar_form, ufunc = _UNARY_EXPRESSIONS[name]
            compute(
                position, result, array_form if a[1] else scalar_form, ufunc,
                [a], _unary_dtype(name, a), a[3],
            )
        elif kind == "select":
            cond, a, b = (resolve(ref) for ref in instr[2:5])
            dtype = (
                a[2] if a[1] and b[1] and isinstance(a[2], np.dtype)
                and a[2] == b[2] else None
            )
            bind(
                instr[1], f"_np.where({cond[0]}, {a[0]}, {b[0]})", True, dtype,
                _broadcast(_broadcast(cond[3], a[3]), b[3]),
            )
        else:  # reduce
            _, _, ufunc, sequential, value_ref, init_ref, convert = instr
            name = new_var("_v")
            statements.append(
                f"{name} = {convert}(_fold(_np.{ufunc}, {sequential}, "
                f"_np.broadcast_to(_np.asarray({resolve(value_ref)[0]}), "
                f"{_spelled(local)}).ravel(), {resolve(init_ref)[0]}))"
            )
            reduced.append(name)

    scratch = " + ".join(
        f"{slot_sizes.count(size)} x {size * math.prod(block)} B"
        for size in sorted(set(slot_sizes), reverse=True)
    ) or "none"
    if reduced:
        decision = "not blocked (reduction)"
    elif not looped:
        decision = "single block"
    else:
        count = math.prod(-(-nest_shape[dim] // block[dim]) for dim in looped)
        decision = f"{count} blocks of {_spelled(block)}"
    pad = "    " * len(looped)
    return (
        setup,
        [f"# box {_spelled(nest_shape)}: {decision}, scratch {scratch}"]
        + regions + head
        + [pad + line for line in (*slot_views, *statements, *commits)],
        reduced,
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


#: A nest smaller than this (in iteration-space cells) is not worth spreading
#: over a thread team: the dispatch overhead would exceed the NumPy work.
_TEAM_MIN_CELLS = 4096


class CompiledNest:
    """One vectorizable loop nest: its instructions and its geometry.

    The megakernel emitter (:mod:`repro.interp.codegen`) decides, once per
    buffer layout, *where* the nest runs — concrete bounds, region slices,
    aliasing, overlap split, thread-team chunks — with the methods below, and
    inlines the statements :func:`emit_nest` renders for each resulting box.
    """

    __slots__ = ("bounds", "instrs", "count_bounds", "rank", "op_name",
                 "has_reduce", "reduce_results", "_accesses")

    def __init__(
        self,
        bounds: list[tuple[_Affine, _Affine, _Affine]],
        instrs: list[tuple],
        count_bounds: list[tuple[_Affine, _Affine, _Affine]],
        op_name: str = "scf.parallel",
    ):
        self.bounds = bounds
        self.instrs = instrs
        #: The parallel-root bounds *as the tree walker sees them*: it counts
        #: one cells_updated per point of the scf.parallel/omp.wsloop root
        #: (for tiled nests that is one per *tile origin*, even though the
        #: collapsed ``bounds`` walk individual cells; perfectly nested inner
        #: scf.for dims do not count, and a plain scf.for root counts
        #: nothing — empty ``count_bounds``).
        self.count_bounds = count_bounds
        self.rank = len(bounds)
        self.op_name = op_name
        #: The SSA results of the nest's reductions, in instruction order.
        self.reduce_results = [
            instr[1] for instr in instrs if instr[0] == "reduce"
        ]
        #: Reductions fold in iteration order, so they can be neither chunked
        #: over a thread team nor split into overlap phases.
        self.has_reduce = bool(self.reduce_results)
        #: ``(instruction index, is store)`` of every memory access, in order.
        self._accesses = tuple(
            (position, instr[0] == "store")
            for position, instr in enumerate(instrs)
            if instr[0] in ("load", "store")
        )

    # -- geometry -----------------------------------------------------------
    @staticmethod
    def _concrete_dims(env: dict, bounds) -> list[tuple[int, int, int]]:
        dims: list[tuple[int, int, int]] = []
        for lower, upper, step in bounds:
            dims.append(
                (
                    lower.invariant_value(env),
                    upper.invariant_value(env),
                    step.invariant_value(env),
                )
            )
        if any(step <= 0 for _, _, step in dims):
            # The interpreter defines the (error) semantics of non-positive
            # steps.
            raise _Bailout("non-positive loop step")
        return dims

    def _resolve_regions(
        self, arrays: list, env: dict, dims, *, check_aliasing: bool = False
    ) -> tuple[list, list, dict]:
        """Resolve every load/store region of the nest over the ``dims`` box.

        ``arrays`` are the accessed buffers, one per load/store in
        instruction order.  Returns ``(loads, stores, regions)`` where
        loads/stores are ``(instr index, array id, slices)`` records and
        ``regions`` maps the instruction index to
        ``(array, slices, view_shape, region_shape)``.
        Raising :class:`_Bailout` here means the box cannot be executed by
        slicing at all — or, with ``check_aliasing``, that running it block
        by block (loads, then stores) would not match per-cell execution.
        """
        loads: list[tuple[int, int, tuple]] = []
        stores: list[tuple[int, int, tuple]] = []
        regions: dict[int, tuple] = {}
        for (position, is_store), array in zip(self._accesses, arrays):
            geometry = self._resolve_region(
                array, self.instrs[position][3], dims, env, is_store
            )
            regions[position] = (array, *geometry)
            (stores if is_store else loads).append(
                (position, id(array), geometry[0])
            )
        if check_aliasing and not self._aliasing_is_safe(loads, stores, regions):
            raise _Bailout(
                "aliasing stores: load/store regions overlap between "
                "cells, so per-cell execution order is observable"
            )
        return loads, stores, regions

    # -- thread-team chunking -------------------------------------------------
    @staticmethod
    def _team_chunks(dims, threads: int) -> list:
        """The boxes ``dims`` runs as: one per team thread when worthwhile.

        Chunks split the outermost dimension only, which keeps their store
        regions disjoint.
        """
        if threads > 1:
            trips = [len(range(lower, upper, step)) for lower, upper, step in dims]
            if trips and trips[0] >= 2 and math.prod(trips) >= _TEAM_MIN_CELLS:
                from .thread_team import split_trip_counts

                lower, _, step = dims[0]
                return [
                    [(lower + start * step, lower + end * step, step), *dims[1:]]
                    for start, end in split_trip_counts(trips[0], threads)
                ]
        return [dims]

    # -- halo/compute overlap --------------------------------------------------
    def _plan_overlap(self, env: dict, dims, resolved, halos):
        """Partition ``dims`` into an interior box and boundary strips.

        The interior contains exactly the iterations whose loads provably
        avoid every in-flight halo region, so it can execute before the
        receives complete.  Returns ``(interior dims, [strip dims, ...])``,
        or None when the split cannot be proven safe (the caller then
        completes the halos first and runs the plain path).  When the nest is
        unrelated to every pending halo, the result is the sentinel
        ``"defer"`` — the caller runs the plain path and the halos stay in
        flight for a later consumer.
        """
        if self.has_reduce:
            return None
        if any(step != 1 for _, _, step in dims):
            return None
        loads, stores, regions = resolved
        forbidden: dict[int, list[tuple[int, int]]] = {}
        for halo in halos:
            halo_array = halo.array
            for position, _, _ in stores:
                if np.shares_memory(regions[position][0], halo_array):
                    # Stores into the swapped buffer: completion would race
                    # with (or be clobbered by) the interior commit.
                    return None
            for position, _, _ in loads:
                array, slices = regions[position][:2]
                if array is not halo_array:
                    if np.shares_memory(array, halo_array):
                        return None  # an aliased view we cannot reason about
                    continue
                for recv_slice, _, _, _, axis in halo.plan.receives:
                    box = recv_slice[axis]
                    affine = self.instrs[position][3][axis]
                    if affine.is_invariant:
                        if box.start <= slices[axis].start < box.stop:
                            return None  # every iteration reads the halo
                        continue
                    dim = next(iter(affine.coeffs))
                    offset = slices[axis].start - dims[dim][0]
                    forbidden.setdefault(dim, []).append(
                        (box.start - offset, box.stop - offset)
                    )
        interior = [[lower, upper] for lower, upper, _ in dims]
        constrained = False
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
            if [lower, upper] != interior[dim]:
                constrained = True
            interior[dim] = [lower, upper]
        if not constrained:
            return "defer"
        strips = []
        for dim in range(self.rank):
            lower, upper, _ = dims[dim]
            ilower, iupper = interior[dim]
            prefix = [(interior[k][0], interior[k][1], 1) for k in range(dim)]
            suffix = [dims[k] for k in range(dim + 1, self.rank)]
            if lower < ilower:
                strips.append([*prefix, (lower, ilower, 1), *suffix])
            if iupper < upper:
                strips.append([*prefix, (iupper, upper, 1), *suffix])
        interior_dims = [(lower, upper, 1) for lower, upper in interior]
        return interior_dims, strips

    def _resolve_region(
        self,
        array: np.ndarray,
        axes: list[_Affine],
        dims: list[tuple[int, int, int]],
        env: dict,
        is_store: bool,
    ) -> tuple[tuple, tuple, tuple]:
        """Turn per-axis affine indices into slices + broadcastable shapes.

        Returns ``(slices, view_shape, region_shape)``: ``view_shape`` has the
        nest's rank with the trip count at every mapped dimension and 1
        elsewhere (for broadcasting loads into the iteration space), while
        ``region_shape`` has the *memref's* rank and matches ``array[slices]``
        exactly (for shaping store values).  Raises :class:`_Bailout` when the
        region cannot be reproduced exactly by slicing.
        """
        if len(axes) != array.ndim:
            raise _Bailout("access rank does not match the memref rank")
        trips = tuple(len(range(*dim)) for dim in dims)
        slices = []
        view_shape = [1] * len(dims)
        region_shape = [1] * array.ndim
        used_dims: list[int] = []
        for axis, affine in enumerate(axes):
            offset = affine.invariant_value(env)
            if not affine.coeffs:
                if not 0 <= offset < array.shape[axis]:
                    raise _Bailout("constant index outside the memref extent")
                slices.append(slice(offset, offset + 1))
                continue
            mapping = list(affine.coeffs.items())
            if len(mapping) != 1 or mapping[0][1] != 1:
                raise _Bailout("non-unit-stride index expression cannot be sliced")
            dim = mapping[0][0]
            if used_dims and dim <= used_dims[-1]:
                raise _Bailout(
                    "transposed or repeated induction variables in one access"
                )
            used_dims.append(dim)
            lower, upper, step = dims[dim]
            start = lower + offset
            last = start + (trips[dim] - 1) * step
            if trips[dim] and (start < 0 or last >= array.shape[axis]):
                # Out-of-range accesses would wrap (negative) or raise in the
                # tree walker; preserve those semantics by falling back.
                raise _Bailout(
                    "out-of-range access would wrap or raise in the tree walker"
                )
            slices.append(slice(start, upper + offset, step))
            view_shape[dim] = trips[dim]
            region_shape[axis] = trips[dim]
        if is_store and len(used_dims) != len(dims):
            raise _Bailout(
                "store does not cover every nest dimension "
                "(iterations would collapse onto the same cells)"
            )
        if is_store and array[tuple(slices)].shape != tuple(region_shape):
            raise _Bailout("store value does not match the target region shape")
        return tuple(slices), tuple(view_shape), tuple(region_shape)

    @staticmethod
    def _aliasing_is_safe(loads, stores, regions) -> bool:
        """Check that loading a block, then storing it, matches per-cell execution.

        True when every store region overlaps a load only as the same region
        read earlier in the body, and another store only as the same region:
        then no cell written by one block (or box) is read by another.
        """
        for store_position, store_array_id, store_slices in stores:
            store_view = None
            for load_position, load_array_id, load_slices in loads:
                same_region = (
                    load_array_id == store_array_id and load_slices == store_slices
                )
                if same_region and load_position < store_position:
                    continue  # reads its own cell before writing it: safe
                if store_view is None:
                    array, slices = regions[store_position][:2]
                    store_view = array[slices]
                load_array, slices = regions[load_position][:2]
                if np.shares_memory(load_array[slices], store_view):
                    return False
            for other_position, other_array_id, other_slices in stores:
                if other_position >= store_position:
                    continue
                if other_array_id == store_array_id and other_slices == store_slices:
                    continue  # re-written identically: program order preserved
                if store_view is None:
                    array, slices = regions[store_position][:2]
                    store_view = array[slices]
                other_array, slices = regions[other_position][:2]
                if np.shares_memory(other_array[slices], store_view):
                    return False
        return True

    @staticmethod
    def _materialize(
        affine: _Affine, dims: list[tuple[int, int, int]], env: dict
    ) -> Any:
        """Evaluate an affine expression over the whole iteration space."""
        total: Any = affine.const + sum(
            coeff * int(env[value]) for value, coeff in affine.free.items()
        )
        rank = len(dims)
        for dim, coeff in affine.coeffs.items():
            lower, upper, step = dims[dim]
            shape = [1] * rank
            shape[dim] = len(range(lower, upper, step))
            axis = np.arange(lower, upper, step, dtype=np.int64).reshape(shape)
            total = total + coeff * axis
        return total


# ---------------------------------------------------------------------------
# the nest compiler
# ---------------------------------------------------------------------------

_NEST_TERMINATORS = ("scf.yield", "omp.yield")


class _NestCompiler:
    """Analyses one loop nest and emits a :class:`CompiledNest`."""

    def __init__(self, root: Operation):
        self.root = root
        self.bounds: list[tuple[_Affine, _Affine, _Affine]] = []
        self.count_bounds: list[tuple[_Affine, _Affine, _Affine]] = []
        self.ivs: dict[SSAValue, int] = {}
        # SSA value -> _Affine | ("const", literal) | ("min"|"max", lhs, rhs)
        #            | "array"
        self.sym: dict[SSAValue, Union[_Affine, tuple, str]] = {}
        self.instrs: list[tuple] = []
        #: Values whose compile-time meaning was invalidated by a tile
        #: collapse (the tile-origin iv and expressions derived from it);
        #: consuming one after the collapse aborts the nest.
        self.banned: dict[SSAValue, str] = {}
        self.parallel_dims = 0
        self.collapsed_dims: set[int] = set()

    def compile(self) -> CompiledNest:
        root = self.root
        if isinstance(root, (scf.ParallelOp, omp.WsLoopOp)):
            block = root.body.block
            for iv, lower, upper, step in zip(
                block.args, root.lower_bounds, root.upper_bounds, root.steps
            ):
                self._push_dim(iv, lower, upper, step)
            # The tree walker counts cells_updated once per point of the
            # parallel dims only; inner scf.for dims flattened later by
            # _compile_block must not inflate the statistic.  Collapsing a
            # tile pair rewrites self.bounds[dim] but leaves this snapshot
            # (the tile-origin bounds) untouched.
            self.count_bounds = list(self.bounds)
            self.parallel_dims = len(self.bounds)
        elif isinstance(root, scf.ForOp):
            if root.iter_args or root.results:
                raise VectorizationError("loop-carried values cannot be vectorized")
            block = root.body.block
            self._push_dim(block.args[0], root.lower_bound, root.upper_bound, root.step)
        else:
            raise VectorizationError(f"{root.name} is not a vectorizable nest")
        self._compile_block(block)
        return CompiledNest(self.bounds, self.instrs, self.count_bounds, root.name)

    def _push_dim(self, iv: SSAValue, lower, upper, step) -> None:
        self.ivs[iv] = len(self.bounds)
        self.bounds.append(
            (
                self._invariant_operand(lower),
                self._invariant_operand(upper),
                self._invariant_operand(step),
            )
        )

    def _invariant_operand(self, value: SSAValue) -> _Affine:
        affine = self._index_operand(value)
        if affine is None or affine.coeffs:
            raise VectorizationError("loop bounds must be nest-invariant")
        return affine

    # -- structure ----------------------------------------------------------
    def _compile_block(self, block) -> None:
        ops = list(block.ops)
        for position, op in enumerate(ops):
            name = op.name
            if name in _NEST_TERMINATORS:
                if op.operands or position != len(ops) - 1:
                    raise VectorizationError("nests must not yield values")
                return
            if isinstance(op, scf.ReduceOp):
                if position != len(ops) - 1:
                    raise VectorizationError("scf.reduce must terminate the nest body")
                self._compile_reduce(op)
                return
            if isinstance(op, scf.ForOp):
                # Perfectly nested inner loop: nothing may follow it.
                if op.iter_args or op.results:
                    raise VectorizationError("inner loop carries values")
                remainder = ops[position + 1 :]
                if len(remainder) != 1 or remainder[0].name not in _NEST_TERMINATORS \
                        or remainder[0].operands:
                    raise VectorizationError("inner loop is not perfectly nested")
                self._enter_inner_for(op)
                self._compile_block(op.body.block)
                return
            self._compile_op(op)

    def _enter_inner_for(self, op: scf.ForOp) -> None:
        """Add an inner ``scf.for`` as a nest dimension, or collapse a tile.

        Nest-invariant bounds extend the iteration space by one dimension.
        The min-clamped tile pattern (lower bound = an outer tile-origin iv,
        upper bound = ``minsi(origin + tile_size, extent)``) instead rewrites
        the origin dimension into the full ``[lower, extent)`` unit-step range
        and maps this loop's iv onto it.  Loops tagged ``tile_dim`` by
        ``convert-stencil-to-scf{tile}`` go straight to the tile path.
        """
        iv = op.body.block.args[0]
        if "tile_dim" not in op.attributes:
            try:
                lower = self._invariant_operand(op.lower_bound)
                upper = self._invariant_operand(op.upper_bound)
                step = self._invariant_operand(op.step)
            except VectorizationError:
                pass
            else:
                self.ivs[iv] = len(self.bounds)
                self.bounds.append((lower, upper, step))
                return
        self._collapse_tile(op, iv)

    def _collapse_tile(self, op: scf.ForOp, iv: SSAValue) -> None:
        lower = self._index_operand(op.lower_bound)
        if (
            lower is None or lower.const or lower.free
            or list(lower.coeffs.values()) != [1]
        ):
            raise VectorizationError(
                "inner loop bounds are neither nest-invariant nor the "
                "min-clamped tile pattern"
            )
        dim = next(iter(lower.coeffs))
        if dim >= self.parallel_dims or dim in self.collapsed_dims:
            raise VectorizationError(
                "tile lower bound must be an un-collapsed outer parallel "
                "induction variable"
            )
        step = self._index_operand(op.step)
        if step is None or not step.is_literal or step.const != 1:
            raise VectorizationError("intra-tile loops must have unit step")
        clamp = self.sym.get(op.upper_bound)
        if not (isinstance(clamp, tuple) and clamp[0] == "min"):
            raise VectorizationError(
                "tile upper bound must be an arith.minsi clamp of the tile end"
            )
        outer_lower, outer_upper, outer_step = self.bounds[dim]
        if not outer_step.is_literal or outer_step.const <= 0:
            raise VectorizationError(
                "tile loop step (the tile size) must be a positive literal"
            )
        matched: Optional[_Affine] = None
        for tile_end, limit in ((clamp[1], clamp[2]), (clamp[2], clamp[1])):
            if limit.coeffs:
                continue
            extent = tile_end.combine(_Affine({dim: 1}), -1)
            if extent.coeffs:
                continue
            # The clamp must be min(origin + tile_size, outer_upper) with
            # tile_size == the outer step: only then does the (origin,
            # intra-tile) pair cover [outer_lower, outer_upper) contiguously
            # in ascending order.
            if _affine_equal(extent, outer_step) and _affine_equal(limit, outer_upper):
                matched = limit
                break
        if matched is None:
            raise VectorizationError(
                "tile clamp does not match the outer tile loop's step and bound"
            )
        if self._instrs_mention_dim(dim):
            # A load/store/value emitted *before* this tile loop already
            # captured the dimension at tile-origin granularity; rewriting it
            # to cell granularity would silently change what those
            # instructions compute (e.g. a hoisted load of u[origin]).
            raise VectorizationError(
                "tile origin used by instructions before the tile loop"
            )
        self.bounds[dim] = (outer_lower, matched, _Affine(const=1))
        self.collapsed_dims.add(dim)
        # The collapsed dimension now means "cell index", not "tile origin":
        # ban the origin iv and every symbolic expression that captured the
        # old meaning (they were only ever legitimate inputs to this loop's
        # bounds, which have been consumed).
        for value, mapped in list(self.ivs.items()):
            if mapped == dim:
                del self.ivs[value]
                self.banned[value] = "tile origin used outside its tile loop"
        for value, symbol in list(self.sym.items()):
            if self._mentions_dim(symbol, dim):
                del self.sym[value]
                self.banned[value] = (
                    "tile-origin expression used outside the tile-loop bounds"
                )
        self.ivs[iv] = dim

    @staticmethod
    def _mentions_dim(symbol, dim: int) -> bool:
        if isinstance(symbol, _Affine):
            return dim in symbol.coeffs
        if isinstance(symbol, tuple) and symbol[0] in ("min", "max"):
            return dim in symbol[1].coeffs or dim in symbol[2].coeffs
        return False

    def _instrs_mention_dim(self, dim: int) -> bool:
        """Whether any already-compiled instruction references dimension ``dim``."""
        for instr in self.instrs:
            if instr[0] in ("load", "store") and any(
                dim in affine.coeffs for affine in instr[3]
            ):
                return True
            if any(
                ref[0] == "aff" and dim in ref[1].coeffs
                for ref in _operand_refs(instr)
            ):
                return True
        return False

    # -- reductions ---------------------------------------------------------
    def _compile_reduce(self, op: scf.ReduceOp) -> None:
        root = self.root
        if not isinstance(root, scf.ParallelOp) or op.parent is not root.body.block:
            raise VectorizationError(
                "scf.reduce must terminate the scf.parallel body"
            )
        if len(op.operands) != len(root.results) or len(op.regions) != len(op.operands):
            raise VectorizationError("scf.reduce value/combiner count mismatch")
        for value, region, init, result in zip(
            op.operands, op.regions, root.init_values, root.results
        ):
            ufunc, sequential = self._combiner_kind(region)
            convert = "float" if is_float_type(result.type) else "int"
            self.instrs.append(
                (
                    "reduce", result, ufunc, sequential,
                    self._value_ref(value), self._value_ref(init), convert,
                )
            )

    @staticmethod
    def _combiner_kind(region) -> tuple[str, bool]:
        """The NumPy ufunc name of a combiner, and whether order matters."""
        block = region.block
        ops = list(block.ops)
        if len(block.args) != 2 or len(ops) != 2:
            raise VectorizationError("unsupported scf.reduce combiner structure")
        combine, terminator = ops
        metadata = arith.REDUCTION_OP_METADATA.get(combine.name)
        if metadata is None:
            raise VectorizationError(
                f"reduction over {combine.name!r} is not supported"
            )
        if set(combine.operands) != set(block.args):
            raise VectorizationError(
                "combiner must apply its op to (accumulator, value)"
            )
        if not isinstance(terminator, scf.YieldOp) or list(terminator.operands) != [
            combine.results[0]
        ]:
            raise VectorizationError("combiner must yield the combined value")
        return metadata

    # -- per-op classification ----------------------------------------------
    def _compile_op(self, op: Operation) -> None:
        name = op.name
        if isinstance(op, arith.ConstantOp):
            attr = op.value
            if isinstance(attr, IntegerAttr):
                result_type = op.results[0].type
                if isinstance(result_type, IntegerType) and result_type.width == 1:
                    self.sym[op.results[0]] = ("const", bool(attr.value))
                else:
                    self.sym[op.results[0]] = _Affine(const=int(attr.value))
            elif isinstance(attr, FloatAttr):
                self.sym[op.results[0]] = ("const", float(attr.value))
            else:
                raise VectorizationError("unsupported constant payload")
            return

        if isinstance(op, memref.LoadOp):
            self._compile_access(op.memref, op.indices, result=op.results[0])
            return
        if isinstance(op, memref.StoreOp):
            self._compile_access(op.memref, op.indices, stored=op.value)
            return

        # Integer/index arithmetic stays symbolic whenever possible so it can
        # feed memref indices.
        if name in ("arith.addi", "arith.subi", "arith.muli"):
            lhs = self._index_operand(op.operands[0])
            rhs = self._index_operand(op.operands[1])
            if lhs is not None and rhs is not None:
                if name == "arith.addi":
                    self.sym[op.results[0]] = lhs.combine(rhs, 1)
                elif name == "arith.subi":
                    self.sym[op.results[0]] = lhs.combine(rhs, -1)
                else:
                    if lhs.is_literal:
                        self.sym[op.results[0]] = rhs.scale(lhs.const)
                    elif rhs.is_literal:
                        self.sym[op.results[0]] = lhs.scale(rhs.const)
                    else:
                        raise VectorizationError("non-affine index product")
                return
        if name in ("arith.minsi", "arith.maxsi"):
            # Symbolic min/max of index expressions: the clamp of a tiled
            # loop's upper bound.  Elementwise minsi on loaded data still hits
            # the element-wise path below (its operands are arrays, not
            # affines).
            lhs = self._index_operand(op.operands[0])
            rhs = self._index_operand(op.operands[1])
            if lhs is not None and rhs is not None:
                if lhs.is_literal and rhs.is_literal:
                    fold = min if name == "arith.minsi" else max
                    self.sym[op.results[0]] = _Affine(const=fold(lhs.const, rhs.const))
                else:
                    self.sym[op.results[0]] = (
                        "min" if name == "arith.minsi" else "max", lhs, rhs,
                    )
                return
        if name in ("arith.index_cast", "arith.extsi", "arith.trunci"):
            affine = self._index_operand(op.operands[0])
            if affine is not None:
                self.sym[op.results[0]] = affine
                return

        if name in ("arith.cmpf", "arith.cmpi"):
            assert isinstance(op, (arith.CmpfOp, arith.CmpiOp))
            name = f"{name}:{op.predicate}"
            if name not in _BINARY_EXPRESSIONS:
                raise VectorizationError(
                    f"{op.name.split('.')[1]} predicate {op.predicate!r}"
                )
        if name in _BINARY_EXPRESSIONS or name in _UNARY_EXPRESSIONS:
            self.instrs.append(
                (
                    "binary" if name in _BINARY_EXPRESSIONS else "unary",
                    op.results[0], name,
                    *(self._value_ref(operand) for operand in op.operands),
                )
            )
            self.sym[op.results[0]] = "array"
            return
        if name == "arith.select":
            self.instrs.append(
                (
                    "select", op.results[0],
                    self._value_ref(op.operands[0]),
                    self._value_ref(op.operands[1]),
                    self._value_ref(op.operands[2]),
                )
            )
            self.sym[op.results[0]] = "array"
            return
        raise VectorizationError(f"operation {name!r} cannot be vectorized")

    def _compile_access(self, base: SSAValue, indices, result=None, stored=None) -> None:
        if base in self.sym or base in self.ivs:
            raise VectorizationError("memref allocated inside the nest")
        axes = []
        for index_value in indices:
            affine = self._index_operand(index_value)
            if affine is None:
                raise VectorizationError("non-affine memref index")
            axes.append(affine)
        if result is not None:
            self.instrs.append(("load", result, base, axes))
            self.sym[result] = "array"
        else:
            self.instrs.append(("store", self._value_ref(stored), base, axes))

    # -- operand classification ----------------------------------------------
    def _index_operand(self, value: SSAValue) -> Optional[_Affine]:
        """An affine view of ``value``, or None when it is not index-like."""
        if value in self.banned:
            raise VectorizationError(self.banned[value])
        if value in self.ivs:
            return _Affine({self.ivs[value]: 1})
        symbol = self.sym.get(value)
        if symbol is not None:
            if isinstance(symbol, _Affine):
                return symbol
            if isinstance(symbol, tuple) and isinstance(symbol[1], int) \
                    and not isinstance(symbol[1], bool):
                return _Affine(const=symbol[1])
            return None
        # Constants defined *outside* the nest fold to literals so tile
        # clamps survive LICM/CSE hoisting their operands out of the body.
        owner = value.owner
        if isinstance(owner, arith.ConstantOp):
            attr = owner.value
            if isinstance(attr, IntegerAttr):
                result_type = owner.results[0].type
                if isinstance(result_type, IntegerType) and result_type.width == 1:
                    return None
                return _Affine(const=int(attr.value))
            return None
        value_type = value.type
        if isinstance(value_type, IndexType) or (
            isinstance(value_type, IntegerType) and value_type.width > 1
        ):
            return _Affine(free={value: 1})
        return None

    def _value_ref(self, value: SSAValue) -> _Ref:
        if value in self.banned:
            raise VectorizationError(self.banned[value])
        if value in self.ivs:
            return ("aff", _Affine({self.ivs[value]: 1}))
        symbol = self.sym.get(value)
        if symbol is None:
            owner = value.owner
            if isinstance(owner, arith.ConstantOp):
                attr = owner.value
                if isinstance(attr, IntegerAttr):
                    result_type = owner.results[0].type
                    if isinstance(result_type, IntegerType) and result_type.width == 1:
                        return ("const", bool(attr.value))
                    return ("const", int(attr.value))
                if isinstance(attr, FloatAttr):
                    return ("const", float(attr.value))
            return ("free", value)  # defined outside the nest: env lookup
        if symbol == "array":
            return ("arr", value)
        if isinstance(symbol, _Affine):
            if symbol.is_literal:
                return ("const", symbol.const)
            return ("aff", symbol)
        if isinstance(symbol, tuple) and symbol[0] in ("min", "max"):
            raise VectorizationError(
                "min/max index clamp used as a value outside loop bounds"
            )
        return ("const", symbol[1])


def compile_loop_nest(op: Operation) -> Optional[CompiledNest]:
    """Compile one loop nest, or return None when it is not vectorizable."""
    compiled = compile_loop_nest_or_fallback(op)
    return compiled if isinstance(compiled, CompiledNest) else None


def compile_loop_nest_or_fallback(
    op: Operation,
) -> Union[CompiledNest, VectorizeFallback]:
    """Compile one loop nest, or say *why* it cannot be vectorized."""
    try:
        return _NestCompiler(op).compile()
    except VectorizationError as err:
        return VectorizeFallback(op.name, str(err))


# ---------------------------------------------------------------------------
# whole-function compilation + cache entry point
# ---------------------------------------------------------------------------

class CompiledKernel:
    """Vectorized nests of one function, looked up by nest operation."""

    def __init__(
        self,
        function_name: str,
        nests: dict[int, CompiledNest],
        fallbacks: Optional[dict[int, VectorizeFallback]] = None,
    ):
        self.function_name = function_name
        self.nests = nests
        #: Candidate nest roots that could *not* be compiled, with reasons.
        self.fallbacks: dict[int, VectorizeFallback] = fallbacks or {}

    def nest_for(self, op: Operation) -> Optional[CompiledNest]:
        return self.nests.get(id(op))

    def fallback_for(self, op: Operation) -> Optional[VectorizeFallback]:
        """Why ``op`` was not compiled (None when it was, or was never a root)."""
        return self.fallbacks.get(id(op))

    @property
    def nest_count(self) -> int:
        return len(self.nests)

    @property
    def fallback_reasons(self) -> list[str]:
        """Every compile-time rejection, as human-readable strings."""
        return sorted(str(fallback) for fallback in self.fallbacks.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CompiledKernel {self.function_name!r}: {len(self.nests)} nests, "
            f"{len(self.fallbacks)} fallbacks>"
        )


_CANDIDATES = (scf.ParallelOp, omp.WsLoopOp, scf.ForOp)


def compile_kernel(module: Operation, function_name: str) -> CompiledKernel:
    """Compile every vectorizable loop nest of one function of ``module``.

    Unknown function names yield an empty kernel (the interpreter will raise
    its usual error when the call is attempted), so callers need not special
    case them.
    """
    nests: dict[int, CompiledNest] = {}
    fallbacks: dict[int, VectorizeFallback] = {}
    for op in module.walk():
        if not (isinstance(op, func.FuncOp) and op.sym_name == function_name):
            continue
        compiled_region_roots: set[int] = set()
        for candidate in op.walk():
            if not isinstance(candidate, _CANDIDATES):
                continue
            if any(
                id(ancestor) in compiled_region_roots
                for ancestor in _ancestors(candidate)
            ):
                continue  # already covered by a vectorized enclosing nest
            nest = compile_loop_nest_or_fallback(candidate)
            if isinstance(nest, CompiledNest):
                nests[id(candidate)] = nest
                compiled_region_roots.add(id(candidate))
            else:
                fallbacks[id(candidate)] = nest
        break
    return CompiledKernel(function_name, nests, fallbacks)


def _ancestors(op: Operation):
    current = op.parent_op
    while current is not None:
        yield current
        current = current.parent_op
