"""Vectorized NumPy compilation of lowered loop nests.

The tree-walking interpreter dispatches every lowered operation once *per grid
cell*, which makes the cost of a stencil sweep proportional to ``cells x ops``
python bytecode dispatches.  This module removes the per-cell dispatch: it
pattern-matches the loop nests produced by ``convert-stencil-to-scf`` (and the
OpenMP conversion) and compiles each nest *once* into whole-array NumPy slice
expressions — the moral equivalent of the C code Devito generates.

A nest compiles to a :class:`CompiledNest`: its bounds, the bounds the
tree walker counts ``cells_updated`` over, and a short instruction list
(load, store, binary, unary, select, reduce) whose operands are affine index
expressions, literals, values computed earlier in the nest or scalars from
outside it.  That is all this module does.  Where a nest runs against a
buffer layout and how its instructions are spelled as NumPy statements is
decided by :mod:`repro.interp.nestplan`, for the megakernel emitter
(:mod:`repro.interp.codegen`).

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
* the body consists only of ``memref.load`` / ``memref.store``, ``arith``
  ops whose record in the op table (:data:`repro.dialects.arith.SEMANTICS`)
  has a NumPy spelling (including ``cmpf``/``cmpi``/``select`` chains, which
  become ``np.where`` trees), and optionally a terminating ``scf.reduce``
  whose combiner's record has ``reduce`` set — compiled into a NumPy
  reduction that replays the tree walker's deterministic left-fold (via
  ``ufunc.accumulate`` for order-sensitive float ``+``/``*``).

Anything else — data-dependent control flow, MPI operations, non-affine
indices — is left to the tree walker, *per nest*: the megakernel walks such a
nest in place, so one non-vectorizable region never forfeits the speedup of
its neighbours.  Every rejection is described by a :class:`VectorizeFallback`
carrying an explicit reason string, surfaced via
:meth:`CompiledKernel.fallback_for`.

Equivalence with the tree walker is bit-exact: the instructions apply the
same operation tree in the same order, and reductions fold in iteration
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..dialects import arith, func, memref, omp, scf
from ..ir.core import Operation, SSAValue
from ..ir.types import IndexType, IntegerType, is_float_type
from .nestplan import operand_refs


class VectorizationError(Exception):
    """Internal: raised while analysing a nest that cannot be vectorized."""


@dataclass(frozen=True)
class VectorizeFallback:
    """Why a nest could not be vectorized (the megakernel walks it in place)."""

    op_name: str
    reason: str

    def __str__(self) -> str:
        return f"{self.op_name}: {self.reason}"


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

def _affine_equal(a: _Affine, b: _Affine) -> bool:
    return a.coeffs == b.coeffs and a.const == b.const and a.free == b.free


# ---------------------------------------------------------------------------
# instructions
# ---------------------------------------------------------------------------
#
# A nest compiles to a list of instruction tuples, in body order:
#   ("load", result, memref, axes)          axes: one _Affine per memref axis
#   ("store", value_ref, memref, axes)
#   ("binary", result, key, a_ref, b_ref)   key: an arith.SEMANTICS key whose
#   ("unary", result, key, a_ref)           record has a NumPy spelling
#   ("select", result, cond_ref, a_ref, b_ref)
#   ("reduce", result, ufunc, sequential, value_ref, init_ref, convert)
# and an operand reference is one of
#   ("arr", value)   — tensor computed by an earlier instruction of the nest
#   ("const", x)     — compile-time literal
#   ("aff", affine)  — affine index expression (materialised as an int grid)
#   ("free", value)  — scalar defined outside the nest
_Ref = tuple


class CompiledNest:
    """One vectorizable loop nest: its bounds and instructions.

    ``bounds`` are ``(lower, upper, step)`` affine expressions per dimension,
    invariant in the nest.  The megakernel tracer resolves the nest against
    its trace (:class:`repro.interp.nestplan.FusedNest`), and
    :func:`repro.interp.nestplan.plan_nest` settles where it runs.
    """

    __slots__ = ("bounds", "instrs", "count_bounds", "reduce_results")

    def __init__(
        self,
        bounds: list[tuple[_Affine, _Affine, _Affine]],
        instrs: list[tuple],
        count_bounds: list[tuple[_Affine, _Affine, _Affine]],
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
        #: The SSA results of the nest's reductions, in instruction order.
        self.reduce_results = [
            instr[1] for instr in instrs if instr[0] == "reduce"
        ]


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
        return CompiledNest(self.bounds, self.instrs, self.count_bounds)

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
                for ref in operand_refs(instr)
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
        record = arith.SEMANTICS.get(arith.op_key(combine))
        if record is None or record.reduce is None:
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
        return record.ufunc, record.reduce

    # -- per-op classification ----------------------------------------------
    def _compile_op(self, op: Operation) -> None:
        name = op.name
        if isinstance(op, arith.ConstantOp):
            literal = op.scalar()
            if literal is None:
                raise VectorizationError("unsupported constant payload")
            self.sym[op.results[0]] = (
                _Affine(const=literal) if _is_index(literal) else ("const", literal)
            )
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

        key = arith.op_key(op)
        record = arith.SEMANTICS.get(key)
        if record is not None and record.array is not None:
            self.instrs.append(
                (
                    "binary" if record.arity == 2 else "unary", op.results[0], key,
                    *(self._value_ref(operand) for operand in op.operands),
                )
            )
            self.sym[op.results[0]] = "array"
            return
        if isinstance(op, (arith.CmpfOp, arith.CmpiOp)):
            raise VectorizationError(f"{name.split('.')[1]} predicate {op.predicate!r}")
        if isinstance(op, arith.SelectOp):
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
            if isinstance(symbol, tuple) and _is_index(symbol[1]):
                return _Affine(const=symbol[1])
            return None
        # Constants defined *outside* the nest fold to literals so tile
        # clamps survive LICM/CSE hoisting their operands out of the body.
        owner = value.owner
        if isinstance(owner, arith.ConstantOp):
            literal = owner.scalar()
            return _Affine(const=literal) if _is_index(literal) else None
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
            if isinstance(owner, arith.ConstantOp) and owner.scalar() is not None:
                return ("const", owner.scalar())
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


def _is_index(literal) -> bool:
    """Whether a constant's literal is an integer an index expression can use."""
    return isinstance(literal, int) and not isinstance(literal, bool)


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
