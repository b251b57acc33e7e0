"""The global-to-local pass: distribute a stencil program over MPI ranks.

This is the "shared pass that automatically prepares stencil programs for
distributed execution" of paper §4.2.  Given a rank topology and a
decomposition strategy it

1. computes the halo each field needs from the ``stencil.access`` offsets of
   every ``stencil.apply`` in the function (along a dimension split over
   ranks, the wider side on both sides: exchanges pair equal-width strips),
   and rejects a read no exchange delivers as the undecomposed program sees
   it (a corner cell, or a cell its own sweep has already written),
2. rewrites every ``!stencil.field`` (and dependent temp) type from the global
   bounds to the rank-local bounds (core at ``[0, n)`` plus halo), recording
   how many cells the global field bounds carry around the store bounds —
   the layout of a global array the runtime scatters from,
3. shrinks every ``stencil.store`` range to the local core, and
4. inserts a ``dmp.swap`` in front of every ``stencil.load`` so neighbouring
   ranks hold up-to-date halo data before each stencil computation.

The produced module is SPMD: every rank executes the same IR; which slab of
the global domain a rank owns is decided by the runtime (data scatter/gather
in the executor) and by the neighbour checks emitted when lowering dmp to mpi.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ...dialects import func, stencil
from ...dialects.builtin import UnrealizedConversionCastOp
from ...dialects.dmp import SwapOp
from ...ir.builder import Builder
from ...ir.core import Operation, SSAValue
from ...ir.pass_manager import ModulePass
from ...ir.types import FunctionType, MemRefType
from ..stencil.shape_inference import infer_shapes
from .decomposition import DecompositionError, DecompositionStrategy, LocalDomain


@dataclass
class DistributionSummary:
    """What the global-to-local pass did (used by tests and the cost model)."""

    global_shape: tuple[int, ...]
    #: Cells every field's global bounds carry before and after the store
    #: bounds, per dimension: a global array is laid out as its field's
    #: bounds, so the runtime finds compute index 0 at ``margin_lower``.
    margin_lower: tuple[int, ...]
    margin_upper: tuple[int, ...]
    local_domain: LocalDomain
    swaps_inserted: int
    halo_elements_per_swap: int


def _collect_global_bounds(module: Operation) -> stencil.StencilBoundsAttr:
    """The common store bounds of the program == the global compute domain."""
    bounds: Optional[stencil.StencilBoundsAttr] = None
    for op in module.walk():
        if isinstance(op, stencil.StoreOp):
            if bounds is None:
                bounds = op.bounds
            elif bounds != op.bounds:
                raise DecompositionError(
                    "all stencil.store operations must share the same global bounds "
                    "to be distributed automatically"
                )
    if bounds is None:
        raise DecompositionError("no stencil.store found; nothing to distribute")
    return bounds


def _collect_field_bounds(module: Operation) -> stencil.StencilBoundsAttr:
    """The common global bounds of every field argument of the program."""
    bounds = {
        arg_type.bounds
        for op in module.walk() if isinstance(op, func.FuncOp)
        for arg_type in op.function_type.inputs
        if isinstance(arg_type, stencil.FieldType)
    }
    if len(bounds) != 1 or None in bounds:
        raise DecompositionError(
            "all stencil fields must share the same known global bounds to be "
            "distributed automatically"
        )
    return bounds.pop()


def _retype_fields(module: Operation, new_bounds: stencil.StencilBoundsAttr) -> int:
    """Give every field-typed SSA value the local bounds; returns the count."""
    retyped = 0

    def new_field_type(old: stencil.FieldType) -> stencil.FieldType:
        return stencil.FieldType(new_bounds, old.element_type)

    for op in module.walk():
        for result in op.results:
            if isinstance(result.type, stencil.FieldType):
                result.type = new_field_type(result.type)
                retyped += 1
        for region in op.regions:
            for block in region.blocks:
                for arg in block.args:
                    if isinstance(arg.type, stencil.FieldType):
                        arg.type = new_field_type(arg.type)
                        retyped += 1
        if isinstance(op, func.FuncOp):
            ftype = op.function_type
            new_inputs = [
                new_field_type(t) if isinstance(t, stencil.FieldType) else t
                for t in ftype.inputs
            ]
            new_outputs = [
                new_field_type(t) if isinstance(t, stencil.FieldType) else t
                for t in ftype.outputs
            ]
            op.attributes["function_type"] = FunctionType(new_inputs, new_outputs)
    return retyped


def _reset_temp_types(module: Operation) -> None:
    """Drop stale (global) bounds from temps so shape inference recomputes them."""
    for op in module.walk():
        if isinstance(op, stencil.LoadOp):
            field_type = op.field.type
            assert isinstance(field_type, stencil.FieldType)
            op.result.type = stencil.TempType(field_type.bounds, field_type.element_type)
        if isinstance(op, stencil.ApplyOp):
            for arg, operand in zip(op.region_args, op.operands):
                arg.type = operand.type


def _reject_unexchanged_reads(applies: list[stencil.ApplyOp], split: list[int]) -> None:
    """Raise on a read whose cell no halo exchange delivers as the undecomposed
    program sees it; ``split`` are the dimensions split over ranks.

    The exchanges carry no corners: a read that reaches its field diagonally
    across two split dimensions is never received.  What a read reaches
    composes along unfused chains of applies: reading a temp at (1, 0) whose
    cells read their load at (0, 1) reaches the load's (1, 1).
    """
    if not split:
        return
    # Per apply result: the offsets of the field cells one of its cells reads.
    reach: dict[SSAValue, set[tuple[int, ...]]] = {}
    for number, apply_op in enumerate(applies):
        reads: dict[SSAValue, set[tuple[int, ...]]] = {}
        for op in apply_op.body.walk():
            cells = set().union(*(reads.get(operand, ()) for operand in op.operands))
            if isinstance(op, stencil.AccessOp):
                index, offset = op.temp.index, op.offset
                operand = apply_op.operands[index]
                where = f"operand {index} of stencil.apply #{number} is read at offset {offset}"
                for base in reach.get(operand, {(0,) * len(offset)}):
                    cell = tuple(b + o for b, o in zip(base, offset))
                    if sum(cell[dim] != 0 for dim in split) > 1:
                        raise DecompositionError(
                            f"{where}, which reaches cell {cell} of its field across "
                            f"the axes {tuple(split)} split over ranks; the halo "
                            "exchanges carry no corners"
                        )
                    cells.add(cell)
            for result in op.results:
                reads[result] = cells
        returned = apply_op.body.block.last_op.operands
        for result, value in zip(apply_op.results, returned):
            reach[result] = reads.get(value, set())


def distribute_stencil(
    module: Operation,
    strategy: DecompositionStrategy,
) -> DistributionSummary:
    """Apply the global-to-local transformation in place."""
    applies = stencil.apply_ops_of(module)
    if not applies:
        raise DecompositionError("module contains no stencil.apply operations")
    grid = strategy.rank_grid()
    halo_lower, halo_upper = map(list, stencil.combined_halo(applies))
    split = [dim for dim, ranks in enumerate(grid.shape[:len(halo_lower)]) if ranks > 1]
    _reject_unexchanged_reads(applies, split)
    # A dmp exchange pairs each receive with a send of the same width, so a
    # rank that reads only one neighbour must still feed the other: a halo
    # is as wide on both sides along every dimension split over ranks.
    for dim in split:
        halo_lower[dim] = halo_upper[dim] = max(halo_lower[dim], halo_upper[dim])

    global_bounds = _collect_global_bounds(module)
    global_shape = global_bounds.shape
    field_bounds = _collect_field_bounds(module)
    margin_lower = tuple(s - f for s, f in zip(global_bounds.lb, field_bounds.lb))
    margin_upper = tuple(f - s for s, f in zip(global_bounds.ub, field_bounds.ub))
    if any(m < h for m, h in zip(margin_lower + margin_upper,
                                 (*halo_lower, *halo_upper))):
        raise DecompositionError(
            f"the fields carry {margin_lower}/{margin_upper} cells around the "
            f"store bounds, fewer than the halo {tuple(halo_lower)}/"
            f"{tuple(halo_upper)} the distributed program exchanges"
        )
    domain = strategy.local_domain(global_shape, halo_lower, halo_upper)
    local_field_bounds = domain.field_bounds()
    local_store_bounds = domain.compute_bounds()

    # 1. Retype fields to the local buffer bounds.
    _retype_fields(module, local_field_bounds)

    # 2. Shrink stores to the local core.
    for op in module.walk():
        if isinstance(op, stencil.StoreOp):
            op.attributes["bounds"] = local_store_bounds

    # 3. Temps follow from the new field types / store bounds.
    _reset_temp_types(module)
    infer_shapes(module)

    # 4. Insert a dmp.swap before every stencil.load.
    exchanges = strategy.exchanges(domain)
    swaps = 0
    for op in list(module.walk()):
        if not isinstance(op, stencil.LoadOp):
            continue
        builder = Builder.before(op)
        cast = builder.insert(
            UnrealizedConversionCastOp.get(
                op.field, MemRefType(domain.buffer_shape, _element_type_of(op.field))
            )
        )
        builder.insert(SwapOp(cast.output, grid, exchanges))
        swaps += 1

    return DistributionSummary(
        global_shape=tuple(global_shape),
        margin_lower=margin_lower,
        margin_upper=margin_upper,
        local_domain=domain,
        swaps_inserted=swaps,
        halo_elements_per_swap=sum(e.element_count() for e in exchanges),
    )


def _element_type_of(field: SSAValue):
    field_type = field.type
    assert isinstance(field_type, stencil.FieldType)
    return field_type.element_type


class DistributeStencilPass(ModulePass):
    """Decompose the stencil domain over a rank grid and insert halo swaps."""

    name = "distribute-stencil"
    options = ("grid",)
    conversion = True  # global stencil program -> per-rank program + dmp.swap

    def __init__(self, strategy: DecompositionStrategy):
        self.strategy = strategy
        self.grid = strategy.rank_grid()
        self.summary: Optional[DistributionSummary] = None

    def apply(self, module: Operation) -> None:
        self.summary = distribute_stencil(module, self.strategy)
