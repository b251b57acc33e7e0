"""Lower the stencil dialect to explicit loop nests over memrefs.

This is the CPU lowering pipeline of the paper (the "shared memory" variant of
``convert-stencil-to-ll-mlir``): every ``stencil.apply`` / ``stencil.store``
pair becomes an ``scf.parallel`` loop nest (optionally tiled for data
locality) whose body loads inputs with ``memref.load``, evaluates the cloned
arithmetic, and stores results with ``memref.store``.

An apply that stores into a field it reads at a non-zero offset reads that
field from a copy taken at its ``stencil.load`` (``memref.alloc`` +
``memref.copy``, freed after the nest): the load's value, as at the stencil
level, where every read of an apply sees the field as it was loaded.  Its nest
then updates the field in place without a read seeing whether the sweep has
passed its cell yet, in any order, tiled or not.

Field values keep their ``!stencil.field`` SSA type and are bridged into the
memref world with ``builtin.unrealized_conversion_cast`` exactly as in the
paper's fig. 4; this keeps the pass local (no function-signature rewriting).
Logical stencil coordinates are translated to zero-based memory indices using
the bounds carried by the field types.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ...dialects import arith, memref, scf, stencil
from ...dialects.builtin import UnrealizedConversionCastOp
from ...ir.attributes import IntAttr, UnitAttr
from ...ir.builder import Builder
from ...ir.core import Block, BlockArgument, Operation, SSAValue
from ...ir.pass_manager import ModulePass
from ...ir.types import MemRefType, index


class StencilLoweringError(Exception):
    """Raised when a stencil program cannot be lowered to loops."""


def _field_of_temp(value: SSAValue) -> tuple[SSAValue, stencil.FieldType]:
    """The field (and its type) backing a temp value produced by stencil.load."""
    owner = value.owner
    if isinstance(owner, stencil.LoadOp):
        field = owner.field
        field_type = field.type
        if not isinstance(field_type, stencil.FieldType):
            raise StencilLoweringError("stencil.load operand is not a field")
        return field, field_type
    raise StencilLoweringError(
        "stencil.apply operands must be produced by stencil.load before lowering "
        f"(found {owner.name if isinstance(owner, Operation) else 'block argument'})"
    )


def _memref_type_for_field(field_type: stencil.FieldType) -> MemRefType:
    if field_type.bounds is None:
        raise StencilLoweringError("cannot lower a field without static bounds")
    return MemRefType(field_type.bounds.shape, field_type.element_type)


class _ApplyLowering:
    """Lowers a single stencil.apply (plus its stores) into a loop nest."""

    def __init__(
        self,
        apply_op: stencil.ApplyOp,
        tile_sizes: Optional[Sequence[int]],
        parallel_attr: Optional[str],
    ):
        self.apply_op = apply_op
        self.tile_sizes = tile_sizes
        self.parallel_attr = parallel_attr
        self.builder = Builder.before(apply_op)

    # -- helpers ------------------------------------------------------------
    def _const_index(self, value: int) -> SSAValue:
        op = self.builder.insert(arith.ConstantOp.from_int(value, index))
        return op.result

    def run(self) -> None:
        apply_op = self.apply_op
        stores = self._collect_stores()
        bounds = stores[0].bounds
        for store in stores[1:]:
            if store.bounds != bounds:
                raise StencilLoweringError(
                    "all stores of one stencil.apply must share the same bounds"
                )
        rank = bounds.rank

        # Cast every input field and every output field to a memref; a field
        # stored into and read off the cell is read from a copy of it.
        copied = self._stored_fields_read_off_cell(stores)
        copies: list[SSAValue] = []
        input_casts: list[tuple[SSAValue, tuple[int, ...]]] = []
        for operand in apply_op.operands:
            field, field_type = _field_of_temp(operand)
            memref_type = _memref_type_for_field(field_type)
            if field in copied:
                copies.append(self._copy_at_load(operand.owner, memref_type))
                input_casts.append((copies[-1], field_type.bounds.lb))
                continue
            cast = self.builder.insert(UnrealizedConversionCastOp.get(field, memref_type))
            input_casts.append((cast.output, field_type.bounds.lb))
        output_casts: list[tuple[SSAValue, tuple[int, ...]]] = []
        for store in stores:
            field = store.field
            field_type = field.type
            assert isinstance(field_type, stencil.FieldType)
            cast = self.builder.insert(
                UnrealizedConversionCastOp.get(field, _memref_type_for_field(field_type))
            )
            output_casts.append((cast.output, field_type.bounds.lb))

        lower = [self._const_index(lb) for lb in bounds.lb]
        upper = [self._const_index(ub) for ub in bounds.ub]

        if self.tile_sizes:
            loop_ivs, innermost = self._build_tiled_loops(rank, lower, upper, bounds)
        else:
            loop_ivs, innermost = self._build_parallel_loop(rank, lower, upper)

        self._lower_body(innermost, loop_ivs, input_casts, output_casts, stores)
        for copy in copies:
            self.builder.insert(memref.DeallocOp(copy))

        # Remove the now-redundant stencil ops.
        for store in stores:
            store.erase()
        apply_op.erase()

    def _collect_stores(self) -> list[stencil.StoreOp]:
        stores: list[stencil.StoreOp] = []
        for result in self.apply_op.results:
            result_stores = [
                use.operation
                for use in result.uses
                if isinstance(use.operation, stencil.StoreOp)
            ]
            other_uses = [
                use.operation
                for use in result.uses
                if not isinstance(use.operation, stencil.StoreOp)
            ]
            if other_uses:
                raise StencilLoweringError(
                    "stencil.apply results must only be consumed by stencil.store "
                    f"at lowering time; found use by {other_uses[0].name}"
                )
            if len(result_stores) != 1:
                raise StencilLoweringError(
                    "each stencil.apply result must be stored exactly once, found "
                    f"{len(result_stores)} stores"
                )
            stores.append(result_stores[0])
        if not stores:
            raise StencilLoweringError("stencil.apply with no results cannot be lowered")
        return stores

    def _stored_fields_read_off_cell(self, stores: list[stencil.StoreOp]) -> set:
        """The fields the apply stores into and reads at a non-zero offset."""
        written = {store.field for store in stores}
        shifted = {
            op.temp.index for op in self.apply_op.body.block.ops
            if isinstance(op, stencil.AccessOp) and isinstance(op.temp, BlockArgument)
            and any(op.offset)
        }
        return {
            _field_of_temp(self.apply_op.operands[index])[0] for index in shifted
        } & written

    @staticmethod
    def _copy_at_load(load: stencil.LoadOp, memref_type: MemRefType) -> SSAValue:
        """A copy of the field ``load`` reads, taken where it reads it."""
        builder = Builder.before(load)
        cast = builder.insert(UnrealizedConversionCastOp.get(load.field, memref_type))
        copy = builder.insert(memref.AllocOp(memref_type)).results[0]
        builder.insert(memref.CopyOp(cast.output, copy))
        return copy

    # -- loop construction -----------------------------------------------------
    def _build_parallel_loop(
        self, rank: int, lower: list[SSAValue], upper: list[SSAValue]
    ) -> tuple[list[SSAValue], Block]:
        step = self._const_index(1)
        parallel = scf.ParallelOp(lower, upper, [step] * rank)
        if self.parallel_attr:
            parallel.attributes[self.parallel_attr] = UnitAttr()
        self.builder.insert(parallel)
        body = parallel.body.block
        return list(body.args), body

    def _build_tiled_loops(
        self,
        rank: int,
        lower: list[SSAValue],
        upper: list[SSAValue],
        bounds: stencil.StencilBoundsAttr,
    ) -> tuple[list[SSAValue], Block]:
        tile_sizes = list(self.tile_sizes or ())
        if len(tile_sizes) < rank:
            tile_sizes = tile_sizes + [tile_sizes[-1]] * (rank - len(tile_sizes))
        tile_steps = [self._const_index(max(1, t)) for t in tile_sizes[:rank]]
        parallel = scf.ParallelOp(lower, upper, tile_steps)
        if self.parallel_attr:
            parallel.attributes[self.parallel_attr] = UnitAttr()
        parallel.attributes["tiled"] = UnitAttr()
        self.builder.insert(parallel)
        tile_origins = list(parallel.body.block.args)

        inner_builder = Builder.at_end(parallel.body.block)
        one = inner_builder.insert(arith.ConstantOp.from_int(1, index)).result
        loop_ivs: list[SSAValue] = []
        current_block = parallel.body.block
        current_builder = inner_builder
        for dim in range(rank):
            tile_extent = current_builder.insert(
                arith.ConstantOp.from_int(max(1, tile_sizes[dim]), index)
            ).result
            tile_end = current_builder.insert(
                arith.AddiOp(tile_origins[dim], tile_extent)
            ).result
            dim_upper = current_builder.insert(
                arith.ConstantOp.from_int(bounds.ub[dim], index)
            ).result
            clamped = current_builder.insert(arith.MinSIOp(tile_end, dim_upper)).result
            for_op = scf.ForOp(tile_origins[dim], clamped, one)
            # Tag the intra-tile loop with the dimension it tiles: the
            # vectorizer uses this to recognise the min-clamped tile pattern
            # and collapse the (origin, intra-tile) loop pair back into one
            # whole-extent dimension.  The tag survives convert-scf-to-openmp
            # because loop bodies are moved, not cloned.
            for_op.attributes["tile_dim"] = IntAttr(dim)
            current_builder.insert(for_op)
            loop_ivs.append(for_op.induction_variable)
            current_block = for_op.body.block
            current_builder = Builder.at_end(current_block)
        # Terminate every level with a yield.
        block: Optional[Block] = current_block
        while block is not None and block is not parallel.parent_block:
            terminator_builder = Builder.at_end(block)
            terminator_builder.insert(scf.YieldOp([]))
            parent = block.parent_op
            block = parent.parent_block if parent is not None and parent is not parallel else None
        return loop_ivs, current_block

    # -- body lowering ------------------------------------------------------------
    def _lower_body(
        self,
        body_block: Block,
        loop_ivs: list[SSAValue],
        input_casts: list[tuple[SSAValue, tuple[int, ...]]],
        output_casts: list[tuple[SSAValue, tuple[int, ...]]],
        stores: list[stencil.StoreOp],
    ) -> None:
        apply_block = self.apply_op.body.block
        # Append (inserting before the terminator searches the block for it
        # per op), then put the terminator back last: its own, else a new one.
        terminator = body_block.last_op
        if isinstance(terminator, scf.YieldOp):
            body_block.detach_op(terminator)
        else:
            terminator = scf.YieldOp([])
        builder = Builder.at_end(body_block)

        value_map: dict[SSAValue, SSAValue] = {}

        def index_const(value: int) -> SSAValue:
            return builder.insert(arith.ConstantOp.from_int(value, index)).result

        for op in apply_block.ops:
            if isinstance(op, stencil.AccessOp):
                temp = op.temp
                if not isinstance(temp, BlockArgument) or temp.block is not apply_block:
                    raise StencilLoweringError(
                        "stencil.access must read a stencil.apply region argument"
                    )
                memref_value, field_lb = input_casts[temp.index]
                indices = []
                for dim, offset in enumerate(op.offset):
                    shift = offset - field_lb[dim]
                    if shift == 0:
                        indices.append(loop_ivs[dim])
                    else:
                        shifted = builder.insert(
                            arith.AddiOp(loop_ivs[dim], index_const(shift))
                        )
                        indices.append(shifted.result)
                load = builder.insert(memref.LoadOp(memref_value, indices))
                value_map[op.result] = load.result
            elif isinstance(op, stencil.ReturnOp):
                for result_index, returned in enumerate(op.operands):
                    memref_value, field_lb = output_casts[result_index]
                    indices = []
                    for dim in range(len(loop_ivs)):
                        shift = -field_lb[dim]
                        if shift == 0:
                            indices.append(loop_ivs[dim])
                        else:
                            shifted = builder.insert(
                                arith.AddiOp(loop_ivs[dim], index_const(shift))
                            )
                            indices.append(shifted.result)
                    builder.insert(
                        memref.StoreOp(value_map[returned], memref_value, indices)
                    )
            else:
                cloned = op.clone(value_map)
                builder.insert(cloned)

        builder.insert(terminator)


def lower_stencil_to_scf(
    module: Operation,
    *,
    tile_sizes: Optional[Sequence[int]] = None,
    parallel_attr: Optional[str] = None,
) -> int:
    """Lower every stencil.apply under ``module``; return the number lowered."""
    applies = stencil.apply_ops_of(module)
    for apply_op in applies:
        _ApplyLowering(apply_op, tile_sizes, parallel_attr).run()
    # Loads whose temps are no longer used can be dropped.
    for op in list(module.walk()):
        if isinstance(op, stencil.LoadOp) and not op.result.uses:
            op.erase()
    return len(applies)


class ConvertStencilToSCFPass(ModulePass):
    """Lower stencil.apply/store to scf.parallel loop nests over memrefs."""

    name = "convert-stencil-to-scf"
    conversion = True
    options = ("tile_sizes", "parallel_attr")

    def __init__(
        self,
        tile_sizes: Optional[Sequence[int]] = None,
        parallel_attr: Optional[str] = None,
    ):
        self.tile_sizes = tile_sizes
        self.parallel_attr = parallel_attr

    def apply(self, module: Operation) -> None:
        lower_stencil_to_scf(
            module, tile_sizes=self.tile_sizes, parallel_attr=self.parallel_attr
        )
