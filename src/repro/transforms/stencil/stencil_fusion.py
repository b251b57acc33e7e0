"""Horizontal fusion of independent stencil.apply operations.

The PW-advection benchmark in the paper contains three independent stencil
computations over three fields; the shared stack fuses them into a single
stencil region (one parallel loop nest, one OpenMP region / GPU kernel).  The
tracer-advection benchmark cannot be fused the same way because of
producer-consumer dependencies between its 24 stencils, which is exactly what
limits its performance in figs. 10a/10b.

This pass fuses apply operations that:

* live in the same block,
* are stored over identical bounds, and
* have no data dependence between each other (no apply in the group consumes,
  directly or through a load/store chain on the same field, a value produced
  by another apply in the group).
"""

from __future__ import annotations

from ...dialects import stencil
from ...ir.builder import Builder
from ...ir.core import Block, Operation, SSAValue
from ...ir.pass_manager import ModulePass


def _stores_of(apply_op: stencil.ApplyOp) -> list[stencil.StoreOp]:
    stores = []
    for result in apply_op.results:
        for use in result.uses:
            if isinstance(use.operation, stencil.StoreOp):
                stores.append(use.operation)
    return stores


def _store_bounds(apply_op: stencil.ApplyOp) -> stencil.StencilBoundsAttr | None:
    stores = _stores_of(apply_op)
    if not stores:
        return None
    bounds = stores[0].bounds
    if any(store.bounds != bounds for store in stores[1:]):
        return None
    return bounds


def _fields_read(apply_op: stencil.ApplyOp) -> set[int]:
    fields = set()
    for operand in apply_op.operands:
        owner = operand.owner
        if isinstance(owner, stencil.LoadOp):
            fields.add(id(owner.field))
    return fields


def _fields_written(apply_op: stencil.ApplyOp) -> set[int]:
    return {id(store.field) for store in _stores_of(apply_op)}


def _independent(first: stencil.ApplyOp, second: stencil.ApplyOp) -> bool:
    """No read-after-write or write-after-write hazards between the two applies."""
    if _fields_written(first) & (_fields_read(second) | _fields_written(second)):
        return False
    if _fields_written(second) & _fields_read(first):
        return False
    return True


def _fusable_groups(block: Block) -> list[list[stencil.ApplyOp]]:
    """Maximal groups of adjacent, independent, same-bounds applies in a block."""
    applies = [op for op in block.ops if isinstance(op, stencil.ApplyOp)]
    groups: list[list[stencil.ApplyOp]] = []
    current: list[stencil.ApplyOp] = []
    for apply_op in applies:
        bounds = _store_bounds(apply_op)
        if bounds is None:
            if len(current) > 1:
                groups.append(current)
            current = []
            continue
        if not current:
            current = [apply_op]
            continue
        same_bounds = _store_bounds(current[0]) == bounds
        independent = all(_independent(existing, apply_op) for existing in current)
        if same_bounds and independent:
            current.append(apply_op)
        else:
            if len(current) > 1:
                groups.append(current)
            current = [apply_op]
    if len(current) > 1:
        groups.append(current)
    return groups


def _fuse_group(group: list[stencil.ApplyOp]) -> stencil.ApplyOp:
    """Merge a group of applies into one apply with concatenated results."""
    # Insert the fused apply where the *first* group member stood, so the
    # stores of earlier members (which follow their apply) still come after
    # the fused computation.
    anchor = group[0]
    builder = Builder.before(anchor)

    merged_operands: list[SSAValue] = []
    operand_slot: dict[int, int] = {}
    for apply_op in group:
        for operand in apply_op.operands:
            if id(operand) not in operand_slot:
                operand_slot[id(operand)] = len(merged_operands)
                merged_operands.append(operand)

    # Operands of later group members (their stencil.load ops) may be defined
    # after the insertion point; hoist those definitions in front of it.
    block = anchor.parent_block
    assert block is not None
    anchor_position = block.ops.index(anchor)
    for operand in merged_operands:
        owner = operand.owner
        if isinstance(owner, Operation) and owner.parent is block:
            if block.ops.index(owner) > anchor_position:
                block.detach_op(owner)
                block.insert_op_before(owner, anchor)
                anchor_position = block.ops.index(anchor)

    result_types = [r.type for apply_op in group for r in apply_op.results]
    fused = stencil.ApplyOp(merged_operands, result_types)
    builder.insert(fused)
    fused_block = fused.body.block
    body_builder = Builder.at_end(fused_block)

    returned_values: list[SSAValue] = []
    for apply_op in group:
        value_map: dict[SSAValue, SSAValue] = {}
        for arg, operand in zip(apply_op.region_args, apply_op.operands):
            value_map[arg] = fused_block.args[operand_slot[id(operand)]]
        for op in apply_op.body.block.ops:
            if isinstance(op, stencil.ReturnOp):
                returned_values.extend(value_map.get(v, v) for v in op.operands)
            else:
                body_builder.insert(op.clone(value_map))
    body_builder.insert(stencil.ReturnOp(returned_values))

    # Re-point stores at the fused results and drop the original applies.
    result_cursor = 0
    for apply_op in group:
        for result in apply_op.results:
            result.replace_by(fused.results[result_cursor])
            result_cursor += 1
        apply_op.erase()
    return fused


def fuse_applies(module: Operation) -> int:
    """Fuse independent stencil.apply groups; return the number of fused groups."""
    fused_groups = 0
    for op in list(module.walk()):
        for region in op.regions:
            for block in region.blocks:
                for group in _fusable_groups(block):
                    if all(apply_op.parent is not None for apply_op in group):
                        _fuse_group(group)
                        fused_groups += 1
    return fused_groups


def count_stencil_regions(module: Operation) -> int:
    """The number of distinct stencil regions (== OpenMP regions / GPU kernels)."""
    return len(stencil.apply_ops_of(module))


class StencilFusionPass(ModulePass):
    """Fuse independent stencil computations into a single stencil region."""

    name = "stencil-fusion"

    def apply(self, module: Operation) -> None:
        fuse_applies(module)
