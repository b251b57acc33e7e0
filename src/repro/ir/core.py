"""Core IR structures: SSA values, operations, blocks and regions.

The design follows MLIR/xDSL: a *module* is an operation containing a region,
regions contain blocks, blocks contain operations, and operations use and
define SSA values.  Def-use chains are maintained eagerly so that rewrites can
ask "who uses this value?" in O(#uses).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional, Sequence, TypeVar

from .attributes import Attribute, TypeAttribute

if TYPE_CHECKING:  # pragma: no cover
    from .traits import OpTrait

OpT = TypeVar("OpT", bound="Operation")


class IRError(Exception):
    """Raised for structural IR violations (bad erasure, dangling uses, ...)."""


class Use:
    """A single use of an SSA value: (operation, operand index)."""

    __slots__ = ("operation", "index")

    def __init__(self, operation: "Operation", index: int):
        self.operation = operation
        self.index = index

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Use)
            and self.operation is other.operation
            and self.index == other.index
        )

    def __hash__(self) -> int:
        return hash((id(self.operation), self.index))


class SSAValue:
    """A value in SSA form; defined once, used by operations."""

    __slots__ = ("type", "uses", "name_hint")

    def __init__(self, type: TypeAttribute):
        self.type = type
        self.uses: list[Use] = []
        self.name_hint: Optional[str] = None

    # -- def-use maintenance ------------------------------------------------
    def add_use(self, use: Use) -> None:
        self.uses.append(use)

    def remove_use(self, use: Use) -> None:
        for i, existing in enumerate(self.uses):
            if existing == use:
                del self.uses[i]
                return
        raise IRError("attempting to remove a use that is not registered")

    def replace_by(self, value: "SSAValue") -> None:
        """Replace every use of this value by ``value``."""
        for use in list(self.uses):
            use.operation.set_operand(use.index, value)
        if value.name_hint is None:
            value.name_hint = self.name_hint

    @property
    def owner(self) -> "Operation | Block":
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        hint = self.name_hint or "?"
        return f"<{type(self).__name__} %{hint}: {self.type}>"


class OpResult(SSAValue):
    """An SSA value produced by an operation."""

    __slots__ = ("op", "index")

    def __init__(self, type: TypeAttribute, op: "Operation", index: int):
        super().__init__(type)
        self.op = op
        self.index = index

    @property
    def owner(self) -> "Operation":
        return self.op


class BlockArgument(SSAValue):
    """An SSA value that is an argument of a block (e.g. a loop induction var)."""

    __slots__ = ("block", "index")

    def __init__(self, type: TypeAttribute, block: "Block", index: int):
        super().__init__(type)
        self.block = block
        self.index = index

    @property
    def owner(self) -> "Block":
        return self.block


class Operation:
    """Base class of all operations.

    Subclasses set the class attribute ``name`` to ``"dialect.opname"`` and
    usually provide a convenience ``__init__``.  The generic constructor
    :meth:`create` is always available (:meth:`clone` rebuilds through it).
    """

    name: str = "builtin.unregistered"
    traits: frozenset = frozenset()

    __slots__ = ("_operands", "results", "attributes", "regions", "parent")

    def __init__(
        self,
        operands: Sequence[SSAValue] = (),
        result_types: Sequence[TypeAttribute] = (),
        attributes: Optional[dict[str, Attribute]] = None,
        regions: Sequence["Region"] = (),
    ):
        self._operands: list[SSAValue] = []
        self.results: list[OpResult] = [
            OpResult(t, self, i) for i, t in enumerate(result_types)
        ]
        self.attributes: dict[str, Attribute] = dict(attributes or {})
        self.regions: list[Region] = []
        self.parent: Optional[Block] = None
        for operand in operands:
            self._append_operand(operand)
        for region in regions:
            self.add_region(region)

    # -- construction helpers ------------------------------------------------
    @classmethod
    def create(
        cls: type[OpT],
        operands: Sequence[SSAValue] = (),
        result_types: Sequence[TypeAttribute] = (),
        attributes: Optional[dict[str, Attribute]] = None,
        regions: Sequence["Region"] = (),
    ) -> OpT:
        """Create an operation bypassing the subclass ``__init__``."""
        op = cls.__new__(cls)
        Operation.__init__(op, operands, result_types, attributes, regions)
        return op

    # -- operand management ---------------------------------------------------
    @property
    def operands(self) -> tuple[SSAValue, ...]:
        return tuple(self._operands)

    @operands.setter
    def operands(self, new_operands: Sequence[SSAValue]) -> None:
        for i, operand in enumerate(self._operands):
            operand.remove_use(Use(self, i))
        self._operands = []
        for operand in new_operands:
            self._append_operand(operand)

    def _append_operand(self, operand: SSAValue) -> None:
        if not isinstance(operand, SSAValue):
            raise IRError(
                f"operand of {self.name} must be an SSAValue, got {type(operand).__name__}"
            )
        index = len(self._operands)
        self._operands.append(operand)
        operand.add_use(Use(self, index))

    def set_operand(self, index: int, operand: SSAValue) -> None:
        self._operands[index].remove_use(Use(self, index))
        self._operands[index] = operand
        operand.add_use(Use(self, index))

    # -- region management ----------------------------------------------------
    def add_region(self, region: "Region") -> None:
        if region.parent is not None:
            raise IRError("region is already attached to an operation")
        region.parent = self
        self.regions.append(region)

    # -- navigation -----------------------------------------------------------
    @property
    def parent_block(self) -> Optional["Block"]:
        return self.parent

    @property
    def parent_op(self) -> Optional["Operation"]:
        if self.parent is not None and self.parent.parent is not None:
            return self.parent.parent.parent
        return None

    @property
    def parent_region(self) -> Optional["Region"]:
        if self.parent is not None:
            return self.parent.parent
        return None

    def get_parent_of_type(self, op_type: type[OpT]) -> Optional[OpT]:
        """Walk up the parent chain looking for an enclosing op of a given type."""
        current = self.parent_op
        while current is not None:
            if isinstance(current, op_type):
                return current
            current = current.parent_op
        return None

    def walk(self, reverse: bool = False) -> Iterator["Operation"]:
        """Yield this operation and all nested operations, pre-order."""
        yield self
        regions = reversed(self.regions) if reverse else self.regions
        for region in regions:
            for block in (reversed(region.blocks) if reverse else region.blocks):
                ops = list(block.ops)
                if reverse:
                    ops = list(reversed(ops))
                for op in ops:
                    yield from op.walk(reverse=reverse)

    # -- traits ---------------------------------------------------------------
    def has_trait(self, trait: "type[OpTrait] | OpTrait") -> bool:
        import inspect

        if inspect.isclass(trait):
            return any(isinstance(t, trait) for t in self.traits)
        return trait in self.traits

    # -- mutation -------------------------------------------------------------
    def detach(self) -> None:
        """Remove this operation from its parent block without dropping operands."""
        if self.parent is not None:
            self.parent.detach_op(self)

    def drop_all_references(self) -> None:
        """Drop operand uses of this operation and of all nested operations."""
        for i, operand in enumerate(self._operands):
            operand.remove_use(Use(self, i))
        self._operands = []
        for region in self.regions:
            for block in region.blocks:
                for op in list(block.ops):
                    op.drop_all_references()

    def erase(self, safe: bool = True) -> None:
        """Detach and destroy this operation.

        With ``safe=True`` (the default) erasing an operation whose results
        still have uses raises :class:`IRError`.
        """
        if safe:
            for result in self.results:
                if result.uses:
                    raise IRError(
                        f"erasing {self.name} whose result still has "
                        f"{len(result.uses)} use(s)"
                    )
        self.detach()
        self.drop_all_references()

    def clone(
        self, value_map: Optional[dict[SSAValue, SSAValue]] = None
    ) -> "Operation":
        """Deep-copy this operation, remapping operands through ``value_map``."""
        value_map = value_map if value_map is not None else {}
        new_operands = [value_map.get(operand, operand) for operand in self._operands]
        cloned = type(self).create(
            operands=new_operands,
            result_types=[r.type for r in self.results],
            attributes=dict(self.attributes),
        )
        for old_res, new_res in zip(self.results, cloned.results):
            value_map[old_res] = new_res
            new_res.name_hint = old_res.name_hint
        for region in self.regions:
            cloned.add_region(region.clone(value_map))
        return cloned

    # -- verification ----------------------------------------------------------
    def verify_(self) -> None:
        """Op-specific verification hook; overridden by dialect operations."""

    def verify(self) -> None:
        """Verify this operation and everything nested inside it."""
        from .verifier import verify_operation

        verify_operation(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


class Block:
    """A straight-line list of operations with block arguments."""

    __slots__ = ("args", "ops", "parent")

    def __init__(
        self,
        arg_types: Sequence[TypeAttribute] = (),
        ops: Sequence[Operation] = (),
    ):
        self.args: list[BlockArgument] = [
            BlockArgument(t, self, i) for i, t in enumerate(arg_types)
        ]
        self.ops: list[Operation] = []
        self.parent: Optional[Region] = None
        for op in ops:
            self.add_op(op)

    # -- argument management ---------------------------------------------------
    def insert_arg(self, type: TypeAttribute, index: int) -> BlockArgument:
        arg = BlockArgument(type, self, index)
        self.args.insert(index, arg)
        for i, existing in enumerate(self.args):
            existing.index = i
        return arg

    def add_arg(self, type: TypeAttribute) -> BlockArgument:
        return self.insert_arg(type, len(self.args))

    def erase_arg(self, arg: BlockArgument) -> None:
        if arg.uses:
            raise IRError("erasing a block argument that still has uses")
        self.args.remove(arg)
        for i, existing in enumerate(self.args):
            existing.index = i

    # -- op management -----------------------------------------------------------
    def add_op(self, op: Operation) -> Operation:
        if op.parent is not None:
            raise IRError(f"operation {op.name} is already attached to a block")
        op.parent = self
        self.ops.append(op)
        return op

    def insert_op_before(self, new_op: Operation, anchor: Operation) -> None:
        if anchor.parent is not self:
            raise IRError("anchor operation does not belong to this block")
        if new_op.parent is not None:
            raise IRError("operation is already attached to a block")
        new_op.parent = self
        self.ops.insert(self.ops.index(anchor), new_op)

    def insert_op_after(self, new_op: Operation, anchor: Operation) -> None:
        if anchor.parent is not self:
            raise IRError("anchor operation does not belong to this block")
        if new_op.parent is not None:
            raise IRError("operation is already attached to a block")
        new_op.parent = self
        self.ops.insert(self.ops.index(anchor) + 1, new_op)

    def detach_op(self, op: Operation) -> Operation:
        if op.parent is not self:
            raise IRError("operation does not belong to this block")
        self.ops.remove(op)
        op.parent = None
        return op

    @property
    def last_op(self) -> Optional[Operation]:
        return self.ops[-1] if self.ops else None

    @property
    def parent_op(self) -> Optional[Operation]:
        return self.parent.parent if self.parent is not None else None

    def walk(self) -> Iterator[Operation]:
        for op in list(self.ops):
            yield from op.walk()

    def clone(self, value_map: Optional[dict[SSAValue, SSAValue]] = None) -> "Block":
        value_map = value_map if value_map is not None else {}
        new_block = Block(arg_types=[a.type for a in self.args])
        for old_arg, new_arg in zip(self.args, new_block.args):
            value_map[old_arg] = new_arg
            new_arg.name_hint = old_arg.name_hint
        for op in self.ops:
            new_block.add_op(op.clone(value_map))
        return new_block

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Block with {len(self.ops)} ops>"


class Region:
    """A list of blocks owned by an operation."""

    __slots__ = ("blocks", "parent")

    def __init__(self, blocks: Sequence[Block] | Block = ()):
        self.blocks: list[Block] = []
        self.parent: Optional[Operation] = None
        if isinstance(blocks, Block):
            blocks = (blocks,)
        for block in blocks:
            self.add_block(block)

    def add_block(self, block: Block) -> Block:
        if block.parent is not None:
            raise IRError("block is already attached to a region")
        block.parent = self
        self.blocks.append(block)
        return block

    @property
    def block(self) -> Block:
        """The single block of a single-block region."""
        if len(self.blocks) != 1:
            raise IRError(
                f"expected exactly one block in region, found {len(self.blocks)}"
            )
        return self.blocks[0]

    @property
    def ops(self) -> list[Operation]:
        """Operations of a single-block region."""
        return self.block.ops

    def walk(self) -> Iterator[Operation]:
        for block in self.blocks:
            yield from block.walk()

    def clone(self, value_map: Optional[dict[SSAValue, SSAValue]] = None) -> "Region":
        value_map = value_map if value_map is not None else {}
        new_region = Region()
        for block in self.blocks:
            new_region.add_block(block.clone(value_map))
        return new_region

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Region with {len(self.blocks)} blocks>"
