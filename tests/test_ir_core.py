"""Tests of the SSA+Regions IR core: values, operations, blocks, regions."""

import pytest

from repro.dialects import arith, builtin, func, scf
from repro.ir import (
    Block,
    Builder,
    FunctionType,
    IRError,
    InsertPoint,
    IntegerAttr,
    Operation,
    Region,
    VerificationError,
    f64,
    i32,
    index,
)
from repro.ir.traits import IsTerminator, Pure, is_pure


def constant(value: int = 1):
    return arith.ConstantOp.from_int(value, i32)


class TestDefUse:
    def test_operands_register_uses(self):
        a = constant(1)
        b = constant(2)
        add = arith.AddiOp(a.result, b.result)
        assert len(a.result.uses) == 1
        assert a.result.uses[0].operation is add
        assert add.operands == (a.result, b.result)

    def test_set_operand_updates_uses(self):
        a, b, c = constant(1), constant(2), constant(3)
        add = arith.AddiOp(a.result, b.result)
        add.set_operand(0, c.result)
        assert not a.result.uses
        assert c.result.uses[0].operation is add

    def test_replace_by_rewrites_all_uses(self):
        a, b = constant(1), constant(2)
        add1 = arith.AddiOp(a.result, a.result)
        add2 = arith.AddiOp(a.result, b.result)
        a.result.replace_by(b.result)
        assert not a.result.uses
        assert all(op is b.result for op in add1.operands)
        assert add2.operands[0] is b.result

    def test_operands_setter_replaces_all(self):
        a, b, c = constant(1), constant(2), constant(3)
        add = arith.AddiOp(a.result, b.result)
        add.operands = [c.result, c.result]
        assert not a.result.uses and not b.result.uses
        assert len(c.result.uses) == 2

    def test_non_ssa_operand_rejected(self):
        with pytest.raises(IRError):
            Operation(operands=[42])  # type: ignore[list-item]


class TestBlocksAndRegions:
    def test_block_add_and_detach(self):
        block = Block()
        op = constant()
        block.add_op(op)
        assert op.parent is block
        block.detach_op(op)
        assert op.parent is None
        assert not block.ops

    def test_op_cannot_be_attached_twice(self):
        block1, block2 = Block(), Block()
        op = constant()
        block1.add_op(op)
        with pytest.raises(IRError):
            block2.add_op(op)

    def test_insert_before_and_after(self):
        block = Block()
        first, second, third = constant(1), constant(2), constant(3)
        block.add_op(second)
        block.insert_op_before(first, second)
        block.insert_op_after(third, second)
        assert block.ops == [first, second, third]

    def test_block_arguments(self):
        block = Block(arg_types=[i32, f64])
        assert [a.type for a in block.args] == [i32, f64]
        extra = block.add_arg(index)
        assert extra.index == 2
        block.erase_arg(extra)
        assert len(block.args) == 2

    def test_erase_used_block_arg_fails(self):
        block = Block(arg_types=[i32])
        arith.AddiOp(block.args[0], block.args[0])
        with pytest.raises(IRError):
            block.erase_arg(block.args[0])

    def test_single_block_region_accessors(self):
        region = Region(Block(ops=[constant()]))
        assert len(region.ops) == 1
        empty = Region()
        with pytest.raises(IRError):
            _ = empty.block

    def test_parent_navigation(self):
        module = builtin.ModuleOp([])
        kernel = func.FuncOp("f", FunctionType([], []))
        module.add_op(kernel)
        inner = constant()
        kernel.body.block.add_op(inner)
        assert inner.parent_op is kernel
        assert kernel.parent_op is module
        assert inner.get_parent_of_type(builtin.ModuleOp) is module


class TestWalkCloneErase:
    def test_walk_visits_nested_ops(self):
        module = builtin.ModuleOp([])
        kernel = func.FuncOp("f", FunctionType([], []))
        module.add_op(kernel)
        kernel.body.block.add_op(constant())
        kernel.body.block.add_op(func.ReturnOp([]))
        names = [op.name for op in module.walk()]
        assert names == ["builtin.module", "func.func", "arith.constant", "func.return"]

    @staticmethod
    def _tree():
        """``root`` with two regions, the first of two blocks; one op nests a region."""
        a1, a2, b1, c1 = (Operation.create() for _ in range(4))
        inner = Operation.create(regions=[Region(Block(ops=[c1]))])
        root = Operation.create(regions=[
            Region([Block(ops=[a1, inner]), Block(ops=[a2])]),
            Region(Block(ops=[b1])),
        ])
        return root, a1, inner, c1, a2, b1

    def test_walk_is_pre_order_over_regions_and_blocks(self):
        root, a1, inner, c1, a2, b1 = self._tree()
        assert list(root.walk()) == [root, a1, inner, c1, a2, b1]
        assert list(root.regions[0].walk()) == [a1, inner, c1, a2]
        assert list(root.regions[0].blocks[0].walk()) == [a1, inner, c1]

    def test_reverse_walk_goes_back_to_front_but_keeps_ops_before_their_contents(self):
        root, a1, inner, c1, a2, b1 = self._tree()
        assert list(root.walk(reverse=True)) == [root, b1, a2, inner, c1, a1]

    def test_erasing_the_current_op_still_walks_its_contents_and_its_successors(self):
        root, a1, inner, c1, a2, b1 = self._tree()
        seen = []
        for op in root.walk():
            seen.append(op)
            if op is inner:
                op.erase()
        assert seen == [root, a1, inner, c1, a2, b1]
        assert inner.parent is None and root.regions[0].blocks[0].ops == [a1]

    def test_ops_inserted_around_the_current_op_are_not_visited(self):
        root, a1, inner, c1, a2, b1 = self._tree()
        block = root.regions[0].blocks[0]
        before, after = Operation.create(), Operation.create()
        seen = []
        for op in root.walk():
            seen.append(op)
            if op is a1:
                block.insert_op_before(before, a1)
                block.insert_op_after(after, a1)
        assert seen == [root, a1, inner, c1, a2, b1]
        assert block.ops == [before, a1, after, inner]

    def test_erase_with_uses_fails(self):
        a = constant()
        arith.AddiOp(a.result, a.result)
        with pytest.raises(IRError):
            a.erase()

    def test_erase_detaches_and_drops_uses(self):
        block = Block()
        a = constant()
        block.add_op(a)
        add = arith.AddiOp(a.result, a.result)
        block.add_op(add)
        add.erase()
        assert not a.result.uses
        assert block.ops == [a]

    def test_clone_remaps_nested_values(self):
        zero = constant(0)
        ten = constant(10)
        one = constant(1)
        loop = scf.ForOp(zero.result, ten.result, one.result)
        body = Builder.at_end(loop.body.block)
        doubled = body.insert(arith.AddiOp(loop.induction_variable, loop.induction_variable))
        body.insert(scf.YieldOp([]))
        cloned = loop.clone()
        assert cloned is not loop
        cloned_add = cloned.body.block.ops[0]
        # The cloned add must use the *cloned* induction variable.
        assert cloned_add.operands[0] is cloned.body.block.args[0]
        assert doubled.operands[0] is loop.body.block.args[0]

    def test_clone_preserves_attributes(self):
        op = constant(42)
        cloned = op.clone()
        assert cloned.attributes["value"] == IntegerAttr(42, i32)


class TestBuilder:
    def test_builder_positions(self):
        block = Block()
        builder = Builder.at_end(block)
        builder.insert(constant(1))
        third = builder.insert(constant(3))
        Builder.before(third).insert(constant(2))
        Builder.after(third).insert(constant(4))
        values = [op.attributes["value"].value for op in block.ops]
        assert values == [1, 2, 3, 4]

    def test_insert_point_after_last(self):
        block = Block(ops=[constant(1)])
        point = InsertPoint.after(block.ops[0])
        Builder(point).insert(constant(2))
        assert len(block.ops) == 2


class TestVerification:
    def test_valid_module_verifies(self):
        module = builtin.ModuleOp([func.FuncOp("f", FunctionType([], []))])
        module.ops[0].body.block.add_op(func.ReturnOp([]))
        module.verify()

    def test_terminator_must_be_last(self):
        kernel = func.FuncOp("f", FunctionType([], []))
        kernel.body.block.add_op(func.ReturnOp([]))
        kernel.body.block.add_op(constant())
        with pytest.raises(VerificationError):
            builtin.ModuleOp([kernel]).verify()

    def test_return_arity_checked(self):
        kernel = func.FuncOp("f", FunctionType([], [i32]))
        kernel.body.block.add_op(func.ReturnOp([]))
        with pytest.raises(VerificationError):
            builtin.ModuleOp([kernel]).verify()

    def test_use_before_def_rejected(self):
        block = Block()
        a = constant(1)
        b = constant(2)
        add = arith.AddiOp(a.result, b.result)
        block.add_op(add)
        block.add_op(a)
        block.add_op(b)
        module = builtin.ModuleOp([])
        kernel = func.FuncOp("f", FunctionType([], []), Region(block))
        module.add_op(kernel)
        with pytest.raises(VerificationError):
            module.verify()

    def test_mismatched_binary_operands_rejected(self):
        a = arith.ConstantOp.from_int(1, i32)
        b = arith.ConstantOp.from_float(1.0, f64)
        add = arith.AddiOp.create(
            operands=[a.result, b.result], result_types=[i32]
        )
        with pytest.raises(VerificationError):
            add.verify()


class TestTraits:
    def test_pure_detection(self):
        assert is_pure(constant())
        assert not is_pure(func.CallOp("f", [], []))

    def test_trait_queries(self):
        ret = func.ReturnOp([])
        assert ret.has_trait(IsTerminator)
        assert not ret.has_trait(Pure) or True  # ReturnOp purity is not required
        assert constant().has_trait(Pure)

    def test_has_parent_trait(self):
        ret = func.ReturnOp([])
        block = Block()
        block.add_op(ret)
        module = builtin.ModuleOp([])
        # func.return nested directly in a module (not a func.func) is invalid.
        module.body.block.add_op(constant())
        with pytest.raises(Exception):
            wrapper = func.FuncOp("f", FunctionType([], []))
            wrapper.body.block.add_op(scf.YieldOp([]))
            ret2 = func.ReturnOp([])
            scf_if = scf.IfOp(arith.ConstantOp.from_int(1, i32).result)
            scf_if.then_region.block.add_op(ret2)
            ret2.verify()
