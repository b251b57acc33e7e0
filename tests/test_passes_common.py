"""Tests of the shared optimisation passes: DCE, CSE, LICM, folding, pipelines."""

import numpy as np
import pytest

from repro.dialects import arith, builtin, func, scf
from repro.ir import (
    Builder,
    FunctionType,
    LambdaPass,
    PassFailedError,
    PassManager,
    Stage,
    VerifyPass,
    f64,
    i32,
    index,
    print_module,
)
from repro.dialects.stencil import AccessOp, ApplyOp, ReturnOp, StencilBoundsAttr, TempType
from repro.ir.core import Block
from repro.transforms.common import (
    CommonSubexpressionEliminationPass,
    ConstantFoldingPass,
    DeadCodeEliminationPass,
    canonicalize,
    eliminate_common_subexpressions,
    eliminate_dead_code,
    fold_constants,
    hoist_loop_invariant_code,
)
from repro.transforms.stencil import ConvertStencilToSCFPass


def make_function(name="f", inputs=(), outputs=()):
    kernel = func.FuncOp(name, FunctionType(list(inputs), list(outputs)))
    return kernel, Builder.at_end(kernel.body.block)


class TestDeadCodeElimination:
    def test_unused_pure_op_removed(self):
        kernel, b = make_function()
        b.insert(arith.ConstantOp.from_int(1, i32))
        b.insert(func.ReturnOp([]))
        module = builtin.ModuleOp([kernel])
        assert eliminate_dead_code(module) == 1
        assert len(kernel.body.block.ops) == 1

    def test_chain_of_dead_ops_removed(self):
        kernel, b = make_function()
        one = b.insert(arith.ConstantOp.from_int(1, i32)).result
        two = b.insert(arith.AddiOp(one, one)).result
        b.insert(arith.MuliOp(two, two))
        b.insert(func.ReturnOp([]))
        module = builtin.ModuleOp([kernel])
        assert eliminate_dead_code(module) == 3

    def test_used_and_impure_ops_kept(self):
        kernel, b = make_function(outputs=[i32])
        one = b.insert(arith.ConstantOp.from_int(1, i32)).result
        b.insert(func.CallOp("extern", [], []))
        b.insert(func.ReturnOp([one]))
        module = builtin.ModuleOp([kernel])
        assert eliminate_dead_code(module) == 0


class TestCommonSubexpressionElimination:
    def test_duplicate_constants_merged(self):
        kernel, b = make_function(outputs=[i32])
        a = b.insert(arith.ConstantOp.from_int(7, i32)).result
        c = b.insert(arith.ConstantOp.from_int(7, i32)).result
        total = b.insert(arith.AddiOp(a, c)).result
        b.insert(func.ReturnOp([total]))
        module = builtin.ModuleOp([kernel])
        assert eliminate_common_subexpressions(module) == 1
        add = next(op for op in module.walk() if isinstance(op, arith.AddiOp))
        assert add.operands[0] is add.operands[1]

    def test_different_attributes_not_merged(self):
        kernel, b = make_function()
        x = b.insert(arith.ConstantOp.from_int(1, i32)).result
        y = b.insert(arith.ConstantOp.from_int(2, i32)).result
        b.insert(arith.AddiOp(x, y))
        b.insert(func.ReturnOp([]))
        assert eliminate_common_subexpressions(builtin.ModuleOp([kernel])) == 0

    def test_stencil_access_offsets_not_conflated(self):
        """Regression: offsets (-1, 0) and (-2, 0) must stay distinct (hash(-1)==hash(-2))."""
        temp = TempType(StencilBoundsAttr([0, 0], [4, 4]), f64)
        block = Block(arg_types=[temp])
        first = AccessOp(block.args[0], [-1, 0])
        second = AccessOp(block.args[0], [-2, 0])
        block.add_op(first)
        block.add_op(second)
        total = arith.AddfOp(first.result, second.result)
        block.add_op(total)
        block.add_op(ReturnOp([total.result]))
        kernel = func.FuncOp("f", FunctionType([], []))
        kernel.body.block.add_op(
            func.ReturnOp([])
        )
        module = builtin.ModuleOp([kernel])
        # Attach the hand-built block through a region-bearing op for CSE to see it.
        from repro.ir import Region
        wrapper = ApplyOp.create(operands=[], result_types=[], regions=[Region(block)])
        kernel.body.block.insert_op_before(wrapper, kernel.body.block.ops[0])
        eliminate_common_subexpressions(module)
        accesses = [op for op in module.walk() if isinstance(op, AccessOp)]
        assert len(accesses) == 2

    def test_memory_ops_not_merged(self):
        from repro.dialects import memref
        from repro.ir import MemRefType

        kernel, b = make_function()
        buffer = b.insert(memref.AllocOp(MemRefType([4], f64))).memref
        zero = b.insert(arith.ConstantOp.from_int(0)).result
        b.insert(memref.LoadOp(buffer, [zero]))
        b.insert(memref.LoadOp(buffer, [zero]))
        b.insert(func.ReturnOp([]))
        # Loads read memory and must not be deduplicated.
        assert eliminate_common_subexpressions(builtin.ModuleOp([kernel])) == 0


class TestConstantFolding:
    def test_integer_and_float_folds(self):
        kernel, b = make_function(outputs=[i32])
        a = b.insert(arith.ConstantOp.from_int(6, i32)).result
        c = b.insert(arith.ConstantOp.from_int(7, i32)).result
        product = b.insert(arith.MuliOp(a, c)).result
        b.insert(func.ReturnOp([product]))
        module = builtin.ModuleOp([kernel])
        assert fold_constants(module) >= 1
        returned = next(op for op in module.walk() if isinstance(op, func.ReturnOp))
        producer = returned.operands[0].owner
        assert isinstance(producer, arith.ConstantOp)
        assert producer.literal() == 42

    def test_cmpi_and_select_fold(self):
        kernel, b = make_function(outputs=[i32])
        one = b.insert(arith.ConstantOp.from_int(1, i32)).result
        two = b.insert(arith.ConstantOp.from_int(2, i32)).result
        cmp = b.insert(arith.CmpiOp("slt", one, two)).result
        chosen = b.insert(arith.SelectOp(cmp, one, two)).result
        b.insert(func.ReturnOp([chosen]))
        module = builtin.ModuleOp([kernel])
        fold_constants(module)
        returned = next(op for op in module.walk() if isinstance(op, func.ReturnOp))
        assert isinstance(returned.operands[0].owner, arith.ConstantOp)
        assert returned.operands[0].owner.literal() == 1

    def test_algebraic_identities(self):
        kernel, b = make_function(outputs=[f64])
        x = kernel.body.block.add_arg(f64)
        kernel.attributes["function_type"] = FunctionType([f64], [f64])
        zero = b.insert(arith.ConstantOp.from_float(0.0, f64)).result
        one = b.insert(arith.ConstantOp.from_float(1.0, f64)).result
        plus_zero = b.insert(arith.AddfOp(x, zero)).result
        times_one = b.insert(arith.MulfOp(plus_zero, one)).result
        b.insert(func.ReturnOp([times_one]))
        module = builtin.ModuleOp([kernel])
        fold_constants(module)
        returned = next(op for op in module.walk() if isinstance(op, func.ReturnOp))
        assert returned.operands[0] is x

    def test_division_by_zero_not_crashing(self):
        kernel, b = make_function(outputs=[i32])
        a = b.insert(arith.ConstantOp.from_int(1, i32)).result
        z = b.insert(arith.ConstantOp.from_int(0, i32)).result
        q = b.insert(arith.DivSIOp(a, z)).result
        b.insert(func.ReturnOp([q]))
        fold_constants(builtin.ModuleOp([kernel]))  # must not raise


def _fold_float(op_class, lhs, rhs):
    """Fold ``op_class(lhs, rhs)`` over f64 constants; the folded literal or None."""
    kernel, b = make_function(outputs=[f64])
    x = b.insert(arith.ConstantOp.from_float(lhs, f64)).result
    y = b.insert(arith.ConstantOp.from_float(rhs, f64)).result
    b.insert(func.ReturnOp([b.insert(op_class(x, y)).result]))
    fold_constants(builtin.ModuleOp([kernel]))
    producer = kernel.body.block.last_op.operands[0].owner
    return producer.literal() if isinstance(producer, arith.ConstantOp) else None


class TestFoldingMatchesTheWalker:
    """A fold computes what the tree walker computes (NumPy scalar semantics)."""

    @pytest.mark.parametrize("lhs,rhs", [(1.0, 0.0), (-1.0, 0.0), (1.0, -0.0), (0.0, 0.0)])
    def test_divf_by_a_zero_constant_is_left_unfolded(self, lhs, rhs):
        # The walker raises ZeroDivisionError there; IEEE would give -inf or NaN.
        assert _fold_float(arith.DivfOp, lhs, rhs) is None

    @pytest.mark.parametrize("op_class,numpy_fn,lhs,rhs", [
        (arith.MaximumfOp, np.maximum, 1.0, float("nan")),
        (arith.MaximumfOp, np.maximum, -0.0, 0.0),
        (arith.MinimumfOp, np.minimum, float("nan"), 1.0),
        (arith.MinimumfOp, np.minimum, 0.0, -0.0),
    ])
    def test_maximumf_and_minimumf_fold_like_numpy(self, op_class, numpy_fn, lhs, rhs):
        folded = _fold_float(op_class, lhs, rhs)
        expected = float(numpy_fn(lhs, rhs))
        assert folded is not None
        assert np.array_equal(np.float64(folded), np.float64(expected), equal_nan=True)
        assert np.signbit(folded) == np.signbit(expected)


class TestLoopInvariantCodeMotion:
    def test_invariant_hoisted(self):
        kernel, b = make_function(inputs=[index, f64])
        upper, value = kernel.args
        zero = b.insert(arith.ConstantOp.from_int(0)).result
        one = b.insert(arith.ConstantOp.from_int(1)).result
        loop = scf.ForOp(zero, upper, one)
        b.insert(loop)
        inner = Builder.at_end(loop.body.block)
        invariant = inner.insert(arith.MulfOp(value, value))
        inner.insert(arith.AddfOp(invariant.result, invariant.result))
        inner.insert(scf.YieldOp([]))
        b.insert(func.ReturnOp([]))
        module = builtin.ModuleOp([kernel])
        hoisted = hoist_loop_invariant_code(module)
        assert hoisted >= 1
        assert invariant.parent_block is kernel.body.block

    def test_iv_dependent_not_hoisted(self):
        kernel, b = make_function(inputs=[index])
        zero = b.insert(arith.ConstantOp.from_int(0)).result
        one = b.insert(arith.ConstantOp.from_int(1)).result
        loop = scf.ForOp(zero, kernel.args[0], one)
        b.insert(loop)
        inner = Builder.at_end(loop.body.block)
        dependent = inner.insert(arith.AddiOp(loop.induction_variable, one))
        inner.insert(scf.YieldOp([]))
        b.insert(func.ReturnOp([]))
        hoist_loop_invariant_code(builtin.ModuleOp([kernel]))
        assert dependent.parent_block is loop.body.block


def _is_a_fixpoint(rewrite, module):
    """A second application of ``rewrite`` changes nothing and says so."""
    printed = print_module(module)
    assert rewrite(module) == 0
    assert print_module(module) == printed


class TestOneSweepReachesTheFixpoint:
    def test_a_fold_chain_feeds_constants_into_a_nested_region(self):
        kernel, b = make_function(inputs=[index])
        two = b.insert(arith.ConstantOp.from_int(2)).result
        three = b.insert(arith.ConstantOp.from_int(3)).result
        five = b.insert(arith.AddiOp(two, three)).result
        one = b.insert(arith.ConstantOp.from_int(1)).result
        loop = b.insert(scf.ForOp(two, kernel.args[0], one))
        body = Builder.at_end(loop.body.block)
        ten = body.insert(arith.MuliOp(five, two)).result
        body.insert(func.CallOp("sink", [body.insert(arith.AddiOp(loop.induction_variable, ten)).result], []))
        body.insert(scf.YieldOp([]))
        b.insert(func.ReturnOp([]))
        module = builtin.ModuleOp([kernel])
        assert canonicalize(module) > 0
        folded = loop.body.block.ops[0]
        assert isinstance(folded, arith.ConstantOp) and folded.literal() == 10
        assert not any(isinstance(op, arith.MuliOp) for op in module.walk())
        for rewrite in (canonicalize, fold_constants, eliminate_common_subexpressions,
                        eliminate_dead_code):
            _is_a_fixpoint(rewrite, module)

    def test_a_dead_chain_across_a_nested_region_goes_in_one_call(self):
        kernel, b = make_function(inputs=[index])
        zero = b.insert(arith.ConstantOp.from_int(0)).result
        one = b.insert(arith.ConstantOp.from_int(1)).result
        x = b.insert(arith.ConstantOp.from_int(7)).result
        y = b.insert(arith.AddiOp(x, x)).result
        loop = b.insert(scf.ForOp(zero, kernel.args[0], one))
        body = Builder.at_end(loop.body.block)
        body.insert(arith.MuliOp(y, y))
        body.insert(scf.YieldOp([]))
        b.insert(func.ReturnOp([]))
        module = builtin.ModuleOp([kernel])
        assert eliminate_dead_code(module) == 3
        assert [op.name for op in loop.body.block.ops] == ["scf.yield"]
        _is_a_fixpoint(eliminate_dead_code, module)

    def test_licm_keeps_the_order_of_repeated_sweeps(self):
        """An op hoisted out of an inner loop leaves the outer loop after the
        outer loop's own invariants, also those placed after the inner loop."""
        kernel, b = make_function(inputs=[index, f64])
        n, v = kernel.args
        zero = b.insert(arith.ConstantOp.from_int(0)).result
        one = b.insert(arith.ConstantOp.from_int(1)).result
        outer = b.insert(scf.ForOp(zero, n, one))
        body = Builder.at_end(outer.body.block)
        before = body.insert(arith.MulfOp(v, v))
        inner = body.insert(scf.ForOp(zero, n, one))
        nested = Builder.at_end(inner.body.block)
        deepest = nested.insert(arith.AddfOp(v, v))
        nested.insert(scf.YieldOp([]))
        after = body.insert(arith.SubfOp(v, v))
        body.insert(scf.YieldOp([]))
        b.insert(func.ReturnOp([]))
        module = builtin.ModuleOp([kernel])
        assert hoist_loop_invariant_code(module) == 4
        assert kernel.body.block.ops[2:6] == [before, after, deepest, outer]
        _is_a_fixpoint(hoist_loop_invariant_code, module)


class TestPassManager:
    def test_pipeline_runs_and_reports(self):
        kernel, b = make_function()
        x = b.insert(arith.ConstantOp.from_int(2, i32)).result
        b.insert(arith.AddiOp(x, x))
        b.insert(func.ReturnOp([]))
        module = builtin.ModuleOp([kernel])
        pm = PassManager([
            Stage("fold", (ConstantFoldingPass(),)),
            Stage("clean", (CommonSubexpressionEliminationPass(),
                            DeadCodeEliminationPass())),
        ])
        assert pm.pipeline_string() == "fold(constant-folding) clean(cse,dce)"
        report = pm.run(module)
        assert [stat.pass_name for stat in report.statistics] == [
            "constant-folding", "cse", "dce"]
        # Ops are counted once per pass boundary: each pass starts where the
        # previous one ended, and the last count is the module as it stands.
        for earlier, later in zip(report.statistics, report.statistics[1:]):
            assert earlier.ops_after == later.ops_before
        assert report.statistics[-1].ops_after == sum(1 for _ in module.walk())
        assert sum(stat.ops_delta for stat in report.statistics) < 0
        assert "dce" in report.summary()
        assert len(kernel.body.block.ops) == 1  # only the return survives

    def test_lambda_pass(self):
        seen = []
        module = builtin.ModuleOp([])
        probe = LambdaPass("probe", lambda m: seen.append(m))
        PassManager([Stage("only", (probe,))]).run(module)
        assert seen == [module]

    def test_options_show_in_the_pipeline_string(self):
        assert str(ConvertStencilToSCFPass()) == "convert-stencil-to-scf"
        assert (str(ConvertStencilToSCFPass(tile_sizes=(8, 4)))
                == "convert-stencil-to-scf{tile_sizes=(8, 4)}")

    def test_a_raising_pass_names_itself_and_its_stage(self):
        def explode(m):
            raise ValueError("boom")

        manager = PassManager([Stage("lowering", (LambdaPass("bad", explode),))])
        with pytest.raises(PassFailedError, match="'bad' of stage 'lowering'.*boom") as info:
            manager.run(builtin.ModuleOp([]))
        assert isinstance(info.value.__cause__, ValueError)

    def test_a_pass_that_breaks_the_ir_names_itself_and_its_stage(self):
        kernel, b = make_function()
        b.insert(func.ReturnOp([]))

        def corrupt(m):  # an op after the terminator
            b.insert(arith.ConstantOp.from_int(1, i32))

        manager = PassManager([Stage("lowering", (LambdaPass("bad", corrupt),))])
        with pytest.raises(
            PassFailedError, match="verification failed after pass 'bad' of stage 'lowering'"
        ):
            manager.run(builtin.ModuleOp([kernel]))

    def test_after_a_conversion_only_the_exit_is_verified(self):
        kernel, b = make_function()
        b.insert(func.ReturnOp([]))
        module = builtin.ModuleOp([kernel])

        class Convert(LambdaPass):
            conversion = True

        def corrupt(m):  # an op after the terminator
            b.insert(arith.ConstantOp.from_int(1, i32))

        def repair(m):
            kernel.body.block.ops[-1].erase()

        convert = Convert("convert", lambda m: None)
        broken = LambdaPass("break", corrupt)
        PassManager(
            [Stage("lower", (convert, broken, LambdaPass("repair", repair)))]
        ).run(module)
        with pytest.raises(PassFailedError, match="after pass 'last' of stage 'end'"):
            PassManager([
                Stage("lower", (convert, broken)),
                Stage("end", (LambdaPass("last", lambda m: None),)),
            ]).run(module)

    def test_an_analysis_is_neither_verified_nor_counted(self):
        kernel, b = make_function(outputs=[i32])
        b.insert(func.ReturnOp([]))  # invalid: returns nothing
        module = builtin.ModuleOp([kernel])
        seen = []

        class Probe(LambdaPass):
            analysis = True

        report = PassManager(
            [Stage("look", (Probe("probe", lambda m: seen.append(m)),))]
        ).run(module)
        assert seen == [module] and report.statistics == []
        with pytest.raises(PassFailedError, match="'verify' of stage 'entry'"):
            PassManager([Stage("entry", (VerifyPass(),))]).run(module)

    def test_canonicalize_fixpoint(self):
        kernel, b = make_function(outputs=[i32])
        a = b.insert(arith.ConstantOp.from_int(3, i32)).result
        c = b.insert(arith.ConstantOp.from_int(4, i32)).result
        s1 = b.insert(arith.AddiOp(a, c)).result
        s2 = b.insert(arith.AddiOp(a, c)).result
        total = b.insert(arith.AddiOp(s1, s2)).result
        b.insert(func.ReturnOp([total]))
        module = builtin.ModuleOp([kernel])
        canonicalize(module)
        constants = [op for op in module.walk() if isinstance(op, arith.ConstantOp)]
        assert any(op.literal() == 14 for op in constants)
