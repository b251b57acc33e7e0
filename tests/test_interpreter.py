"""Tests of the IR interpreter: arithmetic, control flow, memory, functions."""

import numpy as np
import pytest

from repro.core import compile_stencil_program, dmp_target
from repro.dialects import arith, builtin, func, memref, scf
from repro.interp import Interpreter, InterpreterError, MemRefValue
from repro.ir import Builder, FunctionType, MemRefType, Operation, f64, i32, index
from tests.conftest import build_jacobi_module, run_spmd


def make_kernel(inputs, outputs):
    kernel = func.FuncOp("kernel", FunctionType(inputs, outputs))
    return kernel, Builder.at_end(kernel.body.block)


def run(module, *args, function="kernel"):
    return Interpreter(module).call(function, *args)


class TestArithmetic:
    def test_integer_arithmetic(self):
        kernel, b = make_kernel([i32, i32], [i32])
        x, y = kernel.args
        total = b.insert(arith.AddiOp(x, y)).result
        product = b.insert(arith.MuliOp(total, x)).result
        b.insert(func.ReturnOp([product]))
        assert run(builtin.ModuleOp([kernel]), 3, 4) == [21]

    def test_float_arithmetic_and_compare(self):
        kernel, b = make_kernel([f64, f64], [f64]);
        x, y = kernel.args
        quotient = b.insert(arith.DivfOp(x, y)).result
        is_bigger = b.insert(arith.CmpfOp("ogt", quotient, y)).result
        chosen = b.insert(arith.SelectOp(is_bigger, quotient, y)).result
        b.insert(func.ReturnOp([chosen]))
        assert run(builtin.ModuleOp([kernel]), 8.0, 2.0) == [4.0]

    def test_casts(self):
        kernel, b = make_kernel([index], [f64])
        as_float = b.insert(arith.SIToFPOp(kernel.args[0], f64)).result
        b.insert(func.ReturnOp([as_float]))
        assert run(builtin.ModuleOp([kernel]), 7) == [7.0]

    def test_integer_min_max(self):
        kernel, b = make_kernel([i32, i32], [i32, i32])
        lo = b.insert(arith.MinSIOp(*kernel.args)).result
        hi = b.insert(arith.MaxSIOp(*kernel.args)).result
        b.insert(func.ReturnOp([lo, hi]))
        assert run(builtin.ModuleOp([kernel]), 9, -3) == [-3, 9]


class TestControlFlow:
    def test_for_loop_with_iter_args(self):
        # Sum 0..n-1 via a loop-carried accumulator.
        kernel, b = make_kernel([index], [index])
        zero = b.insert(arith.ConstantOp.from_int(0)).result
        one = b.insert(arith.ConstantOp.from_int(1)).result
        loop = scf.ForOp(zero, kernel.args[0], one, iter_args=[zero])
        b.insert(loop)
        inner = Builder.at_end(loop.body.block)
        accumulated = inner.insert(
            arith.AddiOp(loop.body.block.args[1], loop.induction_variable)
        ).result
        inner.insert(scf.YieldOp([accumulated]))
        b.insert(func.ReturnOp([loop.results[0]]))
        assert run(builtin.ModuleOp([kernel]), 5) == [10]

    def test_if_with_results(self):
        kernel, b = make_kernel([i32], [i32])
        ten = b.insert(arith.ConstantOp.from_int(10, i32)).result
        cond = b.insert(arith.CmpiOp("sgt", kernel.args[0], ten)).result
        if_op = scf.IfOp(cond, [i32])
        Builder.at_end(if_op.then_region.block).insert(scf.YieldOp([kernel.args[0]]))
        Builder.at_end(if_op.else_region.block).insert(scf.YieldOp([ten]))
        b.insert(if_op)
        b.insert(func.ReturnOp([if_op.results[0]]))
        module = builtin.ModuleOp([kernel])
        assert run(module, 50) == [50]
        assert run(module, 3) == [10]

    def test_parallel_loop_visits_every_cell(self):
        kernel, b = make_kernel([], [])
        buffer = b.insert(memref.AllocOp(MemRefType([4, 3], f64))).memref
        zero = b.insert(arith.ConstantOp.from_int(0)).result
        one = b.insert(arith.ConstantOp.from_int(1)).result
        four = b.insert(arith.ConstantOp.from_int(4)).result
        three = b.insert(arith.ConstantOp.from_int(3)).result
        loop = scf.ParallelOp([zero, zero], [four, three], [one, one])
        inner = Builder.at_end(loop.body.block)
        value = inner.insert(arith.ConstantOp.from_float(1.0, f64)).result
        inner.insert(memref.StoreOp(value, buffer, list(loop.induction_variables)))
        inner.insert(scf.YieldOp([]))
        b.insert(loop)
        b.insert(func.ReturnOp([]))
        interp = Interpreter(builtin.ModuleOp([kernel]))
        interp.call("kernel")
        assert interp.stats.cells_updated == 12

    def test_function_call(self):
        callee, cb = make_kernel([i32], [i32])
        callee.attributes["sym_name"] = __import__("repro").ir.StringAttr("double")
        doubled = cb.insert(arith.AddiOp(callee.args[0], callee.args[0])).result
        cb.insert(func.ReturnOp([doubled]))
        caller, b = make_kernel([i32], [i32])
        call = b.insert(func.CallOp("double", [caller.args[0]], [i32]))
        b.insert(func.ReturnOp([call.results[0]]))
        module = builtin.ModuleOp([callee, caller])
        assert run(module, 21) == [42]

    def test_unknown_function_call_raises(self):
        caller, b = make_kernel([], [])
        b.insert(func.CallOp("missing", [], []))
        b.insert(func.ReturnOp([]))
        with pytest.raises(InterpreterError):
            run(builtin.ModuleOp([caller]))


class TestMemory:
    def test_alloc_load_store(self):
        kernel, b = make_kernel([], [f64])
        buffer = b.insert(memref.AllocOp(MemRefType([4], f64))).memref
        two = b.insert(arith.ConstantOp.from_int(2)).result
        value = b.insert(arith.ConstantOp.from_float(3.5, f64)).result
        b.insert(memref.StoreOp(value, buffer, [two]))
        loaded = b.insert(memref.LoadOp(buffer, [two])).result
        b.insert(func.ReturnOp([loaded]))
        assert run(builtin.ModuleOp([kernel])) == [3.5]

    def test_subview_and_copy_share_semantics(self):
        kernel, b = make_kernel([], [])
        big = b.insert(memref.AllocOp(MemRefType([6], f64))).memref
        small = b.insert(memref.AllocOp(MemRefType([2], f64))).memref
        one = b.insert(arith.ConstantOp.from_int(1)).result
        value = b.insert(arith.ConstantOp.from_float(9.0, f64)).result
        b.insert(memref.StoreOp(value, small, [one]))
        view = b.insert(memref.SubviewOp(big, [2], [2])).result
        b.insert(memref.CopyOp(small, view))
        b.insert(func.ReturnOp([]))
        interp = Interpreter(builtin.ModuleOp([kernel]))
        interp.call("kernel")

    def test_memref_arguments_wrap_numpy(self):
        kernel, b = make_kernel([MemRefType([3], f64)], [f64])
        zero = b.insert(arith.ConstantOp.from_int(0)).result
        loaded = b.insert(memref.LoadOp(kernel.args[0], [zero])).result
        b.insert(func.ReturnOp([loaded]))
        data = np.array([1.5, 2.5, 3.5])
        assert run(builtin.ModuleOp([kernel]), data) == [1.5]

    def test_memref_value_helpers(self):
        value = MemRefValue.allocate((4, 4), f64, origin=(-1, -1))
        assert value.shape == (4, 4)
        assert value.logical_index((0, 0)) == (1, 1)
        view = value.view((1, 1), (2, 2))
        view.array[:] = 5.0
        assert value.array[1, 1] == 5.0

    def test_pointer_round_trip(self):
        kernel, b = make_kernel([], [index])
        buffer = b.insert(memref.AllocOp(MemRefType([4], f64))).memref
        address = b.insert(memref.ExtractAlignedPointerAsIndexOp(buffer)).result
        b.insert(func.ReturnOp([address]))
        interp = Interpreter(builtin.ModuleOp([kernel]))
        (address,) = interp.call("kernel")
        assert interp.buffer_at(address).shape == (4,)

    def test_dealloc_drops_the_pointer(self):
        kernel, b = make_kernel([], [index])
        buffer = b.insert(memref.AllocOp(MemRefType([4], f64))).memref
        address = b.insert(memref.ExtractAlignedPointerAsIndexOp(buffer)).result
        b.insert(memref.DeallocOp(buffer))
        b.insert(func.ReturnOp([address]))
        interp = Interpreter(builtin.ModuleOp([kernel]))
        (address,) = interp.call("kernel")
        with pytest.raises(InterpreterError, match="unknown address"):
            interp.buffer_at(address)

    def test_walked_halo_exchanges_release_their_buffers(self):
        """Each lowered ``MPI_*`` exchange allocates send and receive buffers
        and frees them after the waitall: the registry must not grow with
        the step count."""
        program = compile_stencil_program(
            build_jacobi_module(n=16), dmp_target((2,), lower_to_library_calls=True)
        )

        def registry_after(steps):
            walkers = [None, None]

            def body(comm):
                walker = walkers[comm.rank] = Interpreter(program.module, comm=comm)
                walker.call("kernel", np.zeros(18), np.zeros(18), steps)

            run_spmd(body, 2, timeout=10.0)
            return [len(walker._memory_registry) for walker in walkers]

        short, long = registry_after(2), registry_after(20)
        assert all(after <= before for after, before in zip(long, short))


class TestErrors:
    def test_unknown_operation(self):
        kernel, b = make_kernel([], [])
        class MysteryOp(Operation):
            name = "mystery.op"

        b.insert(MysteryOp())
        b.insert(func.ReturnOp([]))
        with pytest.raises(InterpreterError):
            run(builtin.ModuleOp([kernel]))

    def test_argument_count_checked(self):
        kernel, b = make_kernel([i32], [])
        b.insert(func.ReturnOp([]))
        with pytest.raises(InterpreterError):
            run(builtin.ModuleOp([kernel]))

    def test_missing_function(self):
        with pytest.raises(InterpreterError):
            Interpreter(builtin.ModuleOp([])).call("nope")
