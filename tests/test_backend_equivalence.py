"""Equivalence of the execution tiers: tree walker vs megakernel.

Every compiled program must produce *bit-identical* field contents and
identical ``cells_updated`` / ``halo_swaps`` statistics regardless of which
tier executes it; the vectorized nests of the megakernel are purely a
performance feature.
"""

import numpy as np
import pytest

from repro.core import (
    ExecutionError,
    Session,
    compile_stencil_program,
    cpu_target,
    default_session,
    dmp_target,
    fpga_target,
    gpu_target,
    smp_target,
)
from repro.dialects import arith, builtin, func, memref, scf
from repro.frontends.psyclone import reference_execute
from repro.interp import (
    CompiledNest,
    Interpreter,
    VectorizeFallback,
    compile_kernel,
    compile_loop_nest_or_fallback,
)
from repro.ir import Builder, FunctionType, MemRefType, f64, index
from repro.core.executor import core_field_slices, local_field_slices
from repro.transforms.distribute import GridSlicingStrategy
from repro.workloads import acoustic_wave, heat_diffusion, masked_tracer_advection
from tests.conftest import (
    assert_engaged,
    build_jacobi_module,
    jacobi_reference,
    run_compiled,
)


def _run(program, arguments, scalars=(), **config):
    """One-shot run (plan, run, close) on the process-wide default session."""
    return default_session().run(program, arguments, scalars, **config)


def _jacobi_inputs(n, halo, seed):
    rng = np.random.default_rng(seed)
    data = np.zeros(n + 2 * halo)
    data[halo : halo + n] = rng.standard_normal(n)
    return data


def _run_both(program, make_args, scalars, function=None, ranks=1):
    """Run one program on the tree walker and on the megakernel.

    Each run gets fresh ``make_args()``.  The megakernel must run on every
    rank with every nest fused (counted by ``assert_engaged``), and the two
    must agree bit for bit with equal cell, launch, halo and message counts.
    Returns the fields both runs left behind.
    """
    walked, compiled = make_args(), make_args()
    with Session() as session:
        reference = session.run(
            program, walked, scalars, function=function, backend="interpreter"
        )
        result = session.run(program, compiled, scalars, function=function)
        assert_engaged(session, program, ranks)
    for a, b in zip(walked, compiled):
        assert np.array_equal(a, b)
    for mine, theirs in zip(result.statistics, reference.statistics):
        assert mine.cells_updated == theirs.cells_updated
        assert mine.kernel_launches == theirs.kernel_launches
        assert mine.halo_swaps == theirs.halo_swaps
    assert result.messages_sent == reference.messages_sent
    return compiled


class TestSingleRankEquivalence:
    @pytest.mark.parametrize(
        "target",
        [
            cpu_target(),
            cpu_target(tile_sizes=(3,)),
            smp_target(threads=4),
            gpu_target(),
            fpga_target(),
        ],
        ids=["cpu", "cpu-tiled", "smp", "gpu", "fpga"],
    )
    def test_jacobi_bit_identical_across_targets(self, target):
        program = compile_stencil_program(build_jacobi_module(), target)
        initial = _jacobi_inputs(8, 1, seed=11)
        fields = _run_both(program, lambda: [initial.copy(), initial.copy()], [3])
        assert np.allclose(fields[1], jacobi_reference(initial, 3))

    @pytest.mark.parametrize("seed", range(5))
    def test_jacobi_property_random_configurations(self, seed):
        """Property-style sweep: random sizes/halos/coefficients/steps."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 16))
        halo = int(rng.integers(1, 3))
        steps = int(rng.integers(0, 5))
        coefficient = float(rng.uniform(0.1, 0.9))
        program = compile_stencil_program(
            build_jacobi_module(n, halo, coefficient), cpu_target()
        )
        initial = _jacobi_inputs(n, halo, seed=seed + 100)
        _run_both(program, lambda: [initial.copy(), initial.copy()], [steps])

    @pytest.mark.parametrize("space_order", [2, 4])
    def test_devito_heat_bit_identical(self, space_order):
        workload = heat_diffusion((12, 12), space_order=space_order, dtype=np.float64)
        workload.initialise(seed=5)
        operator = workload.operator(backend="xdsl")
        fields = operator._field_arguments()
        _run_both(operator.compile(workload.dt),
                  lambda: [a.copy() for a in fields], [3])

    def test_devito_wave_inplace_buffer_bit_identical(self):
        # The wave update stores into the buffer it also reads (t-1) at the
        # same offset: the pointwise-aliasing fast path must stay exact.
        workload = acoustic_wave((8, 8, 8), space_order=2, dtype=np.float64)
        workload.initialise(seed=6)
        operator = workload.operator(backend="xdsl")
        fields = operator._field_arguments()
        _run_both(operator.compile(workload.dt),
                  lambda: [a.copy() for a in fields], [2])


class TestDistributedEquivalence:
    @pytest.mark.parametrize("library_calls", [False, True], ids=["dmp", "mpi"])
    def test_distributed_jacobi_bit_identical(self, library_calls):
        initial = _jacobi_inputs(8, 1, seed=21)
        program = compile_stencil_program(
            build_jacobi_module(),
            dmp_target((2,), lower_to_library_calls=library_calls),
        )
        _run_both(program, lambda: [initial.copy(), initial.copy()], [3], ranks=2)


class TestRuntimeFallback:
    def _inplace_shifted_module(self):
        """u[i] = u[i] + u[i+1] over one buffer: per-cell order is observable,
        so the megakernel must refuse to emit it."""
        kernel = func.FuncOp("kernel", FunctionType([MemRefType([10], f64)], []))
        u = kernel.args[0]
        b = Builder.at_end(kernel.body.block)
        zero = b.insert(arith.ConstantOp.from_int(0)).result
        one = b.insert(arith.ConstantOp.from_int(1)).result
        eight = b.insert(arith.ConstantOp.from_int(8)).result
        loop = scf.ParallelOp([zero], [eight], [one])
        inner = Builder.at_end(loop.body.block)
        iv = loop.induction_variables[0]
        here = inner.insert(memref.LoadOp(u, [iv])).result
        shifted_index = inner.insert(arith.AddiOp(iv, one)).result
        there = inner.insert(memref.LoadOp(u, [shifted_index])).result
        total = inner.insert(arith.AddfOp(here, there)).result
        inner.insert(memref.StoreOp(total, u, [iv]))
        inner.insert(scf.YieldOp([]))
        b.insert(loop)
        b.insert(func.ReturnOp([]))
        return builtin.ModuleOp([kernel])

    def test_aliased_shifted_store_falls_back_bit_identical(self):
        module = self._inplace_shifted_module()
        nest = compile_loop_nest_or_fallback(
            next(op for op in module.walk() if isinstance(op, scf.ParallelOp)))
        assert isinstance(nest, CompiledNest)  # statically it looks vectorizable...
        data = np.arange(10, dtype=np.float64)
        expected = data.copy()
        Interpreter(module).call("kernel", expected)
        observed = data.copy()
        _, reason = run_compiled(module, "kernel", observed)
        # ...but the emit-time aliasing check must send it to the tree
        # walker, preserving the sequential prefix-sum-like semantics.
        assert reason is not None
        assert np.array_equal(observed, expected)

    def test_empty_iteration_space(self):
        program = compile_stencil_program(build_jacobi_module(), cpu_target())
        initial = _jacobi_inputs(8, 1, seed=31)
        _run_both(program, lambda: [initial.copy(), initial.copy()], [0])


class TestNestCompiler:
    def test_loop_carried_for_is_rejected(self):
        module = build_jacobi_module()
        time_loop = next(op for op in module.walk() if isinstance(op, scf.ForOp))
        assert isinstance(compile_loop_nest_or_fallback(time_loop), VectorizeFallback)

    def test_plain_for_nest_is_accepted(self):
        kernel = func.FuncOp("fill", FunctionType([MemRefType([6], f64)], []))
        b = Builder.at_end(kernel.body.block)
        zero = b.insert(arith.ConstantOp.from_int(0)).result
        one = b.insert(arith.ConstantOp.from_int(1)).result
        six = b.insert(arith.ConstantOp.from_int(6)).result
        loop = scf.ForOp(zero, six, one)
        inner = Builder.at_end(loop.body.block)
        value = inner.insert(arith.ConstantOp.from_float(2.5, f64)).result
        inner.insert(memref.StoreOp(value, kernel.args[0], [loop.induction_variable]))
        inner.insert(scf.YieldOp([]))
        b.insert(loop)
        b.insert(func.ReturnOp([]))
        module = builtin.ModuleOp([kernel])
        nest = compile_loop_nest_or_fallback(loop)
        assert isinstance(nest, CompiledNest)
        data = np.zeros(6)
        assert run_compiled(module, "fill", data)[1] is None
        assert np.array_equal(data, np.full(6, 2.5))

    def test_data_dependent_control_flow_is_rejected(self):
        kernel = func.FuncOp("kernel", FunctionType([MemRefType([4], f64)], []))
        b = Builder.at_end(kernel.body.block)
        zero = b.insert(arith.ConstantOp.from_int(0)).result
        one = b.insert(arith.ConstantOp.from_int(1)).result
        four = b.insert(arith.ConstantOp.from_int(4)).result
        loop = scf.ParallelOp([zero], [four], [one])
        inner = Builder.at_end(loop.body.block)
        loaded = inner.insert(memref.LoadOp(kernel.args[0], [loop.induction_variables[0]])).result
        threshold = inner.insert(arith.ConstantOp.from_float(0.0, f64)).result
        cond = inner.insert(arith.CmpfOp("ogt", loaded, threshold)).result
        if_op = scf.IfOp(cond)
        Builder.at_end(if_op.then_region.block).insert(scf.YieldOp([]))
        inner.insert(if_op)
        inner.insert(scf.YieldOp([]))
        b.insert(loop)
        b.insert(func.ReturnOp([]))
        assert isinstance(compile_loop_nest_or_fallback(loop), VectorizeFallback)

    def test_kernel_cache_hit(self):
        program = compile_stencil_program(build_jacobi_module(), cpu_target())
        first = program.compiled_kernel("kernel")
        assert program.compiled_kernel("kernel") is first
        assert first.nest_count >= 1


class TestBackendSelection:
    def test_unknown_backend_rejected(self):
        program = compile_stencil_program(build_jacobi_module(), cpu_target())
        with pytest.raises(ExecutionError):
            _run(program, [np.zeros(10), np.zeros(10), 1], backend="jit")

    def test_default_function_requires_unambiguous_name(self):
        from repro.core.pipeline import CompiledProgram
        from repro.machine.kernel_model import characterize_module

        ops = []
        for name in ("zeta", "alpha"):
            fn = func.FuncOp(name, FunctionType([], []))
            Builder.at_end(fn.body.block).insert(func.ReturnOp([]))
            ops.append(fn)
        module = builtin.ModuleOp(ops)
        program = CompiledProgram(
            module=module,
            target=cpu_target(),
            characteristics=characterize_module(module),
            stencil_regions=0,
        )
        with pytest.raises(ExecutionError, match="alpha.*zeta"):
            _run(program, [])


class TestAsymmetricHaloScatterGather:
    def test_round_trip_with_asymmetric_halos(self):
        strategy = GridSlicingStrategy([2, 2])
        halo_lower, halo_upper = (2, 1), (1, 2)
        margin = (2, 2)
        core = (8, 6)
        global_array = np.arange(
            (core[0] + 2 * margin[0]) * (core[1] + 2 * margin[1]), dtype=float
        ).reshape(core[0] + 2 * margin[0], core[1] + 2 * margin[1])
        reconstructed = np.zeros_like(global_array)
        reconstructed[:] = global_array
        locals_ = []
        for rank in range(4):
            local = np.array(global_array[local_field_slices(
                core, strategy, rank, halo_lower, halo_upper, margin
            )])
            start, end = strategy.global_slab(core, rank)
            expected_shape = tuple(
                (e - s) + lo + hi
                for s, e, lo, hi in zip(start, end, halo_lower, halo_upper)
            )
            assert local.shape == expected_shape
            locals_.append(local)
        for rank, local in enumerate(locals_):
            global_slices, local_slices = core_field_slices(
                core, strategy, rank, halo_lower, margin
            )
            reconstructed[global_slices] = local[local_slices]
        assert np.array_equal(reconstructed, global_array)


class TestReviewRegressions:
    """Regression tests for defects found in review of the vectorized backend."""

    def test_parallel_with_inner_for_counts_parallel_points_only(self):
        # scf.parallel(i: 0..4) { scf.for(j: 0..8) { b[i*?]: store } }: the
        # tree walker counts cells_updated once per *parallel* point (4), so
        # the flattened vectorized nest must not count 4*8.
        kernel = func.FuncOp("kernel", FunctionType([MemRefType([4, 8], f64)], []))
        b = Builder.at_end(kernel.body.block)
        zero = b.insert(arith.ConstantOp.from_int(0)).result
        one = b.insert(arith.ConstantOp.from_int(1)).result
        four = b.insert(arith.ConstantOp.from_int(4)).result
        eight = b.insert(arith.ConstantOp.from_int(8)).result
        loop = scf.ParallelOp([zero], [four], [one])
        outer = Builder.at_end(loop.body.block)
        inner_for = scf.ForOp(zero, eight, one)
        outer.insert(inner_for)
        outer.insert(scf.YieldOp([]))
        inner = Builder.at_end(inner_for.body.block)
        value = inner.insert(arith.ConstantOp.from_float(1.0, f64)).result
        inner.insert(
            memref.StoreOp(
                value, kernel.args[0],
                [loop.induction_variables[0], inner_for.induction_variable],
            )
        )
        inner.insert(scf.YieldOp([]))
        b.insert(loop)
        b.insert(func.ReturnOp([]))
        module = builtin.ModuleOp([kernel])
        kernel_compiled = compile_kernel(module, "kernel")
        assert kernel_compiled.nest_for(loop) is not None  # flattened 2D nest

        data_interp, data_vector = np.zeros((4, 8)), np.zeros((4, 8))
        interp = Interpreter(module)
        interp.call("kernel", data_interp)
        vector, reason = run_compiled(module, "kernel", data_vector)
        assert reason is None
        assert np.array_equal(data_interp, data_vector)
        assert vector.cells_updated == interp.stats.cells_updated == 4

    def test_multi_store_reads_pre_update_values(self):
        # v = a[i]; a[i] = v + 1; b[i] = v  — the second store must commit the
        # *pre-update* v, even though the first store mutates the memory the
        # loaded view points at.
        kernel = func.FuncOp(
            "kernel",
            FunctionType([MemRefType([6], f64), MemRefType([6], f64)], []),
        )
        a_arg, b_arg = kernel.args
        b = Builder.at_end(kernel.body.block)
        zero = b.insert(arith.ConstantOp.from_int(0)).result
        one = b.insert(arith.ConstantOp.from_int(1)).result
        six = b.insert(arith.ConstantOp.from_int(6)).result
        loop = scf.ParallelOp([zero], [six], [one])
        inner = Builder.at_end(loop.body.block)
        iv = loop.induction_variables[0]
        loaded = inner.insert(memref.LoadOp(a_arg, [iv])).result
        one_f = inner.insert(arith.ConstantOp.from_float(1.0, f64)).result
        bumped = inner.insert(arith.AddfOp(loaded, one_f)).result
        inner.insert(memref.StoreOp(bumped, a_arg, [iv]))
        inner.insert(memref.StoreOp(loaded, b_arg, [iv]))
        inner.insert(scf.YieldOp([]))
        b.insert(loop)
        b.insert(func.ReturnOp([]))
        module = builtin.ModuleOp([kernel])

        initial = np.arange(6, dtype=np.float64)
        a_i, b_i = initial.copy(), np.zeros(6)
        Interpreter(module).call("kernel", a_i, b_i)
        a_v, b_v = initial.copy(), np.zeros(6)
        assert run_compiled(module, "kernel", a_v, b_v)[1] is None
        assert np.array_equal(a_i, a_v)
        assert np.array_equal(b_i, b_v)
        assert np.array_equal(b_v, initial)  # the pre-update values

    def test_store_with_constant_axis_commits_correct_shape(self):
        # 1-D nest storing into column 3 of a 2-D memref: the store region has
        # a size-1 axis the nest does not iterate, which the commit must shape
        # correctly (and not die on broadcasting after other stores applied).
        kernel = func.FuncOp(
            "kernel",
            FunctionType([MemRefType([5], f64), MemRefType([5, 8], f64)], []),
        )
        src, dst = kernel.args
        b = Builder.at_end(kernel.body.block)
        zero = b.insert(arith.ConstantOp.from_int(0)).result
        one = b.insert(arith.ConstantOp.from_int(1)).result
        five = b.insert(arith.ConstantOp.from_int(5)).result
        three = b.insert(arith.ConstantOp.from_int(3)).result
        loop = scf.ParallelOp([zero], [five], [one])
        inner = Builder.at_end(loop.body.block)
        iv = loop.induction_variables[0]
        loaded = inner.insert(memref.LoadOp(src, [iv])).result
        inner.insert(memref.StoreOp(loaded, dst, [iv, three]))
        inner.insert(scf.YieldOp([]))
        b.insert(loop)
        b.insert(func.ReturnOp([]))
        module = builtin.ModuleOp([kernel])

        source = np.arange(5, dtype=np.float64)
        dst_i, dst_v = np.zeros((5, 8)), np.zeros((5, 8))
        Interpreter(module).call("kernel", source.copy(), dst_i)
        assert run_compiled(module, "kernel", source.copy(), dst_v)[1] is None
        assert np.array_equal(dst_i, dst_v)
        assert np.array_equal(dst_v[:, 3], source)
        assert dst_v.sum() == source.sum()  # nothing else written

    def test_affine_data_value_with_free_term(self):
        # store[i] = sitofp(i + n) where n is a scalar function argument: the
        # materialised affine must include the nest-external ("free") term.
        kernel = func.FuncOp(
            "kernel", FunctionType([MemRefType([4], f64), index], [])
        )
        out, n_arg = kernel.args
        b = Builder.at_end(kernel.body.block)
        zero = b.insert(arith.ConstantOp.from_int(0)).result
        one = b.insert(arith.ConstantOp.from_int(1)).result
        four = b.insert(arith.ConstantOp.from_int(4)).result
        loop = scf.ParallelOp([zero], [four], [one])
        inner = Builder.at_end(loop.body.block)
        iv = loop.induction_variables[0]
        shifted = inner.insert(arith.AddiOp(iv, n_arg)).result
        as_float = inner.insert(arith.SIToFPOp(shifted, f64)).result
        inner.insert(memref.StoreOp(as_float, out, [iv]))
        inner.insert(scf.YieldOp([]))
        b.insert(loop)
        b.insert(func.ReturnOp([]))
        module = builtin.ModuleOp([kernel])
        compiled = compile_kernel(module, "kernel")
        assert compiled.nest_count == 1

        data_interp, data_vector = np.zeros(4), np.zeros(4)
        Interpreter(module).call("kernel", data_interp, 10)
        assert run_compiled(module, "kernel", data_vector, 10)[1] is None
        assert np.array_equal(data_interp, [10.0, 11.0, 12.0, 13.0])
        assert np.array_equal(data_interp, data_vector)


# ---------------------------------------------------------------------------
# PR 3: tiled, reducing and masked nests
# ---------------------------------------------------------------------------

class TestTiledNestVectorization:
    """min-clamped tile loop pairs collapse into whole-array slices."""

    def test_tiled_jacobi_nest_is_compiled_not_tree_walked(self):
        program = compile_stencil_program(
            build_jacobi_module(), cpu_target(tile_sizes=(3,))
        )
        roots = [
            op for op in program.module.walk()
            if op.name in ("scf.parallel", "omp.wsloop")
        ]
        assert roots, "tiled lowering should produce a parallel root"
        kernel = program.compiled_kernel("kernel")
        for root in roots:
            nest = kernel.nest_for(root)
            assert nest is not None, kernel.fallback_reasons
            # Collapsed to cell granularity, counted at tile granularity.
            assert nest.bounds != nest.count_bounds

    @pytest.mark.parametrize("tile", [(3,), (4,), (8,), (16,)])
    def test_tiled_jacobi_bit_identical_any_tile_size(self, tile):
        # Tile sizes that divide the extent, exceed it, and leave remainders.
        program = compile_stencil_program(build_jacobi_module(), cpu_target(tile_sizes=tile))
        initial = _jacobi_inputs(8, 1, seed=41)
        _run_both(program, lambda: [initial.copy(), initial.copy()], [3])

    @pytest.mark.parametrize(
        "target",
        [cpu_target(tile_sizes=(16, 16)), smp_target(threads=4, tile_sizes=(16, 16))],
        ids=["cpu-tiled", "smp-tiled"],
    )
    def test_tiled_devito_heat_bit_identical_and_vectorized(self, target):
        workload = heat_diffusion((64, 64), space_order=4, dtype=np.float64)
        workload.initialise(seed=13)
        operator = workload.operator(backend="xdsl")
        module = operator.stencil_module(dt=workload.dt)
        program = compile_stencil_program(module, target)
        kernel = program.compiled_kernel("kernel")
        assert kernel.nest_count >= 1, kernel.fallback_reasons
        fields = operator._field_arguments()
        # cells_updated counts tile origins in both tiers.
        _run_both(program, lambda: [a.copy() for a in fields], [3])


from tests.conftest import build_reduce_module as _build_reduce_module


class TestReduceNestVectorization:
    """scf.reduce nests compile to NumPy reductions with the tree walker's fold."""

    @pytest.mark.parametrize(
        "combine_op, init",
        [
            (arith.AddfOp, 0.0),
            (arith.MulfOp, 1.0),
            (arith.MinimumfOp, float("inf")),
            (arith.MaximumfOp, float("-inf")),
        ],
        ids=["sum", "product", "min", "max"],
    )
    def test_reduce_bit_identical(self, combine_op, init):
        module = _build_reduce_module(7, combine_op, init)
        module.verify()
        rng = np.random.default_rng(3)
        data = rng.standard_normal((7, 7))
        out_interp, out_vector = np.zeros(1), np.zeros(1)
        interp = Interpreter(module)
        interp.call("kernel", data.copy(), out_interp)
        kernel = compile_kernel(module, "kernel")
        assert kernel.nest_count == 1, kernel.fallback_reasons
        vector, reason = run_compiled(module, "kernel", data.copy(), out_vector)
        assert reason is None
        # Bit-identical: the vectorized fold replays the sequential order
        # (ufunc.accumulate), not NumPy's pairwise summation.
        assert out_interp[0] == out_vector[0]
        assert interp.stats.cells_updated == vector.cells_updated == 49

    def test_reduce_with_empty_iteration_space_returns_init(self):
        module = _build_reduce_module(0, arith.AddfOp, 41.5)
        out_interp, out_vector = np.zeros(1), np.zeros(1)
        Interpreter(module).call("kernel", np.zeros((0, 0)), out_interp)
        assert run_compiled(module, "kernel", np.zeros((0, 0)), out_vector)[1] is None
        assert out_interp[0] == out_vector[0] == 41.5

    def test_unsupported_combiner_reports_reason_and_tree_walks(self):
        module = _build_reduce_module(4, arith.SubfOp, 0.0)
        loop = next(op for op in module.walk() if isinstance(op, scf.ParallelOp))
        fallback = compile_loop_nest_or_fallback(loop)
        assert isinstance(fallback, VectorizeFallback)
        assert "arith.subf" in fallback.reason and "not supported" in fallback.reason
        # The tree walker still executes it (generic combiner region).
        data = np.arange(16, dtype=np.float64).reshape(4, 4)
        out = np.zeros(1)
        Interpreter(module).call("kernel", data, out)
        expected = 0.0
        for value in (data ** 2).ravel():
            expected = expected - value
        assert out[0] == expected


class TestMaskedTracerEquivalence:
    """merge()-masked PsyClone tracer kernels vectorize end-to-end."""

    def test_masked_tracer_bit_identical_and_fully_vectorized(self):
        workload = masked_tracer_advection((8, 8, 4), iterations=2, computations=6)
        module = workload.build_module(dtype=np.float64)
        program = compile_stencil_program(module, cpu_target())
        kernel = program.compiled_kernel(workload.schedule.name)
        # One vectorized nest per stencil computation: the select/cmpf chains
        # must not force any stencil back onto the tree walker.
        assert kernel.nest_count == 6, kernel.fallback_reasons

        arrays = workload.arrays(halo=1, dtype=np.float64, seed=17)
        names = workload.schedule.array_names()
        _run_both(
            program, lambda: [arrays[name].copy() for name in names],
            [workload.iterations], function=workload.schedule.name,
        )

    def test_masked_tracer_matches_numpy_oracle(self):
        workload = masked_tracer_advection((6, 6, 4), iterations=1, computations=6)
        module = workload.build_module(dtype=np.float64)
        program = compile_stencil_program(module, cpu_target())
        arrays = workload.arrays(halo=1, dtype=np.float64, seed=19)
        names = workload.schedule.array_names()
        compiled_args = _run_both(
            program, lambda: [arrays[name].copy() for name in names], [1],
            function=workload.schedule.name,
        )
        reference = {name: arrays[name].copy() for name in names}
        reference_execute(workload.schedule, reference, halo=1, iterations=1)
        for name, array in zip(names, compiled_args):
            assert np.allclose(reference[name], array)


class TestVectorizeFallbackReasons:
    """Every unsupported construct produces an explicit reason string."""

    def _parallel_over(self, kernel_args, build_body, upper=4):
        kernel = func.FuncOp("kernel", FunctionType(kernel_args, []))
        b = Builder.at_end(kernel.body.block)
        zero = b.insert(arith.ConstantOp.from_int(0)).result
        one = b.insert(arith.ConstantOp.from_int(1)).result
        bound = b.insert(arith.ConstantOp.from_int(upper)).result
        loop = scf.ParallelOp([zero], [bound], [one])
        build_body(Builder.at_end(loop.body.block), kernel.args, loop)
        b.insert(loop)
        b.insert(func.ReturnOp([]))
        return builtin.ModuleOp([kernel]), loop

    def test_non_affine_index_reason(self):
        def body(inner, args, loop):
            iv = loop.induction_variables[0]
            squared = inner.insert(arith.MuliOp(iv, iv)).result
            value = inner.insert(memref.LoadOp(args[0], [squared])).result
            inner.insert(memref.StoreOp(value, args[1], [iv]))
            inner.insert(scf.YieldOp([]))

        module, loop = self._parallel_over(
            [MemRefType([16], f64), MemRefType([4], f64)], body
        )
        kernel = compile_kernel(module, "kernel")
        fallback = kernel.fallback_for(loop)
        assert fallback is not None
        assert "non-affine" in fallback.reason
        assert any("non-affine" in reason for reason in kernel.fallback_reasons)

    def test_unknown_op_reason_names_the_op(self):
        def body(inner, args, loop):
            iv = loop.induction_variables[0]
            loaded = inner.insert(memref.LoadOp(args[0], [iv])).result
            threshold = inner.insert(arith.ConstantOp.from_float(0.0, f64)).result
            cond = inner.insert(arith.CmpfOp("ogt", loaded, threshold)).result
            if_op = scf.IfOp(cond)
            Builder.at_end(if_op.then_region.block).insert(scf.YieldOp([]))
            inner.insert(if_op)
            inner.insert(scf.YieldOp([]))

        module, loop = self._parallel_over([MemRefType([4], f64)], body)
        fallback = compile_kernel(module, "kernel").fallback_for(loop)
        assert fallback is not None and "scf.if" in fallback.reason

    def test_dynamic_step_nest_is_walked_in_place(self):
        # The step is a function argument: statically vectorizable, but its
        # geometry is unknown when the megakernel is emitted, so the nest is
        # an island the tree walker runs (it defines the semantics of a
        # non-positive step: an empty range).
        kernel = func.FuncOp(
            "kernel", FunctionType([MemRefType([8], f64), index], [])
        )
        u, step_arg = kernel.args
        b = Builder.at_end(kernel.body.block)
        zero = b.insert(arith.ConstantOp.from_int(0)).result
        eight = b.insert(arith.ConstantOp.from_int(8)).result
        loop = scf.ParallelOp([zero], [eight], [step_arg])
        inner = Builder.at_end(loop.body.block)
        value = inner.insert(arith.ConstantOp.from_float(1.0, f64)).result
        inner.insert(memref.StoreOp(value, u, [loop.induction_variables[0]]))
        inner.insert(scf.YieldOp([]))
        b.insert(loop)
        b.insert(func.ReturnOp([]))
        module = builtin.ModuleOp([kernel])
        compiled = compile_kernel(module, "kernel")
        nest = compiled.nest_for(loop)
        assert nest is not None  # statically fine

        data = np.zeros(8)
        stats, reason = run_compiled(module, "kernel", data, -1)
        assert "1 compiled nest(s) walked" in reason and stats.cells_updated == 0
        assert np.array_equal(data, np.zeros(8))  # tree walker: empty range
        stats, reason = run_compiled(module, "kernel", data, 2)
        assert "1 compiled nest(s) walked" in reason and stats.cells_updated == 4
        assert np.array_equal(data[::2], np.ones(4))

    def test_aliasing_store_runtime_reason(self):
        module = TestRuntimeFallback()._inplace_shifted_module()
        loop = next(op for op in module.walk() if isinstance(op, scf.ParallelOp))
        assert compile_kernel(module, "kernel").nest_for(loop) is not None
        data = np.arange(10, dtype=np.float64)
        _, reason = run_compiled(module, "kernel", data)
        assert reason is not None and "aliasing" in reason

    def test_loop_carried_values_reason(self):
        module = build_jacobi_module()
        program = compile_stencil_program(module, cpu_target())
        time_loop = next(op for op in program.module.walk() if isinstance(op, scf.ForOp))
        fallback = compile_loop_nest_or_fallback(time_loop)
        assert isinstance(fallback, VectorizeFallback)
        assert "loop-carried" in fallback.reason


class TestReviewRegressionsPR3:
    """Regression tests for defects found in review of the nest vectorizer."""

    def test_pre_tile_load_of_origin_rejects_collapse(self):
        # x = u[origin]; for i in [origin, min(origin+4, 8)): v[i] = x  — the
        # load captured the *tile origin*; collapsing the pair to cell
        # granularity would silently change what it reads, so the nest must
        # fall back (and both engines must agree).
        kernel = func.FuncOp(
            "kernel", FunctionType([MemRefType([8], f64), MemRefType([8], f64)], [])
        )
        u, v = kernel.args
        b = Builder.at_end(kernel.body.block)
        zero = b.insert(arith.ConstantOp.from_int(0)).result
        one = b.insert(arith.ConstantOp.from_int(1)).result
        four = b.insert(arith.ConstantOp.from_int(4)).result
        eight = b.insert(arith.ConstantOp.from_int(8)).result
        loop = scf.ParallelOp([zero], [eight], [four])
        outer = Builder.at_end(loop.body.block)
        origin = loop.induction_variables[0]
        hoisted = outer.insert(memref.LoadOp(u, [origin])).result
        tile_end = outer.insert(arith.AddiOp(origin, four)).result
        clamped = outer.insert(arith.MinSIOp(tile_end, eight)).result
        inner_for = scf.ForOp(origin, clamped, one)
        outer.insert(inner_for)
        outer.insert(scf.YieldOp([]))
        inner = Builder.at_end(inner_for.body.block)
        inner.insert(memref.StoreOp(hoisted, v, [inner_for.induction_variable]))
        inner.insert(scf.YieldOp([]))
        b.insert(loop)
        b.insert(func.ReturnOp([]))
        module = builtin.ModuleOp([kernel])

        fallback = compile_loop_nest_or_fallback(loop)
        assert isinstance(fallback, VectorizeFallback)
        assert "before the tile loop" in fallback.reason

        data = np.arange(8, dtype=np.float64)
        expected, observed = np.zeros(8), np.zeros(8)
        Interpreter(module).call("kernel", data.copy(), expected)
        # The inner loop compiles on its own, but runs inside the walked tile.
        reason = run_compiled(module, "kernel", data.copy(), observed)[1]
        assert "1 compiled nest(s) walked" in reason
        assert np.array_equal(expected, observed)
        assert np.array_equal(expected, [0, 0, 0, 0, 4, 4, 4, 4])

    def test_reduce_count_mismatch_is_rejected(self):
        # A result-less scf.parallel terminated by a value-carrying scf.reduce
        # must fail verification and raise a clean InterpreterError, not an
        # IndexError from the accumulator loop.
        kernel = func.FuncOp("kernel", FunctionType([MemRefType([4], f64)], []))
        b = Builder.at_end(kernel.body.block)
        zero = b.insert(arith.ConstantOp.from_int(0)).result
        one = b.insert(arith.ConstantOp.from_int(1)).result
        four = b.insert(arith.ConstantOp.from_int(4)).result
        loop = scf.ParallelOp([zero], [four], [one])  # no init values
        inner = Builder.at_end(loop.body.block)
        value = inner.insert(memref.LoadOp(kernel.args[0], [loop.induction_variables[0]])).result
        inner.insert(scf.ReduceOp.combining(value, arith.AddfOp))
        b.insert(loop)
        b.insert(func.ReturnOp([]))
        module = builtin.ModuleOp([kernel])

        from repro.ir.verifier import VerificationError

        with pytest.raises(VerificationError, match="one value per"):
            module.verify()
        from repro.interp import InterpreterError

        with pytest.raises(InterpreterError, match="init values"):
            Interpreter(module).call("kernel", np.zeros(4))
