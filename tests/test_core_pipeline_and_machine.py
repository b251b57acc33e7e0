"""Tests of targets, the shared pipeline, executors, and the performance models."""

import numpy as np
import pytest

from repro.core import (
    ExecutionError,
    Target,
    TargetKind,
    compile_stencil_program,
    cpu_target,
    default_session,
    dmp_target,
    fpga_target,
    gpu_target,
    smp_target,
)
from repro.machine import (
    ALVEO_U280,
    ARCHER2_NODE,
    CRAY_PSYCLONE,
    DEVITO_NATIVE,
    GNU_PSYCLONE,
    SLINGSHOT,
    V100,
    XDSL_CPU,
    OPENACC_DEVITO,
    XDSL_GPU,
    characterize_module,
    estimate_cpu_node,
    estimate_fpga,
    estimate_gpu,
    estimate_strong_scaling,
)
from repro.core.executor import core_field_slices, local_field_slices
from repro.transforms.distribute import GridSlicingStrategy
from repro.transforms.stencil import infer_shapes
from tests.conftest import build_jacobi_module, jacobi_reference


class TestTargets:
    def test_target_constructors(self):
        assert cpu_target().kind == TargetKind.CPU_SEQUENTIAL
        assert smp_target(threads=8).threads == 8
        assert dmp_target((2, 2)).ranks == 4
        assert gpu_target().kind == TargetKind.GPU
        assert fpga_target(optimize=False).fpga_optimize is False

    def test_invalid_targets_rejected(self):
        with pytest.raises(ValueError):
            Target(kind="quantum")
        with pytest.raises(ValueError):
            Target(kind=TargetKind.DISTRIBUTED)


class TestPipeline:
    def test_cpu_compilation(self):
        program = compile_stencil_program(build_jacobi_module(), cpu_target())
        assert program.stencil_regions == 1
        assert program.characteristics.applies[0].accesses == 3
        assert "kernel" in program.function_names

    def test_smp_compilation_counts_regions(self):
        program = compile_stencil_program(build_jacobi_module(), smp_target(threads=4, tile_sizes=(4,)))
        assert program.parallel_regions == 1

    def test_gpu_compilation_counts_kernels(self):
        program = compile_stencil_program(build_jacobi_module(), gpu_target())
        assert program.gpu_kernels == 1

    def test_fpga_compilation_reports_kernels(self):
        program = compile_stencil_program(build_jacobi_module(), fpga_target())
        assert len(program.hls_kernels) == 1
        assert program.hls_kernels[0].pipelined

    def test_distributed_compilation(self):
        program = compile_stencil_program(build_jacobi_module(), dmp_target((2,)))
        assert program.distribution is not None
        assert program.distribution.local_domain.core_shape == (4,)

    def test_pipeline_verifies_result(self):
        program = compile_stencil_program(build_jacobi_module(), cpu_target())
        program.module.verify()


class TestExecutors:
    def test_session_run_single_rank(self, jacobi_initial):
        program = compile_stencil_program(build_jacobi_module(), cpu_target())
        a, b = jacobi_initial.copy(), jacobi_initial.copy()
        result = default_session().run(program, [a, b, 2])
        assert np.allclose(a, jacobi_reference(jacobi_initial, 2))
        assert result.statistics[0].cells_updated == 16

    def test_session_run_ranks_match_reference(self, jacobi_initial):
        for lower in (False, True):
            program = compile_stencil_program(
                build_jacobi_module(), dmp_target((2,), lower_to_library_calls=lower)
            )
            a, b = jacobi_initial.copy(), jacobi_initial.copy()
            result = default_session().run(program, [a, b], [3])
            latest = a if 3 % 2 == 0 else b
            expected = jacobi_reference(jacobi_initial, 3)
            assert np.allclose(latest[1:9], expected[1:9])
            assert result.messages_sent == 2 * 3

    def test_wrong_argument_count_is_rejected(self, jacobi_initial):
        program = compile_stencil_program(build_jacobi_module(), cpu_target())
        with pytest.raises(ExecutionError, match="expects 3 arguments, got 2"):
            default_session().run(program, [jacobi_initial.copy()], [1])

    def test_scatter_gather_round_trip(self):
        strategy = GridSlicingStrategy([2, 2])
        global_array = np.arange(100, dtype=float).reshape(10, 10)
        reconstructed = np.zeros_like(global_array)
        for rank in range(4):
            local = global_array[local_field_slices(
                (8, 8), strategy, rank, (1, 1), (1, 1), (1, 1))]
            assert local.shape == (6, 6)
            core, local_core = core_field_slices(
                (8, 8), strategy, rank, (1, 1), (1, 1))
            reconstructed[core] = local[local_core]
        assert np.array_equal(reconstructed[1:9, 1:9], global_array[1:9, 1:9])

    def test_core_slices_address_one_slab_in_both_arrays(self):
        """Scatter, gather and the plan share one core geometry: the global
        core slices and the local ones hold the same cells, and the scatter
        region is exactly that core widened by the halo."""
        strategy = GridSlicingStrategy([2, 2])
        halo_lower, halo_upper, margin = (2, 1), (1, 2), (2, 2)
        global_shape = (8, 6)
        global_array = np.arange(12 * 10, dtype=float).reshape(12, 10)
        for rank in range(4):
            core, local_core = core_field_slices(
                global_shape, strategy, rank, halo_lower, margin)
            region = local_field_slices(
                global_shape, strategy, rank, halo_lower, halo_upper, margin)
            local = global_array[region]
            assert np.array_equal(local[local_core], global_array[core])
            assert region == tuple(
                slice(c.start - lo, c.stop + hi)
                for c, lo, hi in zip(core, halo_lower, halo_upper))


class TestKernelCharacterisation:
    def test_characteristics_from_ir(self):
        module = build_jacobi_module()
        infer_shapes(module)
        characteristics = characterize_module(module)
        assert characteristics.stencil_regions == 1
        apply_chars = characteristics.applies[0]
        assert apply_chars.accesses == 3
        assert apply_chars.flops_per_cell == 3  # two adds + one multiply
        assert apply_chars.cells_per_step == 8
        assert apply_chars.halo_lower == (1,) and apply_chars.halo_upper == (1,)
        assert apply_chars.bytes_per_cell(4) == 12
        assert characteristics.arithmetic_intensity() > 0


def synthetic_characteristics(ndim=3, space_order=4, cells=1024 ** 3):
    from repro.evaluation.experiments import _devito_characteristics

    shape = (int(round(cells ** (1 / ndim))),) * ndim
    return _devito_characteristics("heat", ndim, space_order, shape)


class TestPerformanceModels:
    def test_cpu_estimate_positive_and_scales(self):
        characteristics = synthetic_characteristics()
        small = estimate_cpu_node(characteristics, 10, ARCHER2_NODE, DEVITO_NATIVE)
        large = estimate_cpu_node(characteristics, 100, ARCHER2_NODE, DEVITO_NATIVE)
        assert small.seconds > 0
        assert large.seconds == pytest.approx(10 * small.seconds, rel=1e-6)
        assert small.gpoints_per_second == pytest.approx(large.gpoints_per_second, rel=1e-6)

    def test_xdsl_vs_devito_crossover(self):
        # 2D low-AI: xDSL wins; 3D high-order: Devito wins (paper fig. 7).
        two_d = synthetic_characteristics(ndim=2, space_order=2, cells=16384 ** 2)
        three_d = synthetic_characteristics(ndim=3, space_order=8, cells=1024 ** 3)
        for characteristics, xdsl_wins in ((two_d, True), (three_d, False)):
            devito = estimate_cpu_node(characteristics, 16, ARCHER2_NODE, DEVITO_NATIVE)
            xdsl = estimate_cpu_node(characteristics, 16, ARCHER2_NODE, XDSL_CPU)
            assert (xdsl.gpoints_per_second > devito.gpoints_per_second) == xdsl_wins

    def test_gnu_slower_than_cray(self):
        characteristics = synthetic_characteristics(ndim=3, space_order=2)
        cray = estimate_cpu_node(characteristics, 4, ARCHER2_NODE, CRAY_PSYCLONE)
        gnu = estimate_cpu_node(characteristics, 4, ARCHER2_NODE, GNU_PSYCLONE)
        assert cray.gpoints_per_second > gnu.gpoints_per_second

    def test_strong_scaling_monotonic_with_decreasing_efficiency(self):
        characteristics = synthetic_characteristics()
        points = estimate_strong_scaling(
            characteristics, (1024, 1024, 1024), 8, (1, 2, 4, 8, 16),
            ARCHER2_NODE, SLINGSHOT, XDSL_CPU, decomposed_dims=3,
        )
        throughputs = [p.gpoints_per_second for p in points]
        assert all(b > a for a, b in zip(throughputs, throughputs[1:]))
        efficiencies = [p.parallel_efficiency for p in points]
        assert efficiencies[0] > efficiencies[-1]

    def test_devito_scales_better_than_xdsl(self):
        characteristics = synthetic_characteristics()
        devito = estimate_strong_scaling(
            characteristics, (1024,) * 3, 8, (128,), ARCHER2_NODE, SLINGSHOT,
            DEVITO_NATIVE, decomposed_dims=3)[0]
        xdsl = estimate_strong_scaling(
            characteristics, (1024,) * 3, 8, (128,), ARCHER2_NODE, SLINGSHOT,
            XDSL_CPU, decomposed_dims=3)[0]
        assert devito.parallel_efficiency > xdsl.parallel_efficiency

    def test_gpu_estimate_openacc_vs_cuda(self):
        characteristics = synthetic_characteristics(ndim=3, space_order=4, cells=512 ** 3)
        openacc = estimate_gpu(characteristics, 8, V100, OPENACC_DEVITO)
        xdsl = estimate_gpu(characteristics, 8, V100, XDSL_GPU)
        assert xdsl.gpoints_per_second > openacc.gpoints_per_second

    def test_fpga_optimized_much_faster_than_initial(self):
        characteristics = synthetic_characteristics(ndim=3, space_order=2, cells=128 ** 3)
        initial = estimate_fpga(characteristics, 1, ALVEO_U280, optimized=False)
        optimized = estimate_fpga(characteristics, 1, ALVEO_U280, optimized=True)
        improvement = optimized.gpoints_per_second / initial.gpoints_per_second
        assert improvement > 50
