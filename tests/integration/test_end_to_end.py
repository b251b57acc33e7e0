"""Integration tests: whole-pipeline correctness across frontends and targets.

These are the reproduction's ground-truth checks: for every frontend and every
target the shared stack supports, the compiled-and-executed result must match
an independently computed reference (numpy, or the single-rank run).
"""

import numpy as np
import pytest

from repro.core import (
    compile_stencil_program,
    cpu_target,
    default_session,
    dmp_target,
    fpga_target,
    gpu_target,
    smp_target,
)
from repro.frontends.psyclone import reference_execute
from repro.workloads import heat_diffusion, acoustic_wave, pw_advection, tracer_advection
from tests.conftest import build_jacobi_module, jacobi_reference


class TestJacobiAcrossTargets:
    @pytest.mark.parametrize(
        "target",
        [
            cpu_target(),
            cpu_target(tile_sizes=(3,)),
            smp_target(threads=4, tile_sizes=(4,)),
            gpu_target(),
            fpga_target(),
            fpga_target(optimize=False),
        ],
        ids=["cpu", "cpu-tiled", "smp", "gpu", "fpga", "fpga-initial"],
    )
    def test_single_rank_targets(self, target, jacobi_initial):
        program = compile_stencil_program(build_jacobi_module(), target)
        steps = 3
        a, b = jacobi_initial.copy(), jacobi_initial.copy()
        default_session().run(program, [a, b, steps])
        latest = a if steps % 2 == 0 else b
        assert np.allclose(latest, jacobi_reference(jacobi_initial, steps))

    @pytest.mark.parametrize("grid", [(2,), (4,)], ids=["2ranks", "4ranks"])
    @pytest.mark.parametrize("library_calls", [False, True], ids=["dmp-level", "mpi-level"])
    def test_distributed_targets(self, grid, library_calls, jacobi_initial):
        program = compile_stencil_program(
            build_jacobi_module(), dmp_target(grid, lower_to_library_calls=library_calls)
        )
        steps = 4
        a, b = jacobi_initial.copy(), jacobi_initial.copy()
        default_session().run(program, [a, b], [steps])
        expected = jacobi_reference(jacobi_initial, steps)
        assert np.allclose(a[1:9], expected[1:9])


class TestDevitoWorkloadsDistributed:
    @pytest.mark.parametrize("space_order", [2, 4])
    def test_heat_2d(self, space_order):
        reference = None
        for target in (None, dmp_target((2, 2))):
            workload = heat_diffusion((16, 16), space_order=space_order, dtype=np.float64)
            workload.initialise(seed=1)
            operator = workload.operator(backend="xdsl", target=target) if target else \
                workload.operator(backend="native")
            operator.apply(time=3, dt=workload.dt)
            data = workload.function.data.copy()
            if reference is None:
                reference = data
            else:
                assert np.allclose(reference, data, atol=1e-12)

    def test_wave_3d(self):
        reference = None
        for target in (None, dmp_target((2, 1, 1))):
            workload = acoustic_wave((8, 8, 8), space_order=2, dtype=np.float64)
            workload.initialise(seed=2)
            operator = workload.operator(backend="xdsl", target=target) if target else \
                workload.operator(backend="native")
            operator.apply(time=2, dt=workload.dt)
            data = workload.function.data.copy()
            if reference is None:
                reference = data
            else:
                assert np.allclose(reference, data, atol=1e-12)


class TestPsycloneWorkloadsEndToEnd:
    def test_pw_advection_through_full_pipeline(self):
        workload = pw_advection(shape=(8, 8, 4), iterations=2)
        schedule = workload.schedule
        module = workload.build_module(dtype=np.float64)
        program = compile_stencil_program(module, cpu_target())
        arrays = workload.arrays(dtype=np.float64, seed=4)
        reference = {name: array.copy() for name, array in arrays.items()}
        ordered = [arrays[name] for name in schedule.array_names()]
        default_session().run(
            program, [*ordered, workload.iterations], function=schedule.name
        )
        reference_execute(schedule, reference, halo=1, iterations=workload.iterations)
        for name in arrays:
            assert np.allclose(arrays[name], reference[name])

    def test_tracer_advection_small(self):
        workload = tracer_advection(shape=(6, 6, 4), iterations=2, computations=6)
        schedule = workload.schedule
        module = workload.build_module(dtype=np.float64)
        program = compile_stencil_program(module, cpu_target())
        arrays = workload.arrays(dtype=np.float64, seed=6)
        reference = {name: array.copy() for name, array in arrays.items()}
        ordered = [arrays[name] for name in schedule.array_names()]
        default_session().run(
            program, [*ordered, workload.iterations], function=schedule.name
        )
        reference_execute(schedule, reference, halo=1, iterations=workload.iterations)
        for name in arrays:
            assert np.allclose(arrays[name], reference[name])


class TestCommunicationAccounting:
    def test_message_counts_match_decomposition(self, jacobi_initial):
        steps = 5
        program = compile_stencil_program(build_jacobi_module(), dmp_target((4,)))
        a, b = jacobi_initial.copy(), jacobi_initial.copy()
        result = default_session().run(program, [a, b], [steps])
        # 4 ranks in a line: 3 internal boundaries, 2 messages per boundary per step.
        assert result.messages_sent == 6 * steps
        assert result.total_halo_swaps == 4 * steps

    def test_halo_exchange_statistics(self, jacobi_initial):
        program = compile_stencil_program(build_jacobi_module(), dmp_target((2,)))
        a, b = jacobi_initial.copy(), jacobi_initial.copy()
        result = default_session().run(program, [a, b], [2])
        exchanged = sum(stat.halo_elements_exchanged for stat in result.statistics)
        # Each step: each of the two ranks receives one halo element.
        assert exchanged == 2 * 2
