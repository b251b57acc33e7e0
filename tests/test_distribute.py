"""Tests of decomposition, the global-to-local pass, swap elimination and MPI lowering."""

import re

import numpy as np
import pytest

from repro.core import Session, compile_stencil_program, cpu_target, dmp_target, smp_target
from repro.dialects import builtin, dmp, func, mpi, stencil
from repro.frontends.oec.builder import StencilKernel
from repro.interp import Interpreter
from repro.ir.pass_manager import PassFailedError
from repro.runtime import processes_available
from repro.transforms.common import canonicalize
from repro.transforms.distribute import (
    DecompositionError,
    GridSlicingStrategy,
    communicated_elements_per_step,
    distribute_stencil,
    eliminate_redundant_swaps,
    lower_dmp_to_mpi,
)
from repro.transforms.mpi import MPICH_DATATYPE_CONSTANTS, datatype_constant_for, lower_mpi_to_func
from repro.transforms.stencil import lower_stencil_to_scf
from repro.ir import FunctionType, f32, f64, i32, i64
from tests.conftest import build_jacobi_module, jacobi_reference, run_spmd


class TestDecompositionStrategy:
    def test_local_domain_shapes(self):
        strategy = GridSlicingStrategy([2, 2])
        domain = strategy.local_domain((8, 8), (1, 1), (1, 1))
        assert domain.core_shape == (4, 4)
        assert domain.buffer_shape == (6, 6)
        assert domain.field_bounds() == stencil.StencilBoundsAttr([-1, -1], [5, 5])
        assert domain.compute_bounds() == stencil.StencilBoundsAttr([0, 0], [4, 4])

    def test_trailing_dimensions_not_decomposed(self):
        strategy = GridSlicingStrategy([4])
        domain = strategy.local_domain((16, 8, 8), (1, 1, 1), (1, 1, 1))
        assert domain.core_shape == (4, 8, 8)

    def test_indivisible_domain_rejected(self):
        with pytest.raises(DecompositionError):
            GridSlicingStrategy([3]).local_domain((8,), (1,), (1,))

    def test_too_many_grid_dims_rejected(self):
        with pytest.raises(DecompositionError):
            GridSlicingStrategy([2, 2, 2]).local_domain((8, 8), (1, 1), (1, 1))

    def test_exchanges_cover_both_directions(self):
        strategy = GridSlicingStrategy([2, 2])
        domain = strategy.local_domain((8, 8), (1, 1), (1, 1))
        exchanges = strategy.exchanges(domain)
        assert len(exchanges) == 4  # two directions per decomposed dimension
        neighbours = {e.neighbor for e in exchanges}
        assert neighbours == {(-1, 0), (1, 0), (0, -1), (0, 1)}
        assert all(e.element_count() == 4 for e in exchanges)

    def test_singleton_grid_dimension_has_no_exchanges(self):
        strategy = GridSlicingStrategy([1, 4])
        domain = strategy.local_domain((8, 8), (1, 1), (1, 1))
        exchanges = strategy.exchanges(domain)
        assert all(e.neighbor[0] == 0 for e in exchanges)
        assert len(exchanges) == 2

    def test_communicated_elements(self):
        strategy = GridSlicingStrategy([2])
        total = communicated_elements_per_step(strategy, (8, 8), (1, 1), (1, 1))
        assert total == 16  # two faces of 8 elements each

    def test_global_slab(self):
        strategy = GridSlicingStrategy([2, 2])
        assert strategy.global_slab((8, 8), 0) == ((0, 0), (4, 4))
        assert strategy.global_slab((8, 8), 3) == ((4, 4), (8, 8))


class TestDistributePass:
    def test_field_types_and_store_bounds_localised(self):
        module = build_jacobi_module(n=8)
        summary = distribute_stencil(module, GridSlicingStrategy([2]))
        assert summary.global_shape == (8,)
        assert summary.local_domain.core_shape == (4,)
        assert summary.swaps_inserted == 1
        kernel = next(op for op in module.walk() if isinstance(op, func.FuncOp))
        field_type = kernel.function_type.inputs[0]
        assert field_type.bounds == stencil.StencilBoundsAttr([-1], [5])
        store = next(op for op in module.walk() if isinstance(op, stencil.StoreOp))
        assert store.bounds == stencil.StencilBoundsAttr([0], [4])

    def test_swap_inserted_before_each_load(self):
        module = build_jacobi_module()
        distribute_stencil(module, GridSlicingStrategy([2]))
        swaps = [op for op in module.walk() if isinstance(op, dmp.SwapOp)]
        loads = [op for op in module.walk() if isinstance(op, stencil.LoadOp)]
        assert len(swaps) == len(loads) == 1
        assert swaps[0].grid == dmp.GridAttr([2])

    def test_redundant_swaps_eliminated(self):
        module = build_jacobi_module()
        distribute_stencil(module, GridSlicingStrategy([2]))
        # Duplicate every swap to simulate conservative insertion.
        for swap in [op for op in module.walk() if isinstance(op, dmp.SwapOp)]:
            block = swap.parent_block
            clone = swap.clone()
            block.insert_op_after(clone, swap)
        assert eliminate_redundant_swaps(module) == 1
        assert len([op for op in module.walk() if isinstance(op, dmp.SwapOp)]) == 1

    def test_module_without_stencils_rejected(self):
        module = builtin.ModuleOp([])
        with pytest.raises(DecompositionError):
            distribute_stencil(module, GridSlicingStrategy([2]))

    @pytest.mark.parametrize("halo", [1, 2, 3])
    def test_margin_is_read_off_the_field_bounds(self, halo):
        """The runtime's array layout comes from the fields, whatever the
        stencil reads (here always ±1, so the exchanged halo stays 1)."""
        summary = distribute_stencil(
            build_jacobi_module(n=8, halo=halo), GridSlicingStrategy([2])
        )
        assert summary.margin_lower == summary.margin_upper == (halo,)
        assert summary.local_domain.halo_lower == (1,)

    @staticmethod
    def _retype_inputs(module, *bounds):
        kernel = next(op for op in module.walk() if isinstance(op, func.FuncOp))
        inputs = list(kernel.function_type.inputs)
        for index, (lb, ub) in enumerate(bounds):
            inputs[index] = stencil.FieldType(([lb], [ub]), f64)
        kernel.attributes["function_type"] = FunctionType(
            inputs, kernel.function_type.outputs
        )
        return module

    def test_fields_with_different_bounds_rejected(self):
        module = self._retype_inputs(build_jacobi_module(n=8), (-2, 10))
        with pytest.raises(DecompositionError, match="same known global bounds"):
            distribute_stencil(module, GridSlicingStrategy([2]))

    def test_fields_thinner_than_the_halo_rejected(self):
        """No global array could feed the exchanged halo below the core."""
        module = self._retype_inputs(build_jacobi_module(n=8), (0, 9), (0, 9))
        with pytest.raises(DecompositionError, match="fewer than the halo"):
            distribute_stencil(module, GridSlicingStrategy([2]))


class TestExchangeTags:
    """One tag and axis rule, shared by ``dmp.swap`` ranks and lowered MPI."""

    @pytest.mark.parametrize("neighbor", [(1,), (-1,), (0, 1), (0, -1), (1, 0), (-1, 0)])
    def test_a_send_carries_the_tag_the_mirrored_receive_expects(self, neighbor):
        rank = len(neighbor)
        there = dmp.ExchangeAttr([0] * rank, [1] * rank, [0] * rank, neighbor)
        back = dmp.ExchangeAttr(
            [0] * rank, [1] * rank, [0] * rank, [-offset for offset in neighbor]
        )
        assert there.axis == back.axis == next(d for d, o in enumerate(neighbor) if o)
        assert there.travel_tag(sending=True) == back.travel_tag(sending=False)
        assert there.travel_tag(sending=True) != back.travel_tag(sending=True)

    def test_lowered_tags_are_the_swap_plans_tags(self):
        from repro.interp.interpreter import swap_message_plan

        module = build_jacobi_module()
        distribute_stencil(module, GridSlicingStrategy([2]))
        lower_stencil_to_scf(module)
        swap = next(op for op in module.walk() if isinstance(op, dmp.SwapOp))
        plan = swap_message_plan(swap, rank=0)
        native = {send[2] for send in plan.sends} | {recv[2] for recv in plan.receives}
        lower_dmp_to_mpi(module)
        lowered = set()
        for op in module.walk():
            if isinstance(op, (mpi.IsendOp, mpi.IrecvOp)):
                lowered.add(op.tag.owner.literal())
        assert native <= lowered == {0, 1}


class TestDmpToMPI:
    def lowered_module(self):
        module = build_jacobi_module()
        distribute_stencil(module, GridSlicingStrategy([2]))
        lower_stencil_to_scf(module)
        lower_dmp_to_mpi(module)
        module.verify()
        return module

    def test_lowering_structure(self):
        module = self.lowered_module()
        names = [op.name for op in module.walk()]
        assert "dmp.swap" not in names
        assert names.count("mpi.isend") == 2
        assert names.count("mpi.irecv") == 2
        assert names.count("mpi.waitall") == 1
        assert "mpi.comm_rank" in names
        # Out-of-grid neighbours fall back to null requests in the else branch.
        assert "mpi.set_null_request" in names

    def test_distributed_execution_matches_reference(self, jacobi_initial):
        module = self.lowered_module()
        canonicalize(module)
        steps = 3
        expected = jacobi_reference(jacobi_initial, steps)
        locals_a = [jacobi_initial[0:6].copy(), jacobi_initial[4:10].copy()]
        locals_b = [arr.copy() for arr in locals_a]

        def body(comm):
            Interpreter(module, comm=comm).call(
                "kernel", locals_a[comm.rank], locals_b[comm.rank], steps
            )

        _, statistics = run_spmd(body, 2)
        gathered = jacobi_initial.copy()
        for rank in range(2):
            source = locals_a[rank] if steps % 2 == 0 else locals_b[rank]
            gathered[1 + rank * 4 : 1 + rank * 4 + 4] = source[1:5]
        assert np.allclose(gathered, expected)
        assert statistics.messages_sent == 2 * steps


def _chain(shape, *offsets, store_to=1):
    """A double-buffered program whose stencils form one unfused chain: the
    first reads field 0 at ``offsets[0]``, each next one reads the temp of
    the one before at its offset, and every temp is stored to ``store_to``."""
    kernel = StencilKernel("kernel", shape, 2, f64, 2, [1, 0])
    temp = kernel.load(0)
    for offset in offsets:
        temp = kernel.apply([temp], lambda cell, offset=offset: cell.add(
            cell.access(0, [0] * len(shape)), cell.access(0, offset)), store_to)
    return kernel.finish()


class TestUnexchangedReads:
    """A rank receives its halo before the sweep and without corners: a read
    of a corner is rejected, and every other read — in place behind the
    sweep too — matches the undecomposed program bit for bit."""

    @pytest.mark.parametrize("grid, offset", [
        ((2, 2), (1, 1)), ((2, 2), (-1, 1)), ((2, 1, 2), (1, 0, -1)), ((2, 1, 2), (2, 1, 1)),
    ])
    def test_a_diagonal_read_across_split_axes_is_rejected(self, grid, offset):
        shape = (8,) * len(offset)
        message = f"operand 0 of stencil.apply #0 is read at offset {offset}"
        with pytest.raises(DecompositionError, match=re.escape(message)):
            distribute_stencil(_chain(shape, offset), GridSlicingStrategy(grid))
        for target in (dmp_target(grid), dmp_target(grid, lower_to_library_calls=True)):
            with pytest.raises(PassFailedError, match="distribute-stencil.*no corners"):
                compile_stencil_program(_chain(shape, offset), target)

    def test_offsets_compose_along_a_chain_of_applies(self):
        """(0, 1) then (1, 0) reaches the load's (1, 1); (0, 1) twice does not."""
        message = "operand 0 of stencil.apply #1 is read at offset (1, 0), which reaches cell (1, 1)"
        with pytest.raises(DecompositionError, match=re.escape(message)):
            distribute_stencil(_chain((8, 8), (0, 1), (1, 0)), GridSlicingStrategy([2, 2]))
        distribute_stencil(_chain((8, 8), (0, 1), (0, 1)), GridSlicingStrategy([2, 2]))
        distribute_stencil(_chain((8, 8), (0, 1), (1, 0)), GridSlicingStrategy([2, 1]))

    @pytest.mark.parametrize("offset", [(-1,), (1,), (0, -1), (-1, 1), (1, -1)])
    @pytest.mark.parametrize("target", [cpu_target(), smp_target(tile_sizes=(4, 4))],
                             ids=["cpu", "smp-tiled"])
    def test_an_in_place_read_off_the_cell_reads_the_field_as_loaded(self, target, offset):
        """Undecomposed, an apply that stores into a field it reads off the
        cell reads it from a copy taken at its load, as the stencil level
        does: no cell sees what the sweep already wrote, in any order."""
        shape = (8,) * len(offset)
        initial = np.random.default_rng(7).uniform(-1, 1, tuple(s + 4 for s in shape))
        expected = [initial.copy(), initial.copy()]
        Interpreter(_chain(shape, offset, store_to=0)).call("kernel", *expected, 3)
        program = compile_stencil_program(_chain(shape, offset, store_to=0), target)
        for backend in ("interpreter", "auto"):
            fields = [initial.copy(), initial.copy()]
            with Session() as session:
                session.run(program, fields, [3], backend=backend)
            assert [f.tobytes() for f in fields] == [f.tobytes() for f in expected], backend

    @pytest.mark.parametrize("grid, offset, store_to", [
        ((2, 1), (1, 1), 1), ((2, 2), (1, 0), 1), ((2, 2), (0, -2), 1), ((2, 1, 2), (1, 1, 0), 1),
        ((2,), (1,), 0), ((2, 1), (1, -1), 0), ((2, 1), (0, -1), 0), ((2, 1, 2), (0, 1, -1), 0),
        # In place, behind the sweep along a split axis: the lowering reads a
        # copy of the field taken at its load, which holds what a rank's halo
        # holds.
        ((2,), (-1,), 0), ((2, 1), (-1, 1), 0), ((2, 2), (0, -1), 0), ((2, 1, 2), (0, -1, 1), 0),
    ])
    @pytest.mark.parametrize("libcall", [False, True])
    def test_every_other_read_matches_the_undecomposed_program(
            self, grid, offset, store_to, libcall):
        shape = (8,) * len(offset)
        initial = np.random.default_rng(7).uniform(-1, 1, tuple(s + 4 for s in shape))
        runtimes = ["threads"] + (["processes"] if processes_available() and libcall else [])
        expected = [initial.copy(), initial.copy()]
        with Session() as session:
            session.run(compile_stencil_program(_chain(shape, offset, store_to=store_to),
                                                cpu_target()),
                        expected, [3], backend="interpreter")
        program = compile_stencil_program(_chain(shape, offset, store_to=store_to),
                                          dmp_target(grid, lower_to_library_calls=libcall))
        for runtime in runtimes:
            with Session(runtime=runtime) as session:
                fields = [initial.copy(), initial.copy()]
                session.run(program, fields, [3])
            assert [f.tobytes() for f in fields] == [f.tobytes() for f in expected], runtime


class TestMPIToFunc:
    def test_magic_constants(self):
        assert datatype_constant_for(f32) == MPICH_DATATYPE_CONSTANTS["f32"]
        assert datatype_constant_for(f64) == MPICH_DATATYPE_CONSTANTS["f64"]
        assert datatype_constant_for(i32) == MPICH_DATATYPE_CONSTANTS["i32"]
        assert datatype_constant_for(i64) == MPICH_DATATYPE_CONSTANTS["i64"]
        with pytest.raises(ValueError):
            datatype_constant_for(object())

    def test_mpi_ops_become_library_calls(self):
        module = build_jacobi_module()
        distribute_stencil(module, GridSlicingStrategy([2]))
        lower_stencil_to_scf(module)
        lower_dmp_to_mpi(module)
        lower_mpi_to_func(module)
        module.verify()
        names = [op.name for op in module.walk()]
        assert not any(
            name.startswith("mpi.") and name not in (
                "mpi.allocate_requests", "mpi.get_request", "mpi.set_null_request"
            )
            for name in names
        )
        callees = {op.callee for op in module.walk() if isinstance(op, func.CallOp)}
        assert {"MPI_Comm_rank", "MPI_Isend", "MPI_Irecv", "MPI_Waitall"} <= callees
        declarations = {
            op.sym_name
            for op in module.walk()
            if isinstance(op, func.FuncOp) and op.is_declaration
        }
        assert "MPI_Isend" in declarations

    def test_library_call_execution_matches_reference(self, jacobi_initial):
        module = build_jacobi_module()
        distribute_stencil(module, GridSlicingStrategy([2]))
        lower_stencil_to_scf(module)
        lower_dmp_to_mpi(module)
        lower_mpi_to_func(module)
        canonicalize(module)
        steps = 2
        locals_a = [jacobi_initial[0:6].copy(), jacobi_initial[4:10].copy()]
        locals_b = [arr.copy() for arr in locals_a]

        def body(comm):
            Interpreter(module, comm=comm).call(
                "kernel", locals_a[comm.rank], locals_b[comm.rank], steps
            )

        run_spmd(body, 2)
        expected = jacobi_reference(jacobi_initial, steps)
        gathered = jacobi_initial.copy()
        for rank in range(2):
            source = locals_a[rank] if steps % 2 == 0 else locals_b[rank]
            gathered[1 + rank * 4 : 1 + rank * 4 + 4] = source[1:5]
        assert np.allclose(gathered, expected)
