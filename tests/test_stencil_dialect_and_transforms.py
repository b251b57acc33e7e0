"""Tests of the stencil dialect and its transformations (inference, fusion, lowerings)."""

import numpy as np
import pytest

from repro.dialects import func, hls, memref, omp, scf, stencil
from repro.frontends.oec import StencilProgramBuilder
from repro.interp import Interpreter
from repro.ir import FunctionType, f64
from repro.transforms.common import canonicalize
from repro.transforms.smp import convert_scf_to_openmp, count_parallel_regions
from repro.transforms.stencil import (
    ShapeInferenceError,
    StencilLoweringError,
    count_gpu_kernels,
    count_synchronizations,
    fuse_applies,
    infer_shapes,
    lower_stencil_to_gpu,
    lower_stencil_to_hls,
    lower_stencil_to_scf,
)
from tests.conftest import build_jacobi_module, jacobi_reference


class TestStencilDialect:
    def test_apply_halo_extents(self, jacobi_module):
        apply_op = stencil.apply_ops_of(jacobi_module)[0]
        assert apply_op.halo_extents() == ((1,), (1,))
        offsets = apply_op.access_offsets()
        assert sorted(offsets[0]) == [(-1,), (0,), (1,)]

    def test_combined_halo(self, jacobi_module):
        applies = stencil.apply_ops_of(jacobi_module)
        assert stencil.combined_halo(applies) == ((1,), (1,))
        assert stencil.combined_halo([]) == ((), ())

    @staticmethod
    def _field():
        """A ``[0, 4)`` f64 field: the argument of a one-field function."""
        kernel = func.FuncOp(
            "kernel", FunctionType([stencil.FieldType(([0], [4]), f64)], []))
        return kernel.args[0]

    def test_access_requires_temp(self):
        with pytest.raises(ValueError):
            stencil.AccessOp(self._field(), [0])

    def test_store_bounds_must_fit_field(self):
        field = self._field()
        load = stencil.LoadOp(field)
        store = stencil.StoreOp(
            load.result, field, stencil.StencilBoundsAttr([0], [10])
        )
        with pytest.raises(Exception):
            store.verify()

    def test_apply_region_arg_mismatch_rejected(self, jacobi_module):
        apply_op = stencil.apply_ops_of(jacobi_module)[0]
        apply_op.body.block.add_arg(f64)
        with pytest.raises(Exception):
            jacobi_module.verify()


class TestShapeInference:
    def test_temp_bounds_inferred_from_store(self, jacobi_module):
        apply_op = stencil.apply_ops_of(jacobi_module)[0]
        # Drop the result bounds and reinfer them.
        apply_op.results[0].type = stencil.TempType(None, f64, rank=1)
        infer_shapes(jacobi_module)
        assert apply_op.results[0].type.bounds == stencil.StencilBoundsAttr([0], [8])

    def test_input_bounds_grow_by_footprint(self, jacobi_module):
        infer_shapes(jacobi_module)
        apply_op = stencil.apply_ops_of(jacobi_module)[0]
        operand_type = apply_op.operands[0].type
        assert operand_type.bounds.contains(stencil.StencilBoundsAttr([-1], [9]))

    def test_field_too_small_rejected(self):
        module = build_jacobi_module(n=8, halo=0)
        with pytest.raises(ShapeInferenceError):
            infer_shapes(module)


class TestFusion:
    def build_pw_like_module(self):
        builder = StencilProgramBuilder("kernel", shape=(8, 8), halo=1, dtype="f64")
        a, b, c, d = (builder.add_field(n) for n in "abcd")

        def shift(s):
            return s.add(s.access(0, (1, 0)), s.access(0, (-1, 0)))

        builder.add_stencil([a], c, shift)
        builder.add_stencil([b], d, shift)
        return builder.build()

    def test_independent_applies_fused(self):
        module = self.build_pw_like_module()
        infer_shapes(module)
        assert fuse_applies(module) == 1
        applies = stencil.apply_ops_of(module)
        assert len(applies) == 1
        assert len(applies[0].results) == 2

    def test_dependent_applies_not_fused(self):
        builder = StencilProgramBuilder("kernel", shape=(8,), halo=1, dtype="f64")
        a, b, c = builder.add_field("a"), builder.add_field("b"), builder.add_field("c")
        builder.add_stencil([a], b, lambda s: s.access(0, (1,)))
        builder.add_stencil([b], c, lambda s: s.access(0, (-1,)))  # reads b -> dependence
        module = builder.build()
        infer_shapes(module)
        assert fuse_applies(module) == 0
        assert len(stencil.apply_ops_of(module)) == 2

    def test_fused_result_matches_unfused(self):
        def run(fuse: bool):
            module = self.build_pw_like_module()
            infer_shapes(module)
            if fuse:
                fuse_applies(module)
            rng = np.random.default_rng(3)
            arrays = [rng.random((10, 10)) for _ in range(4)]
            Interpreter(module).call("kernel", *[a.copy() for a in arrays], 1)
            run_arrays = [a.copy() for a in arrays]
            Interpreter(module).call("kernel", *run_arrays, 1)
            return run_arrays

        plain = run(False)
        fused = run(True)
        for left, right in zip(plain, fused):
            assert np.allclose(left, right)

    def test_precodegen_pipeline_fuses_fig7_heat_chain(self):
        """The staged default pipeline fuses *before* stencil_to_scf.

        Fig. 7's heat chain applies the same star stencil to independent
        fields; the staged pre-codegen pipeline (stencil-fusion, cse, dce,
        canonicalize) must collapse them into one region while the program
        is still at the stencil level — once ``lower_stencil_to_scf`` runs,
        the apply structure is gone and fusion can never happen.
        """
        from repro.core import cpu_target, pipeline_for
        from repro.ir import PassManager
        from repro.transforms.stencil import count_stencil_regions

        builder = StencilProgramBuilder("kernel", shape=(8, 8), halo=1, dtype="f64")
        fields = [builder.add_field(name) for name in "abcdef"]

        def heat(s):
            lap = s.add(
                s.add(s.access(0, (1, 0)), s.access(0, (-1, 0))),
                s.add(s.access(0, (0, 1)), s.access(0, (0, -1))),
            )
            return s.add(s.access(0, (0, 0)), s.mul(s.constant(0.1), lap))

        for source, dest in zip(fields[:3], fields[3:]):
            builder.add_stencil([source], dest, heat)
        module = builder.build()
        infer_shapes(module)
        before = count_stencil_regions(module)
        assert before == 3
        stages = {stage.name: stage for stage in pipeline_for(cpu_target())}
        pipeline = PassManager([stages["precodegen"]])
        assert pipeline.pipeline_string().startswith("precodegen(stencil-fusion,"), (
            "fusion must be the first pass, ahead of any cleanup or lowering"
        )
        assert list(stages).index("precodegen") < list(stages).index("lower-stencil")
        pipeline.run(module)
        after = count_stencil_regions(module)
        assert after < before and after == 1
        # The staged pipeline left a lowerable stencil-level module behind.
        lower_stencil_to_scf(module)
        assert "stencil.apply" not in {op.name for op in module.walk()}

    def test_compile_pipeline_orders_fusion_before_stencil_to_scf(self):
        """compile_stencil_program reports the *fused* region count."""
        from repro.core import compile_stencil_program, cpu_target

        module = self.build_pw_like_module()
        program = compile_stencil_program(module, cpu_target())
        assert program.stencil_regions == 1, (
            "two independent applies must be fused into one region by the "
            "staged pipeline before lowering"
        )


class TestStencilToSCF:
    def test_lowering_removes_stencil_compute_ops(self, jacobi_module):
        lower_stencil_to_scf(jacobi_module)
        names = {op.name for op in jacobi_module.walk()}
        assert "stencil.apply" not in names
        assert "stencil.store" not in names
        assert "scf.parallel" in names
        assert "memref.load" in names and "memref.store" in names

    def test_lowered_execution_matches_reference(self, jacobi_initial):
        module = build_jacobi_module()
        lower_stencil_to_scf(module)
        canonicalize(module)
        module.verify()
        steps = 3
        a, b = jacobi_initial.copy(), jacobi_initial.copy()
        Interpreter(module).call("kernel", a, b, steps)
        expected = jacobi_reference(jacobi_initial, steps)
        latest = a if steps % 2 == 0 else b
        assert np.allclose(latest, expected)

    def test_tiled_lowering_matches_reference(self, jacobi_initial):
        module = build_jacobi_module()
        lower_stencil_to_scf(module, tile_sizes=[3])
        module.verify()
        steps = 2
        a, b = jacobi_initial.copy(), jacobi_initial.copy()
        Interpreter(module).call("kernel", a, b, steps)
        expected = jacobi_reference(jacobi_initial, steps)
        latest = a if steps % 2 == 0 else b
        assert np.allclose(latest, expected)
        assert any(isinstance(op, scf.ForOp) and "tiled" in (op.parent_op.attributes if op.parent_op else {})
                   or True for op in module.walk())

    def test_apply_result_used_outside_store_rejected(self):
        module = build_jacobi_module()
        apply_op = stencil.apply_ops_of(module)[0]
        # Add a second (non-store) user of the apply result.
        block = apply_op.parent_block
        extra = stencil.StoreOp(
            apply_op.results[0],
            module.walk().__next__().regions[0].block.ops[0].results[0]
            if False else apply_op.operands[0].owner.field,
            stencil.StencilBoundsAttr([0], [8]),
        )
        block.insert_op_after(extra, apply_op)
        with pytest.raises(StencilLoweringError):
            lower_stencil_to_scf(module)


class TestOpenMPAndGPULowering:
    def test_scf_to_openmp_wraps_each_parallel(self, jacobi_module):
        lower_stencil_to_scf(jacobi_module)
        converted = convert_scf_to_openmp(jacobi_module, num_threads=16)
        assert converted == 1
        assert count_parallel_regions(jacobi_module) == 1
        region = next(op for op in jacobi_module.walk() if isinstance(op, omp.ParallelOp))
        assert region.num_threads == 16
        assert any(isinstance(op, omp.WsLoopOp) for op in region.walk())
        assert any(isinstance(op, omp.BarrierOp) for op in region.walk())

    def test_openmp_execution_matches_reference(self, jacobi_initial):
        module = build_jacobi_module()
        lower_stencil_to_scf(module)
        convert_scf_to_openmp(module)
        steps = 2
        a, b = jacobi_initial.copy(), jacobi_initial.copy()
        interp = Interpreter(module)
        interp.call("kernel", a, b, steps)
        expected = jacobi_reference(jacobi_initial, steps)
        assert np.allclose(a, expected)
        assert interp.stats.omp_regions == steps

    def test_gpu_lowering_marks_kernels_and_syncs(self, jacobi_module):
        kernels = lower_stencil_to_gpu(jacobi_module)
        assert kernels == 1
        assert count_gpu_kernels(jacobi_module) == 1
        assert count_synchronizations(jacobi_module) == 1

    def test_gpu_execution_matches_reference(self, jacobi_initial):
        module = build_jacobi_module()
        lower_stencil_to_gpu(module)
        steps = 2
        a, b = jacobi_initial.copy(), jacobi_initial.copy()
        interp = Interpreter(module)
        interp.call("kernel", a, b, steps)
        assert np.allclose(a, jacobi_reference(jacobi_initial, steps))
        assert interp.stats.kernel_launches == steps
        assert interp.stats.host_synchronizations == steps


class TestHLSLowering:
    def test_optimized_and_initial_structures(self):
        optimized_module = build_jacobi_module()
        infos = lower_stencil_to_hls(optimized_module, optimize=True)
        assert len(infos) == 1
        assert infos[0].pipelined and infos[0].ddr_reads_per_cell == 1
        assert any(isinstance(op, hls.DataflowOp) for op in optimized_module.walk())
        assert any(
            isinstance(op, hls.StageOp) and "uses_shift_buffer" in op.attributes
            for op in optimized_module.walk()
        )

        initial_module = build_jacobi_module()
        infos = lower_stencil_to_hls(initial_module, optimize=False)
        assert not infos[0].pipelined
        assert infos[0].initiation_interval == infos[0].stencil_points == 3


class TestTileLoopTagging:
    def test_tiled_lowering_tags_every_intra_tile_loop(self):
        from repro.ir.attributes import IntAttr

        module = build_jacobi_module()
        lower_stencil_to_scf(module, tile_sizes=[3])
        tagged = [
            op for op in module.walk()
            if isinstance(op, scf.ForOp) and "tile_dim" in op.attributes
        ]
        assert len(tagged) == 1  # 1-D jacobi: one intra-tile loop per apply
        attr = tagged[0].attributes["tile_dim"]
        assert isinstance(attr, IntAttr) and attr.data == 0

    def test_untiled_lowering_has_no_tile_tags(self):
        module = build_jacobi_module()
        lower_stencil_to_scf(module)
        assert not any(
            "tile_dim" in op.attributes
            for op in module.walk() if isinstance(op, scf.ForOp)
        )

    @staticmethod
    def _in_place_module(offset):
        """8x8 ``u = u/2 + u[offset]/2``, stored into ``u`` itself."""
        builder = StencilProgramBuilder(shape=(8, 8), halo=1, dtype="f64")
        u = builder.add_field("u")
        builder.add_field("w")
        builder.add_stencil([u], u, lambda e: e.add(
            e.mul(e.constant(0.5), e.access(0, [0, 0])),
            e.mul(e.constant(0.5), e.access(0, list(offset)))))
        return builder.build()

    @pytest.mark.parametrize("offset", [(1, -1), (-1, 0), (0, 0)])
    def test_an_apply_reading_what_it_stores_off_cell_is_tiled_like_any_other(self, offset):
        """An in-place update reads off the cell from a copy of the field taken
        at its load, so the order tiles visit its cells in is not observed:
        it is tiled, and the tiled result equals the untiled."""
        module = self._in_place_module(offset)
        lower_stencil_to_scf(module, tile_sizes=[4, 4])
        assert any("tile_dim" in op.attributes for op in module.walk()
                   if isinstance(op, scf.ForOp))
        assert any(isinstance(op, memref.CopyOp) for op in module.walk()) == any(offset)
        rng = np.random.default_rng(1)
        fields = [rng.uniform(-1.0, 1.0, (10, 10)) for _ in range(2)]
        untiled = [field.copy() for field in fields]
        Interpreter(module).call("kernel", *fields, 3)
        reference = self._in_place_module(offset)
        lower_stencil_to_scf(reference)
        Interpreter(reference).call("kernel", *untiled, 3)
        assert all(np.array_equal(mine, theirs) for mine, theirs in zip(fields, untiled))
