"""Tests of the mini-PSyclone frontend (parser, PSy-IR, backend) and the OEC builder."""

import numpy as np
import pytest

from repro.dialects import stencil
from repro.frontends.oec import BuilderError, StencilProgramBuilder
from repro.frontends.psyclone import (
    ArrayReference,
    Assignment,
    FortranParseError,
    Loop,
    PsycloneXDSLBackend,
    StencilExtractionError,
    extract_stencils,
    parse_fortran,
    reference_execute,
)
from repro.interp import Interpreter
from repro.workloads import pw_advection, tracer_advection

SIMPLE_KERNEL = """
subroutine smooth(out, field)
  do k = 1, nz
    do j = 1, ny
      do i = 1, nx
        out(i, j, k) = 0.25 * (field(i+1, j, k) + field(i-1, j, k) + field(i, j+1, k) + field(i, j-1, k))
      end do
    end do
  end do
end subroutine
"""


class TestFortranParser:
    def test_parse_structure(self):
        schedule = parse_fortran(SIMPLE_KERNEL)
        assert schedule.name == "smooth"
        assert schedule.arguments == ["out", "field"]
        assert len(schedule.body) == 1
        outer = schedule.body[0]
        assert isinstance(outer, Loop) and outer.variable == "k"
        assert schedule.array_names() == ["out", "field"]
        assert schedule.written_arrays() == ["out"]

    def test_offsets_parsed(self):
        schedule = parse_fortran(SIMPLE_KERNEL)
        references = schedule.walk(ArrayReference)
        offsets = {r.offsets for r in references if r.name == "field"}
        assert (1, 0, 0) in offsets and (0, -1, 0) in offsets

    def test_comments_and_declarations_skipped(self):
        source = """
subroutine f(a, b)
  real :: a(:,:,:)  ! a declaration
  do k = 1, nz
    do j = 1, ny
      do i = 1, nx
        a(i, j, k) = b(i, j, k) * 2.0  ! double it
      end do
    end do
  end do
end subroutine
"""
        schedule = parse_fortran(source)
        assert len(schedule.walk(Assignment)) == 1

    def test_parse_errors(self):
        with pytest.raises(FortranParseError):
            parse_fortran("")
        with pytest.raises(FortranParseError):
            parse_fortran("subroutine f(a)\n  do i = 1, n\nend subroutine")
        with pytest.raises(FortranParseError):
            parse_fortran("subroutine f(a)\n  a(i*2) = 1.0\nend subroutine")
        with pytest.raises(FortranParseError):
            parse_fortran("not fortran at all")


class TestStencilExtraction:
    def test_stencils_identified(self):
        schedule = parse_fortran(SIMPLE_KERNEL)
        stencils = extract_stencils(schedule)
        assert len(stencils) == 1
        assert stencils[0].output == "out"
        assert stencils[0].inputs == ["field"]
        assert stencils[0].halo() == 1

    def test_pw_advection_has_three_stencils(self):
        stencils = extract_stencils(pw_advection().schedule)
        assert len(stencils) == 3
        assert {s.output for s in stencils} == {"su", "sv", "sw"}

    def test_tracer_advection_has_many_dependent_stencils(self):
        stencils = extract_stencils(tracer_advection(computations=24).schedule)
        assert len(stencils) == 24
        written = [s.output for s in stencils]
        read = {name for s in stencils for name in s.inputs}
        # Dependencies: previously written arrays are read again later.
        assert set(written) & read

    def test_no_stencil_rejected(self):
        schedule = parse_fortran("subroutine f(a)\n  a(i) = 1.0\nend subroutine")
        schedule.body.clear()
        with pytest.raises(StencilExtractionError):
            extract_stencils(schedule)


class TestPsycloneBackend:
    def test_compiled_kernel_matches_reference(self):
        schedule = parse_fortran(SIMPLE_KERNEL)
        shape = (6, 6, 4)
        module = PsycloneXDSLBackend(dtype=np.float64).build_module(schedule, shape)
        module.verify()
        rng = np.random.default_rng(1)
        arrays = {name: rng.random(tuple(s + 2 for s in shape)) for name in schedule.array_names()}
        reference = {name: array.copy() for name, array in arrays.items()}
        Interpreter(module).call(
            "smooth", *[arrays[name] for name in schedule.array_names()], 2
        )
        reference_execute(schedule, reference, halo=1, iterations=2)
        for name in arrays:
            assert np.allclose(arrays[name], reference[name])

    def test_pw_advection_correctness(self):
        workload = pw_advection(shape=(6, 6, 4), iterations=1)
        schedule = workload.schedule
        module = workload.build_module(dtype=np.float64)
        arrays = workload.arrays(dtype=np.float64, seed=5)
        reference = {name: array.copy() for name, array in arrays.items()}
        Interpreter(module).call(
            schedule.name, *[arrays[n] for n in schedule.array_names()], 1
        )
        reference_execute(schedule, reference, halo=1, iterations=1)
        for name in arrays:
            assert np.allclose(arrays[name], reference[name])

    def test_scalar_parameters_require_values(self):
        source = """
subroutine scaled(out, a)
  do k = 1, nz
    do j = 1, ny
      do i = 1, nx
        out(i, j, k) = alpha * a(i, j, k)
      end do
    end do
  end do
end subroutine
"""
        schedule = parse_fortran(source)
        backend = PsycloneXDSLBackend()
        with pytest.raises(StencilExtractionError):
            backend.build_module(schedule, (4, 4, 2))
        module = backend.build_module(schedule, (4, 4, 2), scalars={"alpha": 2.0})
        module.verify()


class TestOECBuilder:
    def test_builder_produces_valid_module(self):
        builder = StencilProgramBuilder("kernel", shape=(8, 8), halo=1)
        a = builder.add_field("a")
        b = builder.add_field("b")
        builder.add_stencil([a], b, lambda s: s.mul(s.access(0, (0, 0)), s.constant(2.0)))
        builder.swap(a, b)
        module = builder.build()
        module.verify()
        assert len(stencil.apply_ops_of(module)) == 1

    def test_builder_requires_a_stencil(self):
        builder = StencilProgramBuilder("kernel", shape=(4,))
        builder.add_field("a")
        with pytest.raises(BuilderError):
            builder.build()

    def test_builder_execution(self):
        builder = StencilProgramBuilder("kernel", shape=(6,), halo=1, dtype="f64")
        a = builder.add_field("a")
        b = builder.add_field("b")
        builder.add_stencil(
            [a], b, lambda s: s.add(s.access(0, (-1,)), s.access(0, (1,)))
        )
        module = builder.build()
        left = np.arange(8, dtype=np.float64)
        right = np.zeros(8)
        Interpreter(module).call("kernel", left, right, 1)
        expected = left[0:6] + left[2:8]
        assert np.allclose(right[1:7], expected)


MASKED_KERNEL = """
subroutine masked_smooth(out, field)
  do k = 1, nz
    do j = 1, ny
      do i = 1, nx
        out(i, j, k) = merge(0.5 * (field(i+1, j, k) - field(i-1, j, k)), 0.25 * field(i, j, k), field(i, j, k) > 0.5)
      end do
    end do
  end do
end subroutine
"""


class TestMaskedKernelParsing:
    def test_merge_parses_into_merge_and_comparison_nodes(self):
        from repro.frontends.psyclone import BinaryOperation, Comparison, Merge

        schedule = parse_fortran(MASKED_KERNEL)
        assignment = schedule.walk(Assignment)[0]
        merge = assignment.rhs
        assert isinstance(merge, Merge)
        assert isinstance(merge.true_value, BinaryOperation)
        condition = merge.condition
        assert isinstance(condition, Comparison)
        assert condition.operator == ">"
        assert isinstance(condition.lhs, ArrayReference)
        assert schedule.walk(Merge) and schedule.walk(Comparison)

    @pytest.mark.parametrize("operator", [">", "<", ">=", "<=", "==", "/="])
    def test_all_comparison_operators_parse(self, operator):
        from repro.frontends.psyclone import Comparison

        source = MASKED_KERNEL.replace(">", operator, 1) if operator != ">" else MASKED_KERNEL
        schedule = parse_fortran(source)
        comparison = schedule.walk(Comparison)[0]
        assert comparison.operator == operator

    def test_masked_inputs_collected_through_merge(self):
        schedule = parse_fortran(MASKED_KERNEL)
        stencils = extract_stencils(schedule)
        assert stencils[0].inputs == ["field"]
        assert stencils[0].halo() == 1

    def test_masked_compiled_kernel_matches_reference(self):
        schedule = parse_fortran(MASKED_KERNEL)
        shape = (6, 6, 4)
        module = PsycloneXDSLBackend(dtype=np.float64).build_module(schedule, shape)
        module.verify()
        rng = np.random.default_rng(23)
        full = tuple(s + 2 for s in shape)
        out = np.zeros(full)
        field = rng.random(full)
        reference = {"out": out.copy(), "field": field.copy()}
        reference_execute(schedule, reference, halo=1, iterations=1)
        compiled_out, compiled_field = out.copy(), field.copy()
        Interpreter(module).call("masked_smooth", compiled_out, compiled_field, 1)
        assert np.allclose(reference["out"], compiled_out)
