"""Tests of the mini-Devito frontend: symbolics, FD coefficients, Operator back-ends."""

import numpy as np
import pytest

from repro.core import ExecutionConfig, Session, dmp_target, smp_target
from repro.dialects import scf, stencil
from repro.frontends.devito import (
    Access,
    Eq,
    Function,
    Grid,
    Operator,
    OperatorError,
    SolveError,
    TimeFunction,
    central_difference_coefficients,
    solve,
)


class TestSymbolics:
    def test_grid_properties(self):
        grid = Grid(shape=(10, 20), extent=(1.0, 2.0))
        assert grid.ndim == 2
        assert grid.spacing == (1.0 / 9, 2.0 / 19)
        assert [d.name for d in grid.dimensions] == ["x", "y"]

    def test_time_function_buffers_and_halo(self):
        grid = Grid(shape=(8, 8))
        u = TimeFunction(name="u", grid=grid, space_order=4, time_order=2)
        assert u.halo == 2
        assert u.buffers == 3
        assert u.data_with_halo.shape == (3, 12, 12)
        assert u.data.shape == (3, 8, 8)

    def test_invalid_orders_rejected(self):
        grid = Grid(shape=(8,))
        with pytest.raises(ValueError):
            TimeFunction(name="u", grid=grid, space_order=3)
        with pytest.raises(ValueError):
            TimeFunction(name="u", grid=grid, time_order=4)

    def test_expression_building(self):
        grid = Grid(shape=(8,))
        u = TimeFunction(name="u", grid=grid, space_order=2)
        expr = 2.0 * u.laplace + u.forward - 1.0
        accesses = expr.accesses()
        assert any(a.time_offset == 1 for a in accesses)
        assert {a.space_offsets for a in accesses} >= {(-1,), (0,), (1,)}

    def test_laplace_offsets_match_space_order(self):
        grid = Grid(shape=(8, 8))
        u = TimeFunction(name="u", grid=grid, space_order=4)
        offsets = {a.space_offsets for a in u.laplace.accesses()}
        assert (2, 0) in offsets and (0, -2) in offsets


class TestFiniteDifferences:
    def test_second_order_second_derivative(self):
        coefficients = dict(central_difference_coefficients(2, 2))
        assert coefficients == pytest.approx({-1: 1.0, 0: -2.0, 1: 1.0})

    def test_fourth_order_second_derivative(self):
        coefficients = dict(central_difference_coefficients(2, 4))
        assert coefficients[0] == pytest.approx(-2.5)
        assert coefficients[1] == pytest.approx(4.0 / 3.0)
        assert coefficients[2] == pytest.approx(-1.0 / 12.0)

    def test_coefficients_sum_to_zero(self):
        for space_order in (2, 4, 8):
            coefficients = central_difference_coefficients(2, space_order)
            assert sum(c for _, c in coefficients) == pytest.approx(0.0, abs=1e-9)

    def test_first_derivative_antisymmetric(self):
        coefficients = dict(central_difference_coefficients(1, 2))
        assert coefficients[1] == pytest.approx(-coefficients[-1])

    def test_derivative_exact_on_polynomials(self):
        # The order-4 second derivative must be exact for x^4 at x = 0 ... well,
        # exact for cubics; check against an analytic quadratic.
        coefficients = central_difference_coefficients(2, 4)
        h = 0.1
        values = {offset: (offset * h) ** 2 for offset, _ in coefficients}
        approx = sum(c * values[o] for o, c in coefficients) / h ** 2
        assert approx == pytest.approx(2.0, rel=1e-8)


class TestSolve:
    def test_first_order_update(self):
        grid = Grid(shape=(8,))
        u = TimeFunction(name="u", grid=grid, space_order=2)
        update = solve(Eq(u.dt, u.laplace), u.forward)
        accesses = update.accesses()
        assert all(a.time_offset in (0,) for a in accesses)

    def test_second_order_update_uses_backward(self):
        grid = Grid(shape=(8,))
        u = TimeFunction(name="u", grid=grid, space_order=2, time_order=2)
        update = solve(Eq(u.dt2, u.laplace), u.forward)
        assert any(a.time_offset == -1 for a in update.accesses())

    def test_unsupported_equation_rejected(self):
        grid = Grid(shape=(8,))
        u = TimeFunction(name="u", grid=grid, space_order=2)
        with pytest.raises(SolveError):
            solve(Eq(u.laplace, u.forward), u.forward)
        with pytest.raises(SolveError):
            solve(Eq(u.dt, u.laplace), Access(u, 0, (0,)))


def heat_problem(shape, space_order=2, dtype=np.float64):
    grid = Grid(shape=shape, extent=tuple(1.0 for _ in shape))
    u = TimeFunction(name="u", grid=grid, space_order=space_order, dtype=dtype)
    centre = tuple(s // 2 for s in shape)
    u.data[0][centre] = 1.0
    u.data[1][:] = u.data[0]
    update = Eq(u.forward, solve(Eq(u.dt, 0.4 * u.laplace), u.forward))
    return u, [update]


class TestOperator:
    def test_stencil_module_structure(self):
        u, equations = heat_problem((12, 12))
        module = Operator(equations).stencil_module(dt=1e-4)
        module.verify()
        applies = stencil.apply_ops_of(module)
        assert len(applies) == 1
        assert any(isinstance(op, scf.ForOp) for op in module.walk())

    def test_native_and_xdsl_agree_heat(self):
        results = {}
        for backend in ("native", "xdsl"):
            u, equations = heat_problem((12, 12))
            Operator(equations, backend=backend).apply(time=4, dt=1e-4)
            results[backend] = u.data.copy()
        assert np.allclose(results["native"], results["xdsl"], atol=1e-12)

    def test_native_and_xdsl_agree_wave_1d(self):
        results = {}
        for backend in ("native", "xdsl"):
            grid = Grid(shape=(24,), extent=(1.0,))
            u = TimeFunction(name="u", grid=grid, space_order=4, time_order=2,
                             dtype=np.float64)
            u.data[0][12] = 1.0
            u.data[1][:] = u.data[0]
            update = Eq(u.forward, solve(Eq(u.dt2, 2.0 * u.laplace), u.forward))
            Operator([update], backend=backend).apply(time=5, dt=1e-3)
            results[backend] = u.data.copy()
        assert np.allclose(results["native"], results["xdsl"], atol=1e-12)

    def test_a_bare_function_read_inside_an_expression(self):
        """``u`` and ``c`` used bare mean their value at the current point:
        the lowering loads them like ``u[t, 0, 0]`` (it raised KeyError)."""
        results = {}
        for backend in ("native", "xdsl"):
            grid = Grid(shape=(10, 8))
            u = TimeFunction(name="u", grid=grid, space_order=2, dtype=np.float64)
            c = Function(name="c", grid=grid, space_order=2, dtype=np.float64)
            u.data[0][...] = np.arange(80.0).reshape(10, 8) / 80.0
            c.data[...] = 0.25
            Operator([Eq(u.forward, 0.5 * u + c * u.laplace - c)],
                     backend=backend).apply(time=3, dt=1e-3)
            results[backend] = u.data.copy()
        assert np.array_equal(results["native"], results["xdsl"])

    def test_distributed_matches_single_rank(self):
        results = {}
        for target in (None, dmp_target((2, 2))):
            u, equations = heat_problem((16, 16))
            kwargs = {"backend": "xdsl"}
            if target is not None:
                kwargs["target"] = target
            Operator(equations, **kwargs).apply(time=3, dt=1e-4)
            results["dist" if target else "single"] = u.data.copy()
        assert np.allclose(results["single"], results["dist"], atol=1e-12)

    def test_smp_target_matches_reference(self):
        results = {}
        for backend, target in (("native", None), ("xdsl", smp_target(threads=4, tile_sizes=(4, 4)))):
            u, equations = heat_problem((12, 12))
            kwargs = {"backend": backend}
            if target is not None:
                kwargs["target"] = target
            Operator(equations, **kwargs).apply(time=2, dt=1e-4)
            results[backend] = u.data.copy()
        assert np.allclose(results["native"], results["xdsl"], atol=1e-12)

    def test_buffer_rotation_mapping(self):
        grid = Grid(shape=(8,))
        u2 = TimeFunction(name="u", grid=grid, space_order=2, time_order=1)
        u3 = TimeFunction(name="w", grid=grid, space_order=2, time_order=2)
        assert Operator.buffer_holding_time(u2, 4) == 0
        assert Operator.buffer_holding_time(u2, 5) == 1
        assert Operator.buffer_holding_time(u3, 1) == 2
        assert Operator.buffer_holding_time(u3, 3) == 0

    def test_characteristics_reflect_space_order(self):
        u, equations = heat_problem((12, 12), space_order=2)
        low = Operator(equations).characteristics()
        u, equations = heat_problem((12, 12), space_order=8)
        high = Operator(equations).characteristics()
        assert high.applies[0].accesses > low.applies[0].accesses
        assert high.applies[0].flops_per_cell > low.applies[0].flops_per_cell

    def test_config_reaches_the_plan_and_picks_the_tier(self):
        """``config=`` configures the operator's plan: the tree-walker
        backend runs no megakernel, the default runs one, bit-identically."""
        results = {}
        for backend in ("interpreter", "auto"):
            u, equations = heat_problem((12, 12))
            config = ExecutionConfig(backend=backend)
            with Session() as session:
                operator = Operator(equations, config=config, session=session)
                operator.apply(time=3, dt=1e-4)
                assert operator.plan(1e-4).config == config
                engaged = session.metrics.get("megakernel.engaged")
            results[backend] = (u.data.copy(), engaged)
        assert results["interpreter"][1] == 0 and results["auto"][1] == 1
        assert results["interpreter"][0].tobytes() == results["auto"][0].tobytes()

    def test_invalid_operator_usage(self):
        grid = Grid(shape=(8,))
        u = TimeFunction(name="u", grid=grid, space_order=2)
        with pytest.raises(OperatorError):
            Operator([])
        with pytest.raises(OperatorError):
            Operator([Eq(u.forward, u.laplace)], backend="fortran")
        with pytest.raises(OperatorError):
            # assignment must target u.forward
            Operator([Eq(Access(u, 0, (0,)), u.laplace)]).apply(time=1)
