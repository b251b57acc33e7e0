"""Property-based tests (hypothesis) of core data structures and invariants."""

import dataclasses
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    compile_stencil_program,
    cpu_target,
    default_session,
    dmp_target,
    smp_target,
)
from repro.dialects import arith, builtin, dmp, func, memref, scf, stencil
from repro.frontends.oec import StencilProgramBuilder
from repro.interp import (
    CodegenError,
    CompiledMegakernel,
    Interpreter,
    compile_kernel,
    emit_megakernel,
    megakernel_signature,
    nestplan,
    trace_program,
)
from repro.ir import Builder, FunctionType, MemRefType, f32, f64, i1, i32, i64
from repro.ir.pass_manager import PassFailedError
from repro.transforms.distribute import GridSlicingStrategy
from tests.conftest import build_jacobi_module, run_compiled, run_spmd

bounds_pairs = st.lists(
    st.tuples(st.integers(-8, 8), st.integers(0, 16)), min_size=1, max_size=3
).map(lambda pairs: ([lo for lo, _ in pairs], [lo + extent for lo, extent in pairs]))


class TestStencilBoundsProperties:
    @given(bounds_pairs)
    def test_size_is_product_of_shape(self, pair):
        lb, ub = pair
        bounds = stencil.StencilBoundsAttr(lb, ub)
        assert bounds.size() == int(np.prod(bounds.shape))

    @given(bounds_pairs, st.integers(0, 4), st.integers(0, 4))
    def test_grown_bounds_contain_original(self, pair, low, high):
        lb, ub = pair
        bounds = stencil.StencilBoundsAttr(lb, ub)
        grown = bounds.grown_by([low] * bounds.rank, [high] * bounds.rank)
        assert grown.contains(bounds)
        assert grown.shape == tuple(s + low + high for s in bounds.shape)

    @given(bounds_pairs, bounds_pairs)
    def test_printed_text_identifies_the_bounds(self, one, other):
        # The printed module is what a program's fingerprint hashes: equal
        # bounds must print alike and different bounds differently.
        a, b = stencil.StencilBoundsAttr(*one), stencil.StencilBoundsAttr(*other)
        assert (a == b) == (a.print_parameters(None) == b.print_parameters(None))


grid_shapes = st.lists(st.integers(1, 4), min_size=1, max_size=3)


class TestGridProperties:
    @given(grid_shapes)
    def test_rank_coordinate_bijection(self, shape):
        grid = dmp.GridAttr(shape)
        seen = set()
        for rank in range(grid.rank_count):
            coords = grid.coords_of(rank)
            assert grid.rank_of(coords) == rank
            seen.add(coords)
        assert len(seen) == grid.rank_count

    @given(grid_shapes, st.integers(0, 2), st.sampled_from([-1, 1]))
    def test_neighbor_is_symmetric(self, shape, dim, direction):
        grid = dmp.GridAttr(shape)
        dim = dim % grid.ndims
        offset = [0] * grid.ndims
        offset[dim] = direction
        back = [0] * grid.ndims
        back[dim] = -direction
        for rank in range(grid.rank_count):
            neighbor = grid.neighbor_of(rank, offset)
            if neighbor is not None:
                assert grid.neighbor_of(neighbor, back) == rank


class TestDecompositionProperties:
    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.integers(1, 3),
    )
    @settings(max_examples=30)
    def test_slabs_partition_domain(self, px, py, per_rank):
        strategy = GridSlicingStrategy([px, py])
        shape = (px * per_rank * 2, py * per_rank * 2)
        covered = np.zeros(shape, dtype=int)
        for rank in range(strategy.rank_count):
            start, end = strategy.global_slab(shape, rank)
            covered[start[0]:end[0], start[1]:end[1]] += 1
        assert (covered == 1).all()

    @given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 2))
    @settings(max_examples=30)
    def test_exchanges_stay_inside_buffer(self, ranks, per_rank, halo):
        strategy = GridSlicingStrategy([ranks])
        domain = strategy.local_domain((ranks * per_rank * 2,), (halo,), (halo,))
        buffer_shape = domain.buffer_shape
        for exchange in strategy.exchanges(domain):
            for offsets, sizes in (exchange.recv_region, exchange.send_region):
                for offset, size, extent in zip(offsets, sizes, buffer_shape):
                    assert 0 <= offset and offset + size <= extent


class TestCanonicalisationProperties:
    @given(st.lists(st.integers(-50, 50), min_size=2, max_size=6))
    @settings(max_examples=30)
    def test_constant_folding_preserves_value(self, values):
        from repro.dialects import arith, builtin, func
        from repro.interp import Interpreter
        from repro.ir import Builder, FunctionType, i64
        from repro.transforms.common import canonicalize

        kernel = func.FuncOp("kernel", FunctionType([], [i64]))
        builder = Builder.at_end(kernel.body.block)
        accumulator = builder.insert(arith.ConstantOp.from_int(values[0], i64)).result
        for i, value in enumerate(values[1:]):
            operand = builder.insert(arith.ConstantOp.from_int(value, i64)).result
            op_cls = [arith.AddiOp, arith.SubiOp, arith.MuliOp][i % 3]
            accumulator = builder.insert(op_cls(accumulator, operand)).result
        builder.insert(func.ReturnOp([accumulator]))
        module = builtin.ModuleOp([kernel])
        before = Interpreter(module).call("kernel")[0]
        canonicalize(module)
        module.verify()
        after = Interpreter(module).call("kernel")[0]
        assert before == after


class TestHaloExchangeProperty:
    @given(st.integers(2, 4), st.integers(1, 2), st.integers(2, 4))
    @settings(max_examples=15, deadline=None)
    def test_halo_exchange_transfers_correct_strips(self, ranks, halo, per_rank):
        """After one dmp-style exchange every rank's halo equals its neighbour's core edge."""
        n_local = per_rank * 2 * halo
        strategy = GridSlicingStrategy([ranks])
        domain = strategy.local_domain((ranks * n_local,), (halo,), (halo,))
        exchanges = strategy.exchanges(domain)
        grid = strategy.rank_grid()
        locals_ = [
            np.full(domain.buffer_shape, float(rank), dtype=np.float64)
            for rank in range(ranks)
        ]

        def tag(exchange, sending):
            direction = exchange.neighbor[0] if sending else -exchange.neighbor[0]
            return 1 if direction > 0 else 0

        def body(comm):
            data = locals_[comm.rank]
            for exchange in exchanges:
                neighbor = grid.neighbor_of(comm.rank, exchange.neighbor)
                if neighbor is None:
                    continue
                send_off, send_size = exchange.send_region
                comm.isend(
                    data[send_off[0]:send_off[0] + send_size[0]].copy(), neighbor,
                    tag(exchange, True),
                )
            for exchange in exchanges:
                neighbor = grid.neighbor_of(comm.rank, exchange.neighbor)
                if neighbor is None:
                    continue
                recv_off, recv_size = exchange.recv_region
                buffer = np.empty(recv_size[0])
                comm.recv(buffer, neighbor, tag(exchange, False))
                data[recv_off[0]:recv_off[0] + recv_size[0]] = buffer

        run_spmd(body, ranks, timeout=10.0)
        for rank in range(ranks):
            if rank > 0:
                assert (locals_[rank][:halo] == float(rank - 1)).all()
            if rank < ranks - 1:
                assert (locals_[rank][-halo:] == float(rank + 1)).all()


# ---------------------------------------------------------------------------
# differential fuzz of the one nest emitter
# ---------------------------------------------------------------------------
#
# The tree walker is the executable semantics; the megakernel that inlines
# the emitted statements, whole and chunked over a thread team, must agree
# with it bit for bit on programs nobody hand-picked.

_OPS = ("add", "sub", "mul", "div")


def _expressions(fields: int, ndim: int, halo: int):
    """Expression trees over ``fields`` inputs: nested tuples, leaves first.

    Half the accesses lie on an axis, so that programs without a diagonal
    read run on multi-axis rank grids too.
    """
    offsets = st.tuples(*[st.integers(-halo, halo)] * ndim)
    on_an_axis = st.tuples(st.integers(0, ndim - 1), st.integers(-halo, halo)).map(
        lambda pair: tuple(pair[1] if axis == pair[0] else 0 for axis in range(ndim)))
    access = st.tuples(st.just("access"), st.integers(0, fields - 1), offsets | on_an_axis)
    constant = st.tuples(
        st.just("const"), st.sampled_from([-2.0, -0.75, 0.125, 0.5, 1.0, 3.0])
    )
    return st.recursive(
        access | access | access | constant,
        lambda children: st.tuples(st.sampled_from(_OPS), children, children),
        max_leaves=6,
    ).filter(lambda tree: tree[0] != "const")


@st.composite
def _oec_programs(draw):
    ndim = draw(st.integers(1, 3))
    halo = draw(st.integers(1, 2))
    fields = draw(st.integers(2, 3))
    stencils = []
    for _ in range(draw(st.integers(1, 2))):
        inputs = draw(st.lists(
            st.integers(0, fields - 1), min_size=1, max_size=2, unique=True))
        stencils.append((
            inputs,
            draw(st.integers(0, fields - 1)),
            draw(_expressions(len(inputs), ndim, halo)),
        ))
    return {
        "shape": (draw(st.sampled_from([4, 6, 8])),)
        + tuple(draw(st.integers(3, 6)) for _ in range(ndim - 1)),
        "halo": halo,
        "dtype": draw(st.sampled_from(["f32", "f64"])),
        "fields": fields,
        "stencils": stencils,
        "swap": draw(st.booleans()),
        "steps": draw(st.integers(1, 3)),
        "seed": draw(st.integers(0, 2**16)),
    }


def _oec_module(spec):
    builder = StencilProgramBuilder(
        shape=spec["shape"], halo=spec["halo"], dtype=spec["dtype"])
    handles = [builder.add_field(f"f{k}") for k in range(spec["fields"])]

    def body_of(tree):
        def emit(expr, node):
            if node[0] == "access":
                return expr.access(node[1], list(node[2]))
            if node[0] == "const":
                return expr.constant(node[1])
            lhs, rhs = emit(expr, node[1]), emit(expr, node[2])
            if node[0] == "div":
                # The tree walker divides python floats (ZeroDivisionError):
                # keep every divisor >= 1.
                rhs = expr.add(expr.mul(rhs, rhs), expr.constant(1.0))
            return getattr(expr, node[0])(lhs, rhs)

        return lambda expr: emit(expr, tree)

    for inputs, output, tree in spec["stencils"]:
        builder.add_stencil(
            [handles[k] for k in inputs], handles[output], body_of(tree))
    if spec["swap"]:
        builder.swap(handles[0], handles[1])
    return builder.build()


#: A rank grid split along two axes, by program rank (one axis in 1-D).
_MULTI_AXIS_GRIDS = {1: (2,), 2: (2, 2), 3: (2, 1, 2)}


def _targets(ndim: int):
    grid = (2,) + (1,) * (ndim - 1)
    multi = _MULTI_AXIS_GRIDS[ndim]
    return {
        "cpu": cpu_target(),
        "smp": smp_target(threads=2, tile_sizes=(4,) * ndim),
        "dmp": dmp_target(grid),
        "dmp-libcall": dmp_target(grid, lower_to_library_calls=True),
        "dmp-multi-axis": dmp_target(multi),
        "dmp-libcall-multi-axis": dmp_target(multi, lower_to_library_calls=True),
    }


def _accesses(tree):
    """The ``(operand, offset)`` reads of an expression tree."""
    if tree[0] == "access":
        return [tree[1:]]
    return [] if tree[0] == "const" else _accesses(tree[1]) + _accesses(tree[2])


def _reads_unexchanged_cells(spec, grid) -> bool:
    """Whether a stencil reads a cell no halo exchange delivers as the
    undecomposed program sees it: diagonally across two axes split over
    ranks, or behind its own sweep along a split axis of the field it writes."""
    split = [axis for axis, ranks in enumerate(grid) if ranks > 1]
    return any(
        sum(offset[axis] != 0 for axis in split) > 1
        or inputs[operand] == output and offset < (0,) * len(offset)
        and any(offset[axis] for axis in split)
        for inputs, output, tree in spec["stencils"] for operand, offset in _accesses(tree)
    )


#: The execution tiers: the tree walker first (the reference), then the
#: megakernel, whole and with its boxes chunked over a 2-thread team.
_TIERS = (
    dict(backend="interpreter"),
    dict(backend="auto", codegen="auto"),
    dict(backend="auto", codegen="auto", threads_per_rank=2),
)


#: Small enough that the drawn boxes (a few cells per axis) run as several
#: blocks with ragged last ones, also inside team chunks and overlap strips.
_SMALL_BLOCK_CELLS = 8


def _compiled_worlds():
    """Patch the cost thresholds: first as shipped, then with blocks forced.

    Thread-team chunking normally needs 4096 cells to be worth it; it is
    forced in both.
    """
    for budget in (nestplan._BLOCK_CELLS, _SMALL_BLOCK_CELLS):
        with mock.patch.object(nestplan, "_TEAM_MIN_CELLS", 1), \
                mock.patch.object(nestplan, "_BLOCK_CELLS", budget):
            yield budget


def _run_tiers(program, make_fields, steps):
    """Run every tier; assert fields, Exec and Comm statistics all agree.

    Returns the tree walker's fields.
    """

    def run(tier):
        fields = make_fields()
        result = default_session().run(
            program, fields, [steps], runtime="threads", **tier)
        # Two counters describe *how* a tier ran, not what it computed:
        # the tree walker dispatches ops per cell and never overlaps a
        # halo exchange.  The compiled tiers must agree on both.
        how = [(s.ops_executed, s.halo_swaps_overlapped) for s in result.statistics]
        observed = (
            [field.tobytes() for field in fields],
            [
                dataclasses.replace(s, ops_executed=0, halo_swaps_overlapped=0)
                for s in result.statistics
            ],
            result.comm_statistics,
        )
        return observed, how

    reference, _ = run(_TIERS[0])
    compiled_how = None
    for budget in _compiled_worlds():
        program._megakernel_cache.clear()  # emitted under the other budget
        for tier in _TIERS[1:]:
            observed, how = run(tier)
            assert observed == reference, (tier, budget)
            if compiled_how is None:
                compiled_how = how
            assert how == compiled_how, (tier, budget)
    return reference[0]


def _load(b, ref, indices):
    return b.insert(memref.LoadOp(ref, list(indices))).result


def _apply(b, op_cls, *operands):
    return b.insert(op_cls(*operands)).result


def _store(b, value, ref, indices):
    b.insert(memref.StoreOp(value, ref, list(indices)))


def _const(b, value, element=f64):
    if isinstance(value, float):
        return b.insert(arith.ConstantOp.from_float(value, element)).result
    return b.insert(arith.ConstantOp.from_int(value)).result


def _case_in_place(b, args, ivs):
    u, w = args
    _store(b, _apply(b, arith.AddfOp, _load(b, u, ivs), _load(b, w, ivs)), u, ivs)


def _case_store_feeds_on_a_later_target(b, args, ivs):
    a, w, out = args
    v = _load(b, a, ivs)
    _store(b, _apply(b, arith.MulfOp, v, v), out, ivs)
    _store(b, _apply(b, arith.AddfOp, v, _load(b, w, ivs)), a, ivs)


def _case_store_views_an_earlier_target(b, args, ivs):
    a, w, out = args
    v = _load(b, a, ivs)
    _store(b, _apply(b, arith.AddfOp, v, _load(b, w, ivs)), a, ivs)
    _store(b, v, out, ivs)


def _case_f32_store_of_an_f64_op(b, args, ivs):
    x, y, out = args
    _store(b, _apply(b, arith.DivfOp, _load(b, x, ivs),
                     _apply(b, arith.AddfOp, _load(b, y, ivs), _const(b, 9.0, f32))),
           out, ivs)


def _case_i32_store_of_an_i64_op(b, args, ivs):
    small, wide, out = args
    k = _apply(b, arith.ExtSIOp, _load(b, small, ivs), i64)
    _store(b, _apply(b, arith.TruncIOp, _apply(
        b, arith.MuliOp, k, _load(b, wide, ivs)), i32), out, ivs)


def _case_select(b, args, ivs):
    x, y, out = args
    lhs, rhs = _load(b, x, ivs), _load(b, y, ivs)
    _store(b, _apply(b, arith.SelectOp, _apply(b, arith.CmpfOp, "ogt", lhs, rhs),
                     lhs, _apply(b, arith.MulfOp, rhs, _const(b, 2.0))), out, ivs)


def _case_lower_rank_loads(b, args, ivs):
    x, row, column, out = args
    scaled = _apply(b, arith.MulfOp, _load(b, x, ivs), _load(b, row, ivs[1:]))
    _store(b, _apply(b, arith.AddfOp, scaled, _apply(
        b, arith.ExtFOp, _load(b, column, ivs[:1]), f64)), out, ivs)


def _case_only_lower_rank_loads(b, args, ivs):
    row, column, out = args
    _store(b, _apply(b, arith.SubfOp, _load(b, row, ivs[1:]),
                     _load(b, column, ivs[:1])), out, ivs)


def _case_free_scalar(b, args, ivs):
    x, out, scale = args
    _store(b, _apply(b, arith.MulfOp, _load(b, x, ivs), scale), out, ivs)


def _case_induction_variable_value(b, args, ivs):
    x, out = args
    row = _apply(b, arith.SIToFPOp, _apply(b, arith.IndexCastOp, ivs[0], i64), f64)
    _store(b, _apply(b, arith.NegfOp, _apply(
        b, arith.AddfOp, _load(b, x, ivs), row)), out, ivs)


def _case_reduction_next_to_a_store(b, args, ivs):
    x, y, out, _ = args
    total = _apply(b, arith.AddfOp, _load(b, x, ivs), _load(b, y, ivs))
    _store(b, total, out, ivs)
    return [(total, arith.AddfOp)]


def _case_reduction_of_the_region_updated_in_place(b, args, ivs):
    u, w, _ = args
    old = _load(b, u, ivs)
    _store(b, _apply(b, arith.AddfOp, old, _load(b, w, ivs)), u, ivs)
    return [(old, arith.MaximumfOp)]


_FULL, _ROW, _COLUMN = (True, True), (False, True), (True, False)

#: ``name -> (argument types, body, has a reduction)``; a ``(element type,
#: mapped dims)`` pair is a memref over those dimensions of the iteration
#: space, a bare type a scalar argument.
_VALUE_CASES = {
    "in-place": ([(f64, _FULL)] * 2, _case_in_place, False),
    "store-feeds-on-a-later-target": (
        [(f64, _FULL)] * 3, _case_store_feeds_on_a_later_target, False),
    "store-views-an-earlier-target": (
        [(f64, _FULL)] * 3, _case_store_views_an_earlier_target, False),
    "f32-store-of-an-f64-op": (
        [(f32, _FULL)] * 3, _case_f32_store_of_an_f64_op, False),
    "i32-store-of-an-i64-op": (
        [(i32, _FULL), (i64, _FULL), (i32, _FULL)],
        _case_i32_store_of_an_i64_op, False),
    "select": ([(f64, _FULL)] * 3, _case_select, False),
    "lower-rank-loads": (
        [(f64, _FULL), (f64, _ROW), (f32, _COLUMN), (f64, _FULL)],
        _case_lower_rank_loads, False),
    "only-lower-rank-loads": (
        [(f64, _ROW), (f64, _COLUMN), (f64, _FULL)],
        _case_only_lower_rank_loads, False),
    "free-scalar": ([(f64, _FULL), (f64, _FULL), f64], _case_free_scalar, False),
    "induction-variable-value": (
        [(f64, _FULL)] * 2, _case_induction_variable_value, False),
    "reduction-next-to-a-store": (
        [(f64, _FULL)] * 3, _case_reduction_next_to_a_store, True),
    "reduction-of-the-region-updated-in-place": (
        [(f64, _FULL)] * 2, _case_reduction_of_the_region_updated_in_place, True),
}


def _bail_aliasing(b, args, ivs):
    (u,) = args
    below = [_apply(b, arith.AddiOp, ivs[0], _const(b, 1)), ivs[1]]
    _store(b, _apply(b, arith.AddfOp, _load(b, u, ivs), _const(b, 1.0)), u, below)


def _bail_copy(b, args, ivs):
    x, out = args[:2]
    _store(b, _load(b, x, ivs), out, ivs)


def _bail_stride(b, args, ivs):
    x, out = args
    _store(b, _load(b, x, [_apply(b, arith.MuliOp, ivs[0], _const(b, 2)), ivs[1]]),
           out, ivs)


def _bail_uncovered(b, args, ivs):
    x, out = args
    _store(b, _load(b, x, ivs), out, ivs[:1])


#: ``name -> (argument shapes, nest extents, body, part of the reason, step
#: of every dimension)``.
_BAILING_CASES = {
    "aliasing-stores": ([(7, 5)], (6, 5), _bail_aliasing, "aliasing", 1),
    "out-of-range": ([(6, 5), (7, 5)], (7, 5), _bail_copy, "out-of-range", 1),
    "non-unit-stride": (
        [(12, 5), (6, 5)], (6, 5), _bail_stride, "non-unit-stride", 1),
    "non-positive-step": ([(6, 5), (6, 5)], (6, 5), _bail_copy, "step", 0),
    "store-not-covering": (
        [(6, 5), (6,)], (6, 5), _bail_uncovered, "does not cover every nest", 1),
}


class TestNestEmitterDifferential:
    @given(_oec_programs(), st.sampled_from(list(_targets(1))))
    @settings(deadline=None)
    def test_oec_programs_agree_on_every_tier(self, spec, target_name):
        """Every tier agrees with the walker on the same target, and every
        other target's walker — tiled or decomposed — with the ``cpu``
        target's, bit for bit."""
        ndim = len(spec["shape"])
        target = _targets(ndim)[target_name]
        grid = target.rank_grid or ()
        # An axis split over two ranks gets an even extent.
        spec = dict(spec, shape=tuple(
            extent + extent % 2 * (axis < len(grid) and grid[axis] > 1)
            for axis, extent in enumerate(spec["shape"])))
        if _reads_unexchanged_cells(spec, grid):
            with pytest.raises(PassFailedError, match="distribute-stencil.*halo"):
                compile_stencil_program(_oec_module(spec), target)
            return
        program = compile_stencil_program(_oec_module(spec), target)
        shape = tuple(extent + 2 * spec["halo"] for extent in spec["shape"])
        dtype = np.float32 if spec["dtype"] == "f32" else np.float64

        def make_fields():
            rng = np.random.default_rng(spec["seed"])
            return [
                rng.uniform(-1.0, 1.0, shape).astype(dtype)
                for _ in range(spec["fields"])
            ]

        # The global arrays are laid out as the builder's field bounds, also
        # where the decomposition found a narrower (one-sided) access halo.
        walked = _run_tiers(program, make_fields, spec["steps"])
        if target_name != "cpu":
            undecomposed = make_fields()
            default_session().run(
                compile_stencil_program(_oec_module(spec), cpu_target()), undecomposed,
                [spec["steps"]], runtime="threads", backend="interpreter")
            assert walked == [field.tobytes() for field in undecomposed]

    # -- hand-built nests: what the OEC builder cannot reach -----------------

    @given(st.integers(0, 5), st.integers(1, 4), st.integers(0, 2**16))
    @settings(deadline=None)
    def test_masks_casts_and_integer_buffers(self, rows, cols, seed):
        """cmpf/cmpi/select, the casts, i32/i64/bool memrefs, a free float
        scalar and an induction variable used as a value."""
        shape = [rows, cols]
        types = [MemRefType(shape, t) for t in (f64, f32, i32, i64, i1, f64, f32, i32)]

        def body(b, args, ivs):
            a, narrow, small, wide, mask, out, out32, outi, scale = args
            i, j = ivs
            x = b.insert(memref.LoadOp(a, [i, j])).result
            y = b.insert(arith.ExtFOp(                              # widened f32
                b.insert(memref.LoadOp(narrow, [i, j])).result, f64)).result
            k = b.insert(arith.ExtSIOp(                             # widened i32
                b.insert(memref.LoadOp(small, [i, j])).result, i64)).result
            big = b.insert(memref.LoadOp(wide, [i, j])).result
            row = b.insert(arith.SIToFPOp(
                b.insert(arith.IndexCastOp(i, i64)).result, f64)).result
            above = b.insert(arith.CmpfOp("ogt", x, scale)).result
            fewer = b.insert(arith.CmpiOp("slt", k, big)).result
            b.insert(memref.StoreOp(above, mask, [i, j]))
            scaled = b.insert(arith.MulfOp(x, scale)).result
            picked = b.insert(arith.SelectOp(
                above, scaled, b.insert(arith.AddfOp(row, y)).result)).result
            rounded = b.insert(arith.TruncFOp(picked, f32)).result
            residual = b.insert(arith.SubfOp(       # what the rounding lost
                picked, b.insert(arith.ExtFOp(rounded, f64)).result)).result
            b.insert(memref.StoreOp(residual, out, [i, j]))
            b.insert(memref.StoreOp(
                b.insert(arith.NegfOp(rounded)).result, out32, [i, j]))
            whole = b.insert(arith.FPToSIOp(
                b.insert(arith.MulfOp(scaled, scale)).result, i64)).result
            chosen = b.insert(arith.SelectOp(
                fewer, b.insert(arith.AddiOp(whole, k)).result, big)).result
            b.insert(memref.StoreOp(
                b.insert(arith.TruncIOp(chosen, i32)).result, outi, [i, j]))

        module = _parallel_module(types + [f64], shape, body)

        def make_args():
            rng = np.random.default_rng(seed)
            return [
                rng.uniform(-4, 4, shape), rng.uniform(-4, 4, shape).astype(np.float32),
                rng.integers(-9, 9, shape, dtype=np.int32),
                rng.integers(-9, 9, shape, dtype=np.int64),
                np.zeros(shape, dtype=np.bool_), np.zeros(shape),
                np.zeros(shape, dtype=np.float32), np.zeros(shape, dtype=np.int32),
                float(rng.uniform(-2, 2)),
            ]

        _check_against_tree_walker(module, make_args)

    @given(
        st.sampled_from([
            (arith.AddfOp, f64, 0.5), (arith.MulfOp, f64, 1.0),    # sequential
            (arith.MaximumfOp, f64, -1.0), (arith.MinimumfOp, f64, 9.0),
            (arith.AddiOp, i64, 3), (arith.MaxSIOp, i64, -7),      # order-free
        ]),
        st.integers(0, 12), st.integers(0, 2**16),
    )
    @settings(deadline=None)
    def test_reductions_fold_like_the_tree_walker(self, combiner, extent, seed):
        """scf.reduce, sequential and order-free, also over no iterations."""
        combine_op, element, init_value = combiner
        shape = [extent, 7]  # long enough for NumPy's pairwise sum to differ

        def body(b, args, ivs):
            data, _ = args
            value = b.insert(memref.LoadOp(data, list(ivs))).result
            return [(value, combine_op)]

        def epilogue(b, args, results):
            zero = b.insert(arith.ConstantOp.from_int(0)).result
            b.insert(memref.StoreOp(results[0], args[1], [zero]))

        make_init = (
            arith.ConstantOp.from_float if element is f64
            else arith.ConstantOp.from_int
        )
        module = _parallel_module(
            [MemRefType(shape, element), MemRefType([1], element)], shape, body,
            inits=[make_init(init_value, element)], epilogue=epilogue,
        )
        dtype = np.float64 if element is f64 else np.int64

        def make_args():
            rng = np.random.default_rng(seed)
            return [
                rng.uniform(-2, 2, shape).astype(dtype) if element is f64
                else rng.integers(-5, 5, shape, dtype=dtype),
                np.zeros(1, dtype=dtype),
            ]

        _check_against_tree_walker(module, make_args)

    def test_cold_nest_hit_by_two_rank_threads_at_once(self):
        """Two ranks racing to emit their megakernels both compute right."""
        module = build_jacobi_module(n=16)
        program = compile_stencil_program(module, dmp_target((2,)))
        assert not program._megakernel_cache
        rng = np.random.default_rng(5)
        initial = rng.standard_normal(18)
        u, v = initial.copy(), initial.copy()
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            default_session().run(
                program, [u, v], [2], runtime="threads", timeout=30.0)
        finally:
            sys.setswitchinterval(switch)
        assert len(_emitted(program)) == 2
        a, b = initial.copy(), initial.copy()
        default_session().run(
            program, [a, b], [2], runtime="threads", backend="interpreter",
            timeout=30.0)
        assert u.tobytes() == a.tobytes() and v.tobytes() == b.tobytes()



    def test_rank_threads_and_teams_share_a_cold_blocked_nest(self):
        """Two rank threads, each with a 2-thread team, first-run one kernel:
        every chunk has scratch of its own, allocated per call, so chunks and
        ranks cannot see each other's."""
        builder = StencilProgramBuilder(shape=(8, 6), halo=1, dtype="f64")
        u, v = builder.add_field("u"), builder.add_field("v")
        builder.add_stencil([u], v, lambda e: e.mul(
            e.add(e.add(e.access(0, [-1, 0]), e.access(0, [1, 0])),
                  e.add(e.access(0, [0, -1]), e.access(0, [0, 1]))),
            e.constant(0.25)))
        builder.swap(u, v)
        program = compile_stencil_program(builder.build(), dmp_target((2, 1)))
        rng = np.random.default_rng(11)
        initial = [rng.standard_normal((10, 8)) for _ in range(2)]

        def run(**config):
            fields = [field.copy() for field in initial]
            default_session().run(
                program, fields, [3], runtime="threads", timeout=30.0, **config)
            return [field.tobytes() for field in fields]

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(nestplan, "_TEAM_MIN_CELLS", 1), \
                    mock.patch.object(nestplan, "_BLOCK_CELLS", _SMALL_BLOCK_CELLS):
                fast = run(threads_per_rank=2)
        finally:
            sys.setswitchinterval(switch)
        kernels = _emitted(program)
        assert len(kernels) == 2 and all(kernel.uses_team for kernel in kernels)
        assert fast == run(backend="interpreter")

    # -- how one value reaches memory: the cases the emitter tells apart ------

    @pytest.mark.parametrize("case", sorted(_VALUE_CASES))
    @given(st.integers(0, 6), st.integers(1, 5), st.integers(0, 2**16))
    @settings(deadline=None)
    def test_each_way_a_value_reaches_memory(self, case, rows, cols, seed):
        types, body, reduction = _VALUE_CASES[case]
        shape = [rows, cols]
        arg_types = [
            t if not isinstance(t, tuple) else MemRefType(
                [extent for extent, keep in zip(shape, t[1]) if keep], t[0])
            for t in types
        ]
        inits, epilogue = (), None
        if reduction:
            inits = [arith.ConstantOp.from_float(0.5, f64)]
            arg_types.append(MemRefType([1], f64))

            def epilogue(b, args, results):
                zero = b.insert(arith.ConstantOp.from_int(0)).result
                b.insert(memref.StoreOp(results[0], args[-1], [zero]))

        module = _parallel_module(arg_types, shape, body, inits, epilogue)

        def make_args():
            rng = np.random.default_rng(seed)
            args = []
            for arg_type in arg_types:
                if not isinstance(arg_type, MemRefType):
                    args.append(float(rng.uniform(-2, 2)))
                elif arg_type.element_type in (f64, f32):
                    args.append(rng.uniform(-4, 4, arg_type.shape).astype(
                        np.float64 if arg_type.element_type is f64 else np.float32))
                else:
                    args.append(rng.integers(-9, 9, arg_type.shape).astype(
                        np.int64 if arg_type.element_type is i64 else np.int32))
            return args

        _check_against_tree_walker(module, make_args)

    @pytest.mark.parametrize("case", sorted(_BAILING_CASES))
    def test_a_bailing_nest_touches_nothing(self, case):
        """Every refusal is decided when the kernel is emitted, before it runs."""
        shapes, extents, body, reason, step = _BAILING_CASES[case]
        rng = np.random.default_rng(3)
        args = [rng.standard_normal(shape) for shape in shapes]
        module = _parallel_module(
            [MemRefType(list(shape), f64) for shape in shapes], extents, body,
            step=step,
        )
        kernel_op = next(op for op in module.walk() if isinstance(op, func.FuncOp))
        compiled = compile_kernel(module, "kernel")
        assert compiled.nest_count == 1, compiled.fallback_reasons
        trace = trace_program(kernel_op, compiled)
        before = [a.tobytes() for a in args]
        for threads in (1, 2):
            for _ in _compiled_worlds():
                with pytest.raises(CodegenError, match=reason):
                    emit_megakernel(trace, megakernel_signature(args),
                                    threads=threads)
                assert before == [a.tobytes() for a in args]


def _emitted(program):
    return [
        entry for entry in program._megakernel_cache.values()
        if isinstance(entry, CompiledMegakernel)
    ]


def _parallel_module(arg_types, extents, body, inits=(), epilogue=None, step=1):
    """``kernel(*args)``: one scf.parallel nest over ``extents`` built by ``body``.

    ``body(builder, args, ivs)`` emits the nest body and returns the
    ``(value, combiner op class)`` pairs to reduce (or None); ``inits`` are
    the constants the reductions start from and ``epilogue(builder, args,
    results)`` consumes the loop results.  Every dimension steps by the
    constant ``step``.
    """
    kernel = func.FuncOp("kernel", FunctionType(arg_types, []))
    b = Builder.at_end(kernel.body.block)
    zero = b.insert(arith.ConstantOp.from_int(0)).result
    one = b.insert(arith.ConstantOp.from_int(step)).result
    uppers = [b.insert(arith.ConstantOp.from_int(e)).result for e in extents]
    loop = scf.ParallelOp(
        [zero] * len(extents), uppers, [one] * len(extents),
        init_values=[b.insert(init).result for init in inits],
    )
    inner = Builder.at_end(loop.body.block)
    reduced = body(inner, list(kernel.args), list(loop.induction_variables))
    if reduced:
        (value, combine_op), = reduced
        inner.insert(scf.ReduceOp.combining(value, combine_op))
    else:
        inner.insert(scf.YieldOp([]))
    b.insert(loop)
    if epilogue is not None:
        epilogue(b, list(kernel.args), list(loop.results))
    b.insert(func.ReturnOp([]))
    module = builtin.ModuleOp([kernel])
    module.verify()
    return module


def _check_against_tree_walker(module, make_args):
    """The nest inlined into a megakernel — whole and team-chunked — vs the
    walker."""
    kernel = compile_kernel(module, "kernel")
    assert kernel.nest_count == 1, kernel.fallback_reasons

    def observed(args, stats):
        return (
            [a.tobytes() for a in args if isinstance(a, np.ndarray)],
            dataclasses.replace(stats, ops_executed=0),
        )

    args = make_args()
    walker = Interpreter(module)
    walker.call("kernel", *args)
    reference = observed(args, walker.stats)
    for budget in _compiled_worlds():
        for threads in (1, 2):
            args = make_args()
            stats, reason = run_compiled(module, "kernel", *args, threads=threads)
            assert reason is None, reason
            assert observed(args, stats) == reference, (threads, budget)
