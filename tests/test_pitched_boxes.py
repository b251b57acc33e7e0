"""Which boxes the nest printer spells pitched, and that both spellings agree.

A pitched box computes over one contiguous span of its buffers (1-D slices
from each region's first cell); a strided one over N-D region views.  Each
box's ``# box`` comment says which one it got and why.  Every case here is
checked against the tree walker bit for bit, whole, in ragged blocks and
dealt to a team (``tests/test_properties.py::_check_against_tree_walker``), so
a pitched box that wrote a pad cell of its target, or computed over a span
one cell short, fails here.
"""

import numpy as np
import pytest

from repro.core import Session, compile_stencil_program, cpu_target
from repro.dialects import arith, func
from repro.frontends.oec import StencilProgramBuilder
from repro.interp import (
    compile_kernel,
    emit_megakernel,
    megakernel_signature,
    trace_program,
)
from repro.ir import MemRefType, f32, f64, i64
from tests.conftest import assert_engaged
from tests.test_properties import (
    _apply,
    _check_against_tree_walker,
    _const,
    _load,
    _parallel_module,
    _store,
)


def _at(b, ivs, offset):
    """The indices ``ivs + offset``."""
    return [iv if shift == 0 else _apply(b, arith.AddiOp, iv, _const(b, shift))
            for iv, shift in zip(ivs, offset)]


def _neighbours(b, x, ivs, rank, element=f64):
    """``x`` at the centre ``ivs + 1`` plus a quarter of its 2 * ``rank``
    axis neighbours: the centre load and the sum."""
    centre = [1] * rank
    total = None
    for axis in range(rank):
        for step in (-1, 1):
            offset = list(centre)
            offset[axis] += step
            term = _apply(b, arith.MulfOp, _load(b, x, _at(b, ivs, offset)),
                          _const(b, 0.25, element))
            total = term if total is None else _apply(b, arith.AddfOp, total, term)
    return _load(b, x, _at(b, ivs, centre)), total


def _stencil(b, args, ivs):
    x, out = args
    centre, total = _neighbours(b, x, ivs, len(ivs))
    _store(b, _apply(b, arith.AddfOp, centre, total), out, _at(b, ivs, [1] * len(ivs)))


def _stencil_times_a_row(b, args, ivs):
    x, row, out = args
    centre, total = _neighbours(b, x, ivs, 2)
    scaled = _apply(b, arith.MulfOp, total, _load(b, row, _at(b, ivs[1:], [1])))
    _store(b, _apply(b, arith.AddfOp, centre, scaled), out, _at(b, ivs, [1, 1]))


def _stencil_and_its_sum(b, args, ivs):
    x, out, _ = args
    centre, total = _neighbours(b, x, ivs, 2)
    value = _apply(b, arith.AddfOp, centre, total)
    _store(b, value, out, _at(b, ivs, [1, 1]))
    return [(value, arith.AddfOp)]


def _stencil_plus_its_row(b, args, ivs):
    x, out = args
    centre, total = _neighbours(b, x, ivs, 2)
    row = _apply(b, arith.SIToFPOp, _apply(b, arith.IndexCastOp, ivs[0], i64), f64)
    _store(b, _apply(b, arith.AddfOp, centre, _apply(b, arith.MulfOp, total, row)),
           out, _at(b, ivs, [1, 1]))


def _stencil_over_a_divisor(b, args, ivs):
    x, out = args
    centre, total = _neighbours(b, x, ivs, 2)
    divisor = _apply(b, arith.AddfOp, _apply(b, arith.MulfOp, centre, centre),
                     _const(b, 1.0))
    _store(b, _apply(b, arith.DivfOp, total, divisor), out, _at(b, ivs, [1, 1]))


def _stencil_selected(b, args, ivs):
    x, out = args
    centre, total = _neighbours(b, x, ivs, 2)
    _store(b, _apply(b, arith.SelectOp, _apply(b, arith.CmpfOp, "ogt", centre, total),
                     centre, total), out, _at(b, ivs, [1, 1]))


def _own_load_stored(b, args, ivs):
    (x,) = args
    centre = _at(b, ivs, [1, 1])
    _store(b, _load(b, x, centre), x, centre)


def _stencil_of_f32(b, args, ivs):
    x, out = args
    centre, total = _neighbours(b, x, ivs, 2, f32)
    _store(b, _apply(b, arith.AddfOp, centre, total), out, _at(b, ivs, [1, 1]))


_GRID = (6, 5)  # iteration space; the buffers add a one-cell halo around it
_FIELD = [(f64, (8, 7))]

#: ``name -> (argument (element type, shape) pairs, nest extents, body, the
#: buffers are Fortran-ordered, the spelling its comment must state)``.
_CASES = {
    "pitched": (_FIELD * 2, _GRID, _stencil, False,
                "pitched (span 40 of 30 cells)"),
    "pitched-f32": ([(f32, (8, 7))] * 2, _GRID, _stencil_of_f32, False,
                    "pitched (span 40 of 30 cells)"),
    # Stores its own load: no statement at all, dealt to a team too.
    "own-load-stored": (_FIELD, _GRID, _own_load_stored, False,
                        "pitched (span 40 of 30 cells)"),
    "non-contiguous": (_FIELD * 2, _GRID, _stencil, True,
                       "strided (a non-contiguous buffer)"),
    "lower-rank-load": ([*_FIELD, (f64, (7,)), *_FIELD], _GRID, _stencil_times_a_row,
                        False, "strided (an access that is not full rank on its own dims)"),
    "reduction": ([*_FIELD * 2, (f64, (1,))], _GRID, _stencil_and_its_sum, False,
                  "strided (a reduction)"),
    "index-grid": (_FIELD * 2, _GRID, _stencil_plus_its_row, False,
                   "strided (an index grid)"),
    "division": (_FIELD * 2, _GRID, _stencil_over_a_divisor, False,
                 "strided (a division)"),
    "stored-select": (_FIELD * 2, _GRID, _stencil_selected, False,
                      "strided (a stored value with no N-D view)"),
    # A 3-D overlap strip along the middle axis: 2 of 10 rows per plane.
    "middle-axis-strip": ([(f64, (6, 12, 8))] * 2, (4, 2, 6), _stencil, False,
                          "strided (span 302 >= 2 x 48 cells)"),
}


def _module_and_args(case):
    arguments, extents, body, fortran, _ = _CASES[case]
    types = [MemRefType(list(shape), element) for element, shape in arguments]
    inits, epilogue = (), None
    if case == "reduction":
        inits = [arith.ConstantOp.from_float(0.5, f64)]

        def epilogue(b, args, results):
            _store(b, results[0], args[-1], [_const(b, 0)])

    module = _parallel_module(types, extents, body, inits, epilogue)

    def make_args():
        rng = np.random.default_rng(7)
        order = "F" if fortran else "C"
        return [np.asarray(rng.uniform(-2.0, 2.0, shape), dtype=np.dtype(
            np.float32 if element is f32 else np.float64), order=order)
            for element, shape in arguments]

    return module, make_args


@pytest.mark.parametrize("case", sorted(_CASES))
def test_each_box_says_its_spelling_and_keeps_the_walkers_bits(case):
    module, make_args = _module_and_args(case)
    kernel_op = next(op for op in module.walk() if isinstance(op, func.FuncOp))
    trace = trace_program(kernel_op, compile_kernel(module, "kernel"))
    source = emit_megakernel(trace, megakernel_signature(make_args())).source
    (comment,) = [line.strip() for line in source.splitlines() if "# box " in line]
    assert f": {_CASES[case][-1]}, " in comment, comment
    _check_against_tree_walker(module, make_args)


def test_a_time_loop_whose_box_prints_no_statement():
    """``u = u[0]`` in place: the box stores its own load, and with its
    views bound ahead of the time loop the loop body holds no statement."""
    builder = StencilProgramBuilder(shape=(4,), halo=1, dtype="f64")
    u = builder.add_field("u")
    builder.add_field("w")
    builder.add_stencil([u], u, lambda expr: expr.access(0, [0]))
    program = compile_stencil_program(builder.build(), cpu_target())
    fields = [np.arange(6.0), np.zeros(6)]
    with Session() as session:
        session.run(program, fields, [3])
        assert_engaged(session, program, ranks=1)
    assert np.array_equal(fields[0], np.arange(6.0))
