"""The op table: every reader of an ``arith`` op's record computes the same bits.

For each record of :data:`repro.dialects.arith.SEMANTICS`, on a value grid
with NaN, ±0, ±inf, f32 round-trip edges, integers of ±(2**53 + 1),
negatives and division by zero, these agree bit for bit with the record's
scalar function:

* the tree walker, running a one-op function;
* constant folding of the op over constants, where the record folds;
* the python-scalar expression, the NumPy array expression and its ``out=``
  ufunc, where the record has them.

Where the scalar function raises (``divf`` by zero, ``fptosi`` of NaN) the
walker raises too, the folder leaves the op, and there is no value to
compare.  Integer results outside i64 are compared between the walker and
the folder only: both keep python's unbounded ``int``, NumPy wraps.
"""

from __future__ import annotations

import math
import warnings
from itertools import product

import numpy as np
import pytest

from repro.dialects import arith, builtin, func
from repro.interp.interpreter import Interpreter
from repro.ir import Builder, FunctionType, f32, f64, i1, i32, i64, index
from repro.ir.attributes import FloatAttr, IntegerAttr
from repro.ir.core import Operation
from repro.ir.types import is_float_type
from repro.transforms.common import fold_constants

FLOATS = [
    0.0, -0.0, 1.0, -1.0, 2.5, -7.0, 0.1, math.inf, -math.inf, math.nan, 5e-324,
    float(2**53 + 1), -float(2**53 + 1),
    # f32 round-trip edges: the largest f32, a value that overflows f32, the
    # two ties next to 1.0 (to even: down, then up), the smallest f32
    # subnormal and a value below half of it.
    3.4028234663852886e38, 3.5e38, 1.0000000596046448, 1.0000001788139343,
    1.401298464324817e-45, 1e-46,
]
INTS = [0, 1, -1, 2, -2, 7, -7, 2**53 + 1, -(2**53 + 1), 2**62, -(2**63)]

#: Operand and result types of each unary op; binary ops and compares take
#: i64 or f64 by their class.
CASTS = {
    "arith.negf": (f64, f64),
    "arith.index_cast": (index, i64),
    "arith.sitofp": (i64, f64),
    "arith.fptosi": (f64, i64),
    "arith.extf": (f32, f64),
    "arith.truncf": (f64, f32),
    "arith.extsi": (i32, i64),
    "arith.trunci": (i64, i32),
}

#: The op classes of the dialect, by name.
CLASSES = {
    cls.name: cls for cls in vars(arith).values()
    if isinstance(cls, type) and issubclass(cls, Operation)
    and isinstance(cls.__dict__.get("name"), str)
}

_RAISES = object()
_WALKER_ERRORS = (ArithmeticError, ValueError)


def _types(key: str):
    name = key.split(":")[0]
    if name in CASTS:
        return CASTS[name]
    if name == arith.CmpfOp.name:
        return f64, i1
    if name == arith.CmpiOp.name:
        return i64, i1
    operand = f64 if issubclass(CLASSES[name], arith._FloatBinaryOp) else i64
    return operand, operand


def _build(key: str, operands) -> Operation:
    name, _, predicate = key.partition(":")
    cls = CLASSES[name]
    if predicate:
        return cls(predicate, *operands)
    if len(operands) == 1 and name != arith.NegfOp.name:
        return cls(operands[0], CASTS[name][1])
    return cls(*operands)


def _one_op_module(key: str, arity: int):
    """``f(a[, b]) -> op(a[, b])``."""
    operand_type, result_type = _types(key)
    kernel = func.FuncOp("f", FunctionType([operand_type] * arity, [result_type]))
    b = Builder.at_end(kernel.body.block)
    op = b.insert(_build(key, list(kernel.args)))
    b.insert(func.ReturnOp([op.results[0]]))
    return builtin.ModuleOp([kernel])


def _folded(key: str, args) -> object:
    """What the walker binds for the constant ``op(constants...)`` folds to, or
    None when the op stays."""
    operand_type, result_type = _types(key)
    kernel = func.FuncOp("f", FunctionType([], [result_type]))
    b = Builder.at_end(kernel.body.block)
    constants = [
        b.insert(arith.ConstantOp(
            FloatAttr(value, operand_type) if is_float_type(operand_type)
            else IntegerAttr(value, operand_type), operand_type)).result
        for value in args
    ]
    b.insert(func.ReturnOp([b.insert(_build(key, constants)).results[0]]))
    fold_constants(builtin.ModuleOp([kernel]))
    producer = kernel.body.block.last_op.operands[0].owner
    return producer.scalar() if isinstance(producer, arith.ConstantOp) else None


def _bits(value) -> tuple:
    if isinstance(value, (bool, np.bool_)):
        return ("bool", bool(value))
    if isinstance(value, (float, np.floating)):
        return ("float", np.float64(value).tobytes())
    return ("int", int(value))


def _in_i64(value) -> bool:
    return not isinstance(value, int) or -(2**63) <= value < 2**63


def _grid(key: str) -> list:
    operand_type, _ = _types(key)
    return FLOATS if is_float_type(operand_type) else INTS


def _function(template: str):
    return eval(f"lambda a, b=None: {template.format(a='a', b='b')}", {"_np": np})


@pytest.mark.parametrize("key", sorted(arith.SEMANTICS))
def test_every_form_of_a_record_computes_the_same_bits(key):
    record = arith.SEMANTICS[key]
    grid = _grid(key)
    points = list(product(grid, repeat=record.arity))
    walker = Interpreter(_one_op_module(key, record.arity))
    python = None if record.python is None else _function(record.python)
    expected = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for args in points:
            try:
                value = record.scalar(*args)
            except _WALKER_ERRORS:
                expected.append(_RAISES)
                with pytest.raises(_WALKER_ERRORS):
                    walker.call("f", *args)
                if python is not None:
                    with pytest.raises(_WALKER_ERRORS):
                        python(*args)
                if record.folds:
                    assert _folded(key, args) is None, args
                continue
            expected.append(value)
            (walked,) = walker.call("f", *args)
            assert _bits(walked) == _bits(value), ("walker", args)
            folded = _folded(key, args)
            if record.folds:
                assert folded is not None and _bits(folded) == _bits(value), ("folder", args)
            else:
                assert folded is None, ("folder", args)
            if python is not None and _in_i64(value):
                assert _bits(python(*args)) == _bits(value), ("python", args)
    if record.array is None:
        assert record.ufunc is None and record.python is None and record.reduce is None
        return

    operand_dtype = np.float64 if grid is FLOATS else np.int64
    arrays = [np.array([args[k] for args in points], dtype=operand_dtype)
              for k in range(record.arity)]
    with np.errstate(all="ignore"):
        computed = record.numpy(*arrays)
        assert computed.dtype == (operand_dtype if record.dtype is None else record.dtype)
        forms = {"array": computed}
        if record.ufunc is not None:
            out = np.empty(len(points), dtype=computed.dtype)
            getattr(np, record.ufunc)(*arrays, out=out)
            forms["ufunc"] = out
    for form, values in forms.items():
        for args, value, got in zip(points, expected, values):
            if value is not _RAISES and _in_i64(value):
                assert _bits(got) == _bits(value), (form, args)


def test_every_computing_op_and_predicate_has_one_record():
    computing = {
        name for name, cls in CLASSES.items()
        if issubclass(cls, (arith._BinaryOp, arith._CastOp, arith.NegfOp))
    }
    compares = {f"{arith.CmpiOp.name}:{p}" for p in arith.CMPI_PREDICATES} | {
        f"{arith.CmpfOp.name}:{p}" for p in arith.CMPF_PREDICATES}
    assert set(arith.SEMANTICS) == computing | compares
    for key, record in arith.SEMANTICS.items():
        assert record.reduce is None or record.ufunc is not None, key


def _walk(key: str, *args):
    record = arith.SEMANTICS[key]
    (value,) = Interpreter(_one_op_module(key, record.arity)).call("f", *args)
    return value


@pytest.mark.parametrize("predicate,lhs,rhs,expected", [
    ("ult", -1, 2, False), ("ugt", -1, 2, True), ("ule", 2, -1, True),
    ("uge", 2, -1, False), ("ult", -2, -1, True), ("ult", 3, 5, True),
    ("uge", -(2**63), 2**62, True),
])
def test_unsigned_compares_read_operands_modulo_two_to_the_width(
        predicate, lhs, rhs, expected):
    key = f"{arith.CmpiOp.name}:{predicate}"
    assert _walk(key, lhs, rhs) is expected
    assert _folded(key, (lhs, rhs)) == int(expected)


@pytest.mark.parametrize("lhs,rhs,quotient,remainder", [
    (2**53 + 1, 1, 2**53 + 1, 0), (-(2**53 + 1), 1, -(2**53 + 1), 0),
    (2**62 + 1, 3, (2**62 + 1) // 3, (2**62 + 1) % 3), (-7, 2, -3, -1),
    (7, -2, -3, 1), (-7, -2, 3, -1), (7, 0, 0, 0), (-(2**63), 0, 0, 0),
])
def test_signed_division_truncates_exactly_and_gives_zero_for_zero(
        lhs, rhs, quotient, remainder):
    for key, value in ((arith.DivSIOp.name, quotient), (arith.RemSIOp.name, remainder)):
        assert _walk(key, lhs, rhs) == value
        assert _folded(key, (lhs, rhs)) == value


@pytest.mark.parametrize("lhs,rhs,ordered,unordered_or_unequal", [
    (1.0, 2.0, True, True), (1.0, 1.0, True, False), (math.nan, 1.0, False, True),
    (1.0, math.nan, False, True), (math.nan, math.nan, False, True),
])
def test_cmpf_ord_is_false_on_nan_and_one_is_true(lhs, rhs, ordered, unordered_or_unequal):
    assert bool(_walk(f"{arith.CmpfOp.name}:ord", lhs, rhs)) is ordered
    # ``one`` keeps Fortran's ``/=`` (MLIR's ``une``): NaN compares unequal.
    assert bool(_walk(f"{arith.CmpfOp.name}:one", lhs, rhs)) is unordered_or_unequal
