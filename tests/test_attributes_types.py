"""Tests of attributes, builtin types and stencil/dmp attribute helpers."""

import pytest

from repro.dialects import dmp, stencil
from repro.ir import (
    ArrayAttr,
    BoolAttr,
    DenseArrayAttr,
    DictionaryAttr,
    FloatAttr,
    FunctionType,
    IntAttr,
    IntegerAttr,
    IntegerType,
    MemRefType,
    StringAttr,
    SymbolRefAttr,
    UnitAttr,
    bytewidth_of,
    f32,
    f64,
    i1,
    i32,
    i64,
    index,
    is_float_type,
    is_integer_like,
)


class TestAttributes:
    def test_structural_equality_and_hash(self):
        assert IntegerAttr(3, i32) == IntegerAttr(3, i32)
        assert IntegerAttr(3, i32) != IntegerAttr(3, i64)
        assert hash(StringAttr("x")) == hash(StringAttr("x"))
        assert FloatAttr(1.5, f64) != FloatAttr(1.5, f32)

    def test_negative_offsets_not_conflated(self):
        # Regression guard for the CPython hash(-1) == hash(-2) pitfall.
        a = DenseArrayAttr([-1, 0], i64)
        b = DenseArrayAttr([-2, 0], i64)
        assert a != b

    def test_array_attr_behaves_like_sequence(self):
        attr = ArrayAttr([IntAttr(1), IntAttr(2)])
        assert len(attr) == 2
        assert list(attr) == [IntAttr(1), IntAttr(2)]
        assert attr[1] == IntAttr(2)

    def test_dictionary_attr(self):
        attr = DictionaryAttr({"a": IntAttr(1), "b": BoolAttr(True)})
        assert "a" in attr and attr["b"] == BoolAttr(True)
        assert attr == DictionaryAttr({"b": BoolAttr(True), "a": IntAttr(1)})

    def test_symbol_ref(self):
        assert SymbolRefAttr("foo").string_value == "foo"
        assert SymbolRefAttr(StringAttr("foo")) == SymbolRefAttr("foo")

    def test_unit_attr_equality(self):
        assert UnitAttr() == UnitAttr()


class TestTypes:
    def test_scalar_type_properties(self):
        assert str(IntegerType(32)) == "i32"
        assert bytewidth_of(f32) == 4 and bytewidth_of(f64) == 8
        assert bytewidth_of(i1) == 1
        assert is_float_type(f64) and not is_float_type(i32)
        assert is_integer_like(index)

    def test_memref_type(self):
        memref = MemRefType([4, 8], f32)
        assert memref.rank == 2
        assert memref.element_count() == 32
        assert memref.has_static_shape()
        assert str(memref) == "memref<4x8xf32>"

    def test_function_type(self):
        ftype = FunctionType([i32, f64], [i32])
        assert ftype.inputs == (i32, f64)
        assert ftype.outputs == (i32,)
        assert FunctionType([i32, f64], [i32]) == ftype


class TestStencilBounds:
    def test_shape_and_size(self):
        bounds = stencil.StencilBoundsAttr([-2, 0], [10, 8])
        assert bounds.shape == (12, 8)
        assert bounds.size() == 96
        assert bounds.rank == 2

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            stencil.StencilBoundsAttr([0], [0, 1])
        with pytest.raises(ValueError):
            stencil.StencilBoundsAttr([5], [4])

    def test_grow_intersect_contains(self):
        bounds = stencil.StencilBoundsAttr([0, 0], [8, 8])
        grown = bounds.grown_by([1, 2], [1, 2])
        assert grown == stencil.StencilBoundsAttr([-1, -2], [9, 10])
        assert grown.contains(bounds)
        assert not bounds.contains(grown)
        assert grown.intersect(bounds) == bounds

    def test_printed_spelling(self):
        bounds = stencil.StencilBoundsAttr([-1, 3], [7, 9])
        assert bounds.print_parameters(None) == "[-1,7]x[3,9]"
        assert str(stencil.FieldType(bounds, f64)) == "!stencil.field<[-1,7]x[3,9]xf64>"
        assert str(stencil.TempType(None, f32, rank=2)) == "!stencil.temp<?x?xf32>"

    def test_field_and_temp_types(self):
        field = stencil.FieldType(([-1, -1], [9, 9]), f64)
        assert field.rank == 2
        assert field.shape == (10, 10)
        unbounded = stencil.TempType(None, f32, rank=3)
        assert not unbounded.has_bounds()
        assert unbounded.rank == 3
        with pytest.raises(ValueError):
            _ = unbounded.shape


class TestDmpAttributes:
    def test_grid_coordinates_round_trip(self):
        grid = dmp.GridAttr([2, 3])
        assert grid.rank_count == 6
        for rank in range(6):
            assert grid.rank_of(grid.coords_of(rank)) == rank

    def test_grid_neighbors(self):
        grid = dmp.GridAttr([2, 2])
        assert grid.neighbor_of(0, (0, 1)) == 1
        assert grid.neighbor_of(0, (1, 0)) == 2
        assert grid.neighbor_of(0, (0, -1)) is None
        assert grid.neighbor_of(3, (1, 0)) is None

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            dmp.GridAttr([])
        with pytest.raises(ValueError):
            dmp.GridAttr([0, 2])

    def test_exchange_regions(self):
        exchange = dmp.ExchangeAttr([4, 0], [100, 4], [0, 4], [0, -1])
        assert exchange.element_count() == 400
        recv_offset, recv_size = exchange.recv_region
        send_offset, send_size = exchange.send_region
        assert recv_offset == (4, 0) and recv_size == (100, 4)
        assert send_offset == (4, 4) and send_size == (100, 4)
        assert not exchange.is_empty()

    def test_printed_spelling(self):
        exchange = dmp.ExchangeAttr([4, 0], [100, 4], [0, 4], [0, -1])
        assert str(exchange) == (
            "#dmp.exchange<at [4, 0] size [100, 4] source offset [0, 4] to [0, -1]>"
        )
        assert str(dmp.GridAttr([2, 3])) == "#dmp.grid<2x3>"

    def test_exchange_validation(self):
        with pytest.raises(ValueError):
            dmp.ExchangeAttr([0], [1, 1], [0], [0])
        with pytest.raises(ValueError):
            dmp.ExchangeAttr([0], [-1], [0], [1])
