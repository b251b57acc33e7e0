"""Golden-text tests of the printer.

The printed module is write-only — a compiled program's fingerprint hashes it
(``tests/test_pipeline.py::PARENT_FINGERPRINTS`` pins 18 of them), the
lowering walkthrough and the dumps show it — so what is held here is the
spelling itself.
"""

from textwrap import dedent

from repro.dialects import arith, builtin, dmp, func, memref, mpi, scf
from repro.ir import Builder, FunctionType, MemRefType, f64, i32, index, print_module
from tests.conftest import build_jacobi_module


def module_text(body: str) -> str:
    """``body`` (the ops of the module's block, dedented) inside a module."""
    lines = "".join(f"    {line}\n" for line in dedent(body).strip("\n").splitlines())
    return '"builtin.module"() ({\n  ^bb():\n' + lines + "}) : () -> ()\n"


class TestGoldenText:
    def test_empty_module(self):
        assert print_module(builtin.ModuleOp([])) == module_text("")

    def test_arith_constants_and_ops(self):
        kernel = func.FuncOp("f", FunctionType([], []))
        b = Builder.at_end(kernel.body.block)
        one = b.insert(arith.ConstantOp.from_int(1, i32)).result
        two = b.insert(arith.ConstantOp.from_float(2.5, f64)).result
        b.insert(arith.AddiOp(one, one))
        b.insert(arith.MulfOp(two, two))
        b.insert(arith.CmpiOp("slt", one, one))
        b.insert(func.ReturnOp([]))
        assert print_module(builtin.ModuleOp([kernel])) == module_text('''
            "func.func"() ({
              ^bb():
                %0 = "arith.constant"() {"value" = 1 : i32} : () -> (i32)
                %1 = "arith.constant"() {"value" = 2.5 : f64} : () -> (f64)
                %2 = "arith.addi"(%0, %0) : (i32, i32) -> (i32)
                %3 = "arith.mulf"(%1, %1) : (f64, f64) -> (f64)
                %4 = "arith.cmpi"(%0, %0) {"predicate" = "slt"} : (i32, i32) -> (i1)
                "func.return"() : () -> ()
            }) {"sym_name" = "f", "function_type" = () -> ()} : () -> ()
        ''')

    def test_scf_structures(self):
        kernel = func.FuncOp("f", FunctionType([index], []))
        b = Builder.at_end(kernel.body.block)
        zero = b.insert(arith.ConstantOp.from_int(0)).result
        one = b.insert(arith.ConstantOp.from_int(1)).result
        loop = scf.ForOp(zero, kernel.args[0], one)
        Builder.at_end(loop.body.block).insert(scf.YieldOp([]))
        b.insert(loop)
        b.insert(func.ReturnOp([]))
        assert print_module(builtin.ModuleOp([kernel])) == module_text('''
            "func.func"() ({
              ^bb(%0 : index):
                %1 = "arith.constant"() {"value" = 0 : index} : () -> (index)
                %2 = "arith.constant"() {"value" = 1 : index} : () -> (index)
                "scf.for"(%1, %0, %2) ({
                  ^bb(%3 : index):
                    "scf.yield"() : () -> ()
                }) : (index, index, index) -> ()
                "func.return"() : () -> ()
            }) {"sym_name" = "f", "function_type" = (index) -> ()} : () -> ()
        ''')

    def test_stencil_program(self):
        field = "!stencil.field<[-1,9]xf64>"
        temp = "!stencil.temp<[-1,9]xf64>"
        assert print_module(build_jacobi_module()) == module_text(f'''
            "func.func"() ({{
              ^bb(%0 : {field}, %1 : {field}, %2 : index):
                %3 = "arith.constant"() {{"value" = 0 : index}} : () -> (index)
                %4 = "arith.constant"() {{"value" = 1 : index}} : () -> (index)
                %5, %6 = "scf.for"(%3, %2, %4, %0, %1) ({{
                  ^bb(%7 : index, %8 : {field}, %9 : {field}):
                    %10 = "stencil.load"(%8) : ({field}) -> ({temp})
                    %11 = "stencil.apply"(%10) ({{
                      ^bb(%12 : {temp}):
                        %13 = "stencil.access"(%12) {{"offset" = array<i64: -1>}} : ({temp}) -> (f64)
                        %14 = "stencil.access"(%12) {{"offset" = array<i64: 0>}} : ({temp}) -> (f64)
                        %15 = "stencil.access"(%12) {{"offset" = array<i64: 1>}} : ({temp}) -> (f64)
                        %16 = "arith.constant"() {{"value" = 0.3333333333333333 : f64}} : () -> (f64)
                        %17 = "arith.addf"(%13, %14) : (f64, f64) -> (f64)
                        %18 = "arith.addf"(%17, %15) : (f64, f64) -> (f64)
                        %19 = "arith.mulf"(%18, %16) : (f64, f64) -> (f64)
                        "stencil.return"(%19) : (f64) -> ()
                    }}) : ({temp}) -> (!stencil.temp<[0,8]xf64>)
                    "stencil.store"(%11, %9) {{"bounds" = #stencil.bounds<[0,8]>}} : (!stencil.temp<[0,8]xf64>, {field}) -> ()
                    "scf.yield"(%9, %8) : ({field}, {field}) -> ()
                }}) : (index, index, index, {field}, {field}) -> ({field}, {field})
                "func.return"() : () -> ()
            }}) {{"sym_name" = "kernel", "function_type" = ({field}, {field}, index) -> ()}} : () -> ()
        ''')

    def test_dmp_and_mpi_spellings(self):
        kernel = func.FuncOp("f", FunctionType([], []))
        b = Builder.at_end(kernel.body.block)
        buffer = b.insert(memref.AllocOp(MemRefType([8, 8], f64))).memref
        b.insert(
            dmp.SwapOp(
                buffer,
                dmp.GridAttr([2, 2]),
                [dmp.ExchangeAttr([1, 0], [6, 1], [0, 1], [0, -1])],
            )
        )
        b.insert(mpi.CommRankOp())
        requests = b.insert(mpi.AllocateRequestsOp(2)).requests
        b.insert(mpi.GetRequestOp(requests, 0))
        b.insert(func.ReturnOp([]))
        assert print_module(builtin.ModuleOp([kernel])) == module_text('''
            "func.func"() ({
              ^bb():
                %0 = "memref.alloc"() : () -> (memref<8x8xf64>)
                "dmp.swap"(%0) {"grid" = #dmp.grid<2x2>, "swaps" = [#dmp.exchange<at [1, 0] size [6, 1] source offset [0, 1] to [0, -1]>]} : (memref<8x8xf64>) -> ()
                %1 = "mpi.comm_rank"() : () -> (i32)
                %2 = "mpi.allocate_requests"() {"count" = 2} : () -> (!mpi.requests<2>)
                %3 = "mpi.get_request"(%2) {"index" = 0} : (!mpi.requests<2>) -> (!mpi.request)
                "func.return"() : () -> ()
            }) {"sym_name" = "f", "function_type" = () -> ()} : () -> ()
        ''')

    def test_the_text_does_not_depend_on_object_identity(self):
        # Two separately built modules share no object, and print alike.
        assert print_module(build_jacobi_module()) == print_module(build_jacobi_module())
