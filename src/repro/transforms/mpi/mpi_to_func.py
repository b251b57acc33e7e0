"""Lower the mpi dialect to plain function calls with library "magic constants".

LLVM has no notion of MPI, so the real stack replaces every mpi operation with
a ``func.call`` to the corresponding ``MPI_*`` symbol, substituting datatype
and communicator handles with the integer constants found in the MPI library's
header (paper §4.3, listing 4).  The constants used here are the mpich ABI
values quoted in the paper; switching libraries means switching this table.
"""

from __future__ import annotations


from ...dialects import arith, func, llvm, memref, mpi
from ...dialects.builtin import ModuleOp
from ...ir.attributes import IntegerAttr
from ...ir.builder import Builder
from ...ir.core import Operation, SSAValue
from ...ir.pass_manager import ModulePass
from ...ir.types import Float32Type, Float64Type, IntegerType, MemRefType, i1, i32, i64

#: mpich magic constants (the values the paper extracts from mpi.h).
MPICH_COMM_WORLD = 0x44000000  # 1140850688
MPICH_DATATYPE_CONSTANTS = {
    "f32": 0x4C00040A,  # MPI_FLOAT
    "f64": 0x4C00080B,  # MPI_DOUBLE  (1275070475 in the paper's listing 4)
    "i32": 0x4C000405,  # MPI_INT
    "i64": 0x4C000816,  # MPI_LONG_LONG
}
MPICH_REQUEST_NULL = 0x2C000000
MPICH_STATUS_IGNORE = 1
MPICH_OP_CONSTANTS = {
    "sum": 0x58000003,
    "prod": 0x58000004,
    "min": 0x58000002,
    "max": 0x58000001,
    "land": 0x58000005,
    "lor": 0x58000007,
}


def datatype_constant_for(element_type) -> int:
    """The mpich datatype handle for a scalar element type."""
    if isinstance(element_type, Float64Type):
        return MPICH_DATATYPE_CONSTANTS["f64"]
    if isinstance(element_type, Float32Type):
        return MPICH_DATATYPE_CONSTANTS["f32"]
    if isinstance(element_type, IntegerType) and element_type.width == 64:
        return MPICH_DATATYPE_CONSTANTS["i64"]
    if isinstance(element_type, IntegerType):
        return MPICH_DATATYPE_CONSTANTS["i32"]
    raise ValueError(f"no MPI datatype for element type {element_type}")


class _MPILoweringState:
    """Tracks which external MPI function declarations have been added."""

    def __init__(self, module: ModuleOp):
        self.module = module
        self._declared: dict[str, func.FuncOp] = {}
        for op in module.walk():
            if isinstance(op, func.FuncOp) and op.is_declaration:
                self._declared[op.sym_name] = op

    def declare(self, name: str, inputs, outputs) -> None:
        if name in self._declared:
            return
        declaration = func.FuncOp.external(name, inputs, outputs)
        self.module.body.block.add_op(declaration)
        self._declared[name] = declaration


def _lower_unwrap_memref(op: mpi.UnwrapMemrefOp, builder: Builder) -> dict[SSAValue, SSAValue]:
    """Expand unwrap_memref into pointer extraction and constants (listing 4)."""
    memref_value = op.memref
    memref_type = memref_value.type
    assert isinstance(memref_type, MemRefType)
    base_index = builder.insert(memref.ExtractAlignedPointerAsIndexOp(memref_value))
    as_i64 = builder.insert(arith.IndexCastOp(base_index.result, i64))
    pointer = builder.insert(llvm.IntToPtrOp(as_i64.result))
    count = builder.insert(
        arith.ConstantOp(IntegerAttr(memref_type.element_count(), i32), i32)
    )
    datatype = builder.insert(
        arith.ConstantOp(
            IntegerAttr(datatype_constant_for(memref_type.element_type), i32), i32
        )
    )
    return {
        op.ptr: pointer.result,
        op.count: count.result,
        op.dtype: datatype.result,
    }


def lower_mpi_to_func(module: ModuleOp) -> int:
    """Replace mpi ops with func.call operations; return the number lowered."""
    state = _MPILoweringState(module)
    lowered = 0

    for op in list(module.walk()):
        if op.parent is None or not op.name.startswith("mpi."):
            continue
        builder = Builder.before(op)
        lowered += 1

        if isinstance(op, mpi.UnwrapMemrefOp):
            replacements = _lower_unwrap_memref(op, builder)
            for old, new in replacements.items():
                old.replace_by(new)
            op.erase()
            continue

        if isinstance(op, mpi.InitOp):
            state.declare("MPI_Init", [llvm.LLVMPointerType(), llvm.LLVMPointerType()], [i32])
            null = builder.insert(llvm.NullOp()).result
            builder.insert(func.CallOp("MPI_Init", [null, null], [i32]))
            op.erase()
            continue
        if isinstance(op, mpi.FinalizeOp):
            state.declare("MPI_Finalize", [], [i32])
            builder.insert(func.CallOp("MPI_Finalize", [], [i32]))
            op.erase()
            continue
        if isinstance(op, (mpi.CommRankOp, mpi.CommSizeOp)):
            symbol = "MPI_Comm_rank" if isinstance(op, mpi.CommRankOp) else "MPI_Comm_size"
            state.declare(symbol, [i32], [i32])
            comm = builder.insert(
                arith.ConstantOp(IntegerAttr(MPICH_COMM_WORLD, i32), i32)
            ).result
            call = builder.insert(func.CallOp(symbol, [comm], [i32]))
            op.results[0].replace_by(call.results[0])
            op.erase()
            continue
        if isinstance(op, (mpi.SendOp, mpi.RecvOp)):
            symbol = "MPI_Send" if isinstance(op, mpi.SendOp) else "MPI_Recv"
            state.declare(
                symbol, [llvm.LLVMPointerType(), i32, i32, i32, i32, i32], [i32]
            )
            comm = builder.insert(
                arith.ConstantOp(IntegerAttr(MPICH_COMM_WORLD, i32), i32)
            ).result
            builder.insert(
                func.CallOp(
                    symbol,
                    [op.buffer, op.count, op.datatype, op.peer, op.tag, comm],
                    [i32],
                )
            )
            op.erase()
            continue
        if isinstance(op, (mpi.IsendOp, mpi.IrecvOp)):
            symbol = "MPI_Isend" if isinstance(op, mpi.IsendOp) else "MPI_Irecv"
            state.declare(
                symbol,
                [llvm.LLVMPointerType(), i32, i32, i32, i32, i32, llvm.LLVMPointerType()],
                [i32],
            )
            comm = builder.insert(
                arith.ConstantOp(IntegerAttr(MPICH_COMM_WORLD, i32), i32)
            ).result
            request = op.request
            assert request is not None
            builder.insert(
                func.CallOp(
                    symbol,
                    [op.buffer, op.count, op.datatype, op.peer, op.tag, comm, request],
                    [i32],
                )
            )
            op.erase()
            continue
        if isinstance(op, mpi.WaitOp):
            state.declare("MPI_Wait", [llvm.LLVMPointerType(), i32], [i32])
            status = builder.insert(
                arith.ConstantOp(IntegerAttr(MPICH_STATUS_IGNORE, i32), i32)
            ).result
            builder.insert(func.CallOp("MPI_Wait", [op.operands[0], status], [i32]))
            op.erase()
            continue
        if isinstance(op, mpi.TestOp):
            # C's MPI_Test writes the flag through a pointer; here it is the
            # call's result, which is what the interpreter's library returns.
            state.declare("MPI_Test", [llvm.LLVMPointerType(), i32], [i1])
            status = builder.insert(
                arith.ConstantOp(IntegerAttr(MPICH_STATUS_IGNORE, i32), i32)
            ).result
            call = builder.insert(func.CallOp("MPI_Test", [op.operands[0], status], [i1]))
            op.flag.replace_by(call.results[0])
            op.erase()
            continue
        if isinstance(op, mpi.WaitallOp):
            state.declare("MPI_Waitall", [i32, llvm.LLVMPointerType(), i32], [i32])
            status = builder.insert(
                arith.ConstantOp(IntegerAttr(MPICH_STATUS_IGNORE, i32), i32)
            ).result
            builder.insert(
                func.CallOp("MPI_Waitall", [op.count, op.requests, status], [i32])
            )
            op.erase()
            continue
        if isinstance(op, (mpi.ReduceOp, mpi.AllreduceOp)):
            is_reduce = isinstance(op, mpi.ReduceOp)
            symbol = "MPI_Reduce" if is_reduce else "MPI_Allreduce"
            arg_types = [llvm.LLVMPointerType(), llvm.LLVMPointerType(), i32, i32, i32]
            if is_reduce:
                arg_types.append(i32)
            arg_types.append(i32)
            state.declare(symbol, arg_types, [i32])
            reduction = builder.insert(
                arith.ConstantOp(IntegerAttr(MPICH_OP_CONSTANTS[op.operation], i32), i32)
            ).result
            comm = builder.insert(
                arith.ConstantOp(IntegerAttr(MPICH_COMM_WORLD, i32), i32)
            ).result
            arguments = [op.send_buffer, op.recv_buffer, op.count, op.datatype, reduction]
            if is_reduce:
                root = op.root
                assert root is not None
                arguments.append(root)
            arguments.append(comm)
            builder.insert(func.CallOp(symbol, arguments, [i32]))
            op.erase()
            continue
        if isinstance(op, mpi.BcastOp):
            state.declare(
                "MPI_Bcast", [llvm.LLVMPointerType(), i32, i32, i32, i32], [i32]
            )
            comm = builder.insert(
                arith.ConstantOp(IntegerAttr(MPICH_COMM_WORLD, i32), i32)
            ).result
            builder.insert(
                func.CallOp(
                    "MPI_Bcast",
                    [op.operands[0], op.operands[1], op.operands[2], op.operands[3], comm],
                    [i32],
                )
            )
            op.erase()
            continue
        if isinstance(op, mpi.GatherOp):
            state.declare(
                "MPI_Gather",
                [llvm.LLVMPointerType(), i32, i32, llvm.LLVMPointerType(), i32, i32, i32, i32],
                [i32],
            )
            comm = builder.insert(
                arith.ConstantOp(IntegerAttr(MPICH_COMM_WORLD, i32), i32)
            ).result
            builder.insert(
                func.CallOp(
                    "MPI_Gather",
                    [
                        op.send_buffer, op.operands[2], op.operands[3],
                        op.recv_buffer, op.operands[2], op.operands[3],
                        op.root, comm,
                    ],
                    [i32],
                )
            )
            op.erase()
            continue
        if isinstance(op, mpi.BarrierOp):
            state.declare("MPI_Barrier", [i32], [i32])
            comm = builder.insert(
                arith.ConstantOp(IntegerAttr(MPICH_COMM_WORLD, i32), i32)
            ).result
            builder.insert(func.CallOp("MPI_Barrier", [comm], [i32]))
            op.erase()
            continue
        # Request-array bookkeeping ops (allocate/get/null) stay as-is: they
        # model plain stack allocations and pointer arithmetic that need no
        # library call, and the interpreter executes them directly.
        lowered -= 1

    return lowered


class ConvertMPIToFuncPass(ModulePass):
    """Lower mpi operations to MPI_* function calls with mpich magic constants."""

    name = "convert-mpi-to-llvm"
    conversion = True

    def apply(self, module: Operation) -> None:
        assert isinstance(module, ModuleOp)
        lower_mpi_to_func(module)
