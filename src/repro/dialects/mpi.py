"""The mpi dialect: an SSA IR mirroring a subset of MPI 1.0 (paper §4.3).

Operations correspond to MPI library calls; types represent MPI objects
(requests, request arrays, datatypes).  ``mpi.unwrap_memref`` bridges the
memref and MPI worlds by exposing a buffer pointer, an element count and the
matching MPI datatype.  The dialect is lowered either to plain function calls
(:mod:`repro.transforms.mpi.mpi_to_func`, mirroring the mpich-specific
lowering in the paper) or executed directly on the simulated MPI runtime.
"""

from __future__ import annotations

from typing import Optional

from ..ir.attributes import IntAttr, StringAttr, TypeAttribute
from ..ir.core import Operation, SSAValue
from ..ir.traits import CommunicationEffect, MemoryReadEffect, MemoryWriteEffect, Pure
from ..ir.types import MemRefType, i32
from .llvm import LLVMPointerType


class RequestType(TypeAttribute):
    """An MPI_Request handle."""

    name = "mpi.request"

    def parameters(self) -> tuple:
        return ()

    def print_parameters(self, printer) -> str:
        return ""


class RequestArrayType(TypeAttribute):
    """A contiguous array of MPI_Request handles (for MPI_Waitall)."""

    name = "mpi.requests"

    __slots__ = ("count",)

    def __init__(self, count: int):
        self.count = int(count)

    def parameters(self) -> tuple:
        return (self.count,)

    def print_parameters(self, printer) -> str:
        return str(self.count)


class DataTypeType(TypeAttribute):
    """An MPI_Datatype handle."""

    name = "mpi.datatype"

    def parameters(self) -> tuple:
        return ()

    def print_parameters(self, printer) -> str:
        return ""


#: Reduction operation names accepted by mpi.reduce / mpi.allreduce.
REDUCTION_OPERATIONS = ("sum", "prod", "min", "max", "land", "lor")


class InitOp(Operation):
    """MPI_Init."""

    name = "mpi.init"
    traits = frozenset([CommunicationEffect()])

    def __init__(self):
        super().__init__()


class FinalizeOp(Operation):
    """MPI_Finalize."""

    name = "mpi.finalize"
    traits = frozenset([CommunicationEffect()])

    def __init__(self):
        super().__init__()


class CommRankOp(Operation):
    """MPI_Comm_rank on MPI_COMM_WORLD."""

    name = "mpi.comm_rank"

    def __init__(self):
        super().__init__(result_types=[i32])

    @property
    def rank(self) -> SSAValue:
        return self.results[0]


class CommSizeOp(Operation):
    """MPI_Comm_size on MPI_COMM_WORLD."""

    name = "mpi.comm_size"

    def __init__(self):
        super().__init__(result_types=[i32])

    @property
    def size(self) -> SSAValue:
        return self.results[0]


class UnwrapMemrefOp(Operation):
    """Expose a memref as (pointer, element count, MPI datatype)."""

    name = "mpi.unwrap_memref"
    traits = frozenset([Pure()])

    def __init__(self, memref: SSAValue):
        if not isinstance(memref.type, MemRefType):
            raise ValueError("mpi.unwrap_memref expects a memref operand")
        super().__init__(
            operands=[memref],
            result_types=[LLVMPointerType(), i32, DataTypeType()],
        )

    @property
    def memref(self) -> SSAValue:
        return self.operands[0]

    @property
    def ptr(self) -> SSAValue:
        return self.results[0]

    @property
    def count(self) -> SSAValue:
        return self.results[1]

    @property
    def dtype(self) -> SSAValue:
        return self.results[2]


class _PointToPointOp(Operation):
    """Shared layout for send/recv style operations.

    Operand order follows the paper: buffer pointer (or memref), count,
    datatype, peer rank, tag [, request].
    """

    traits = frozenset([CommunicationEffect(), MemoryReadEffect(), MemoryWriteEffect()])

    def __init__(
        self,
        buffer: SSAValue,
        count: SSAValue,
        datatype: SSAValue,
        peer: SSAValue,
        tag: SSAValue,
        request: Optional[SSAValue] = None,
    ):
        operands = [buffer, count, datatype, peer, tag]
        if request is not None:
            operands.append(request)
        super().__init__(operands=operands)

    @property
    def buffer(self) -> SSAValue:
        return self.operands[0]

    @property
    def count(self) -> SSAValue:
        return self.operands[1]

    @property
    def datatype(self) -> SSAValue:
        return self.operands[2]

    @property
    def peer(self) -> SSAValue:
        return self.operands[3]

    @property
    def tag(self) -> SSAValue:
        return self.operands[4]

    @property
    def request(self) -> Optional[SSAValue]:
        return self.operands[5] if len(self.operands) > 5 else None


class SendOp(_PointToPointOp):
    """Blocking MPI_Send."""

    name = "mpi.send"

    def verify_(self) -> None:
        if len(self.operands) != 5:
            raise ValueError("mpi.send takes buffer, count, datatype, dest, tag")


class RecvOp(_PointToPointOp):
    """Blocking MPI_Recv."""

    name = "mpi.recv"

    def verify_(self) -> None:
        if len(self.operands) != 5:
            raise ValueError("mpi.recv takes buffer, count, datatype, source, tag")


class IsendOp(_PointToPointOp):
    """Non-blocking MPI_Isend."""

    name = "mpi.isend"

    def verify_(self) -> None:
        if len(self.operands) != 6:
            raise ValueError(
                "mpi.isend takes buffer, count, datatype, dest, tag, request"
            )


class IrecvOp(_PointToPointOp):
    """Non-blocking MPI_Irecv."""

    name = "mpi.irecv"

    def verify_(self) -> None:
        if len(self.operands) != 6:
            raise ValueError(
                "mpi.irecv takes buffer, count, datatype, source, tag, request"
            )


class TestOp(Operation):
    """MPI_Test: non-blocking completion check of one request."""

    name = "mpi.test"
    traits = frozenset([CommunicationEffect()])

    def __init__(self, request: SSAValue):
        from ..ir.types import i1

        super().__init__(operands=[request], result_types=[i1])

    @property
    def flag(self) -> SSAValue:
        return self.results[0]


class WaitOp(Operation):
    """MPI_Wait: block until one request completes."""

    name = "mpi.wait"
    traits = frozenset([CommunicationEffect()])

    def __init__(self, request: SSAValue):
        super().__init__(operands=[request])


class WaitallOp(Operation):
    """MPI_Waitall: block until every request in an array completes."""

    name = "mpi.waitall"
    traits = frozenset([CommunicationEffect()])

    def __init__(self, requests: SSAValue, count: SSAValue):
        super().__init__(operands=[requests, count])

    @property
    def requests(self) -> SSAValue:
        return self.operands[0]

    @property
    def count(self) -> SSAValue:
        return self.operands[1]


class _ReductionOp(Operation):
    traits = frozenset([CommunicationEffect(), MemoryReadEffect(), MemoryWriteEffect()])

    def __init__(
        self,
        send_buffer: SSAValue,
        recv_buffer: SSAValue,
        count: SSAValue,
        datatype: SSAValue,
        operation: str,
        root: Optional[SSAValue] = None,
    ):
        if operation not in REDUCTION_OPERATIONS:
            raise ValueError(f"unknown MPI reduction operation {operation!r}")
        operands = [send_buffer, recv_buffer, count, datatype]
        if root is not None:
            operands.append(root)
        super().__init__(
            operands=operands,
            attributes={"operation": StringAttr(operation)},
        )

    @property
    def operation(self) -> str:
        attr = self.attributes["operation"]
        assert isinstance(attr, StringAttr)
        return attr.data

    @property
    def send_buffer(self) -> SSAValue:
        return self.operands[0]

    @property
    def recv_buffer(self) -> SSAValue:
        return self.operands[1]

    @property
    def count(self) -> SSAValue:
        return self.operands[2]

    @property
    def datatype(self) -> SSAValue:
        return self.operands[3]

    @property
    def root(self) -> Optional[SSAValue]:
        return self.operands[4] if len(self.operands) > 4 else None


class ReduceOp(_ReductionOp):
    """MPI_Reduce to a root rank."""

    name = "mpi.reduce"

    def verify_(self) -> None:
        if len(self.operands) != 5:
            raise ValueError(
                "mpi.reduce takes send buffer, recv buffer, count, datatype, root"
            )


class AllreduceOp(_ReductionOp):
    """MPI_Allreduce across all ranks."""

    name = "mpi.allreduce"

    def verify_(self) -> None:
        if len(self.operands) != 4:
            raise ValueError(
                "mpi.allreduce takes send buffer, recv buffer, count, datatype"
            )


class BcastOp(Operation):
    """MPI_Bcast from a root rank."""

    name = "mpi.bcast"
    traits = frozenset([CommunicationEffect(), MemoryReadEffect(), MemoryWriteEffect()])

    def __init__(self, buffer: SSAValue, count: SSAValue, datatype: SSAValue, root: SSAValue):
        super().__init__(operands=[buffer, count, datatype, root])

    @property
    def buffer(self) -> SSAValue:
        return self.operands[0]

    @property
    def root(self) -> SSAValue:
        return self.operands[3]


class GatherOp(Operation):
    """MPI_Gather to a root rank."""

    name = "mpi.gather"
    traits = frozenset([CommunicationEffect(), MemoryReadEffect(), MemoryWriteEffect()])

    def __init__(
        self,
        send_buffer: SSAValue,
        recv_buffer: SSAValue,
        count: SSAValue,
        datatype: SSAValue,
        root: SSAValue,
    ):
        super().__init__(operands=[send_buffer, recv_buffer, count, datatype, root])

    @property
    def send_buffer(self) -> SSAValue:
        return self.operands[0]

    @property
    def recv_buffer(self) -> SSAValue:
        return self.operands[1]

    @property
    def root(self) -> SSAValue:
        return self.operands[4]


class BarrierOp(Operation):
    """MPI_Barrier on MPI_COMM_WORLD."""

    name = "mpi.barrier"
    traits = frozenset([CommunicationEffect()])

    def __init__(self):
        super().__init__()


class AllocateRequestsOp(Operation):
    """Allocate an array of MPI_Request handles (friction-reducing helper op).

    The one ``convert-dmp-to-mpi`` emits for a swap also carries the swap's
    ``grid`` and ``swaps`` attributes (:func:`repro.dialects.dmp.
    declared_exchanges`), which a megakernel fuses the group by.
    """

    name = "mpi.allocate_requests"

    def __init__(self, count: int):
        super().__init__(
            attributes={"count": IntAttr(count)},
            result_types=[RequestArrayType(count)],
        )

    @property
    def count(self) -> int:
        attr = self.attributes["count"]
        assert isinstance(attr, IntAttr)
        return attr.data

    @property
    def requests(self) -> SSAValue:
        return self.results[0]


class GetRequestOp(Operation):
    """Index into a request array, yielding a single request handle."""

    name = "mpi.get_request"
    traits = frozenset([Pure()])

    def __init__(self, requests: SSAValue, index_value: int):
        super().__init__(
            operands=[requests],
            attributes={"index": IntAttr(index_value)},
            result_types=[RequestType()],
        )

    @property
    def requests(self) -> SSAValue:
        return self.operands[0]

    @property
    def index(self) -> int:
        attr = self.attributes["index"]
        assert isinstance(attr, IntAttr)
        return attr.data


class NullRequestOp(Operation):
    """Set a request handle to MPI_REQUEST_NULL (skipped exchange)."""

    name = "mpi.set_null_request"

    def __init__(self, request: SSAValue):
        super().__init__(operands=[request])
