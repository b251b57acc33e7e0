"""Lower dmp.swap to explicit MPI communication (paper §4.3 and fig. 4).

For every ``dmp.swap`` the pass emits, per declared exchange:

* static computation of the neighbour rank from ``mpi.comm_rank`` and the
  Cartesian grid (including an in-bounds check, so ranks on the physical
  boundary skip the exchange and set their requests to MPI_REQUEST_NULL),
* allocation of temporary send/receive buffers,
* packing of the send region (``memref.subview`` + ``memref.copy``),
* non-blocking ``mpi.isend`` / ``mpi.irecv`` pairs,

followed by a single ``mpi.waitall`` synchronisation and the unpacking copies
of the received halo regions back into the local buffer.

Message tags are :meth:`~repro.dialects.dmp.ExchangeAttr.travel_tag` — the
rule a natively executed ``dmp.swap`` uses too — so the send of one rank
matches the receive of its neighbour.

The group keeps the swap's declaration: its ``mpi.allocate_requests`` carries
the swap's ``grid`` and ``swaps`` attributes
(:func:`~repro.dialects.dmp.declared_exchanges`).  The tree walker ignores
them and runs the group op by op; a megakernel fuses the whole group back
into one swap step of the same :class:`~repro.interp.interpreter.
SwapMessagePlan`, which overlaps compute like a ``dmp.swap`` does.
"""

from __future__ import annotations

from typing import Sequence

from ...dialects import arith, memref, mpi, scf
from ...dialects.dmp import ExchangeAttr, SwapOp
from ...ir.attributes import IntegerAttr
from ...ir.builder import Builder
from ...ir.core import Block, Operation, Region, SSAValue
from ...ir.pass_manager import ModulePass
from ...ir.types import MemRefType, i1, i32


class _SwapLowering:
    """Lowers a single dmp.swap operation."""

    def __init__(self, swap: SwapOp):
        self.swap = swap
        self.builder = Builder.before(swap)
        self.grid = swap.grid
        self.exchanges = swap.swaps
        self.data = swap.data

    def _const_i32(self, value: int) -> SSAValue:
        return self.builder.insert(
            arith.ConstantOp(IntegerAttr(value, i32), i32)
        ).result

    def run(self) -> None:
        if not self.exchanges:
            self.swap.erase()
            return
        data_type = self.data.type
        if not isinstance(data_type, MemRefType):
            raise ValueError("dmp.swap data must be a memref for the MPI lowering")
        element_type = data_type.element_type

        rank = self.builder.insert(mpi.CommRankOp()).rank
        request_count = 2 * len(self.exchanges)
        allocate = mpi.AllocateRequestsOp(request_count)
        allocate.attributes.update(
            grid=self.grid, swaps=self.swap.attributes["swaps"]
        )
        requests = self.builder.insert(allocate).requests

        in_bounds_flags: list[SSAValue] = []
        recv_buffers: list[SSAValue] = []
        send_buffers: list[SSAValue] = []

        for exchange_index, exchange in enumerate(self.exchanges):
            in_bounds, neighbor = self._neighbor_of(rank, exchange)
            in_bounds_flags.append(in_bounds)

            buffer_type = MemRefType(exchange.size, element_type)
            send_buffer = self.builder.insert(memref.AllocOp(buffer_type)).memref
            recv_buffer = self.builder.insert(memref.AllocOp(buffer_type)).memref
            send_buffers.append(send_buffer)
            recv_buffers.append(recv_buffer)

            send_request = self.builder.insert(
                mpi.GetRequestOp(requests, 2 * exchange_index)
            ).results[0]
            recv_request = self.builder.insert(
                mpi.GetRequestOp(requests, 2 * exchange_index + 1)
            ).results[0]

            then_block = Block()
            then_builder = Builder.at_end(then_block)
            send_offsets, send_sizes = exchange.send_region
            send_view = then_builder.insert(
                memref.SubviewOp(self.data, send_offsets, send_sizes)
            ).result
            then_builder.insert(memref.CopyOp(send_view, send_buffer))
            send_unwrap = then_builder.insert(mpi.UnwrapMemrefOp(send_buffer))
            recv_unwrap = then_builder.insert(mpi.UnwrapMemrefOp(recv_buffer))
            send_tag = then_builder.insert(
                arith.ConstantOp(IntegerAttr(exchange.travel_tag(True), i32), i32)
            ).result
            recv_tag = then_builder.insert(
                arith.ConstantOp(IntegerAttr(exchange.travel_tag(False), i32), i32)
            ).result
            then_builder.insert(
                mpi.IsendOp(
                    send_unwrap.ptr, send_unwrap.count, send_unwrap.dtype,
                    neighbor, send_tag, send_request,
                )
            )
            then_builder.insert(
                mpi.IrecvOp(
                    recv_unwrap.ptr, recv_unwrap.count, recv_unwrap.dtype,
                    neighbor, recv_tag, recv_request,
                )
            )
            then_builder.insert(scf.YieldOp([]))

            else_block = Block()
            else_builder = Builder.at_end(else_block)
            else_builder.insert(mpi.NullRequestOp(send_request))
            else_builder.insert(mpi.NullRequestOp(recv_request))
            else_builder.insert(scf.YieldOp([]))

            self.builder.insert(
                scf.IfOp(in_bounds, [], Region(then_block), Region(else_block))
            )

        waitall_count = self._const_i32(request_count)
        self.builder.insert(mpi.WaitallOp(requests, waitall_count))

        # Copy-back phase: unpack every received halo region.
        for exchange, in_bounds, recv_buffer, send_buffer in zip(
            self.exchanges, in_bounds_flags, recv_buffers, send_buffers
        ):
            then_block = Block()
            then_builder = Builder.at_end(then_block)
            recv_offsets, recv_sizes = exchange.recv_region
            recv_view = then_builder.insert(
                memref.SubviewOp(self.data, recv_offsets, recv_sizes)
            ).result
            then_builder.insert(memref.CopyOp(recv_buffer, recv_view))
            then_builder.insert(scf.YieldOp([]))
            self.builder.insert(scf.IfOp(in_bounds, [], Region(then_block)))
            self.builder.insert(memref.DeallocOp(send_buffer))
            self.builder.insert(memref.DeallocOp(recv_buffer))

        self.swap.erase()

    def _neighbor_of(
        self, rank: SSAValue, exchange: ExchangeAttr
    ) -> tuple[SSAValue, SSAValue]:
        """Emit IR computing (neighbour exists?, neighbour rank) for an exchange."""
        grid = self.grid
        strides = _row_major_strides(grid.shape)

        in_bounds: SSAValue | None = None
        neighbor = rank
        for dim, offset in enumerate(exchange.neighbor):
            if offset == 0:
                continue
            stride = self._const_i32(strides[dim])
            extent = self._const_i32(grid.shape[dim])
            coordinate = self.builder.insert(
                arith.RemSIOp(
                    self.builder.insert(arith.DivSIOp(rank, stride)).result, extent
                )
            ).result
            shifted = self.builder.insert(
                arith.AddiOp(coordinate, self._const_i32(offset))
            ).result
            zero = self._const_i32(0)
            lower_ok = self.builder.insert(arith.CmpiOp("sge", shifted, zero)).result
            upper_ok = self.builder.insert(arith.CmpiOp("slt", shifted, extent)).result
            dim_ok = self.builder.insert(arith.AndIOp(lower_ok, upper_ok, i1)).result
            in_bounds = (
                dim_ok
                if in_bounds is None
                else self.builder.insert(arith.AndIOp(in_bounds, dim_ok, i1)).result
            )
            step = self._const_i32(offset * strides[dim])
            neighbor = self.builder.insert(arith.AddiOp(neighbor, step)).result
        if in_bounds is None:
            in_bounds = self.builder.insert(
                arith.ConstantOp(IntegerAttr(1, i1), i1)
            ).result
        return in_bounds, neighbor


def _row_major_strides(shape: Sequence[int]) -> list[int]:
    strides = [1] * len(shape)
    for dim in range(len(shape) - 2, -1, -1):
        strides[dim] = strides[dim + 1] * shape[dim + 1]
    return strides


def lower_dmp_to_mpi(module: Operation) -> int:
    """Lower every dmp.swap under ``module``; return the number lowered."""
    swaps = [op for op in module.walk() if isinstance(op, SwapOp)]
    for swap in swaps:
        _SwapLowering(swap).run()
    return len(swaps)


class ConvertDMPToMPIPass(ModulePass):
    """Lower declarative halo exchanges to non-blocking MPI communication."""

    name = "convert-dmp-to-mpi"
    conversion = True

    def apply(self, module: Operation) -> None:
        lower_dmp_to_mpi(module)
