"""A minimal hls dialect for FPGA dataflow synthesis (Stencil-HMLS style).

The paper lowers the stencil dialect to an HLS dialect whose key construct is
the dataflow region: concurrently executing stages (read, compute, write).
Whether a compute stage caches the stencil footprint in a shift buffer — one
new value per cycle read from external memory, Table 1's "optimized"
configuration — is a ``uses_shift_buffer`` attribute on the stage.
"""

from __future__ import annotations

from typing import Optional

from ..ir.attributes import IntAttr, StringAttr
from ..ir.core import Block, Operation, Region


class DataflowOp(Operation):
    """A dataflow region: every nested stage runs concurrently, pipelined."""

    name = "hls.dataflow"

    def __init__(self, body: Optional[Region] = None):
        if body is None:
            body = Region(Block())
        super().__init__(regions=[body])

    @property
    def body(self) -> Region:
        return self.regions[0]


class StageOp(Operation):
    """A single dataflow stage (read, compute, or write)."""

    name = "hls.stage"

    def __init__(self, kind: str, body: Optional[Region] = None, ii: int = 1):
        if body is None:
            body = Region(Block())
        super().__init__(
            attributes={"kind": StringAttr(kind), "ii": IntAttr(ii)},
            regions=[body],
        )
