"""A minimal gpu dialect: the one operation the stencil GPU lowering emits.

The paper's observed behaviour — a synchronous kernel launch per
``scf.parallel`` — is modelled by a ``gpu.host_synchronize`` after every
mapped loop nest; the nests themselves stay ``scf.parallel`` (marked with a
``gpu_kernel`` attribute) and data movement is an attribute the
:mod:`repro.machine` model reads.
"""

from __future__ import annotations

from ..ir.core import Operation


class HostSynchronizeOp(Operation):
    """Block the host until all outstanding device work completes."""

    name = "gpu.host_synchronize"

    def __init__(self):
        super().__init__()
