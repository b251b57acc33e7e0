"""All dialects of the shared compilation stack, one module each.

A dialect is a module of :class:`~repro.ir.core.Operation` subclasses (and
the attributes and types they carry); an operation exists because a frontend
or a transform constructs it.
"""

from . import arith, builtin, dmp, func, gpu, hls, llvm, memref, mpi, omp, scf, stencil

__all__ = [
    "arith", "builtin", "dmp", "func", "gpu", "hls", "llvm", "memref", "mpi",
    "omp", "scf", "stencil",
]
