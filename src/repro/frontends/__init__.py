"""DSL frontends sharing the compilation stack (Devito, PSyclone, OEC-style).

All three build their stencil-level module with one builder,
:mod:`repro.frontends.oec.builder`.
"""

from . import devito, oec, psyclone

__all__ = ["devito", "psyclone", "oec"]
