"""An Open-Earth-Compiler-style programmatic stencil frontend.

Its builder is the one all three frontends lower through.
"""

from .builder import (
    BuilderError,
    FieldHandle,
    StencilExpressionBuilder,
    StencilProgramBuilder,
)

__all__ = [
    "StencilProgramBuilder", "StencilExpressionBuilder", "FieldHandle", "BuilderError",
]
