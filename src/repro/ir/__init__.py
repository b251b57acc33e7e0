"""SSA+Regions IR core (the xDSL-like substrate of the shared compilation stack).

This package provides everything the dialects and transforms build on:

* :mod:`~repro.ir.attributes` / :mod:`~repro.ir.types` — immutable attributes
  and builtin types.
* :mod:`~repro.ir.core` — SSA values, operations, blocks and regions.
* :mod:`~repro.ir.builder` — insertion-point based IR construction.
* :mod:`~repro.ir.printer` — the textual format (fingerprints, walkthroughs, dumps).
* :mod:`~repro.ir.pass_manager` — passes, declared pipelines (stages of pass
  objects) and the one pass manager that runs them.

Lowerings are plain functions that walk the module and rebuild operations with
a :class:`Builder`.
"""

from .attributes import (
    ArrayAttr,
    Attribute,
    BoolAttr,
    Data,
    DenseArrayAttr,
    DenseIntOrFPElementsAttr,
    DictionaryAttr,
    FloatAttr,
    FloatData,
    IntAttr,
    IntegerAttr,
    StringAttr,
    SymbolRefAttr,
    TypeAttribute,
    UnitAttr,
)
from .builder import Builder, InsertPoint, build_single_block_region
from .core import (
    Block,
    BlockArgument,
    IRError,
    Operation,
    OpResult,
    Region,
    SSAValue,
    Use,
)
from .pass_manager import (
    LambdaPass,
    ModulePass,
    PassFailedError,
    PassManager,
    PipelineReport,
    Stage,
    VerifyPass,
)
from .printer import Printer, print_module
from .traits import (
    CommunicationEffect,
    ConstantLike,
    HasParent,
    IsolatedFromAbove,
    IsTerminator,
    MemoryReadEffect,
    MemoryWriteEffect,
    OpTrait,
    Pure,
    SymbolOp,
    is_pure,
)
from .types import (
    DYNAMIC,
    Float16Type,
    Float32Type,
    Float64Type,
    FunctionType,
    IndexType,
    IntegerType,
    MemRefType,
    NoneType,
    ShapedType,
    TensorType,
    VectorType,
    bitwidth_of,
    bytewidth_of,
    f16,
    f32,
    f64,
    i1,
    i32,
    i64,
    index,
    is_float_type,
    is_integer_like,
    none,
)
from .verifier import VerificationError, verify_operation

__all__ = [
    # attributes
    "Attribute", "TypeAttribute", "Data", "IntAttr", "FloatData", "StringAttr",
    "BoolAttr", "UnitAttr", "ArrayAttr", "DictionaryAttr", "SymbolRefAttr",
    "IntegerAttr", "FloatAttr", "DenseArrayAttr", "DenseIntOrFPElementsAttr",
    # types
    "IntegerType", "IndexType", "Float16Type", "Float32Type", "Float64Type",
    "NoneType", "FunctionType", "ShapedType", "MemRefType", "TensorType",
    "VectorType", "DYNAMIC", "i1", "i32", "i64", "f16", "f32", "f64", "index",
    "none", "bitwidth_of", "bytewidth_of", "is_float_type", "is_integer_like",
    # core
    "SSAValue", "OpResult", "BlockArgument", "Use", "Operation", "Block",
    "Region", "IRError",
    # construction
    "Builder", "InsertPoint", "build_single_block_region",
    # printing
    "Printer", "print_module",
    # passes
    "ModulePass", "VerifyPass", "LambdaPass", "Stage", "PassManager",
    "PipelineReport", "PassFailedError",
    # traits
    "OpTrait", "IsTerminator", "Pure", "HasParent", "IsolatedFromAbove",
    "SymbolOp", "ConstantLike", "MemoryReadEffect", "MemoryWriteEffect",
    "CommunicationEffect", "is_pure",
    # verification
    "VerificationError", "verify_operation",
]
