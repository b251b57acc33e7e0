"""Stencil-dialect transformations: shape inference, fusion and target lowerings."""

from .shape_inference import ShapeInferenceError, StencilShapeInferencePass, infer_shapes
from .stencil_fusion import StencilFusionPass, count_stencil_regions, fuse_applies
from .stencil_to_gpu import (
    ConvertStencilToGPUPass,
    count_gpu_kernels,
    count_synchronizations,
    lower_stencil_to_gpu,
)
from .stencil_to_hls import ConvertStencilToHLSPass, HLSKernelInfo, lower_stencil_to_hls
from .stencil_to_scf import (
    ConvertStencilToSCFPass,
    StencilLoweringError,
    lower_stencil_to_scf,
)

__all__ = [
    "StencilShapeInferencePass", "infer_shapes", "ShapeInferenceError",
    "StencilFusionPass", "fuse_applies", "count_stencil_regions",
    "ConvertStencilToSCFPass", "lower_stencil_to_scf", "StencilLoweringError",
    "ConvertStencilToGPUPass", "lower_stencil_to_gpu", "count_gpu_kernels",
    "count_synchronizations",
    "ConvertStencilToHLSPass", "lower_stencil_to_hls", "HLSKernelInfo",
]
