"""Benchmark workload generators for the paper's evaluation kernels."""

from .devito_workloads import (
    DevitoWorkload,
    acoustic_wave,
    heat_diffusion,
    kernel_label,
)
from .psyclone_workloads import (
    PAPER_PW_SCALING_SHAPE,
    PAPER_PW_SIZES_CPU,
    PAPER_PW_SIZES_GPU,
    PAPER_TRAADV_SCALING_SHAPE,
    PAPER_TRAADV_SIZES_CPU,
    PAPER_TRAADV_SIZES_GPU,
    PsycloneWorkload,
    masked_tracer_advection,
    pw_advection,
    tracer_advection,
)

__all__ = [
    "DevitoWorkload", "heat_diffusion", "acoustic_wave", "kernel_label",
    "PsycloneWorkload", "pw_advection", "tracer_advection",
    "masked_tracer_advection",
    "PAPER_PW_SIZES_CPU", "PAPER_TRAADV_SIZES_CPU",
    "PAPER_PW_SIZES_GPU", "PAPER_TRAADV_SIZES_GPU",
    "PAPER_PW_SCALING_SHAPE", "PAPER_TRAADV_SCALING_SHAPE",
]
