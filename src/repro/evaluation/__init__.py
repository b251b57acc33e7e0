"""Experiment harness regenerating every table and figure of the paper."""

from .experiments import (
    figure7_devito_cpu,
    figure8_strong_scaling,
    figure9_devito_gpu,
    figure10a_psyclone_cpu,
    figure10b_psyclone_gpu,
    figure11_psyclone_scaling,
    format_rows,
    table1_fpga,
)

__all__ = [
    "figure7_devito_cpu", "figure8_strong_scaling", "figure9_devito_gpu",
    "figure10a_psyclone_cpu", "figure10b_psyclone_gpu", "figure11_psyclone_scaling",
    "table1_fpga", "format_rows",
]
