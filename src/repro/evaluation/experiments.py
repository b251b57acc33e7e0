"""Regeneration of every table and figure of the paper's evaluation (§6).

Each ``figure_*``/``table_*`` function compiles the corresponding benchmark
through the shared stack, reads the kernel characteristics off the compiled
IR, and evaluates the platform performance models for both the shared-stack
("xDSL") configuration and the baseline configurations the paper compares
against.  The return value is a list of row dictionaries; ``format_rows``
renders them as the text table stored in EXPERIMENTS.md.

Absolute GPts/s values come from analytic models (see ``repro.machine``) and
are not expected to match the paper's measurements; the comparisons the paper
makes (who is faster, by roughly how much, and where behaviour changes) are
the quantities of interest.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Sequence

import numpy as np

from ..machine import (
    ALVEO_U280,
    ARCHER2_NODE,
    CRAY_PSYCLONE,
    DEVITO_NATIVE,
    GNU_PSYCLONE,
    OPENACC_DEVITO,
    PSYCLONE_NVIDIA_GPU,
    SLINGSHOT,
    V100,
    XDSL_CPU,
    XDSL_GPU,
    XDSL_PSYCLONE,
    XDSL_PSYCLONE_GPU,
    ProgramCharacteristics,
    characterize_module,
    estimate_cpu_node,
    estimate_fpga,
    estimate_gpu,
    estimate_strong_scaling,
)
from ..transforms.stencil import fuse_applies, infer_shapes
from ..workloads import (
    PAPER_PW_SCALING_SHAPE,
    PAPER_PW_SIZES_CPU,
    PAPER_PW_SIZES_GPU,
    PAPER_TRAADV_SCALING_SHAPE,
    PAPER_TRAADV_SIZES_CPU,
    PAPER_TRAADV_SIZES_GPU,
    acoustic_wave,
    heat_diffusion,
    kernel_label,
    pw_advection,
    tracer_advection,
)

#: Small shapes used to *build* the IR; characteristics are then rescaled to
#: the paper's problem sizes so no paper-sized array is ever allocated.
_BUILD_SHAPE = {2: (32, 32), 3: (16, 16, 16)}
_PAPER_SHAPE_CPU = {2: (16384, 16384), 3: (1024, 1024, 1024)}
_PAPER_SHAPE_GPU = {2: (8192, 8192), 3: (512, 512, 512)}
_PAPER_TIMESTEPS = {2: 1024, 3: 512}


def _scale_characteristics(
    characteristics: ProgramCharacteristics, factor: float
) -> ProgramCharacteristics:
    scaled = ProgramCharacteristics(applies=[])
    for apply_chars in characteristics.applies:
        scaled.applies.append(
            replace(apply_chars, cells_per_step=max(1, int(apply_chars.cells_per_step * factor)))
        )
    return scaled


def _devito_characteristics(kind: str, ndim: int, space_order: int, paper_shape) -> ProgramCharacteristics:
    build_shape = _BUILD_SHAPE[ndim]
    workload = (heat_diffusion if kind == "heat" else acoustic_wave)(build_shape, space_order)
    module = workload.operator(backend="xdsl").stencil_module(dt=workload.dt)
    infer_shapes(module)
    fuse_applies(module)
    characteristics = characterize_module(module)
    build_cells = float(np.prod(build_shape))
    paper_cells = float(np.prod(paper_shape))
    return _scale_characteristics(characteristics, paper_cells / build_cells)


def _psyclone_characteristics(workload_kind: str, shape) -> ProgramCharacteristics:
    build_shape = (16, 16, 8)
    workload = (pw_advection if workload_kind == "pw" else tracer_advection)(build_shape, iterations=1)
    module = workload.build_module()
    infer_shapes(module)
    fuse_applies(module)
    characteristics = characterize_module(module)
    factor = float(np.prod(shape)) / float(np.prod(build_shape))
    return _scale_characteristics(characteristics, factor)


# ---------------------------------------------------------------------------
# Figure 7: Devito vs xDSL-Devito, single ARCHER2 node
# ---------------------------------------------------------------------------

def figure7_devito_cpu(kinds: Sequence[str] = ("heat", "wave")) -> list[dict]:
    """Heat/wave kernels, 2D and 3D, SDO 2/4/8, Devito vs xDSL on one node."""
    rows: list[dict] = []
    for kind in kinds:
        for ndim in (2, 3):
            for space_order in (2, 4, 8):
                paper_shape = _PAPER_SHAPE_CPU[ndim]
                timesteps = _PAPER_TIMESTEPS[ndim]
                characteristics = _devito_characteristics(kind, ndim, space_order, paper_shape)
                devito = estimate_cpu_node(characteristics, timesteps, ARCHER2_NODE, DEVITO_NATIVE)
                xdsl = estimate_cpu_node(characteristics, timesteps, ARCHER2_NODE, XDSL_CPU)
                rows.append(
                    {
                        "figure": "7a" if kind == "heat" else "7b",
                        "kernel": kernel_label(kind, ndim, space_order),
                        "ndim": ndim,
                        "space_order": space_order,
                        "arithmetic_intensity": characteristics.arithmetic_intensity(),
                        "devito_gpts": devito.gpoints_per_second,
                        "xdsl_gpts": xdsl.gpoints_per_second,
                        "speedup_xdsl_over_devito": xdsl.gpoints_per_second / devito.gpoints_per_second,
                    }
                )
    return rows


# ---------------------------------------------------------------------------
# Figure 8: strong scaling of heat/wave 3D so4 on up to 128 nodes
# ---------------------------------------------------------------------------

def figure8_strong_scaling(
    node_counts: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128),
) -> list[dict]:
    """Strong scaling, 3D so4 heat and wave kernels, 8 ranks x 16 threads per node."""
    rows: list[dict] = []
    for kind in ("heat", "wave"):
        paper_shape = _PAPER_SHAPE_CPU[3]
        timesteps = _PAPER_TIMESTEPS[3]
        characteristics = _devito_characteristics(kind, 3, 4, paper_shape)
        for profile, label in ((DEVITO_NATIVE, "devito"), (XDSL_CPU, "xdsl")):
            points = estimate_strong_scaling(
                characteristics, paper_shape, timesteps, node_counts,
                ARCHER2_NODE, SLINGSHOT, profile, ranks_per_node=8, decomposed_dims=3,
            )
            for point in points:
                rows.append(
                    {
                        "figure": "8a" if kind == "heat" else "8b",
                        "kernel": kernel_label(kind, 3, 4),
                        "stack": label,
                        "nodes": point.nodes,
                        "gpts": point.gpoints_per_second,
                        "parallel_efficiency": point.parallel_efficiency,
                    }
                )
    return rows


# ---------------------------------------------------------------------------
# Figure 9: GPU evaluation (V100) of Devito kernels
# ---------------------------------------------------------------------------

def figure9_devito_gpu(kinds: Sequence[str] = ("heat", "wave")) -> list[dict]:
    """Heat/wave kernels on a V100: OpenACC-Devito vs xDSL CUDA lowering."""
    rows: list[dict] = []
    for kind in kinds:
        for ndim in (2, 3):
            for space_order in (2, 4, 8):
                paper_shape = _PAPER_SHAPE_GPU[ndim]
                timesteps = _PAPER_TIMESTEPS[ndim]
                characteristics = _devito_characteristics(kind, ndim, space_order, paper_shape)
                openacc = estimate_gpu(characteristics, timesteps, V100, OPENACC_DEVITO)
                xdsl = estimate_gpu(characteristics, timesteps, V100, XDSL_GPU)
                rows.append(
                    {
                        "figure": "9a" if kind == "heat" else "9b",
                        "kernel": kernel_label(kind, ndim, space_order),
                        "ndim": ndim,
                        "space_order": space_order,
                        "openacc_gpts": openacc.gpoints_per_second,
                        "xdsl_gpts": xdsl.gpoints_per_second,
                        "speedup_xdsl_over_openacc": xdsl.gpoints_per_second / openacc.gpoints_per_second,
                    }
                )
    return rows


# ---------------------------------------------------------------------------
# Figure 10a/10b: PSyclone benchmarks, single CPU node and V100
# ---------------------------------------------------------------------------

def figure10a_psyclone_cpu() -> list[dict]:
    """PW advection and tracer advection: Cray vs xDSL vs GNU on one node."""
    rows: list[dict] = []
    for workload_kind, sizes, iterations in (
        ("pw", PAPER_PW_SIZES_CPU, 1),
        ("traadv", PAPER_TRAADV_SIZES_CPU, 100),
    ):
        for label, shape in sizes.items():
            characteristics = _psyclone_characteristics(workload_kind, shape)
            row = {"figure": "10a", "benchmark": label, "iterations": iterations}
            for profile, column in (
                (CRAY_PSYCLONE, "cray_gpts"),
                (XDSL_PSYCLONE, "xdsl_gpts"),
                (GNU_PSYCLONE, "gnu_gpts"),
            ):
                estimate = estimate_cpu_node(characteristics, iterations, ARCHER2_NODE, profile)
                row[column] = estimate.gpoints_per_second
            row["stencil_regions"] = characteristics.stencil_regions
            rows.append(row)
    return rows


def figure10b_psyclone_gpu() -> list[dict]:
    """PW advection and tracer advection on a V100: PSyclone (nvc) vs xDSL."""
    rows: list[dict] = []
    for workload_kind, sizes, iterations in (
        ("pw", PAPER_PW_SIZES_GPU, 1),
        ("traadv", PAPER_TRAADV_SIZES_GPU, 100),
    ):
        for label, shape in sizes.items():
            characteristics = _psyclone_characteristics(workload_kind, shape)
            field_bytes = 6 * float(np.prod(shape)) * 4
            psyclone = estimate_gpu(
                characteristics, iterations, V100, PSYCLONE_NVIDIA_GPU, field_bytes=field_bytes
            )
            xdsl = estimate_gpu(
                characteristics, iterations, V100, XDSL_PSYCLONE_GPU, field_bytes=field_bytes
            )
            rows.append(
                {
                    "figure": "10b",
                    "benchmark": label,
                    "psyclone_gpts": psyclone.gpoints_per_second,
                    "xdsl_gpts": xdsl.gpoints_per_second,
                    "speedup_xdsl_over_psyclone": xdsl.gpoints_per_second
                    / psyclone.gpoints_per_second,
                    "stencil_regions": characteristics.stencil_regions,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Table 1: FPGA (Alveo U280), initial vs dataflow-optimised
# ---------------------------------------------------------------------------

def table1_fpga() -> list[dict]:
    """PW advection and tracer advection on the Alveo U280."""
    cases = {
        "pw-8m": ("pw", (256, 256, 128), 1),
        "pw-33m": ("pw", (512, 512, 128), 1),
        "pw-134m": ("pw", (1024, 1024, 128), 1),
        "traadv-4m": ("traadv", (256, 128, 128), 1),
        "traadv-32m": ("traadv", (512, 512, 128), 1),
    }
    rows: list[dict] = []
    for label, (workload_kind, shape, iterations) in cases.items():
        characteristics = _psyclone_characteristics(workload_kind, shape)
        initial = estimate_fpga(characteristics, iterations, ALVEO_U280, optimized=False)
        optimized = estimate_fpga(characteristics, iterations, ALVEO_U280, optimized=True)
        rows.append(
            {
                "table": "1",
                "benchmark": label,
                "initial_gpts": initial.gpoints_per_second,
                "optimized_gpts": optimized.gpoints_per_second,
                "improvement": optimized.gpoints_per_second / initial.gpoints_per_second,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Figure 11: xDSL-PSyclone strong scaling (2D decomposition)
# ---------------------------------------------------------------------------

def figure11_psyclone_scaling(
    node_counts: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128),
) -> list[dict]:
    """Strong scaling of PW advection and tracer advection with a 2D decomposition."""
    rows: list[dict] = []
    for workload_kind, shape, iterations in (
        ("pw", PAPER_PW_SCALING_SHAPE, 1),
        ("traadv", PAPER_TRAADV_SCALING_SHAPE, 100),
    ):
        characteristics = _psyclone_characteristics(workload_kind, shape)
        points = estimate_strong_scaling(
            characteristics, shape, iterations, node_counts,
            ARCHER2_NODE, SLINGSHOT, XDSL_PSYCLONE,
            ranks_per_node=8, decomposed_dims=2,
        )
        for point in points:
            rows.append(
                {
                    "figure": "11a" if workload_kind == "pw" else "11b",
                    "benchmark": workload_kind,
                    "nodes": point.nodes,
                    "gpts": point.gpoints_per_second,
                    "parallel_efficiency": point.parallel_efficiency,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Reporting helpers
# ---------------------------------------------------------------------------

def format_rows(rows: Iterable[dict], float_format: str = "{:.3g}") -> str:
    """Render a list of row dicts as an aligned text table."""
    rows = list(rows)
    if not rows:
        return "(no rows)"
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    rendered: list[list[str]] = []
    for row in rows:
        rendered.append(
            [
                float_format.format(row[c]) if isinstance(row.get(c), float) else str(row.get(c, ""))
                for c in columns
            ]
        )
    widths = [
        max(len(columns[i]), max(len(line[i]) for line in rendered)) for i in range(len(columns))
    ]
    header = "  ".join(c.ljust(widths[i]) for i, c in enumerate(columns))
    separator = "  ".join("-" * widths[i] for i in range(len(columns)))
    body = "\n".join("  ".join(line[i].ljust(widths[i]) for i in range(len(columns))) for line in rendered)
    return f"{header}\n{separator}\n{body}"
