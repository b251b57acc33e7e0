"""The declared pass pipeline: its shape, its spans, its output and its meaning.

One small program per frontend goes through ``pipeline_for(target)`` for every
target kind.  Shape: a golden pipeline string per target, and one ``pass.*``
span per declared pass nested in its ``pipeline.<stage>`` span.  Output: the
printed module equals a fingerprint recorded from the commit before the
pipeline became data, once the swap declarations the MPI lowering now keeps
are taken off.  Meaning (translation validation): the tree-walking
interpreter runs the module after *each* pass and the fields stay bit-identical
to the run of the frontend's stencil-level module.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import (
    CompiledProgram,
    ExecutionConfig,
    Session,
    compile_stencil_program,
    cpu_target,
    dmp_target,
    fpga_target,
    gpu_target,
    pipeline_for,
    smp_target,
)
from repro.dialects import func, stencil
from repro.dialects.dmp import declared_exchanges
from repro.frontends.oec import StencilProgramBuilder
from repro.ir import PassManager, print_module
from repro.machine.kernel_model import ProgramCharacteristics
from repro.transforms.distribute import DistributeStencilPass
from repro.workloads import heat_diffusion, tracer_advection


# ---------------------------------------------------------------------------
# one program per frontend, one target per kind
# ---------------------------------------------------------------------------

def _devito_heat(dtype=np.float64):
    workload = heat_diffusion((8, 8), space_order=2, dtype=dtype)
    return workload.operator().stencil_module(workload.dt)


def _psyclone_tracer_advection(dtype=np.float64):
    workload = tracer_advection((8, 8, 4), iterations=2, computations=4)
    return workload.build_module(dtype=dtype)


def _oec_five_point_with_swap(dtype=np.float64):
    builder = StencilProgramBuilder(
        "kernel", shape=(8, 8), halo=1, dtype="f64" if dtype == np.float64 else "f32"
    )
    u, v = builder.add_field("u"), builder.add_field("v")

    def five_point(s):
        neighbours = s.add(
            s.add(s.access(0, (1, 0)), s.access(0, (-1, 0))),
            s.add(s.access(0, (0, 1)), s.access(0, (0, -1))),
        )
        return s.add(s.access(0, (0, 0)), s.mul(s.constant(0.1), neighbours))

    builder.add_stencil([u], v, five_point)
    builder.swap(u, v)
    return builder.build()


#: name -> (stencil-level module builder, spatial rank)
PROGRAMS = {
    "devito-heat": (_devito_heat, 2),
    "psyclone-traadv": (_psyclone_tracer_advection, 3),
    "oec-5pt-swap": (_oec_five_point_with_swap, 2),
}


def _target(name: str, ndim: int):
    grid = (2,) + (1,) * (ndim - 1)
    return {
        "cpu": cpu_target(),
        "smp": smp_target(threads=4),
        "dmp": dmp_target(grid, threads=2),
        "dmp-libcall": dmp_target(grid, threads=2, lower_to_library_calls=True),
        "gpu": gpu_target(),
        "fpga": fpga_target(),
    }[name]


TARGETS = ("cpu", "smp", "dmp", "dmp-libcall", "gpu", "fpga")
EVERY_PROGRAM_AND_TARGET = [(p, t) for p in PROGRAMS for t in TARGETS]

NINE_STAGES = [
    "verify", "infer-shapes", "precodegen", "characterize", "distribute",
    "lower-stencil", "lower-mpi", "openmp", "finalize",
]


# ---------------------------------------------------------------------------
# shape
# ---------------------------------------------------------------------------

_STENCIL_LEVEL = (
    "verify(verify) infer-shapes(stencil-shape-inference) "
    "precodegen(stencil-fusion,cse,dce,canonicalize) "
    "characterize(characterize-stencil) "
)
_FINALIZE = " finalize(loop-invariant-code-motion,canonicalize)"
_DISTRIBUTE = (
    "distribute(distribute-stencil{grid=#dmp.grid<2x1>},"
    "dmp-eliminate-redundant-swaps) "
)

GOLDEN_PIPELINES = {
    "cpu": _STENCIL_LEVEL + "lower-stencil(convert-stencil-to-scf)" + _FINALIZE,
    "smp": (
        _STENCIL_LEVEL
        + "lower-stencil(convert-stencil-to-scf{tile_sizes=(64, 64, 64)}) "
        + "openmp(convert-scf-to-openmp{num_threads=4})" + _FINALIZE
    ),
    "dmp": (
        _STENCIL_LEVEL + _DISTRIBUTE + "lower-stencil(convert-stencil-to-scf) "
        + "openmp(convert-scf-to-openmp{num_threads=2})" + _FINALIZE
    ),
    "dmp-libcall": (
        _STENCIL_LEVEL + _DISTRIBUTE + "lower-stencil(convert-stencil-to-scf) "
        + "lower-mpi(convert-dmp-to-mpi,convert-mpi-to-llvm) "
        + "openmp(convert-scf-to-openmp{num_threads=2})" + _FINALIZE
    ),
    "gpu": (
        _STENCIL_LEVEL
        + "lower-stencil(convert-stencil-to-gpu{block_shape=(32, 4, 8) "
        + "explicit_data_movement=True})" + _FINALIZE
    ),
    "fpga": (
        _STENCIL_LEVEL
        + "lower-stencil(convert-stencil-to-hls{optimize=True},convert-stencil-to-scf)"
        + _FINALIZE
    ),
}


class TestPipelineShape:
    @pytest.mark.parametrize("target_name", TARGETS)
    def test_golden_pipeline_string(self, target_name):
        manager = PassManager(pipeline_for(_target(target_name, 2)))
        assert manager.pipeline_string() == GOLDEN_PIPELINES[target_name]

    def test_options_follow_the_target(self):
        from dataclasses import replace

        def described(target):
            return PassManager(pipeline_for(target)).pipeline_string()

        assert "stencil-fusion" not in described(replace(cpu_target(), fuse_stencils=False))
        assert "convert-stencil-to-scf{tile_sizes=(8, 8)}" in described(cpu_target((8, 8)))
        assert "convert-stencil-to-hls{optimize=False}" in described(fpga_target(False))
        assert "grid=#dmp.grid<2x2x1>" in described(dmp_target((2, 2, 1)))

    def test_pipeline_for_is_pure(self):
        first, second = pipeline_for(cpu_target()), pipeline_for(cpu_target())
        for one, other in zip(first, second):
            assert one.name == other.name
            assert all(a is not b for a, b in zip(one.passes, other.passes))

    @pytest.mark.parametrize("target_name", TARGETS)
    def test_one_span_per_declared_pass_nested_in_its_stage(self, target_name):
        target = _target(target_name, 2)
        program = compile_stencil_program(_devito_heat(), target)
        # Events are recorded in span-end order: a stage's pass spans (depth
        # 1 under the stage's depth 0) precede the stage span that holds them.
        observed, passes = [], []
        for name, start, seconds, depth in program.compile_record.events:
            if name.startswith("pass."):
                assert depth == 1
                passes.append((name[len("pass."):], start, start + seconds))
            else:
                assert name.startswith("pipeline.") and depth == 0
                for _, began, ended in passes:
                    assert start <= began and ended <= start + seconds
                observed.append((name[len("pipeline."):], [p[0] for p in passes]))
                passes = []
        assert not passes
        assert observed == [
            (stage.name, [p.name for p in stage.passes]) for stage in pipeline_for(target)
        ]
        if target_name == "dmp-libcall":
            assert [stage for stage, _ in observed] == NINE_STAGES

    def test_every_frontend_compile_puts_its_lowering_span_on_the_record(self):
        from repro.frontends.psyclone import PsycloneXDSLBackend

        heat = heat_diffusion((8, 8), space_order=2)
        traadv = tracer_advection((8, 8, 4), iterations=1, computations=2)
        builder = StencilProgramBuilder("kernel", shape=(8,), halo=1, dtype="f64")
        u, v = builder.add_field("u"), builder.add_field("v")
        builder.add_stencil([u], v, lambda s: s.access(0, (1,)))
        compiled = {
            "devito.lower": heat.operator().compile(heat.dt),
            "psyclone.lower": PsycloneXDSLBackend().compile(traadv.source, traadv.shape),
            "oec.build": builder.compile(),
        }
        for span_name, program in compiled.items():
            names = [name for name, *_ in program.compile_record.events]
            assert names[0] == span_name and names[-1] == "pipeline.finalize"
            assert names.count(span_name) == 1


# ---------------------------------------------------------------------------
# output: same bits as before the pipeline became data
# ---------------------------------------------------------------------------

#: sha256 (first 16 hex digits) of ``print_module`` of the compiled module,
#: recorded at commit c52f7e6 (the hand-sequenced ``compile_stencil_program``).
PARENT_FINGERPRINTS = {
    "devito-heat/cpu": "619f8277c158bea1",
    "devito-heat/smp": "6f210c1ae37f693e",
    "devito-heat/dmp": "491e488f4fbbb304",
    "devito-heat/dmp-libcall": "6ff6053bad31a229",
    "devito-heat/gpu": "e868ca75f7d53921",
    "devito-heat/fpga": "f3b79f0289ca5223",
    "psyclone-traadv/cpu": "5bc223dd937a00b0",
    "psyclone-traadv/smp": "00b79e2b207e4907",
    "psyclone-traadv/dmp": "8e714cd3d0224896",
    "psyclone-traadv/dmp-libcall": "97bed3993820db84",
    "psyclone-traadv/gpu": "56ca0caca3588d83",
    "psyclone-traadv/fpga": "5f148f6da787465f",
    "oec-5pt-swap/cpu": "a88d637acef0d122",
    "oec-5pt-swap/smp": "28ca49939a11f005",
    "oec-5pt-swap/dmp": "31d00b1a9c8d54a3",
    "oec-5pt-swap/dmp-libcall": "0cac1e37a503d143",
    "oec-5pt-swap/gpu": "707260b34bda7120",
    "oec-5pt-swap/fpga": "2763fee55959ada1",
}


@pytest.mark.parametrize("program_name,target_name", EVERY_PROGRAM_AND_TARGET)
def test_emitted_ir_is_byte_identical_to_the_hand_sequenced_pipeline(
    program_name, target_name
):
    build, ndim = PROGRAMS[program_name]
    program = compile_stencil_program(build(), _target(target_name, ndim))
    # The one change since: the request array of each lowered swap carries
    # the swap's declaration (what a megakernel fuses the group by).
    requests = [op for op in program.module.walk()
                if op.name == "mpi.allocate_requests"]
    assert bool(requests) == (target_name == "dmp-libcall")
    for op in requests:
        assert declared_exchanges(op) is not None
        del op.attributes["grid"], op.attributes["swaps"]
    digest = hashlib.sha256(print_module(program.module).encode()).hexdigest()[:16]
    assert digest == PARENT_FINGERPRINTS[f"{program_name}/{target_name}"]


# ---------------------------------------------------------------------------
# meaning: translation validation, pass by pass
# ---------------------------------------------------------------------------

STEPS = 3


def _arguments(module):
    """Seeded global fields (halo included) for the module's one kernel."""
    kernel = next(op for op in module.walk() if isinstance(op, func.FuncOp))
    rng = np.random.default_rng(2024)
    fields = []
    for argument_type in kernel.function_type.inputs:
        if isinstance(argument_type, stencil.FieldType):
            dtype = np.float64 if str(argument_type.element_type) == "f64" else np.float32
            fields.append(rng.random(argument_type.bounds.shape).astype(dtype))
    return kernel.sym_name, fields


def _tree_walker_run(module, target, distribution, function, fields):
    """Run ``module`` as it stands on the tree walker; return the final fields.

    Without ``distribution`` the module is global and runs on one rank; with
    it the session scatters over the target's rank grid (a ``SimulatedMPI``
    world of rank threads) and gathers the cores back.
    """
    program = CompiledProgram(
        module=module, target=target, characteristics=ProgramCharacteristics(),
        stencil_regions=0, distribution=distribution,
    )
    fields = [field.copy() for field in fields]
    with Session(ExecutionConfig(backend="interpreter", runtime="threads")) as session:
        session.run(program, fields, [STEPS], function=function)
    return fields


def _validate_pass_by_pass(module, target):
    function, fields = _arguments(module)
    reference = _tree_walker_run(module, target, None, function, fields)
    distribution = None
    validated = []
    for stage in pipeline_for(target):
        for pass_ in stage.passes:
            pass_.apply(module)
            if pass_.analysis:
                continue
            if isinstance(pass_, DistributeStencilPass):
                distribution = pass_.summary
            after = _tree_walker_run(module, target, distribution, function, fields)
            for index, (got, expected) in enumerate(zip(after, reference)):
                assert np.array_equal(got, expected), (
                    f"field {index} changed after pass {pass_.name!r} "
                    f"of stage {stage.name!r}"
                )
            validated.append(pass_.name)
    return validated


@pytest.mark.parametrize("program_name,target_name", EVERY_PROGRAM_AND_TARGET)
def test_every_pass_preserves_the_stencil_level_result(program_name, target_name):
    build, ndim = PROGRAMS[program_name]
    target = _target(target_name, ndim)
    validated = _validate_pass_by_pass(build(), target)
    assert validated == [
        p.name for stage in pipeline_for(target) for p in stage.passes if not p.analysis
    ]


def test_f32_lowering_keeps_the_stencil_level_rounding():
    _validate_pass_by_pass(_oec_five_point_with_swap(np.float32), cpu_target())
