"""Program sources for the ledger: one class per frontend.

A *source* knows how to produce a fresh stencil-level module through its
frontend (``lower``), how to generate the program's input fields from a seed
(``inputs`` / ``fill``), and — where an implementation independent of the
shared stack exists — how to compute the expected output (``reference``):
Devito programs run on ``Operator(backend="native")``, PSyclone programs on
``reference_execute``.  OEC builder programs have no native oracle; their
``reference`` is ``None`` and the workloads compare them bit for bit against
the tree-walking interpreter instead.

The program under test only ever sees the generated arrays, never the seed.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.frontends.devito import Operator
from repro.frontends.oec import StencilProgramBuilder
from repro.frontends.psyclone import PsycloneXDSLBackend, reference_execute
from repro.workloads import (
    acoustic_wave,
    heat_diffusion,
    masked_tracer_advection,
    pw_advection,
    tracer_advection,
)


def _points(shape: Sequence[int]) -> int:
    total = 1
    for extent in shape:
        total *= int(extent)
    return total


def _fill(arrays: Sequence[np.ndarray], seed: int, bumps: int) -> None:
    """Seeded noise of amplitude 0.01 in every array, a unit bump in the first few.

    The noise is a sum of one seeded vector per axis, accumulated in place:
    refilling three 18 MB fields before every timed run must neither take
    longer than the run nor churn the heap with field-sized temporaries.
    """
    first = arrays[0]
    rng = np.random.default_rng(seed)
    first[...] = 0.0
    for axis, extent in enumerate(first.shape):
        shape = [1] * first.ndim
        shape[axis] = extent
        first += (rng.random(extent) * (0.01 / first.ndim)).reshape(shape)
    centre = tuple(extent // 2 for extent in first.shape)
    for array in arrays[1:]:
        np.copyto(array, first)
    for array in arrays[:bumps]:
        array[centre] = 1.0


class DevitoSource:
    """heat (1st order in time) or wave (2nd order) through the Devito frontend."""

    frontend = "devito"
    function = "kernel"

    def __init__(self, kind: str, shape: Sequence[int], space_order: int):
        self.kind = kind
        self.shape = tuple(int(s) for s in shape)
        self.space_order = space_order
        self.label = f"devito-{kind}{len(self.shape)}d-so{space_order}"
        self.points = _points(self.shape)
        probe = self._workload().function
        self._field_shape = probe.data_with_halo.shape[1:]
        self._buffers = probe.buffers

    def _workload(self):
        make = heat_diffusion if self.kind == "heat" else acoustic_wave
        return make(self.shape, space_order=self.space_order, dtype=np.float64)

    def with_shape(self, shape: Sequence[int]) -> "DevitoSource":
        return DevitoSource(self.kind, shape, self.space_order)

    def lower(self):
        workload = self._workload()
        return workload.operator(backend="xdsl").stencil_module(dt=workload.dt)

    def inputs(self, seed: int) -> List[np.ndarray]:
        arrays = [np.empty(self._field_shape) for _ in range(self._buffers)]
        self.fill(arrays, seed)
        return arrays

    def fill(self, arrays: Sequence[np.ndarray], seed: int) -> None:
        _fill(arrays, seed, bumps=2)

    def reference(self, seed: int, steps: int) -> List[np.ndarray]:
        """The same problem on the stand-alone NumPy executor of the frontend."""
        workload = self._workload()
        data = workload.function.data_with_halo
        arrays = [data[index] for index in range(self._buffers)]
        self.fill(arrays, seed)
        Operator(workload.equations, backend="native").apply(
            time=steps, dt=workload.dt)
        return arrays


class PsycloneSource:
    """A Fortran kernel (pw / traadv / masked traadv) through PSyclone."""

    frontend = "psyclone"

    _FACTORIES = {
        "pw": pw_advection,
        "traadv": tracer_advection,
        "traadv-masked": masked_tracer_advection,
    }

    def __init__(self, kind: str, shape: Sequence[int]):
        self.kind = kind
        self.shape = tuple(int(s) for s in shape)
        self.label = f"psyclone-{kind}"
        self.points = _points(self.shape)
        workload = self._FACTORIES[kind](self.shape, iterations=1)
        self._source_text = workload.source
        self._schedule = workload.schedule  # parsed once, for the reference
        self.function = self._schedule.name
        self._names = self._schedule.array_names()

    def lower(self):
        # From Fortran text: parsing is part of the frontend's work.
        return PsycloneXDSLBackend(dtype=np.float64).build_module(
            self._source_text, self.shape)

    def inputs(self, seed: int) -> List[np.ndarray]:
        rng = np.random.default_rng(seed)
        shape = tuple(extent + 2 for extent in self.shape)
        return [rng.random(shape) for _ in self._names]

    def fill(self, arrays: Sequence[np.ndarray], seed: int) -> None:
        for array, fresh in zip(arrays, self.inputs(seed)):
            array[...] = fresh

    def reference(self, seed: int, steps: int) -> List[np.ndarray]:
        arrays = dict(zip(self._names, self.inputs(seed)))
        reference_execute(self._schedule, arrays, halo=1, iterations=steps)
        return [arrays[name] for name in self._names]


def _five_point(expr):
    ring = expr.add(
        expr.add(expr.access(0, [-1, 0]), expr.access(0, [1, 0])),
        expr.add(expr.access(0, [0, -1]), expr.access(0, [0, 1])),
    )
    return expr.add(
        expr.mul(expr.access(0, [0, 0]), expr.constant(0.5)),
        expr.mul(ring, expr.constant(0.125)),
    )


def _seven_point(expr):
    total = expr.access(0, [0, 0, 0])
    for offset in ([-1, 0, 0], [1, 0, 0], [0, -1, 0],
                   [0, 1, 0], [0, 0, -1], [0, 0, 1]):
        total = expr.add(total, expr.access(0, offset))
    return expr.mul(total, expr.constant(1.0 / 7.0))


class OecSource:
    """A hand-built stencil program through the OEC-style builder."""

    frontend = "oec"
    function = "kernel"
    #: No oracle outside the shared stack: compared against the interpreter.
    reference: Optional[Callable] = None

    _PROGRAMS = {
        # kind: (shape, body, double-buffered with swap)
        "5pt-swap": ((32, 32), _five_point, True),
        "7pt": ((12, 12, 12), _seven_point, False),
    }

    def __init__(self, kind: str):
        self.kind = kind
        self.shape, self._body, self._swap = self._PROGRAMS[kind]
        self.label = f"oec-{kind}"
        self.points = _points(self.shape)

    def lower(self):
        builder = StencilProgramBuilder(
            self.function, shape=self.shape, halo=1, dtype="f64")
        u = builder.add_field("u")
        v = builder.add_field("v")
        builder.add_stencil([u], v, self._body)
        if self._swap:
            builder.swap(u, v)
        return builder.build()

    def inputs(self, seed: int) -> List[np.ndarray]:
        shape = tuple(extent + 2 for extent in self.shape)
        arrays = [np.empty(shape) for _ in range(2)]
        self.fill(arrays, seed)
        return arrays

    def fill(self, arrays: Sequence[np.ndarray], seed: int) -> None:
        _fill(arrays, seed, bumps=1)
