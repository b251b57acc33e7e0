"""PSyclone-side benchmark kernels (paper §6.2).

* **PW advection** (Piacsek & Williams 1970) — the advection scheme used by the
  MONC atmospheric model: three independent stencil computations over three
  prognostic fields (u, v, w) producing three source terms.  Because the three
  stencils are independent they can be fused into a single stencil region.
* **Tracer advection** (traadv) — the NEMO ocean-model tracer advection kernel
  from the PSyclone benchmark suite: a long sequence of stencil computations
  over six fields with producer/consumer dependencies between them (the paper
  reports 24 computations forming 18 separate stencil regions), wrapped in an
  outer loop of 100 iterations.

The Fortran below is a faithful *shape* reproduction (field counts, stencil
counts, dependency structure, arithmetic volume), not the production source,
which is what the evaluation's performance behaviour depends on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..frontends.psyclone import PsycloneXDSLBackend, Schedule, parse_fortran

def _pw_advection_source() -> str:
    """Three independent advection stencils (one per velocity component)."""
    template = """
  do k = 1, nz
    do j = 1, ny
      do i = 1, nx
        {out}(i, j, k) = 0.25 * ({f}({ip}, {jp}, {kp}) - {f}({im}, {jm}, {km})) * {f}(i, j, k) + 0.5 * ({f}({ip}, {jp}, {kp}) + {f}({im}, {jm}, {km})) - {f}(i, j, k)
      end do
    end do
  end do"""
    body = ""
    for out, field, axis in (("su", "u", 0), ("sv", "v", 1), ("sw", "w", 2)):
        plus = ["i", "j", "k"]
        minus = ["i", "j", "k"]
        plus[axis] = plus[axis] + "+1"
        minus[axis] = minus[axis] + "-1"
        body += template.format(
            out=out, f=field,
            ip=plus[0], jp=plus[1], kp=plus[2],
            im=minus[0], jm=minus[1], km=minus[2],
        )
    return f"subroutine pw_advection(su, sv, sw, u, v, w)\n{body}\nend subroutine\n"


def _tracer_advection_source(computations: int = 24, masked: bool = False) -> str:
    """A chain of dependent stencil computations over six fields (NEMO traadv).

    The kernel alternates between six fields; each computation reads the
    previous intermediate result (creating the dependencies that prevent
    fusion) plus one other field with a shifted access.  With ``masked`` the
    upwind flux of every computation is guarded by a ``merge`` on the sign of
    the previous field — the land/sea + upwind masking pattern of the
    production NEMO kernel, lowered to ``arith.cmpf``/``arith.select`` chains.
    """
    fields = ["tra", "pun", "pvn", "pwn", "zwx", "zwy"]
    name = "masked_tracer_advection" if masked else "tracer_advection"
    lines = [f"subroutine {name}({', '.join(fields)})"]
    axis_names = ["i", "j", "k"]
    for step in range(computations):
        out = fields[(step + 1) % len(fields)]
        previous = fields[step % len(fields)]
        other = fields[(step + 3) % len(fields)]
        axis = step % 3
        plus = list(axis_names)
        minus = list(axis_names)
        plus[axis] += "+1"
        minus[axis] += "-1"
        flux = (
            f"0.5 * ({previous}({', '.join(plus)}) - {previous}({', '.join(minus)}))"
            f" + 0.25 * {other}(i, j, k) + 0.125 * {previous}(i, j, k)"
        )
        if masked:
            expression = (
                f"merge({flux}, 0.125 * {previous}(i, j, k), "
                f"{previous}(i, j, k) > 0.5)"
            )
        else:
            expression = flux
        lines.append("  do k = 1, nz")
        lines.append("    do j = 1, ny")
        lines.append("      do i = 1, nx")
        lines.append(f"        {out}(i, j, k) = {expression}")
        lines.append("      end do")
        lines.append("    end do")
        lines.append("  end do")
    lines.append("end subroutine")
    return "\n".join(lines) + "\n"


@dataclass
class PsycloneWorkload:
    """A ready-to-compile PSyclone benchmark problem."""

    name: str
    source: str
    shape: tuple[int, ...]
    iterations: int

    @property
    def schedule(self) -> Schedule:
        return parse_fortran(self.source)

    def build_module(self, dtype=np.float32):
        return PsycloneXDSLBackend(dtype=dtype).build_module(self.schedule, self.shape)

    def arrays(self, halo: int = 1, dtype=np.float32, seed: int = 0) -> dict[str, np.ndarray]:
        """Deterministic input arrays (one per Fortran array argument)."""
        rng = np.random.default_rng(seed)
        schedule = self.schedule
        shape = tuple(s + 2 * halo for s in self.shape)
        return {
            name: rng.random(shape).astype(dtype)
            for name in schedule.array_names()
        }


def pw_advection(shape: Sequence[int] = (64, 64, 32), iterations: int = 1) -> PsycloneWorkload:
    """The Piacsek-Williams advection benchmark."""
    return PsycloneWorkload(
        name="pw",
        source=_pw_advection_source(),
        shape=tuple(int(s) for s in shape),
        iterations=iterations,
    )


def tracer_advection(
    shape: Sequence[int] = (64, 64, 32), iterations: int = 100, computations: int = 24
) -> PsycloneWorkload:
    """The NEMO tracer-advection benchmark (100 outer iterations by default)."""
    return PsycloneWorkload(
        name="traadv",
        source=_tracer_advection_source(computations),
        shape=tuple(int(s) for s in shape),
        iterations=iterations,
    )


def masked_tracer_advection(
    shape: Sequence[int] = (64, 64, 32), iterations: int = 100, computations: int = 24
) -> PsycloneWorkload:
    """Tracer advection with merge()-masked upwind fluxes (select chains)."""
    return PsycloneWorkload(
        name="traadv-masked",
        source=_tracer_advection_source(computations, masked=True),
        shape=tuple(int(s) for s in shape),
        iterations=iterations,
    )


#: Problem sizes (in millions of grid points) used in the paper's figures.
PAPER_PW_SIZES_CPU = {"pw-134m": (1024, 512, 256), "pw-1072m": (2048, 1024, 512), "pw-4288m": (4096, 2048, 512)}
PAPER_TRAADV_SIZES_CPU = {"traadv-4m": (256, 128, 128), "traadv-16m": (512, 256, 128), "traadv-128m": (1024, 1024, 128)}
PAPER_PW_SIZES_GPU = {"pw-8m": (256, 256, 128), "pw-33m": (512, 512, 128), "pw-134m": (1024, 1024, 128)}
PAPER_TRAADV_SIZES_GPU = {"traadv-4m": (256, 128, 128), "traadv-32m": (512, 512, 128), "traadv-128m": (1024, 1024, 128)}
#: Strong-scaling global sizes of fig. 11.
PAPER_PW_SCALING_SHAPE = (256, 256, 128)
PAPER_TRAADV_SCALING_SHAPE = (512, 512, 128)
