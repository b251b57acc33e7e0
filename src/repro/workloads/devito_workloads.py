"""Devito-side benchmark kernels (paper §6.1).

Two families are used in the paper:

* **heat diffusion** — a Jacobi-like stencil, first order in time:
  ``u.dt = a * u.laplace``;
* **isotropic acoustic wave** — second order accurate in time:
  ``u.dt2 = c**2 * u.laplace`` (with a constant-velocity medium here).

Both are benchmarked in 2D and 3D at space discretisation orders 2, 4 and 8,
giving 5/9/13-point stencils in 2D and 7/13/19-point stencils in 3D.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..frontends.devito import Eq, Grid, Operator, TimeFunction, solve


@dataclass
class DevitoWorkload:
    """A ready-to-run Devito benchmark problem."""

    name: str
    grid: Grid
    function: TimeFunction
    equations: list[Eq]
    dt: float
    space_order: int

    def operator(self, backend: str = "xdsl", target=None) -> Operator:
        kwargs = {"backend": backend}
        if target is not None:
            kwargs["target"] = target
        return Operator(self.equations, **kwargs)

    def initialise(self, seed: int = 0) -> None:
        """Deterministic, smooth initial conditions (shared by both back-ends)."""
        rng = np.random.default_rng(seed)
        shape = self.function.data_with_halo.shape[1:]
        smooth = rng.random(shape).astype(self.function.dtype)
        for buffer in range(self.function.buffers):
            self.function.data_with_halo[buffer][...] = smooth * 0.01
        # A localised perturbation in the middle of the domain.
        centre = tuple(extent // 2 for extent in shape)
        for buffer in range(min(2, self.function.buffers)):
            self.function.data_with_halo[buffer][centre] = 1.0


def heat_diffusion(
    shape: Sequence[int],
    space_order: int = 2,
    *,
    alpha: float = 0.5,
    dtype=np.float32,
) -> DevitoWorkload:
    """The heat-diffusion (Jacobi-like) benchmark: ``u.dt = alpha * u.laplace``."""
    grid = Grid(shape=shape)
    u = TimeFunction(name="u", grid=grid, space_order=space_order, time_order=1, dtype=dtype)
    pde = Eq(u.dt, alpha * u.laplace)
    update = Eq(u.forward, solve(pde, u.forward))
    # Stable explicit time step for the unit-extent grid.
    dt = 0.1 * min(grid.spacing) ** 2 / max(alpha, 1e-12)
    return DevitoWorkload(
        name=f"heat{len(grid.shape)}d-so{space_order}",
        grid=grid,
        function=u,
        equations=[update],
        dt=dt,
        space_order=space_order,
    )


def acoustic_wave(
    shape: Sequence[int],
    space_order: int = 4,
    *,
    velocity: float = 1.5,
    dtype=np.float32,
) -> DevitoWorkload:
    """The isotropic acoustic wave benchmark: ``u.dt2 = c^2 * u.laplace``."""
    grid = Grid(shape=shape)
    u = TimeFunction(name="u", grid=grid, space_order=space_order, time_order=2, dtype=dtype)
    pde = Eq(u.dt2, (velocity ** 2) * u.laplace)
    update = Eq(u.forward, solve(pde, u.forward))
    # CFL-limited time step.
    dt = 0.4 * min(grid.spacing) / velocity
    return DevitoWorkload(
        name=f"wave{len(grid.shape)}d-so{space_order}",
        grid=grid,
        function=u,
        equations=[update],
        dt=dt,
        space_order=space_order,
    )


#: The point counts the paper's figure labels use per (ndim, space order).
_PAPER_POINT_LABELS = {
    (2, 2): 5, (2, 4): 9, (2, 8): 13,
    (3, 2): 7, (3, 4): 13, (3, 8): 19,
}


def kernel_label(kind: str, ndim: int, space_order: int) -> str:
    """The paper's kernel naming, e.g. ``heat2d-5pt`` / ``wave3d-13pt``.

    The figure labels of the paper (5/9/13-pt in 2D, 7/13/19-pt in 3D for
    space orders 2/4/8) are used verbatim; for a plain star stencil the
    so-8 cases would strictly be 17/25 points, but we keep the paper's
    labels so rows line up with the figures.
    """
    points = _PAPER_POINT_LABELS.get((ndim, space_order), ndim * space_order + 1)
    return f"{kind}{ndim}d-{points}pt"
