"""The symbolic layer of the mini-Devito frontend.

Devito embeds a SymPy-based DSL; this reproduction implements the subset the
paper's benchmarks exercise: grids, (time-dependent) functions with
configurable space order, central finite-difference derivatives, Laplacians,
equations and the explicit-update ``solve`` used in listing 5::

    grid = Grid(shape=(126,))
    u = TimeFunction(name='u', grid=grid, space_order=2)
    eqn = Eq(u.dt, 0.5 * u.laplace)
    op = Operator([Eq(u.forward, solve(eqn, u.forward))])
    op(time=timesteps)

Expressions are trees of :class:`Expr` nodes (constants, data accesses and
arithmetic); finite differences are expanded eagerly into linear combinations
of shifted accesses using coefficients computed from a Vandermonde system, so
any even space order (2, 4, 8, ...) is supported.
"""

from __future__ import annotations

import math as _math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Union

import numpy as np

Number = Union[int, float]


# ---------------------------------------------------------------------------
# Grid and dimensions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dimension:
    """A spatial dimension of a grid."""

    name: str
    index: int


class Grid:
    """A structured, equispaced grid."""

    def __init__(
        self,
        shape: Sequence[int],
        extent: Optional[Sequence[float]] = None,
        origin: Optional[Sequence[float]] = None,
    ):
        self.shape = tuple(int(s) for s in shape)
        if any(s < 1 for s in self.shape):
            raise ValueError("grid shape entries must be positive")
        self.extent = tuple(
            float(e) for e in (extent if extent is not None else [1.0] * len(self.shape))
        )
        self.origin = tuple(
            float(o) for o in (origin if origin is not None else [0.0] * len(self.shape))
        )
        names = ["x", "y", "z", "w"]
        self.dimensions = tuple(
            Dimension(names[i] if i < len(names) else f"d{i}", i)
            for i in range(len(self.shape))
        )

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(
            extent / max(points - 1, 1) for extent, points in zip(self.extent, self.shape)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Grid(shape={self.shape})"


# ---------------------------------------------------------------------------
# Expression tree
# ---------------------------------------------------------------------------

class Expr:
    """Base class of symbolic expressions."""

    def __add__(self, other) -> "Expr":
        return BinOp("+", self, as_expr(other))

    def __radd__(self, other) -> "Expr":
        return BinOp("+", as_expr(other), self)

    def __sub__(self, other) -> "Expr":
        return BinOp("-", self, as_expr(other))

    def __rsub__(self, other) -> "Expr":
        return BinOp("-", as_expr(other), self)

    def __mul__(self, other) -> "Expr":
        return BinOp("*", self, as_expr(other))

    def __rmul__(self, other) -> "Expr":
        return BinOp("*", as_expr(other), self)

    def __truediv__(self, other) -> "Expr":
        return BinOp("/", self, as_expr(other))

    def __rtruediv__(self, other) -> "Expr":
        return BinOp("/", as_expr(other), self)

    def __neg__(self) -> "Expr":
        return BinOp("*", Scalar(-1.0), self)

    def accesses(self) -> list["Access"]:
        """Every data access in the expression, in evaluation order, then the
        bare functions' (each read at the current point and time)."""
        found: list[Access] = []
        bare: list[Access] = []
        _collect_accesses(self, found, bare)
        return found + bare


@dataclass(frozen=True)
class Scalar(Expr):
    """A numeric literal."""

    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))


@dataclass(frozen=True)
class Symbol(Expr):
    """A named scalar runtime parameter (e.g. the time step ``dt``)."""

    name: str
    default: float = 0.0


@dataclass(frozen=True)
class Access(Expr):
    """A read of a function at a relative (time, space...) offset."""

    function: "Function"
    time_offset: int
    space_offsets: tuple[int, ...]

    def shifted(self, dim: int, by: int) -> "Access":
        offsets = list(self.space_offsets)
        offsets[dim] += by
        return Access(self.function, self.time_offset, tuple(offsets))


@dataclass(frozen=True)
class BinOp(Expr):
    """A binary arithmetic operation."""

    op: str
    lhs: Expr
    rhs: Expr


def as_expr(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float, np.floating, np.integer)):
        return Scalar(float(value))
    raise TypeError(f"cannot convert {value!r} to a symbolic expression")


def _collect_accesses(expr: Expr, out: list, bare: list) -> None:
    if isinstance(expr, Access):
        out.append(expr)
    elif isinstance(expr, Function):
        bare.append(expr._as_access())
    elif isinstance(expr, BinOp):
        _collect_accesses(expr.lhs, out, bare)
        _collect_accesses(expr.rhs, out, bare)


# ---------------------------------------------------------------------------
# Finite-difference coefficients
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def central_difference_coefficients(derivative: int, space_order: int) -> tuple[tuple[int, float], ...]:
    """Coefficients of the central FD approximation of ``d^derivative/dx^derivative``.

    Returns ``((offset, coefficient), ...)`` for offsets ``-r..r`` with
    ``r = space_order // 2`` (or ``(space_order+1)//2`` when needed for odd
    derivative orders), computed from the Taylor / Vandermonde system.  The
    coefficients assume unit grid spacing; the spacing factor is applied by
    the caller.
    """
    if space_order < derivative:
        raise ValueError("space order must be at least the derivative order")
    radius = max((space_order + (derivative % 2)) // 2, (derivative + 1) // 2)
    offsets = list(range(-radius, radius + 1))
    system = np.array(
        [[float(offset) ** power for offset in offsets] for power in range(len(offsets))]
    )
    rhs = np.zeros(len(offsets))
    rhs[derivative] = float(_math.factorial(derivative))
    coefficients = np.linalg.solve(system, rhs)
    cleaned = []
    for offset, coefficient in zip(offsets, coefficients):
        if abs(coefficient) > 1e-12:
            cleaned.append((int(offset), float(coefficient)))
    return tuple(cleaned)


# ---------------------------------------------------------------------------
# Functions (grid data symbols)
# ---------------------------------------------------------------------------

class Function(Expr):
    """A time-independent grid function."""

    is_time_function = False

    def __init__(self, name: str, grid: Grid, space_order: int = 2, dtype=np.float32):
        self.name = name
        self.grid = grid
        self.space_order = int(space_order)
        if self.space_order % 2 != 0 or self.space_order < 2:
            raise ValueError("space_order must be an even integer >= 2")
        self.dtype = np.dtype(dtype)
        self._data = np.zeros(self.shape_with_halo, dtype=self.dtype)

    # -- data -----------------------------------------------------------------
    @property
    def halo(self) -> int:
        return self.space_order // 2

    @property
    def shape_with_halo(self) -> tuple[int, ...]:
        return tuple(s + 2 * self.halo for s in self.grid.shape)

    @property
    def data(self) -> np.ndarray:
        """The interior (halo-excluded) view of the buffer."""
        inner = tuple(slice(self.halo, self.halo + s) for s in self.grid.shape)
        return self._data[inner]

    @property
    def data_with_halo(self) -> np.ndarray:
        return self._data

    # -- symbolic accessors ------------------------------------------------------
    def at(self, *space_offsets: int) -> Access:
        offsets = tuple(space_offsets) if space_offsets else (0,) * self.grid.ndim
        return Access(self, 0, offsets)

    def _as_access(self) -> Access:
        return Access(self, 0, (0,) * self.grid.ndim)

    def second_derivative(self, dim: int) -> Expr:
        return _fd_expansion(self._as_access(), dim, 2, self.space_order, self.grid.spacing[dim])

    def first_derivative(self, dim: int) -> Expr:
        return _fd_expansion(self._as_access(), dim, 1, self.space_order, self.grid.spacing[dim])

    @property
    def laplace(self) -> Expr:
        terms = [self.second_derivative(d) for d in range(self.grid.ndim)]
        result = terms[0]
        for term in terms[1:]:
            result = result + term
        return result

    @property
    def buffers(self) -> int:
        """Time buffers the function keeps: one, it does not change in time."""
        return 1

    # Expression protocol: a bare function used in an expression means "value
    # at the current point and current time".
    def accesses(self) -> list[Access]:
        return [self._as_access()]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name}, so={self.space_order})"


class TimeFunction(Function):
    """A time-dependent grid function with ``time_order + 1`` buffers."""

    is_time_function = True

    def __init__(
        self,
        name: str,
        grid: Grid,
        space_order: int = 2,
        time_order: int = 1,
        dtype=np.float32,
    ):
        self.time_order = int(time_order)
        if self.time_order not in (1, 2):
            raise ValueError("only time_order 1 and 2 are supported")
        super().__init__(name, grid, space_order, dtype)
        self._data = np.zeros((self.buffers,) + self.shape_with_halo, dtype=self.dtype)

    @property
    def buffers(self) -> int:
        return self.time_order + 1

    @property
    def data(self) -> np.ndarray:
        inner = (slice(None),) + tuple(
            slice(self.halo, self.halo + s) for s in self.grid.shape
        )
        return self._data[inner]

    # -- symbolic time accessors ----------------------------------------------------
    def _as_access(self) -> Access:
        return Access(self, 0, (0,) * self.grid.ndim)

    @property
    def forward(self) -> Access:
        return Access(self, +1, (0,) * self.grid.ndim)

    @property
    def backward(self) -> Access:
        return Access(self, -1, (0,) * self.grid.ndim)

    @property
    def dt(self) -> Expr:
        """Forward first time derivative ``(u(t+1) - u(t)) / dt``."""
        return BinOp("/", BinOp("-", self.forward, self._as_access()), Symbol("dt"))

    @property
    def dt2(self) -> Expr:
        """Central second time derivative ``(u(t+1) - 2 u(t) + u(t-1)) / dt^2``."""
        numerator = BinOp(
            "-",
            BinOp("+", self.forward, self.backward),
            BinOp("*", Scalar(2.0), self._as_access()),
        )
        return BinOp("/", numerator, BinOp("*", Symbol("dt"), Symbol("dt")))


class Constant(Symbol):
    """A named scalar constant with a value."""

    def __init__(self, name: str, value: float = 0.0):
        super().__init__(name=name, default=float(value))


def _fd_expansion(access: Access, dim: int, derivative: int, space_order: int, spacing: float) -> Expr:
    coefficients = central_difference_coefficients(derivative, space_order)
    scale = 1.0 / (spacing ** derivative)
    terms: list[Expr] = []
    for offset, coefficient in coefficients:
        terms.append(BinOp("*", Scalar(coefficient * scale), access.shifted(dim, offset)))
    result: Expr = terms[0]
    for term in terms[1:]:
        result = BinOp("+", result, term)
    return result


# ---------------------------------------------------------------------------
# Equations and solve
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Eq:
    """An equation ``lhs = rhs``."""

    lhs: Expr
    rhs: Expr

    def __init__(self, lhs, rhs):
        object.__setattr__(self, "lhs", as_expr(lhs) if not isinstance(lhs, Expr) else lhs)
        object.__setattr__(self, "rhs", as_expr(rhs))


class SolveError(Exception):
    """Raised when an equation cannot be solved for the requested unknown."""


def solve(equation: Eq, target: Access) -> Expr:
    """Solve an explicit time-update equation for ``target`` (e.g. ``u.forward``).

    Supports the two patterns the paper's benchmarks use:

    * ``Eq(u.dt, rhs)``   ->  ``u + dt * rhs``
    * ``Eq(u.dt2, rhs)``  ->  ``2 u - u.backward + dt^2 * rhs``
    """
    if not isinstance(target, Access) or target.time_offset != +1:
        raise SolveError("solve() currently targets forward time accesses (u.forward)")
    function = target.function
    if not isinstance(function, TimeFunction):
        raise SolveError("solve() requires a TimeFunction unknown")
    lhs = equation.lhs
    rhs = equation.rhs
    dt = Symbol("dt")
    current = Access(function, 0, target.space_offsets)
    if _is_first_time_derivative(lhs, function):
        return current + dt * rhs
    if _is_second_time_derivative(lhs, function):
        backward = Access(function, -1, target.space_offsets)
        return Scalar(2.0) * current - backward + dt * dt * rhs
    raise SolveError(
        "solve() only understands equations whose left-hand side is u.dt or u.dt2"
    )


def _is_first_time_derivative(expr: Expr, function: TimeFunction) -> bool:
    return (
        isinstance(expr, BinOp)
        and expr.op == "/"
        and isinstance(expr.rhs, Symbol)
        and expr.rhs.name == "dt"
        and isinstance(expr.lhs, BinOp)
        and expr.lhs.op == "-"
        and isinstance(expr.lhs.lhs, Access)
        and expr.lhs.lhs.time_offset == 1
        and expr.lhs.lhs.function is function
    )


def _is_second_time_derivative(expr: Expr, function: TimeFunction) -> bool:
    if not (isinstance(expr, BinOp) and expr.op == "/"):
        return False
    denominator = expr.rhs
    if not (
        isinstance(denominator, BinOp)
        and denominator.op == "*"
        and isinstance(denominator.lhs, Symbol)
        and denominator.lhs.name == "dt"
    ):
        return False
    time_offsets = sorted(
        a.time_offset for a in expr.lhs.accesses() if a.function is function
    )
    return time_offsets[:1] == [-1] and 1 in time_offsets
