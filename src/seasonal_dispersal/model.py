"""Model data: season parameters, dispersal kernels, spatial grids, states.

All types validate themselves at construction and are immutable afterwards,
so they can be shared freely between threads and cached by the solvers.
"""

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Union

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class SeasonParams:
    """Constants of the two-season logistic model.

    Each period of length ``omega`` starts with a bad season taking the
    fraction ``rho`` of it, during which the density declines exponentially
    at rate ``delta`` and does not move. The remaining good season combines
    dispersal at rate ``d`` with logistic growth ``u (a - b u)``.
    """

    delta: float  # death rate in the bad season [1/time]
    a: float      # intrinsic growth rate in the good season [1/time]
    b: float      # intraspecific competition [1/(density*time)]
    d: float      # dispersal rate [1/time]
    rho: float    # bad-season fraction of the period, in (0, 1)
    omega: float  # period of the seasonal cycle [time]

    def __post_init__(self):
        for name in ("delta", "a", "b", "d", "omega"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValidationError(f"{name} must be a positive finite number, got {v!r}")
        if not (isinstance(self.rho, (int, float)) and math.isfinite(self.rho)
                and 0.0 < self.rho < 1.0):
            raise ValidationError(f"rho must lie strictly inside (0, 1), got {self.rho!r}")

    @property
    def growth_margin(self) -> float:
        """Seasonally averaged net growth rate (1-rho)*a - rho*delta."""
        return (1.0 - self.rho) * self.a - self.rho * self.delta

    def lambda1(self, sigma1: float) -> float:
        """Seasonal threshold eigenvalue (1-rho)*sigma1 + rho*delta.

        ``sigma1`` is the principal eigenvalue of the good-season problem.
        Under Neumann it is -a (constants are principal), which gives the
        closed form rho*delta - (1-rho)*a.
        """
        return (1.0 - self.rho) * sigma1 + self.rho * self.delta

    @property
    def bad_season_length(self) -> float:
        return self.rho * self.omega

    @property
    def good_season_length(self) -> float:
        return (1.0 - self.rho) * self.omega


@dataclass(frozen=True)
class LaplaceKernel:
    """Laplace dispersal kernel J(x) = exp(-|x|/scale) / (2 scale).

    Even, positive everywhere, and of exact unit mass over the real line.
    """

    scale: float

    def __post_init__(self):
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValidationError(f"kernel scale must be positive, got {self.scale!r}")

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        return np.exp(-np.abs(x) / self.scale) / (2.0 * self.scale)

    def mass(self, half_width: float) -> float:
        """Exact integral over [-half_width, half_width]."""
        return 1.0 - math.exp(-half_width / self.scale)


@dataclass(frozen=True)
class TabulatedKernel:
    """Even kernel given by uniform samples ``values`` on [-half_width, half_width].

    The table is interpolated linearly at |x| (exactly even) and clipped to
    zero outside the half-width. It must be nonnegative, positive at the
    origin, of numerical mass within 1e-6 of one, and mirror symmetric to
    rounding: |v - v[::-1]| at most 16 ulps of max(v), as a formula in |x|
    written at linspace nodes, which are not exact mirrors, gives. It is then
    stored as 0.5 (v + v[::-1]), symmetric bit for bit, and rescaled so the
    interpolant integrates to exactly one.
    """

    values: np.ndarray
    half_width: float
    xs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.half_width) and self.half_width > 0):
            raise ValidationError(f"half_width must be positive, got {self.half_width!r}")
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 3:
            raise ValidationError("kernel table needs at least 3 samples")
        if not np.all(np.isfinite(v)):
            raise ValidationError("kernel table contains non-finite samples")
        if np.any(v < 0):
            raise ValidationError("kernel table contains negative samples")
        if np.max(np.abs(v - v[::-1])) > 16.0 * np.finfo(float).eps * np.max(v):
            raise ValidationError("kernel table is not mirror symmetric")
        v = 0.5 * (v + v[::-1])
        xs = np.linspace(-self.half_width, self.half_width, v.size)
        raw_mass = float(np.trapezoid(v, xs))
        if abs(raw_mass - 1.0) > 1e-6:
            raise ValidationError(
                f"kernel table mass {raw_mass!r} deviates from 1 by more than 1e-6")
        v = v / raw_mass
        if not (np.interp(0.0, xs, v) > 0):
            raise ValidationError("kernel table vanishes at the origin")
        object.__setattr__(self, "values", _readonly(v))
        object.__setattr__(self, "xs", _readonly(xs))

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        return np.interp(np.abs(x), self.xs, self.values, right=0.0)

    @property
    def scale(self) -> float:
        return self.half_width

    def mass(self, half_width: float) -> float:
        """Exact integral of the interpolant over [-half_width, half_width]."""
        w = min(half_width, self.half_width)
        pts = np.concatenate(([-w], self.xs[np.abs(self.xs) < w], [w]))
        return float(np.trapezoid(self.evaluate(pts), pts))


KernelSpec = Union[LaplaceKernel, TabulatedKernel]


@dataclass(frozen=True)
class Grid:
    """Uniform midpoint grid on [l1, l2]: nodes at cell centers, weight dx each.

    Cell-centered nodes keep the discrete convolution matrix symmetric, which
    makes the principal eigenvalue real by construction. The nodes are laid
    out from the midpoint, 0.5 (l1 + l2) + (i - (n - 1)/2) dx, so on a grid
    centred on 0 they are exact mirrors and an even function of them is
    mirror-symmetric bit for bit.
    """

    l1: float
    l2: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.l1) and math.isfinite(self.l2) and self.l1 < self.l2):
            raise ValidationError(f"grid endpoints must satisfy l1 < l2, got ({self.l1!r}, {self.l2!r})")
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise ValidationError(f"grid node count must be a positive integer, got {self.n!r}")

    @classmethod
    def centered(cls, length: float, n: int) -> "Grid":
        return cls(-0.5 * length, 0.5 * length, n)

    @property
    def dx(self) -> float:
        return (self.l2 - self.l1) / self.n

    @cached_property
    def nodes(self) -> np.ndarray:
        offsets = (np.arange(self.n) - 0.5 * (self.n - 1)) * self.dx
        return _readonly(0.5 * (self.l1 + self.l2) + offsets)


class BoundaryCondition(enum.Enum):
    """How dispersal interacts with the habitat boundary.

    DIRICHLET: individuals landing outside the habitat are lost (hostile
    exterior). NEUMANN: dispersal only redistributes within the habitat.
    """

    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"


@dataclass(frozen=True)
class StateVector:
    """Nodal density values at one time instant."""

    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise ValidationError("state values must be a one-dimensional array")
        if not np.all(np.isfinite(v)):
            raise ValidationError("state values contain non-finite entries")
        if not math.isfinite(self.time):
            raise ValidationError(f"state time must be finite, got {self.time!r}")
        object.__setattr__(self, "values", _readonly(v))

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a
