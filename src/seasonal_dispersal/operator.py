"""Dense discretization of the nonlocal dispersal operator on a midpoint grid."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import BoundaryCondition, Grid, KernelSpec, StateVector, _readonly


@dataclass(frozen=True)
class DispersalOperator:
    """Discrete dispersal operator under one boundary condition.

    ``K[i, j] = J(x_i - x_j) * dx`` is the midpoint-rule convolution matrix
    and ``rowmass[i] = sum_j K[i, j]`` approximates the kernel mass reaching
    node i from inside the habitat. The operator acts as

        Dirichlet:  (L u)_i = d ((K u)_i - u_i)
        Neumann:    (L u)_i = d ((K u)_i - rowmass_i u_i)

    so under Dirichlet the mass sent beyond the habitat is lost, while under
    Neumann dispersal merely redistributes and constants are in the kernel
    of L. ``loss`` is the factor multiplying u_i in either case.
    """

    bc: BoundaryCondition
    K: np.ndarray
    rowmass: np.ndarray
    d: float
    grid: Grid

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def loss(self):
        """Per-node loss factor of L: 1 under Dirichlet, rowmass under Neumann."""
        return 1.0 if self.bc is BoundaryCondition.DIRICHLET else self.rowmass

    def apply(self, u) -> np.ndarray:
        """Evaluate L u for a StateVector or plain array of length n."""
        v = u.values if isinstance(u, StateVector) else np.asarray(u, dtype=float)
        if v.shape != (self.n,):
            raise ValidationError(
                f"state has shape {v.shape}, operator expects ({self.n},)")
        return self.d * (self.K @ v - self.loss * v)


def assemble(kernel: KernelSpec, grid: Grid, bc: BoundaryCondition, d: float,
             mass_slack: float | None = None) -> DispersalOperator:
    """Build the dense operator matrix for ``kernel`` on ``grid``.

    ``mass_slack`` bounds how far a row mass may exceed 1. The midpoint rule
    overshoots the exact kernel mass by up to about (dx * J(0))^2 / 3 once
    the habitat is much wider than the kernel (the quadrature bias of the
    kernel's peak), so the default allowance is 1e-9 + (dx * J(0))^2; on
    grids that resolve the kernel it reduces to the strict 1e-9.
    """
    if not (math.isfinite(d) and d > 0):
        raise ValidationError(f"dispersal rate must be positive, got {d!r}")
    if not isinstance(bc, BoundaryCondition):
        raise ValidationError(f"unknown boundary condition {bc!r}")
    x = grid.nodes
    dx = grid.dx
    # |x_i - x_j| is computed once, so K is symmetric bit for bit
    K = kernel.evaluate(np.abs(x[:, None] - x[None, :])) * dx
    if np.any(K < 0) or not np.all(np.isfinite(K)):
        raise ValidationError("kernel produced negative or non-finite matrix entries")
    if np.any(np.diag(K) <= 0):
        raise ValidationError("kernel vanishes at the origin; J(0) > 0 is required")
    asym = float(np.max(np.abs(K - K.T))) if grid.n > 1 else 0.0
    if asym > 1e-12:
        raise ValidationError(f"operator matrix asymmetry {asym:g} exceeds 1e-12")
    rowmass = K.sum(axis=1)
    if mass_slack is None:
        mass_slack = 1e-9 + (dx * kernel.at_zero) ** 2
    excess = float(np.max(rowmass)) - 1.0
    if excess > mass_slack:
        raise ValidationError(
            f"row mass exceeds 1 by {excess:g} (allowed slack {mass_slack:g}); "
            "the grid badly under-resolves the kernel")
    if np.any(rowmass <= 0):
        raise ValidationError("operator has a zero row mass")
    return DispersalOperator(bc=bc, K=_readonly(K), rowmass=_readonly(rowmass),
                             d=float(d), grid=grid)
