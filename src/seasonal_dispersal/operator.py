"""Nonlocal dispersal operator on a uniform midpoint grid.

On a uniform grid the midpoint convolution matrix ``K[i, j] = J(x_i - x_j) dx``
depends on ``i - j`` only and J is even, so K is symmetric Toeplitz: its
first column determines it. The operator stores that column, applies K by a
zero-padded real FFT in O(n log n) time and O(n) memory, and builds dense
blocks of K from it (``DispersalOperator._block``) for the RK4 stepper.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ValidationError
from .model import BoundaryCondition, Grid, KernelSpec, StateVector, _readonly


@dataclass(frozen=True)
class DispersalOperator:
    """Discrete dispersal operator under one boundary condition.

    ``column[k] = J(k dx) * dx`` is the first column of the symmetric Toeplitz
    midpoint-rule convolution matrix ``K[i, j] = column[|i - j|]``, and
    ``rowmass[i] = sum_j K[i, j]`` approximates the kernel mass reaching
    node i from inside the habitat. The operator acts as

        Dirichlet:  (L u)_i = d ((K u)_i - u_i)
        Neumann:    (L u)_i = d ((K u)_i - rowmass_i u_i)

    so under Dirichlet the mass sent beyond the habitat is lost, while under
    Neumann dispersal merely redistributes and constants are in the kernel
    of L. ``loss`` is the factor multiplying u_i in either case.

    ``K u`` is computed by FFT from the column. ``_block(m)`` builds the
    dense K, or its fold on mirror-symmetric states, from the column as a
    new array; the spectral path never forms one.
    """

    bc: BoundaryCondition
    column: np.ndarray
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

    @cached_property
    def K(self) -> np.ndarray:
        """Dense, read-only ``_block(n)``, built on first access. The package
        never reads it; the benchmark's tracer (``K.shape``) and tests do."""
        return _readonly(self._block(self.n))

    def _block(self, m: int) -> np.ndarray:
        """K on the leading m nodes of states whose trailing n - m nodes
        mirror them, ceil(n/2) <= m <= n: a new m x m array of entries
        c[|i - j|] + c[n - 1 - i - j], the reflected term for j < n - m only.
        So ``_block(n)`` is K, and ``_block(ceil(n/2))`` is K on even states,
        K11 + K12 J (Cantoni & Butler, Linear Algebra Appl. 13, 1976), the
        middle node of an odd grid counted once. ``_unfold`` builds the states.
        """
        n, c = self.n, self.column
        # Toeplitz row i: the window of [c_{m-1} .. c_0 .. c_{m-1}] at m - 1 - i;
        # reflected (Hankel) row i: the window of [c_{n-1} .. c_0] at i
        B = sliding_window_view(np.concatenate((c[m - 1:0:-1], c[:m])), m)[::-1].copy()
        B[:, :n - m] += sliding_window_view(c[::-1], n - m)[:m]
        return B

    @cached_property
    def _spectrum(self) -> np.ndarray:
        # K is the leading n x n block of the circulant of length 2n with
        # first column [c_0 .. c_{n-1}, 0, c_{n-1} .. c_1]
        c = self.column
        return np.fft.rfft(np.concatenate((c, [0.0], c[:0:-1])))

    def _matvec(self, x: np.ndarray) -> np.ndarray:
        """K x for one state of shape (n,), by FFT."""
        m = 2 * self.n
        return np.fft.irfft(np.fft.rfft(x, m) * self._spectrum, m)[:self.n]

    def apply(self, u) -> np.ndarray:
        """Evaluate L u for a StateVector or plain array of length n."""
        v = u.values if isinstance(u, StateVector) else np.asarray(u, dtype=float)
        if v.shape != (self.n,):
            raise ValidationError(
                f"state has shape {v.shape}, operator expects ({self.n},)")
        return self.d * (self._matvec(v) - self.loss * v)


def _unfold(y: np.ndarray, n: int) -> np.ndarray:
    """The n-node states whose leading m = y.shape[1] nodes are the rows of
    y and whose trailing n - m nodes mirror them: the states _block(m) acts on."""
    return np.concatenate([y, y[:, :n - y.shape[1]][:, ::-1]], axis=1)


def assemble(kernel: KernelSpec, grid: Grid, bc: BoundaryCondition,
             d: float) -> DispersalOperator:
    """Build the operator for ``kernel`` on ``grid`` from K's first column.

    The kernel is evaluated at the n distances k dx only. K is symmetric by
    construction, since every entry is read from the one column.

    A row mass may exceed 1 by at most 1e-9 + column[0]^2 = 1e-9 + (J(0) dx)^2:
    the midpoint rule overshoots the exact kernel mass by up to about a third
    of that square once the habitat is much wider than the kernel (the
    quadrature bias of the kernel's peak); on grids that resolve the kernel
    the allowance reduces to the strict 1e-9.
    """
    if not (math.isfinite(d) and d > 0):
        raise ValidationError(f"dispersal rate must be positive, got {d!r}")
    if not isinstance(bc, BoundaryCondition):
        raise ValidationError(f"unknown boundary condition {bc!r}")
    dx = grid.dx
    column = kernel.evaluate(np.arange(grid.n) * dx) * dx
    if np.any(column < 0) or not np.all(np.isfinite(column)):
        raise ValidationError("kernel produced negative or non-finite matrix entries")
    if column[0] <= 0:
        raise ValidationError("kernel vanishes at the origin; J(0) > 0 is required")
    # rowmass[i] = sum_{k <= i} c_k + sum_{k <= n-1-i} c_k - c_0; extended
    # precision keeps the prefix sums as accurate as a direct row sum
    prefix = np.cumsum(column, dtype=np.longdouble)
    rowmass = (prefix + prefix[::-1] - column[0]).astype(float)
    allowance = 1e-9 + column[0] ** 2
    excess = float(np.max(rowmass)) - 1.0
    if excess > allowance:
        raise ValidationError(
            f"row mass exceeds 1 by {excess:g} (allowed {allowance:g}); "
            "the grid badly under-resolves the kernel")
    if np.any(rowmass <= 0):
        raise ValidationError("operator has a zero row mass")
    return DispersalOperator(bc=bc, column=_readonly(column), rowmass=_readonly(rowmass),
                             d=float(d), grid=grid)
