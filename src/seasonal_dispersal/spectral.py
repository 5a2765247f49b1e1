"""Principal eigenpair and critical habitat length.

The time-independent dispersal-growth operator d(K u - u) + a u has a
principal eigenvalue sigma1 = d - a - r, where r is the Perron root of the
nonnegative symmetric matrix d K. The seasonal threshold eigenvalue,
SeasonParams.lambda1(sigma1),

    lambda1 = (1 - rho) sigma1 + rho delta        (Dirichlet)
    lambda1 = delta rho - a (1 - rho)             (Neumann, sigma1 = -a)

decides persistence: the population persists exactly when lambda1 < 0.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketError, EigenConvergenceError, ValidationError
from .model import BoundaryCondition, Grid, KernelSpec, SeasonParams, _readonly
from .operator import DispersalOperator, assemble


class Regime(enum.Enum):
    """Long-run outcome category."""

    PERSIST_ALL_DOMAINS = "persist_all_domains"
    CRITICAL_LENGTH = "critical_length"
    EXTINCT_ALL_DOMAINS = "extinct_all_domains"
    PERSIST = "persist"
    EXTINCT = "extinct"


@dataclass(frozen=True)
class EigenPair:
    """Principal eigenvalue and positive eigenfunction, sup-normalized."""

    sigma1: float
    phi1: np.ndarray
    residual: float
    iterations: int


def principal_eigenpair(op: DispersalOperator, a: float, *,
                        tol_residual: float = 1e-8,
                        max_iter: int = 100_000) -> EigenPair:
    """Power iteration for the principal eigenpair of d(K u - u) + a u.

    K is nonnegative, symmetric and irreducible for kernels positive near the
    origin, so the Perron root r of d K is the simple dominant eigenvalue and
    the iteration converges from any positive start. Convergence requires the
    sup-norm residual below ``tol_residual`` together with Rayleigh-quotient
    stagnation below a relative 1e-12. Each step applies K by FFT from its
    first column, so no n x n matrix is formed.
    """
    if op.bc is not BoundaryCondition.DIRICHLET:
        raise ValidationError("principal_eigenpair expects a Dirichlet operator")
    v = np.ones(op.n)
    v /= np.linalg.norm(v)
    lam = 0.0
    lam_prev = math.inf
    res = math.inf
    for it in range(1, max_iter + 1):
        y = op.d * op._matvec(v)
        lam = float(v @ y)
        res = float(np.max(np.abs(y - lam * v))) / float(np.max(v))
        if res <= tol_residual and abs(lam - lam_prev) <= 1e-12 * max(1.0, abs(lam)):
            phi = v / np.max(v)
            if not np.all(phi > 0):
                raise EigenConvergenceError(
                    "eigenfunction is not strictly positive (reducible kernel?)",
                    last_residual=res, iterations=it)
            sigma1 = op.d - a - lam
            return EigenPair(sigma1=sigma1, phi1=_readonly(phi),
                             residual=res, iterations=it)
        lam_prev = lam
        v = y / np.linalg.norm(y)
    raise EigenConvergenceError(
        f"power iteration did not converge in {max_iter} iterations "
        f"(last residual {res:.3e})", last_residual=res, iterations=max_iter)


@dataclass(frozen=True)
class CriticalLengthResult:
    """Outcome of the critical-length analysis on centered habitats."""

    verdict: Regime
    ell_star: float | None = None
    bracket: tuple[float, float] | None = None
    lambda_lo: float | None = None  # lambda1 at the extinction-side endpoint
    lambda_hi: float | None = None  # lambda1 at the persistence-side endpoint


def critical_length(p: SeasonParams, kernel: KernelSpec, tol: float = 1e-4, *,
                    expand_cap: float = 1e4) -> CriticalLengthResult:
    """Habitat length at which the persistence threshold changes sign.

    Only the regime 0 < (1-rho) a - rho delta <= (1-rho) d has a finite
    critical length; below it every habitat goes extinct and above it every
    habitat persists, both reported without any eigen-solve. In the critical
    regime, lambda1(ell) is strictly decreasing and continuous in the length,
    so bisection on centered habitats [-ell/2, ell/2] is unconditionally
    safe. The result brackets the root to width ``tol``.

    Grid resolution follows the kernel scale, n = max(256, ceil(64 ell / D))
    capped at 4096, so wide habitats stay resolved without unbounded
    matrices.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValidationError(f"tol must be positive, got {tol!r}")
    margin = p.growth_margin
    if margin > (1.0 - p.rho) * p.d:
        return CriticalLengthResult(verdict=Regime.PERSIST_ALL_DOMAINS)
    if margin <= 0:
        return CriticalLengthResult(verdict=Regime.EXTINCT_ALL_DOMAINS)

    scale = kernel.scale

    def lam(ell: float) -> float:
        n = min(4096, max(256, math.ceil(64.0 * ell / scale)))
        op = assemble(kernel, Grid.centered(ell, n), BoundaryCondition.DIRICHLET, p.d)
        return p.lambda1(principal_eigenpair(op, p.a).sigma1)

    lo = hi = scale
    lam_lo = lam_hi = lam(scale)
    if lam_lo > 0:
        while lam_hi > 0:
            lo, lam_lo = hi, lam_hi
            hi *= 2.0
            if hi > expand_cap * scale:
                raise BracketError(
                    f"no sign change of lambda1 up to ell = {hi:g} "
                    f"({expand_cap:g} kernel scales)")
            lam_hi = lam(hi)
    elif lam_hi < 0:
        for _ in range(200):
            hi, lam_hi = lo, lam_lo
            lo = 0.5 * hi
            lam_lo = lam(lo)
            if lam_lo > 0:
                break
        else:
            raise BracketError(
                f"lambda1 stayed negative down to ell = {lo:g}; "
                "parameters sit at the degenerate regime boundary")

    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        lam_mid = lam(mid)
        if lam_mid > 0:
            lo, lam_lo = mid, lam_mid
        else:
            hi, lam_hi = mid, lam_mid
    return CriticalLengthResult(verdict=Regime.CRITICAL_LENGTH,
                                ell_star=0.5 * (lo + hi), bracket=(lo, hi),
                                lambda_lo=lam_lo, lambda_hi=lam_hi)
