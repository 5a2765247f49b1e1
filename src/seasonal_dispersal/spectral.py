"""Principal eigenpair, persistence threshold and critical habitat length.

The time-independent dispersal-growth operator d(K u - u) + a u has a
principal eigenvalue sigma1 = d - a - r, where r is the Perron root of the
nonnegative symmetric matrix d K. The seasonal threshold eigenvalue

    lambda1 = (1 - rho) sigma1 + rho delta        (Dirichlet)
    lambda1 = delta rho - a (1 - rho)             (Neumann, closed form)

decides persistence: the population persists exactly when lambda1 < 0.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketError, EigenConvergenceError, ValidationError
from .model import BoundaryCondition, Grid, KernelSpec, SeasonParams, StateVector, _readonly
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


@dataclass(frozen=True)
class ThresholdReport:
    """Persistence threshold eigenvalue for one habitat and boundary condition."""

    sigma1: float | None
    lambda1: float
    bc: BoundaryCondition


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


def threshold(p: SeasonParams, op: DispersalOperator,
              pair: EigenPair | None = None) -> ThresholdReport:
    """Seasonal threshold eigenvalue lambda1 for the habitat of ``op``.

    The Neumann value is closed form and needs no eigen-solve; the Dirichlet
    value uses ``pair`` when supplied, otherwise solves for it.
    """
    if op.d != p.d:
        raise ValidationError(
            f"operator dispersal rate {op.d!r} differs from params d={p.d!r}")
    if op.bc is BoundaryCondition.NEUMANN:
        return ThresholdReport(sigma1=None, lambda1=p.lambda1(-p.a), bc=op.bc)
    if pair is None:
        pair = principal_eigenpair(op, p.a)
    return ThresholdReport(sigma1=pair.sigma1, lambda1=p.lambda1(pair.sigma1), bc=op.bc)


def periodic_eigenfunction(p: SeasonParams, pair: EigenPair, t: float) -> StateVector:
    """Positive periodic eigenfunction of the linearized seasonal problem.

    phi(t, x) = exp(lambda1 t - integral_0^t sigma(s) ds) phi1(x), where
    sigma(s) is delta through the bad season and sigma1 through the good one.
    phi(0) = phi1 and phi(omega) = phi(0), since the exponent integrates to
    zero over one period.
    """
    if not (0.0 <= t <= p.omega):
        raise ValidationError(f"t={t!r} lies outside one period [0, {p.omega}]")
    lam1 = p.lambda1(pair.sigma1)
    t_bad = p.rho * p.omega
    if t <= t_bad:
        exponent = (lam1 - p.delta) * t
    else:
        exponent = lam1 * t - p.delta * t_bad - pair.sigma1 * (t - t_bad)
    return StateVector(math.exp(exponent) * pair.phi1, time=t)


def _dirichlet_regime(p: SeasonParams) -> Regime:
    """Regime on Dirichlet habitats, from the growth margin g alone.

    g > (1-rho) d persists on every habitat, g <= 0 goes extinct on every
    habitat, and in between a finite critical length separates the two.
    """
    margin = p.growth_margin
    if margin > (1.0 - p.rho) * p.d:
        return Regime.PERSIST_ALL_DOMAINS
    if margin <= 0:
        return Regime.EXTINCT_ALL_DOMAINS
    return Regime.CRITICAL_LENGTH


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
    regime = _dirichlet_regime(p)
    if regime is not Regime.CRITICAL_LENGTH:
        return CriticalLengthResult(verdict=regime)

    scale = kernel.scale

    def lam(ell: float) -> float:
        n = min(4096, max(256, math.ceil(64.0 * ell / scale)))
        op = assemble(kernel, Grid.centered(ell, n), BoundaryCondition.DIRICHLET, p.d)
        return threshold(p, op).lambda1

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
