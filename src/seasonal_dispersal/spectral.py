"""Principal eigenpair and critical habitat length.

The time-independent dispersal-growth operator d(K u - u) + a u has a
principal eigenvalue sigma1 = d - a - r, where r is the Perron root of the
nonnegative symmetric matrix d K. The seasonal threshold eigenvalue,
SeasonParams.lambda1(sigma1),

    lambda1 = (1 - rho) sigma1 + rho delta        (Dirichlet)
    lambda1 = delta rho - a (1 - rho)             (Neumann, sigma1 = -a)

decides persistence: the population persists exactly when lambda1 < 0.
The Perron pair comes from a Lanczos iteration on the FFT product of K, and
the critical habitat length from Illinois regula falsi on lambda1(ell).
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketError, EigenConvergenceError, ValidationError
from .model import BoundaryCondition, Grid, KernelSpec, SeasonParams, _readonly
from .operator import DispersalOperator, assemble


# beta_j below CLOSURE * theta: the Krylov space is invariant to rounding
CLOSURE = 1e-12

#: critical_length brackets its root within this many kernel scales either way
EXPAND_CAP = 1e4

#: principal_eigenpair accepts a pair whose sup-norm residual is at most this
EIGEN_TOL = 1e-8

#: critical_length brackets its root to this width
BRACKET_TOL = 1e-4


class Regime(enum.Enum):
    """Long-run outcome category."""

    PERSIST_ALL_DOMAINS = "persist_all_domains"
    CRITICAL_LENGTH = "critical_length"
    EXTINCT_ALL_DOMAINS = "extinct_all_domains"
    PERSIST = "persist"
    EXTINCT = "extinct"


@dataclass(frozen=True)
class EigenPair:
    """Principal eigenvalue and positive eigenfunction, max phi1 = 1 exactly.

    ``enclosure`` is (sigma_lo, sigma_hi) of sigma1_bounds for phi1, from the
    product that measured ``residual``; _certified_sign reads lambda1's sign off it.
    """

    sigma1: float
    phi1: np.ndarray
    residual: float
    iterations: int
    enclosure: tuple[float, float]


def principal_eigenpair(op: DispersalOperator, a: float) -> EigenPair:
    """Lanczos iteration for the principal eigenpair of d(K u - u) + a u.

    K is nonnegative, symmetric and irreducible for kernels positive near the
    origin, so the Perron root r of d K is its simple largest eigenvalue and
    its eigenvector is positive. Lanczos with full reorthogonalisation (two
    Gram-Schmidt passes; Golub & Van Loan, *Matrix Computations*, ch. 10)
    builds an orthonormal basis of the Krylov space of the ones vector and
    takes the largest Ritz pair (theta, y) of the tridiagonal projection.
    Once the Ritz estimate |beta_j s_j| is at most EIGEN_TOL / 10, or the
    space closes (beta_j ~ 0; K is centrosymmetric, so the space of the ones
    vector closes by dimension ceil(n/2); an orthonormal basis in R^n holds
    at most n vectors, so it is closed at dimension n whatever beta_j is),
    one explicit product measures the sup-norm residual max|d K y - theta y|
    of y scaled to max y = 1, and the pair is accepted at or below
    EIGEN_TOL; the same product gives its sigma1_bounds enclosure. A closed
    space whose pair is not accepted raises EigenConvergenceError, so the
    solve takes at most 2 n products; ``iterations`` reports them.

    Every product applies K by FFT from its first column, so no n x n matrix
    is formed, and the basis grows with the steps taken.
    """
    if op.bc is not BoundaryCondition.DIRICHLET:
        raise ValidationError("principal_eigenpair expects a Dirichlet operator")
    n = op.n
    basis = np.empty((min(n, 32) + 1, n))  # doubled when full
    basis[0] = 1.0 / math.sqrt(n)
    T = np.zeros((len(basis), len(basis)))  # the tridiagonal projection of d K
    products = k = 0
    while True:
        V = basis[:k + 1]
        w = op.d * op._matvec(V[k])
        products += 1
        T[k, k] = V[k] @ w
        for _ in range(2):
            w -= V.T @ (V @ w)
        b = float(np.linalg.norm(w))
        ritz, vecs = np.linalg.eigh(T[:k + 1, :k + 1])
        theta, s = float(ritz[-1]), vecs[:, -1]
        closed = b <= CLOSURE * theta or k + 1 == n
        res = abs(b * s[-1])
        if closed or res <= EIGEN_TOL / 10:
            y = V.T @ s
            y /= y[np.argmax(np.abs(y))]
            Ky = op._matvec(y)
            res = float(np.max(np.abs(op.d * Ky - theta * y)))
            products += 1
            if res <= EIGEN_TOL:
                if not np.all(y > 0):
                    raise EigenConvergenceError(
                        "eigenfunction is not strictly positive (reducible kernel?)",
                        last_residual=res, iterations=products)
                # L y, as op.apply(y) computes it
                enclosure = sigma1_bounds(op, a, y, op.d * (Ky - op.loss * y))
                return EigenPair(sigma1=op.d - a - theta, phi1=_readonly(y),
                                 residual=res, iterations=products, enclosure=enclosure)
        if closed:
            raise EigenConvergenceError(
                f"Lanczos iteration did not converge: the Krylov space closed at "
                f"dimension {k + 1} after {products} operator products "
                f"(last residual {res:.3e})",
                last_residual=res, iterations=products)
        if k + 1 == len(basis):
            basis = np.concatenate((basis, np.empty_like(basis)))
            T = np.pad(T, (0, len(T)))
        basis[k + 1] = w / b
        T[k, k + 1] = T[k + 1, k] = b
        k += 1


def sigma1_bounds(op: DispersalOperator, a: float, phi: np.ndarray,
                  Lphi: np.ndarray) -> tuple[float, float]:
    """Enclosure (sigma_lo, sigma_hi) of sigma1 = -a - mu, mu the largest
    eigenvalue of L = ``op``, from the product ``Lphi`` = L phi of any
    positive phi: L plus a multiple of the identity is nonnegative and
    irreducible, so min_i (L phi)_i / phi_i <= mu <= max_i (L phi)_i / phi_i
    (Collatz-Wielandt; Horn & Johnson, *Matrix Analysis*, 2nd ed., 8.1). At
    an eigenpair of residual res and max phi = 1 the enclosure is at most
    2 res / min phi wide.
    """
    if not np.all(phi > 0):
        raise ValidationError("the sigma1 enclosure needs a strictly positive phi")
    ratio = Lphi / phi
    return -a - float(np.max(ratio)), -a - float(np.min(ratio))


def _certified_sign(p: SeasonParams, pair: EigenPair) -> int:
    """The sign of lambda1 = p.lambda1(pair.sigma1) that ``pair`` certifies: 1 or -1
    when lambda1 and lambda1 over all of ``pair.enclosure`` have that sign, else 0."""
    lam1, lower, upper = (p.lambda1(s) for s in (pair.sigma1, *pair.enclosure))
    return (lam1 > 0 and lower > 0) - (lam1 < 0 and upper < 0)


@dataclass(frozen=True)
class CriticalLengthResult:
    """Outcome of the critical-length analysis on centered habitats."""

    verdict: Regime
    ell_star: float | None = None
    bracket: tuple[float, float] | None = None
    lambda_lo: float | None = None  # lambda1 at the extinction-side endpoint
    lambda_hi: float | None = None  # lambda1 at the persistence-side endpoint


def critical_length(p: SeasonParams, kernel: KernelSpec) -> CriticalLengthResult:
    """Habitat length at which the persistence threshold changes sign.

    Only the regime 0 < (1-rho) a - rho delta <= (1-rho) d has a finite
    critical length; below it every habitat goes extinct and above it every
    habitat persists, both reported without any eigen-solve. In the critical
    regime, lambda1(ell) is strictly decreasing and continuous in the length
    of centered habitats [-ell/2, ell/2]. A sign change is bracketed by
    doubling or halving from one kernel scale, within EXPAND_CAP kernel
    scales either way and not below BRACKET_TOL, then narrowed by Illinois
    regula falsi (Dowell & Jarratt, *BIT* 11, 1971), which keeps the bracket
    and converges superlinearly. A point becomes a bracket end only when its
    solve certifies the sign of lambda1 (_certified_sign, on its enclosure).
    Once the estimate lies within BRACKET_TOL / 4 of an end, or its sign is
    not certified, the points estimate -+ BRACKET_TOL / 4 inside the bracket
    are solved instead, and a probe whose sign is not certified raises
    BracketError. The result brackets the root to width BRACKET_TOL.

    Grid resolution follows the kernel scale, n = max(256, ceil(64 ell / D))
    capped at 4096, so wide habitats stay resolved without unbounded
    matrices.
    """
    margin = p.growth_margin
    if margin > (1.0 - p.rho) * p.d:
        return CriticalLengthResult(verdict=Regime.PERSIST_ALL_DOMAINS)
    if margin <= 0:
        return CriticalLengthResult(verdict=Regime.EXTINCT_ALL_DOMAINS)

    scale = kernel.scale

    def lam(ell: float) -> tuple[float, int]:
        """lambda1 at ell and its certified sign, 1 or -1 (0: not certified)."""
        n = min(4096, max(256, math.ceil(64.0 * ell / scale)))
        op = assemble(kernel, Grid.centered(ell, n), BoundaryCondition.DIRICHLET, p.d)
        pair = principal_eigenpair(op, p.a)
        return p.lambda1(pair.sigma1), _certified_sign(p, pair)

    # the ends hold certified signs, lambda1(lo) > 0 > lambda1(hi); until an
    # end is found it sits at 0 or inf with no value, and the other end
    # doubles or halves towards it
    lo, hi = 0.0, math.inf
    lam_lo = lam_hi = None
    # Illinois: an end kept while the other moves twice in a row has its
    # weight halved; a moved end starts again at weight 1
    w_lo = w_hi = 1.0
    moved = 0  # -1: lo moved last, +1: hi moved last, 0: an end was just found
    while lam_lo is None or lam_hi is None or hi - lo > BRACKET_TOL:
        if lam_hi is None:
            x = scale if lam_lo is None else 2.0 * lo
            if x > EXPAND_CAP * scale:
                raise BracketError(
                    f"no sign change of lambda1 up to ell = {x:g} "
                    f"({EXPAND_CAP:g} kernel scales)")
        elif lam_lo is None:
            x = 0.5 * hi
            if x < max(scale / EXPAND_CAP, BRACKET_TOL):
                raise BracketError(
                    f"lambda1 stayed negative down to ell = {hi:g}; parameters "
                    "sit at or near the degenerate regime boundary")
        else:
            x = (lo * w_hi * lam_hi - hi * w_lo * lam_lo) / (w_hi * lam_hi - w_lo * lam_lo)
        probing = min(x - lo, hi - x) <= 0.25 * BRACKET_TOL
        points = [x - 0.25 * BRACKET_TOL, x + 0.25 * BRACKET_TOL] if probing else [x]
        while points:
            q = points.pop(0)
            if not lo < q < hi:
                continue  # outside the bracket, or passed by the probe before
            value, sign = lam(q)
            if sign == 0:
                if probing:
                    raise BracketError(
                        f"sign of lambda1 = {value:g} at ell = {q:g} is within its "
                        f"eigen residual; no certified bracket of width {BRACKET_TOL:g}")
                points, probing = [q - 0.25 * BRACKET_TOL, q + 0.25 * BRACKET_TOL], True
            elif sign > 0:
                w_hi *= 0.5 if moved == -1 else 1.0
                moved = 0 if lam_lo is None else -1
                lo, lam_lo, w_lo = q, value, 1.0
            else:
                w_lo *= 0.5 if moved == 1 else 1.0
                moved = 0 if lam_hi is None else 1
                hi, lam_hi, w_hi = q, value, 1.0
    return CriticalLengthResult(verdict=Regime.CRITICAL_LENGTH,
                                ell_star=0.5 * (lo + hi), bracket=(lo, hi),
                                lambda_lo=lam_lo, lambda_hi=lam_hi)
