"""Periodic attractors, regime classification, and the ODE reference model.

The omega-periodic attractor of the habitat problem is found by iterating
the period map from an ordered pair of upper/lower starting data: a large
constant above the logistic ceiling a/b and a small multiple of the positive
periodic eigenfunction. Comparison keeps the upper sequence non-increasing
and the lower one non-decreasing, so the two sandwich every solution and
meet at the unique positive fixed point when the threshold eigenvalue is
negative. When it is not, a decaying multiple of the principal eigenfunction
is a super-solution, which certifies extinction in closed form.

The spatially homogeneous reference is the scalar seasonal logistic ODE,
whose periodic orbit has a closed form; it is also the profile limit of the
habitat attractor as the habitat grows.
"""

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import IterationBudgetError, SolverError, ValidationError
# period_map stays importable here: perfbench/tracing.py wraps periodic.period_map
from .evolution import StepControl, _one_period, evolve, period_map
from .model import (BoundaryCondition, Grid, KernelSpec, SeasonParams,
                    StateVector, _readonly)
from .operator import DispersalOperator, assemble
from .spectral import (EigenPair, Regime, _dirichlet_regime, critical_length,
                       principal_eigenpair, threshold)

#: below this distance from zero the threshold eigenvalue gives degenerate
#: convergence rates; budget exhaustion is then flagged as slow, not failed
NEAR_THRESHOLD = 1e-3

#: a certified sup-norm bound below this certifies extinction
EXTINCTION_THRESHOLD = 1e-10


# ---------------------------------------------------------------------------
# scalar seasonal ODE reference
# ---------------------------------------------------------------------------

def logistic_flow(z: float, a: float, b: float, tau: float) -> float:
    """Advance z' = z (a - b z) by time tau, in closed form."""
    if tau == 0.0 or z == 0.0:
        return z
    e = math.exp(a * tau)
    return a * z * e / (a + b * z * (e - 1.0))


def ode_period_map(z: float, p: SeasonParams) -> float:
    """Exact one-period flow of the scalar seasonal model."""
    if z < 0:
        raise ValidationError("ode_period_map requires z >= 0")
    return logistic_flow(math.exp(-p.delta * p.bad_season_length) * z,
                         p.a, p.b, p.good_season_length)


@dataclass(frozen=True)
class OdePeriodicSolution:
    """Positive periodic orbit of the scalar seasonal model, in closed form.

    z*(t) = e^{-delta t} z0 through the bad season, then the logistic flow
    through the good season, returning to z0 at t = omega.
    """

    z0: float
    params: SeasonParams

    def __post_init__(self):
        if not (self.z0 > 0 and math.isfinite(self.z0)):
            raise ValidationError(f"z0 must be positive, got {self.z0!r}")
        drift = abs(ode_period_map(self.z0, self.params) - self.z0)
        if drift > 1e-12 * self.z0:
            raise ValidationError(f"z0 is not a period-map fixed point (drift {drift:g})")

    def value(self, t: float) -> float:
        p = self.params
        t = t % p.omega
        if t <= p.bad_season_length:
            return self.z0 * math.exp(-p.delta * t)
        return logistic_flow(self.z0 * math.exp(-p.delta * p.bad_season_length),
                             p.a, p.b, t - p.bad_season_length)

    def sample(self, ts) -> np.ndarray:
        return np.array([self.value(float(t)) for t in np.asarray(ts, dtype=float)])


def ode_periodic_solution(p: SeasonParams) -> Optional[OdePeriodicSolution]:
    """Closed-form periodic orbit of the scalar model, or None.

    With A = e^{-delta rho omega} and B = e^{a (1-rho) omega}, imposing
    z(omega) = z(0) on the exact flow gives z0 = a (A B - 1) / (b A (B - 1)).
    A positive orbit exists exactly when A B > 1, i.e. when the growth
    margin (1-rho) a - rho delta is positive; otherwise every orbit decays
    to zero and None is returned.
    """
    if p.growth_margin <= 0:
        return None
    A = math.exp(-p.delta * p.bad_season_length)
    B = math.exp(p.a * p.good_season_length)
    z0 = p.a * (A * B - 1.0) / (p.b * A * (B - 1.0))
    return OdePeriodicSolution(z0=z0, params=p)


# ---------------------------------------------------------------------------
# monotone iteration toward the habitat attractor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonotoneIterationTrace:
    """Snapshots (at t = 0) of the upper/lower iterate sequences.

    Row k holds iterate k; ``gaps[k]`` is the sup-norm distance between the
    two rows. The upper rows are componentwise non-increasing in k, the
    lower rows non-decreasing, and the gaps non-increasing. For an
    Extinction there are two rows: the upper start and the super-solution
    bound at the certified period, with zero lower rows.
    """

    upper: np.ndarray
    lower: np.ndarray
    gaps: np.ndarray

    def __len__(self) -> int:
        return self.gaps.size


@dataclass(frozen=True)
class PeriodicSolution:
    """Positive periodic attractor sampled over one period.

    ``values[k]`` is the state at ``times[k]``; ``residual`` is the sup-norm
    period-map defect of the t = 0 state. Through the bad season the samples
    factor exactly as values(t) = e^{-delta t} values(0).
    """

    times: np.ndarray
    values: np.ndarray
    residual: float
    lambda1: float
    trace: MonotoneIterationTrace
    params: SeasonParams
    grid: Grid

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


@dataclass(frozen=True)
class Extinction:
    """Certified decay to zero: every solution from nonnegative data at most
    a/b + ``upper_offset`` is at most ``final_supnorm`` at t = ``periods`` omega.

    ``final_supnorm`` is the super-solution bound of find_periodic_solution,
    not a simulated sup-norm, and ``periods`` is the first period at which it
    is below EXTINCTION_THRESHOLD.
    """

    final_supnorm: float
    periods: int
    evidence: str  # "below_threshold": the bound is below EXTINCTION_THRESHOLD
    lambda1: float
    trace: MonotoneIterationTrace


def _lower_start_scale(p: SeasonParams, pair: EigenPair, resid: np.ndarray,
                       lam1: float) -> float:
    """Largest certified multiple of phi1 that is a discrete lower solution.

    The good-season lower-solution inequality for eps * phi(t, x), written
    through the eigen identity d(K phi - phi) + a phi = -sigma1 phi + resid,
    reduces to lam1 phi_i - resid_i + b eps phi_i^2 <= 0 at every node (the
    bad season holds automatically for lam1 < 0). eps is halved from
    0.1 (a/b) / sup phi until the inequality holds, at most 60 times.
    """
    phi = pair.phi1
    eps = 0.1 * (p.a / p.b) / float(np.max(phi))
    for _ in range(60):
        if np.max(lam1 * phi - resid + p.b * eps * phi * phi) <= 0.0:
            return eps
        eps *= 0.5
    raise SolverError(
        "could not certify a lower solution in 60 halvings; "
        f"lambda1 = {lam1:g} is too close to zero for the eigen residual")


def find_periodic_solution(p: SeasonParams, op: DispersalOperator, pair: EigenPair,
                           ctl: StepControl, *, tol: float = 1e-8,
                           max_periods: int = 5000,
                           upper_offset: float = 1.0
                           ) -> Union[PeriodicSolution, Extinction]:
    """Periodic attractor on a Dirichlet habitat, or a certificate of extinction.

    With lambda1 < 0, monotone upper/lower iteration of the period map: the
    upper sequence starts from the constant top = a/b + ``upper_offset`` and
    the lower one from a certified small multiple of the periodic
    eigenfunction; both converge monotonically to the unique positive fixed
    point, accepted once their gap is at most ``tol``.

    With lambda1 >= 0 no period is stepped. The eigen identity gives
    d(K phi1 - phi1) + a phi1 <= -sigma_eff phi1, with sigma_eff = sigma1 -
    max_i(resid_i / phi1_i). The model is cooperative (d K_ij >= 0) and
    -b u^2 <= 0, so M exp(-integral_0^t sigma) phi1, with M = top / min phi1
    and sigma = delta in the bad season and sigma_eff in the good one, is a
    super-solution above the upper start. Hence sup u(k omega) <=
    M sup phi1 exp(-lam k omega) with lam = lambda1(sigma_eff); the
    Extinction reports the first k at which this bound is strictly below
    EXTINCTION_THRESHOLD. SolverError is raised if lam <= 0, where lambda1
    lies within the eigen residual of zero.

    ``max_periods`` bounds the persistence loop only. IterationBudgetError is
    raised if the gap is still above ``tol`` after ``max_periods`` periods;
    the error flags |lambda1| < 1e-3, where the contraction rate degenerates
    and slowness is expected.
    """
    if op.bc is not BoundaryCondition.DIRICHLET:
        raise ValidationError("find_periodic_solution expects a Dirichlet operator")
    lam1 = p.lambda1(pair.sigma1)
    phi = pair.phi1
    top = p.a / p.b + upper_offset
    resid = op.apply(phi) + (p.a + pair.sigma1) * phi

    if lam1 >= 0.0:
        lam = p.lambda1(pair.sigma1 - float(np.max(resid / phi)))
        if lam <= 0.0:
            raise SolverError(
                f"lambda1 = {lam1:g} lies within the eigen residual of zero "
                f"(residual-corrected {lam:g}); extinction is not certified")
        M = top / float(np.min(phi))
        # floor + 1, not ceil: the bound is strictly below the threshold even
        # when the log ratio is an integer
        periods = math.floor(math.log(M * float(np.max(phi)) / EXTINCTION_THRESHOLD)
                             / (lam * p.omega)) + 1
        upper = np.array([np.full(op.n, top),
                          M * math.exp(-lam * p.omega * periods) * phi])
        trace = MonotoneIterationTrace(upper=_readonly(upper),
                                       lower=_readonly(np.zeros_like(upper)),
                                       gaps=_readonly(np.max(upper, axis=1)))
        return Extinction(final_supnorm=float(trace.gaps[-1]), periods=periods,
                          evidence="below_threshold", lambda1=lam1, trace=trace)

    eps = _lower_start_scale(p, pair, resid, lam1)
    # column 0 is the upper sequence and column 1 the lower one; both
    # advance through each period as one block
    block = np.column_stack([np.full(op.n, top), eps * phi])
    iterates = [block]
    gaps = [float(np.max(np.abs(block[:, 0] - block[:, 1])))]
    converged = False
    for k in range(1, max_periods + 1):
        block = _one_period(block, p, op, ctl)
        iterates.append(block)
        gaps.append(float(np.max(np.abs(block[:, 0] - block[:, 1]))))
        if gaps[-1] <= tol:
            converged = True
            break
    trace = MonotoneIterationTrace(upper=_readonly(np.array([b[:, 0] for b in iterates])),
                                   lower=_readonly(np.array([b[:, 1] for b in iterates])),
                                   gaps=_readonly(np.array(gaps)))
    if not converged:
        raise IterationBudgetError(
            f"gap {gaps[-1]:.3e} still above {tol:g} after {max_periods} periods"
            + (" (lambda1 near zero, convergence is slow)"
               if abs(lam1) < NEAR_THRESHOLD else ""),
            gap=gaps[-1], periods=max_periods,
            slow_near_threshold=abs(lam1) < NEAR_THRESHOLD)

    ustar0 = block[:, 0].copy()
    if not np.all(ustar0 > 0):
        raise SolverError("periodic iterate lost strict positivity")
    orbit = evolve(StateVector(ustar0), p, op, ctl, p.omega)
    residual = float(np.max(np.abs(orbit.values[-1] - ustar0)))
    if residual > tol * max(1.0, float(np.max(ustar0))):
        raise SolverError(f"period-map residual {residual:g} exceeds tolerance {tol:g}")
    return PeriodicSolution(times=orbit.times, values=orbit.values,
                            residual=residual, lambda1=lam1, trace=trace,
                            params=p, grid=op.grid)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DynamicsClassification:
    """Long-run verdict with the numbers behind it.

    Dirichlet regimes follow the growth margin g = (1-rho) a - rho delta:
    g > (1-rho) d persists on every habitat, g <= 0 goes extinct on every
    habitat, and in between a finite critical length separates the two.
    Neumann dynamics reduce to the scalar model: the sign of
    delta rho - a (1-rho) decides. When a habitat is supplied, lambda1 is
    its threshold eigenvalue and persistence on it means lambda1 < 0.
    """

    regime: Regime
    growth_margin: float
    lambda1: Optional[float] = None
    sigma1: Optional[float] = None
    ell_star: Optional[float] = None


def classify(p: SeasonParams, kernel: KernelSpec, bc: BoundaryCondition,
             domain: Optional[Grid] = None) -> DynamicsClassification:
    """Classify the long-run dynamics; see DynamicsClassification."""
    margin = p.growth_margin
    if bc is BoundaryCondition.NEUMANN:
        lam1 = p.lambda1(-p.a)
        regime = Regime.PERSIST if lam1 < 0 else Regime.EXTINCT
        return DynamicsClassification(regime=regime, growth_margin=margin,
                                      lambda1=lam1)

    sigma1 = lam1 = None
    if domain is not None:
        op = assemble(kernel, domain, BoundaryCondition.DIRICHLET, p.d)
        report = threshold(p, op)
        sigma1, lam1 = report.sigma1, report.lambda1

    regime = _dirichlet_regime(p)
    ell_star = None
    if regime is Regime.CRITICAL_LENGTH:
        ell_star = critical_length(p, kernel).ell_star
    return DynamicsClassification(regime=regime, growth_margin=margin,
                                  lambda1=lam1, sigma1=sigma1, ell_star=ell_star)


# ---------------------------------------------------------------------------
# asymptotic profile study
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProfileEntry:
    """Core deviation of one habitat's attractor from the scalar orbit."""

    length: float
    deviation: float
    lambda1: float


def asymptotic_profile_study(p: SeasonParams, kernel: KernelSpec,
                             lengths: Sequence[float], *,
                             nodes_per_scale: int = 16,
                             steps_per_season: int = 400,
                             tol: float = 1e-8,
                             max_periods: int = 5000) -> list[ProfileEntry]:
    """Deviation of the habitat attractor from the scalar periodic orbit.

    For each centered habitat length L the periodic attractor is computed
    and compared to z*(t) on the core |x| <= L/4, maximized over the
    attractor's sample instants. Growing habitats must not increase the
    deviation (10 percent slack), or SolverError is raised.
    """
    if p.growth_margin <= 0:
        raise ValidationError("profile study requires growth_margin > 0")
    lengths = [float(L) for L in lengths]
    if len(lengths) < 1 or any(L <= 0 for L in lengths):
        raise ValidationError("lengths must be positive")
    if any(b <= a for a, b in zip(lengths, lengths[1:])):
        raise ValidationError("lengths must be strictly increasing")
    zsol = ode_periodic_solution(p)
    assert zsol is not None  # margin > 0 checked above

    entries = []
    for L in lengths:
        n = max(256, math.ceil(nodes_per_scale * L / kernel.scale))
        grid = Grid.centered(L, n)
        op = assemble(kernel, grid, BoundaryCondition.DIRICHLET, p.d)
        pair = principal_eigenpair(op, p.a)
        ctl = StepControl.for_params(p, steps_per_season,
                                     stride=max(1, steps_per_season // 20))
        sol = find_periodic_solution(p, op, pair, ctl, tol=tol,
                                     max_periods=max_periods)
        if isinstance(sol, Extinction):
            raise SolverError(
                f"habitat of length {L:g} has lambda1 = {sol.lambda1:g} >= 0; "
                "profile study needs persistent habitats")
        core = np.abs(grid.nodes) <= L / 4.0
        zs = zsol.sample(sol.times)
        deviation = float(np.max(np.abs(sol.values[:, core] - zs[:, None])))
        entries.append(ProfileEntry(length=L, deviation=deviation,
                                    lambda1=sol.lambda1))

    for prev, cur in zip(entries, entries[1:]):
        if cur.deviation > 1.10 * prev.deviation:
            raise SolverError(
                f"core deviation grew from {prev.deviation:g} (L={prev.length:g}) "
                f"to {cur.deviation:g} (L={cur.length:g})")
    return entries
