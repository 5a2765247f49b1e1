"""Periodic attractors, regime classification, and the ODE reference model.

When the threshold eigenvalue is negative, the omega-periodic attractor of
the habitat problem is the unique positive fixed point of the period map. An
Anderson-accelerated fixed-point iteration (Walker & Ni, SIAM J. Numer. Anal.
49, 2011) approximates it, and one period of an ordered pair around the
approximation certifies it; should that fail, monotone upper/lower iteration
from a large constant above a/b and a small multiple of the positive periodic
eigenfunction sandwiches it instead. Both rest on comparison: the period map
preserves order. When the threshold eigenvalue is not negative, a decaying
multiple of the principal eigenfunction is a super-solution, which certifies
extinction in closed form.

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
from .spectral import EigenPair, Regime, critical_length, principal_eigenpair

#: below this distance from zero the threshold eigenvalue gives degenerate
#: convergence rates; budget exhaustion is then flagged as slow, not failed
NEAR_THRESHOLD = 1e-3

#: a certified sup-norm bound below this certifies extinction
EXTINCTION_THRESHOLD = 1e-10

#: rounding slack of the monotone ordering checked after every period of the
#: classic-start iteration; the one-period sandwich of the accelerated start
#: gets none
ORDER_SLACK = 1e-10

#: history depth of the Anderson-accelerated fixed-point iteration
ANDERSON_DEPTH = 3

#: the accelerated iteration stops once |P(u) - u| is below this fraction of
#: (1 - q) eps, the room the one-period sandwich leaves at contraction q
ANDERSON_MARGIN = 0.1


# ---------------------------------------------------------------------------
# scalar seasonal ODE reference
# ---------------------------------------------------------------------------

def logistic_flow(z: float, a: float, b: float, tau: float) -> float:
    """Advance z' = z (a - b z) by time tau, in closed form.

    Written with e^{-a tau}, which cannot overflow however large a tau is.
    """
    if tau == 0.0 or z == 0.0:
        return z
    return a * z / (a * math.exp(-a * tau) - b * z * math.expm1(-a * tau))


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

    Imposing z(omega) = z(0) on the exact flow gives
    z0 = (a/b) (1 - e^{-g omega}) / (1 - e^{-a (1-rho) omega}), with g the
    growth margin (1-rho) a - rho delta; written in decaying exponentials,
    it cannot overflow. A positive orbit exists exactly when g > 0;
    otherwise every orbit decays to zero and None is returned.
    """
    g = p.growth_margin
    if g <= 0:
        return None
    z0 = p.a * math.expm1(-g * p.omega) / (p.b * math.expm1(-p.a * p.good_season_length))
    return OdePeriodicSolution(z0=z0, params=p)


# ---------------------------------------------------------------------------
# monotone iteration toward the habitat attractor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonotoneIterationTrace:
    """Snapshots (at t = 0) of the upper/lower iterate sequences.

    Row k holds iterate k; ``gaps[k]`` is the sup-norm distance between the
    two rows. The upper rows are componentwise non-increasing in k, the
    lower rows non-decreasing and below the upper ones, so the gaps are
    non-increasing. For a certified accelerated start there are two rows,
    the pair (u~ + eps, u~ - eps) and its image, ordered with zero slack;
    after the classic start, one row per period, ordered to ORDER_SLACK.
    find_periodic_solution enforces both. For an Extinction there are two
    rows: the upper start and the super-solution bound at the certified
    period, with zero lower rows.
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
    factor exactly as values(t) = e^{-delta t} values(0). ``periods`` counts
    the column-periods find_periodic_solution stepped: one per state carried
    through one period, the certificate's two included.
    """

    times: np.ndarray
    values: np.ndarray
    residual: float
    lambda1: float
    trace: MonotoneIterationTrace
    params: SeasonParams
    grid: Grid
    periods: int

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


def _anderson(x: np.ndarray, p: SeasonParams, op: DispersalOperator,
              ctl: StepControl, eps: float, max_periods: int
              ) -> tuple[np.ndarray, float, int, bool]:
    """Anderson-accelerated iteration of u <- P(u) on one (n, 1) column.

    Type-II Anderson acceleration of depth ANDERSON_DEPTH (Walker & Ni
    2011); an extrapolated iterate with an entry <= 0 is replaced by P(x).
    The contraction q is the sup-norm ratio of the last P(x) and x steps.
    Stops when |P(x) - x| <= ANDERSON_MARGIN (1 - q) eps (reached), or
    unreached after ``max_periods`` periods or 2 ANDERSON_DEPTH iterations
    without a new smallest residual. Returns the last iterate, its
    residual, the periods stepped and whether it reached.
    """
    g = _one_period(x, p, op, ctl)
    f = g - x
    dF: list[np.ndarray] = []
    dG: list[np.ndarray] = []
    q = 1.0
    best, stalled = math.inf, 0
    periods = 1
    while True:
        residual = float(np.max(np.abs(f)))
        if residual <= ANDERSON_MARGIN * (1.0 - q) * eps:
            return x, residual, periods, True
        best, stalled = (residual, 0) if residual < best else (best, stalled + 1)
        if periods >= max_periods or stalled > 2 * ANDERSON_DEPTH:
            return x, residual, periods, False
        x_new = g
        if dF:
            gamma = np.linalg.lstsq(np.hstack(dF), f, rcond=None)[0]
            x_new = g - np.hstack(dG) @ gamma
            if np.min(x_new) <= 0.0:
                x_new = g
        g_new = _one_period(x_new, p, op, ctl)
        periods += 1
        f_new = g_new - x_new
        step = float(np.max(np.abs(x_new - x)))
        q = float(np.max(np.abs(g_new - g))) / step if step > 0.0 else 1.0
        dF = (dF + [f_new - f])[-ANDERSON_DEPTH:]
        dG = (dG + [g_new - g])[-ANDERSON_DEPTH:]
        x, g, f = x_new, g_new, f_new


def _march(block: np.ndarray, p: SeasonParams, op: DispersalOperator,
           ctl: StepControl, tol: float, max_periods: int, slack: float
           ) -> tuple[list[np.ndarray], list[float], float]:
    """Monotone iteration of the (upper, lower) column block.

    Steps at most ``max_periods`` periods and stops once the gap
    max|upper - lower| is at most ``tol``, or at the first period whose
    ordering breach exceeds ``slack``: the upper column rose, the lower one
    fell, or the lower one rose above the upper. Returns the iterates, their
    gaps and the last period's breach (-inf if no period was stepped).
    """
    iterates = [block]
    gaps = [float(np.max(np.abs(block[:, 0] - block[:, 1])))]
    breach = -math.inf
    for _ in range(max_periods):
        prev, block = block, _one_period(block, p, op, ctl)
        breach = max(float(np.max(block[:, 0] - prev[:, 0])),   # upper rose
                     float(np.max(prev[:, 1] - block[:, 1])),   # lower fell
                     float(np.max(block[:, 1] - block[:, 0])))  # lower above upper
        iterates.append(block)
        gaps.append(float(np.max(np.abs(block[:, 0] - block[:, 1]))))
        if breach > slack or gaps[-1] <= tol:
            break
    return iterates, gaps, breach


def find_periodic_solution(p: SeasonParams, op: DispersalOperator, pair: EigenPair,
                           ctl: StepControl, *, tol: float = 1e-8,
                           max_periods: int = 5000,
                           upper_offset: float = 1.0
                           ) -> Union[PeriodicSolution, Extinction]:
    """Periodic attractor on a Dirichlet habitat, or a certificate of extinction.

    With lambda1 < 0, the unique positive fixed point u* of the period map P
    is sandwiched by an ordered (upper, lower) pair whose gap is at most
    ``tol``, from the first of two starts that certifies:

    * accelerated: Anderson iteration of u <- P(u) on one column from the
      constant top = a/b + ``upper_offset`` gives u~ with |P(u~) - u~| well
      below (1 - q) eps, eps = tol/2 and q the measured contraction. One
      period of the pair (u~ + eps, u~ - eps) then certifies it if
      P(u~ + eps) <= u~ + eps, P(u~ - eps) >= u~ - eps and
      P(u~ - eps) <= P(u~ + eps) hold everywhere with zero slack, u~ - eps
      > 0 and the image gap is at most ``tol``. Since P preserves order,
      u* = P(u*) lies between the two images.
    * classic, if the sandwich fails: monotone upper/lower iteration from top
      and a certified small multiple of the periodic eigenfunction; both
      converge monotonically to u*, accepted once their gap is at most
      ``tol``. SolverError is raised if a period breaks that ordering by more
      than ORDER_SLACK.

    The attractor is sampled along one period from the upper image, and its
    period-map residual is checked against ``tol``.

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

    ``max_periods`` bounds the period maps of the persistence branch, the
    accelerated iterations, the sandwich and the classic iteration together,
    a block of columns counting once. IterationBudgetError is raised, with
    the current gap or fixed-point residual, if no pair has certified after
    ``max_periods`` periods; the error flags |lambda1| < 1e-3, where the
    contraction rate degenerates and slowness is expected.
    """
    if op.bc is not BoundaryCondition.DIRICHLET:
        raise ValidationError("find_periodic_solution expects a Dirichlet operator")
    if op.d != p.d:
        raise ValidationError(
            f"operator dispersal rate {op.d!r} differs from params d={p.d!r}")
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

    def budget_spent(gap: float) -> IterationBudgetError:
        slow = abs(lam1) < NEAR_THRESHOLD
        return IterationBudgetError(
            f"no pair {tol:g} apart certified after {max_periods} periods; "
            f"last gap or fixed-point residual {gap:.3e}"
            + (" (lambda1 near zero, convergence is slow)" if slow else ""),
            gap=gap, periods=max_periods, slow_near_threshold=slow)

    # the classic lower start is certified first, so that a lambda1 of the
    # wrong sign is refused before any period is stepped
    eps = _lower_start_scale(p, pair, resid, lam1)
    # blocks are (n, m): column 0 is the upper sequence and column 1 the
    # lower one, advancing through each period together
    half = 0.5 * tol
    u, defect, stepped, reached = _anderson(np.full((op.n, 1), top), p, op, ctl,
                                            half, max_periods)
    if stepped >= max_periods:
        raise budget_spent(defect)
    columns = stepped
    certified = False
    if reached and np.min(u) > half:
        iterates, gaps, breach = _march(np.hstack([u + half, u - half]), p, op, ctl,
                                        tol, 1, 0.0)
        stepped += 1
        columns += 2
        certified = breach <= 0.0 and gaps[-1] <= tol
    if not certified:
        iterates, gaps, breach = _march(np.column_stack([np.full(op.n, top), eps * phi]),
                                        p, op, ctl, tol, max_periods - stepped,
                                        ORDER_SLACK)
        columns += 2 * (len(gaps) - 1)
        if breach > ORDER_SLACK:
            raise SolverError(f"monotone upper/lower ordering broken by {breach:.3e} "
                              f"at period {len(gaps) - 1}")
        if gaps[-1] > tol:
            raise budget_spent(gaps[-1])
    trace = MonotoneIterationTrace(upper=_readonly(np.array([b[:, 0] for b in iterates])),
                                   lower=_readonly(np.array([b[:, 1] for b in iterates])),
                                   gaps=_readonly(np.array(gaps)))

    ustar0 = iterates[-1][:, 0].copy()
    if not np.all(ustar0 > 0):
        raise SolverError("periodic iterate lost strict positivity")
    orbit = evolve(StateVector(ustar0), p, op, ctl, p.omega)
    residual = float(np.max(np.abs(orbit.values[-1] - ustar0)))
    if residual > tol * max(1.0, float(np.max(ustar0))):
        raise SolverError(f"period-map residual {residual:g} exceeds tolerance {tol:g}")
    return PeriodicSolution(times=orbit.times, values=orbit.values,
                            residual=residual, lambda1=lam1, trace=trace,
                            params=p, grid=op.grid, periods=columns)


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
        sigma1 = principal_eigenpair(op, p.a).sigma1
        lam1 = p.lambda1(sigma1)

    crit = critical_length(p, kernel)
    return DynamicsClassification(regime=crit.verdict, growth_margin=margin,
                                  lambda1=lam1, sigma1=sigma1,
                                  ell_star=crit.ell_star)


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
