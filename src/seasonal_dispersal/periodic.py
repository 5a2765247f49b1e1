"""Periodic attractors, regime classification, and the ODE reference model.

The solve takes the principal eigenpair of its own habitat operator first.
When the threshold eigenvalue is negative, the omega-periodic attractor of the
habitat problem is the unique positive fixed point of the period map. One
loop, one period map per pass, finds and certifies it: an Anderson-accelerated
fixed-point iteration (Walker & Ni, SIAM J. Numer. Anal. 49, 2011)
approximates it from the closed-form orbit of its projection on the principal
eigenfunction, on a coarse-step period map first, and one period of an ordered
pair around the approximation, stepped beside it and sampled, certifies it at
the given step, by comparison: the period map preserves order. Every state
this stepping touches is mirror-symmetric about the habitat's midpoint, so it
steps only the leading half of the nodes, with the folded linear part, as
``evolve``, ``period_map`` and ``fit_step`` do with every exactly even start:
the fold is the operator's one rule, not special to this solve. Each period
map is a run of ``evolution._samples``, the one stepping path, with its
bound checks. When the threshold eigenvalue is not negative, a decaying
multiple of the principal eigenfunction is a super-solution, which certifies
extinction in closed form.

The spatially homogeneous reference is the scalar seasonal logistic ODE,
whose periodic orbit has a closed form; it is also the profile limit of the
habitat attractor as the habitat grows.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np

from .errors import IterationBudgetError, SolverError, ValidationError
# perfbench/tracing.py wraps periodic.principal_eigenpair and
# periodic.critical_length, which this module looks up at call time, and
# periodic.evolve and periodic.period_map, which nothing here calls: they
# are imported only to be wrapped
from .evolution import (StepControl, _checked_linear_part, _collect, _period_end,
                        _samples, _step_doubling, evolve, period_map)
from .model import BoundaryCondition, Grid, KernelSpec, SeasonParams, StateVector, _readonly
from .operator import DispersalOperator, _unfold, assemble
from .spectral import (EigenPair, Regime, _certified_sign, critical_length,
                       principal_eigenpair)

#: a certified sup-norm bound below this certifies extinction
EXTINCTION_THRESHOLD = 1e-10

#: the constant upper start, shared by both branches, is a/b + UPPER_OFFSET
UPPER_OFFSET = 1.0

#: find_periodic_solution certifies a pair this far apart, and accepts a
#: period-map residual of this times max(1, sup u~)
PERIODIC_TOL = 1e-8

#: find_periodic_solution's budget of period maps
MAX_PERIODS = 5000

#: history depth of the Anderson-accelerated fixed-point iteration
ANDERSON_DEPTH = 3

#: a pair is stepped once |P(u) - u| is below this fraction of (1 - q) eps,
#: the room the one-period sandwich leaves at contraction q
ANDERSON_MARGIN = 0.1

#: asymptotic_profile_study's grid nodes per kernel scale (256 at least) and
#: RK4 steps per good season on each habitat
PROFILE_NODES_PER_SCALE = 16
PROFILE_STEPS_PER_SEASON = 400


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
# certified periodic attractor, or certified extinction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonotoneIterationTrace:
    """Snapshots (at t = 0) of an ordered (upper, lower) pair and its bound.

    ``gaps[k]`` is the sup-norm distance between the two rows k. For a
    PeriodicSolution there are two rows: the certified pair
    u~ +- eps phi1 and its image under the period map, the upper row
    non-increasing, the lower non-decreasing and below the upper one, all
    with zero slack, as find_periodic_solution enforces. For an Extinction
    there are two rows: the upper start and the super-solution bound at the
    certified period, with zero lower rows.
    """

    upper: np.ndarray
    lower: np.ndarray
    gaps: np.ndarray

    def __len__(self) -> int:
        return self.gaps.size


@dataclass(frozen=True)
class PeriodicSolution:
    """Positive periodic attractor sampled over one period.

    ``values[k]`` is the state at ``times[k]``: the orbit of the centre u~ of
    the certified pair, which lies between the pair's images. ``residual`` is
    its sup-norm period-map defect |values[-1] - values[0]|, at most
    PERIODIC_TOL times max(1, sup u~). ``pair`` is the principal eigenpair of
    the stepped operator, whose threshold eigenvalue is ``lambda1``. Through
    the bad season the samples factor exactly as values(t) = e^{-delta t}
    values(0). ``periods`` counts the column-periods find_periodic_solution
    stepped at the control it was given: one per state carried through one
    period, the certified pair's two included. ``coarse_periods`` counts those
    it stepped before, at ``coarse_steps`` RK4 steps per good season (None: no
    coarse phase). The solve steps the even part, the leading ceil(n/2) nodes;
    ``values`` and the trace rows are unfolded from it, n nodes each and
    exactly mirror-symmetric.
    """

    times: np.ndarray
    values: np.ndarray
    residual: float
    lambda1: float
    pair: EigenPair
    trace: MonotoneIterationTrace
    grid: Grid
    periods: int
    coarse_periods: int = 0
    coarse_steps: Optional[int] = None

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


@dataclass(frozen=True)
class Extinction:
    """Certified decay to zero: every solution from nonnegative data at most
    a/b + UPPER_OFFSET is at most ``final_supnorm`` at t = ``periods`` omega.

    ``final_supnorm`` is the super-solution bound of find_periodic_solution,
    not a simulated sup-norm, and ``periods`` is the first period at which it
    is below EXTINCTION_THRESHOLD, the CLI's ``evidence = below_threshold``.
    ``pair`` is the principal eigenpair of the operator, as for a
    PeriodicSolution.
    """

    final_supnorm: float
    periods: int
    lambda1: float
    pair: EigenPair
    trace: MonotoneIterationTrace


def _extrapolate(history: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Next iterate of u <- P(u) from its pairs (x, P(x)), oldest first.

    Type-II Anderson acceleration of depth ANDERSON_DEPTH (Walker & Ni
    2011) over the last ANDERSON_DEPTH + 1 pairs: the least-squares
    combination of their residual differences, applied to their image
    differences. One pair, or an extrapolated iterate with an entry <= 0,
    gives the last P(x).
    """
    xs, gs = (np.hstack(columns) for columns in zip(*history[-ANDERSON_DEPTH - 1:]))
    fs, g = gs - xs, gs[:, -1:]
    if fs.shape[1] == 1:
        return g
    gamma = np.linalg.lstsq(np.diff(fs), fs[:, -1:], rcond=None)[0]
    x = g - np.diff(gs) @ gamma
    return g if np.min(x) <= 0.0 else x


def find_periodic_solution(p: SeasonParams, op: DispersalOperator, ctl: StepControl
                           ) -> Union[PeriodicSolution, Extinction]:
    """Periodic attractor on a Dirichlet habitat, or a certificate of extinction.

    The principal eigenpair (sigma1, phi1) = principal_eigenpair(op, a) of the
    operator that is stepped comes first (it refuses a Neumann operator), and
    it must certify the sign of lambda1 = lambda1(sigma1) on its enclosure
    (sigma_lo, sigma_hi), the sigma1_bounds of phi1 (_certified_sign), or
    SolverError names the cause, an enclosure straddling zero or a lambda1
    outside it, before any period is stepped; the result carries the pair.
    The model is cooperative and sigma_lo phi1 <= -(L phi1 + a phi1) <=
    sigma_hi phi1, so m(t) phi1, with m' = -delta m in the bad season and
    m' = -sigma m in the good one, is a super-solution for sigma = sigma_lo
    and, scaled small, a lower solution for any sigma > sigma_hi; over a
    period m changes by the factor exp(-lambda1(sigma) omega).

    With lambda1 < 0, one loop makes every period map, one per pass: Anderson
    iteration of u <- P(u) on one column from z0 phi1, each next iterate
    extrapolated from the last ANDERSON_DEPTH + 1 pairs (x, P(x)), gives u~
    with |P(u~) - u~| well below (1 - q) eps, eps = PERIODIC_TOL / 2 and q the
    measured contraction, the sup-norm ratio of the last P(x) and x steps. u*
    branches off zero along phi1 (Crandall & Rabinowitz, J. Funct. Anal. 8,
    1971), and z0 is the closed form of ode_periodic_solution for the
    projection u = s phi1: the scalar model with a = -sigma1 and b c,
    c = sum phi1^3 / sum phi1^2, whose growth margin is -lambda1 > 0. The
    iteration runs first on the coarse-step period map P_N, until |P_N(x) - x|
    is that small: N is the coarsest 2^k with 4 N at most ``ctl``'s steps per good
    season whose step-doubling estimate |P_N(top) - P_2N(top)| 16/15 (that of
    fit_step), with top = a/b + UPPER_OFFSET, is at most eps; with none, there
    is no coarse phase. The loop then drops its pairs and goes on from that
    iterate and q at ``ctl``'s step. The coarse phase only chooses the start:
    every check below is made at ``ctl``'s step. Once a residual (the coarse
    phase's last one included) is that small, the next map at ``ctl``'s step
    carries the pair: with v = eps phi1, it steps the iterate u~
    and u~ +- v as one (m, 3) block (m below), sampled along the period, when
    u~ - v > 0. The pair certifies u~ if P(u~ + v) <= u~ + v,
    P(u~ - v) >= u~ - v and P(u~ - v) <= P(u~ + v) hold everywhere with zero
    slack and the image gap is at most PERIODIC_TOL. Since P preserves order,
    the unique positive fixed point u* = P(u*) lies between the two images. A
    pair that does not certify rides again with a later iterate; a lower image
    above the upper one means P did not preserve order, and SolverError is
    raised. The attractor is the sampled orbit of u~ from that same run, and
    its period-map residual |P(u~) - u~| is checked against PERIODIC_TOL.

    Every state this branch steps is even, u_i = u_{n-1-i}: top, z0 phi1 and
    the pair, built from phi1's leading half (c and the enclosure use all of
    phi1). P maps even states to even states, so the branch steps them on
    their leading m = ceil(n/2) nodes, with the linear part that
    _checked_linear_part gives top, before the eigen-solve. P above is that
    folded discrete map, and the certificate is its own; only the results
    are unfolded to n nodes. A sample above the a-priori bound
    max(a/b, sup of the block) fails a step-choice candidate, as an
    undershoot does, and raises SolverError in any other map.

    With lambda1 > 0 no period is stepped: with M = top / min phi1 and
    lam = lambda1(sigma_lo), sup u(k omega) <= M exp(-lam k omega), and the
    Extinction reports the first k at which it is strictly below EXTINCTION_THRESHOLD.

    MAX_PERIODS bounds the period maps of the persistence branch, the runs
    that choose N and the coarse ones included, a map carrying the pair
    counting once. IterationBudgetError is raised, with the last fixed-point
    residual (inf if none was stepped), if no pair has certified after
    MAX_PERIODS periods; 0 is an empty budget.
    """
    top = p.a / p.b + UPPER_OFFSET
    A = _checked_linear_part(StateVector(np.full(op.n, top)), p, op)
    pair = principal_eigenpair(op, p.a)
    phi = pair.phi1
    lam1, sign, cause = _certified_sign(p, pair)
    if sign == 0:
        raise SolverError(f"{cause}, so no multiple of phi1 is a certified "
                          + ("decaying super-solution" if lam1 >= 0.0 else "lower solution"))

    if sign > 0:
        lam_lo = p.lambda1(pair.enclosure[0])
        M = top / float(np.min(phi))
        # floor + 1, not ceil: the bound is strictly below the threshold even
        # when the log ratio is an integer
        periods = math.floor(math.log(M / EXTINCTION_THRESHOLD) / (lam_lo * p.omega)) + 1
        upper = np.array([np.full(op.n, top),
                          M * math.exp(-lam_lo * p.omega * periods) * phi])
        trace = MonotoneIterationTrace(upper=_readonly(upper),
                                       lower=_readonly(np.zeros_like(upper)),
                                       gaps=_readonly(np.max(upper, axis=1)))
        return Extinction(final_supnorm=float(trace.gaps[-1]), periods=periods,
                          lambda1=lam1, pair=pair, trace=trace)

    # used counts every period map against MAX_PERIODS, a map carrying the
    # pair once; the coarse step N is the first 2^k whose estimate is at
    # most eps, and the first estimate steps two periods
    eps = 0.5 * PERIODIC_TOL
    phi_e = phi[:len(A), None]
    v = eps * phi_e
    x = np.full((len(A), 1), top)
    used, coarse = 0, None
    choice = (_step_doubling(x, p, A, 1, ctl.steps_for(p.good_season_length) // 4)
              if MAX_PERIODS >= 2 else ())
    for used, (steps, est) in enumerate(choice, 2):
        if est is not None and est <= eps:
            coarse = steps
            break
        if used == MAX_PERIODS:
            break
    # Anderson starts from the orbit z0 phi1 of the one-mode projection; its
    # history holds the pairs (x, P(x)) of the current level, oldest first
    c = float(np.sum(phi**3) / np.sum(phi**2))
    z0 = ode_periodic_solution(replace(p, a=-pair.sigma1, b=p.b * c)).z0
    x = z0 * phi_e
    level = ctl if coarse is None else StepControl.for_params(p, coarse)
    history, q, residual, passed, rows = [], 1.0, math.inf, False, None
    periods = coarse_periods = 0
    while rows is None and used < MAX_PERIODS:
        if history:
            x = _extrapolate(history)
        # at ctl's step, the map after a residual within the margin carries
        # the pair x +- v as columns 1 and 2 of one sampled (m, 3) run
        carry = level is ctl and passed and np.min(x - v) > 0.0
        if carry:
            run = _collect(_samples(np.hstack([x, x + v, x - v]), p, A, ctl, p.omega))
            image = run[1][-1][:, :1]
        else:
            image = _period_end(x, p, A, level)
        used += 1
        if level is ctl:
            periods += 3 if carry else 1
        else:
            coarse_periods += 1
        if history:
            x_last, image_last = history[-1]
            step = float(np.max(np.abs(x - x_last)))
            q = float(np.max(np.abs(image - image_last))) / step if step > 0.0 else 1.0
        residual = float(np.max(np.abs(image - x)))
        passed = residual <= ANDERSON_MARGIN * (1.0 - q) * eps
        if carry:
            ends = run[1][[0, -1], :, 1:]
            block, stepped = ends
            crossed = float(np.max(stepped[:, 1] - stepped[:, 0]))
            if crossed > 0.0:
                raise SolverError(f"upper/lower ordering broken by {crossed:.3e}: "
                                  "the period map did not preserve order")
            if (np.all(stepped[:, 0] <= block[:, 0])
                    and np.all(stepped[:, 1] >= block[:, 1])
                    and np.max(stepped[:, 0] - stepped[:, 1]) <= PERIODIC_TOL):
                rows = ends
        if passed and level is not ctl:
            # the coarse phase ends: its iterate and q start ctl's level
            level, history = ctl, []
        else:
            history = [*history[-ANDERSON_DEPTH:], (x, image)]
    if rows is None:
        raise IterationBudgetError(
            f"no pair {PERIODIC_TOL:g} apart certified after {MAX_PERIODS} periods; "
            f"last fixed-point residual {residual:.3e}",
            gap=residual, periods=MAX_PERIODS)
    upper, lower = (_unfold(rows[:, :, k], op.n) for k in (0, 1))
    trace = MonotoneIterationTrace(upper=_readonly(upper), lower=_readonly(lower),
                                   gaps=_readonly(np.max(upper - lower, axis=1)))
    times, values = run[0], _unfold(run[1][:, :, 0], op.n)
    if residual > PERIODIC_TOL * max(1.0, float(np.max(values[0]))):
        raise SolverError(
            f"period-map residual {residual:g} exceeds tolerance {PERIODIC_TOL:g}")
    return PeriodicSolution(times=_readonly(times), values=_readonly(values),
                            residual=residual, lambda1=lam1, pair=pair, trace=trace,
                            grid=op.grid, periods=periods,
                            coarse_periods=coarse_periods, coarse_steps=coarse)


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


def _profile_lengths(lengths: Sequence[float]) -> tuple[float, ...]:
    """``lengths`` as floats, or ValidationError unless they are finite, positive
    and strictly increasing (each below the next, the last below inf)."""
    lengths = tuple(map(float, lengths))
    if not lengths or not all(0 < a < b for a, b in zip(lengths, lengths[1:] + (math.inf,))):
        raise ValidationError("profile lengths must be finite, positive and strictly increasing")
    return lengths


def asymptotic_profile_study(p: SeasonParams, kernel: KernelSpec,
                             lengths: Sequence[float]) -> list[ProfileEntry]:
    """Deviation of the habitat attractor from the scalar periodic orbit.

    For each centered habitat length L the periodic attractor is computed, on
    max(256, PROFILE_NODES_PER_SCALE L / kernel.scale) nodes (rounded up) at
    PROFILE_STEPS_PER_SEASON RK4 steps per good season, and compared to z*(t)
    on the core |x| <= L/4, maximized over the attractor's sample instants.
    Growing habitats must not increase the deviation (10 percent slack), or
    SolverError is raised.
    """
    if p.growth_margin <= 0:
        raise ValidationError("profile study requires growth_margin > 0")
    lengths = _profile_lengths(lengths)
    zsol = ode_periodic_solution(p)
    assert zsol is not None  # margin > 0 checked above

    entries = []
    for L in lengths:
        n = max(256, math.ceil(PROFILE_NODES_PER_SCALE * L / kernel.scale))
        grid = Grid.centered(L, n)
        op = assemble(kernel, grid, BoundaryCondition.DIRICHLET, p.d)
        ctl = StepControl.for_params(p, PROFILE_STEPS_PER_SEASON,
                                     stride=max(1, PROFILE_STEPS_PER_SEASON // 20))
        sol = find_periodic_solution(p, op, ctl)
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
