"""Season-split time integration of the seasonal dispersal-logistic model.

Bad seasons are integrated exactly (scalar exponential decay, no time
stepping); good seasons use classical fixed-step RK4 on the semi-discrete
system du_i/dt = (L u)_i + u_i (a - b u_i). Step counts are chosen per
season so every season boundary i*omega and (i+rho)*omega is landed on
exactly, never interpolated. Season boundary instants are always computed
as i*omega and (i+rho)*omega so trajectories and tests agree bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import PositivityError, SolverError, ValidationError
from .model import BoundaryCondition, Grid, SeasonParams, StateVector, _readonly
from .operator import DispersalOperator

#: entries in (-_TOL_POS, 0) are clamped to zero; anything below is an error
_TOL_POS = 1e-12


@dataclass(frozen=True)
class StepControl:
    """Time-step and sampling policy for the good-season RK4 integrator.

    ``dt_good`` is nominal: each integrated span uses the nearest integer
    step count, so the step divides the span exactly. Samples are recorded
    every ``stride`` RK steps (and at every season boundary).
    """

    dt_good: float
    stride: int = 50

    def __post_init__(self):
        if not (math.isfinite(self.dt_good) and self.dt_good > 0):
            raise ValidationError(f"dt_good must be positive, got {self.dt_good!r}")
        if not (isinstance(self.stride, (int, np.integer)) and self.stride >= 1):
            raise ValidationError(f"stride must be a positive integer, got {self.stride!r}")

    @classmethod
    def for_params(cls, p: SeasonParams, steps_per_season: int = 2000,
                   stride: int = 50) -> "StepControl":
        """Control with ``steps_per_season`` RK4 steps per good season."""
        return cls(dt_good=p.good_season_length / steps_per_season, stride=stride)

    def steps_for(self, span: float) -> int:
        return max(1, round(span / self.dt_good))


@dataclass(frozen=True)
class Trajectory:
    """Time-sampled solution: one row of ``values`` per instant in ``times``."""

    times: np.ndarray
    values: np.ndarray
    params: SeasonParams
    grid: Grid
    bc: BoundaryCondition

    def __len__(self) -> int:
        return self.times.size

    def state(self, i: int) -> StateVector:
        return StateVector(self.values[i], time=float(self.times[i]))

    @property
    def final(self) -> StateVector:
        return self.state(len(self) - 1)


def _rk4_span(u: np.ndarray, op: DispersalOperator, p: SeasonParams,
              span: float, steps: int, tol_pos: float,
              record_every: int = 0) -> tuple[np.ndarray, list[tuple[int, np.ndarray]]]:
    """March ``steps`` RK4 steps over ``span``; optionally record intermediates.

    ``u`` is one state of shape (n,) or a block of states of shape (n, m),
    one per column; the block advances as m independent states. The input
    is not modified. The right-hand side A x - b x^2, with the linear part
    A = d K + diag(a - d loss) built once per call, fills four preallocated
    stage buffers that are combined in one product. Undershoots in
    (-tol_pos, 0) are clamped to +0.0 after each full step; anything lower
    aborts with a halved-step suggestion. Recorded samples are copies.
    """
    u = np.array(u, dtype=float)
    n = op.n
    if u.ndim not in (1, 2) or u.shape[0] != n:
        raise ValidationError(
            f"state has shape {u.shape}, operator expects ({n},) or ({n}, m)")
    dt = span / steps
    A = op.d * op.K
    A.flat[::n + 1] += p.a - op.d * op.loss
    b = p.b
    coef = dt * np.array([1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0])
    S = np.empty((4,) + u.shape)
    stage = list(S)
    # stage i + 1 is evaluated at u + offset[i] * stage[i]
    offset = (0.5 * dt, 0.5 * dt, dt)
    x = np.empty_like(u)
    sq = np.empty_like(u)
    incr = np.empty_like(u)
    S_flat, incr_flat = S.reshape(4, -1), incr.reshape(-1)
    recorded = []
    for k in range(1, steps + 1):
        xi = u
        for i in range(4):
            np.matmul(A, xi, out=stage[i])
            np.multiply(xi, xi, out=sq)
            sq *= b
            stage[i] -= sq
            if i < 3:
                np.multiply(stage[i], offset[i], out=x)
                x += u
                xi = x
        np.matmul(coef, S_flat, out=incr_flat)
        u += incr
        if u.min() < 0.0:
            flat = int(np.argmin(u))
            low = float(u.flat[flat])
            if low < -tol_pos:
                node = flat // (u.size // n)
                raise PositivityError(
                    f"node {node} reached {low:.3e} < -{tol_pos:g}; "
                    f"retry with dt <= {dt / 2:g}",
                    node=node, value=low, suggested_dt=dt / 2)
            u[u < 0.0] = 0.0
        if record_every and k < steps and k % record_every == 0:
            recorded.append((k, u.copy()))
    return u, recorded


def evolve(u0: StateVector, p: SeasonParams, op: DispersalOperator,
           ctl: StepControl, t_end: float) -> Trajectory:
    """Integrate from t = 0 to ``t_end``, alternating exact bad-season decay
    with good-season RK4 and landing exactly on every season boundary.

    The solution from nonnegative data stays nonnegative (clamp policy of
    the stepper) and bounded by max(a/b, sup u0); the bound is enforced with
    a 1e-6 relative allowance at every recorded good-season sample and
    season end. Bad-season samples decay from a state already checked.
    """
    if not (math.isfinite(t_end) and t_end > 0):
        raise ValidationError(f"t_end must be positive, got {t_end!r}")
    if np.any(u0.values < 0):
        raise ValidationError("evolve requires nonnegative initial data")
    if u0.values.size != op.n:
        raise ValidationError(
            f"initial state has {u0.values.size} nodes, operator expects {op.n}")
    om = p.omega
    bound = max(p.a / p.b, float(np.max(u0.values, initial=0.0))) * (1.0 + 1e-6)
    sample_dt = ctl.dt_good * ctl.stride

    times = [0.0]
    states = [u0.values.copy()]

    def check(v, t):
        m = float(np.max(v, initial=0.0))
        if m > bound:
            raise SolverError(
                f"a-priori bound violated at t={t:g}: sup u = {m:g} > {bound:g}")

    u = u0.values.copy()
    i = 0
    t = 0.0
    while t < t_end:
        bad_end = min((i + p.rho) * om, t_end)
        if t < bad_end:
            # interior samples of the exact decay at the nominal sampling period
            # (by index, so that long runs do not drift)
            j = 1
            while (s := t + j * sample_dt) < bad_end * (1.0 - 1e-15):
                times.append(s)
                states.append(math.exp(-p.delta * (s - t)) * u)
                j += 1
            u = math.exp(-p.delta * (bad_end - t)) * u
            times.append(bad_end)
            states.append(u.copy())
            check(u, bad_end)
            t = bad_end
        if t >= t_end:
            break
        good_end = min((i + 1) * om, t_end)
        if t < good_end:
            span = good_end - t
            steps = ctl.steps_for(span)
            dt = span / steps
            u, recorded = _rk4_span(u, op, p, span, steps, _TOL_POS,
                                    record_every=ctl.stride)
            for k, v in recorded:
                times.append(t + k * dt)
                states.append(v)
                check(v, t + k * dt)
            times.append(good_end)
            states.append(u.copy())
            check(u, good_end)
            t = good_end
        i += 1

    return Trajectory(times=_readonly(np.array(times)),
                      values=_readonly(np.array(states)),
                      params=p, grid=op.grid, bc=op.bc)


def _one_period(u: np.ndarray, p: SeasonParams, op: DispersalOperator,
                ctl: StepControl) -> np.ndarray:
    """Exact bad-season decay, then the good season: one state (n,) or a
    block of states (n, m) advanced over one period.

    The season lengths are computed from the boundary instants, as evolve
    computes them, so the two agree bit for bit.
    """
    bad = p.rho * p.omega
    u = math.exp(-p.delta * bad) * u
    span = p.omega - bad
    return _rk4_span(u, op, p, span, ctl.steps_for(span), _TOL_POS)[0]


def period_map(u0: StateVector, p: SeasonParams, op: DispersalOperator,
               ctl: StepControl) -> StateVector:
    """Solution operator over exactly one period: u0 at time t maps to t + omega."""
    if np.any(u0.values < 0):
        raise ValidationError("period_map requires nonnegative initial data")
    return StateVector(_one_period(u0.values, p, op, ctl), time=u0.time + p.omega)
