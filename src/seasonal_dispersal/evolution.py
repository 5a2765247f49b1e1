"""Season-split time integration of the seasonal dispersal-logistic model.

Bad seasons are integrated exactly (scalar exponential decay, no time
stepping); good seasons use classical fixed-step RK4 on the semi-discrete
system du_i/dt = (L u)_i + u_i (a - b u_i). Step counts are chosen per
season so every season boundary i*omega and (i+rho)*omega is landed on
exactly, never interpolated. Season boundary instants are always computed
as i*omega and (i+rho)*omega so trajectories and tests agree bit for bit.

``evolve`` and the period map step at the control they are given.
``fit_step`` coarsens a control to the step whose RK4 truncation error is
already below rounding, by step doubling over the first good season, with
the sample instants kept; the ``simulate`` subcommand steps at it. The
periodic solve chooses its coarse step by the same estimate. There is one
stepping path, ``_samples``, which yields the checked samples one at a
time: ``samples`` hands them to the ``simulate`` subcommand, which writes
them as they come, ``evolve`` collects them, and ``_period_end`` keeps
only the last, for the step-doubling candidates and the periodic solve.

All three follow the operator's one fold rule: an initial state equal to
its mirror bit for bit (``operator._fold_width``), such as every cosine or
constant start on a centred grid, is stepped on its leading ceil(n/2)
nodes with the folded linear part, and ``evolve`` unfolds its samples to n
nodes, exactly mirror-symmetric. Any other state is stepped at full size.
"""

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import PositivityError, SolverError, ValidationError
from .model import Grid, SeasonParams, StateVector, _readonly
from .operator import DispersalOperator, _fold_width, _unfold

#: entries in (-_TOL_POS, 0) are clamped to zero; anything below is an error
_TOL_POS = 1e-12


@dataclass(frozen=True)
class StepControl:
    """Time-step and sampling policy for the good-season RK4 integrator.

    ``dt_good`` is nominal: each integrated span uses the nearest integer
    step count, so the step divides the span exactly. Samples are recorded
    every ``stride`` RK steps (and at every season boundary), and every
    ``dt_good * stride`` through bad seasons. ``fit_step`` trades a finer
    step for a coarser one at the same ``dt_good * stride``.
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
    grid: Grid

    @property
    def final(self) -> StateVector:
        return StateVector(self.values[-1], time=float(self.times[-1]))


def _checked_linear_part(u0: StateVector, p: SeasonParams, op: DispersalOperator) -> np.ndarray:
    """Check ``u0`` (>= 0, op.n nodes) and op.d = p.d; return A at the width
    ``_fold_width`` gives ``u0``: m = ceil(n/2) for a mirror-symmetric u0,
    which is stepped as ``u0[:m]``, n for any other."""
    if np.any(u0.values < 0):
        raise ValidationError("initial data must be nonnegative")
    if u0.values.size != op.n:
        raise ValidationError(
            f"initial state has {u0.values.size} nodes, operator expects {op.n}")
    if op.d != p.d:
        raise ValidationError(
            f"operator dispersal rate {op.d!r} differs from params d={p.d!r}")
    return _linear_part(op, p.a, p.b, int(_fold_width(u0.values)))


def _linear_part(op: DispersalOperator, a: float, b: float, m: int) -> np.ndarray:
    """A = (d K + diag(a - d loss)) / b, the linear part of the good season
    written as u' = b (A u - u^2), with ``op._block(m)`` for K: m = n, or
    m = ceil(n/2) for even states, with the leading m entries of a Neumann
    loss (rowmass is mirror-symmetric bit for bit); a new array.
    SeasonParams keeps b > 0."""
    A = (op.d / b) * op._block(m)
    A.flat[::m + 1] += (a - op.d * np.broadcast_to(op.loss, op.n)[:m]) / b
    return A


def _rk4_span(u: np.ndarray, A: np.ndarray, b: float, span: float, steps: int,
              record_every: int = 0) -> tuple[np.ndarray, list[tuple[int, np.ndarray]]]:
    """March ``steps`` RK4 steps of u' = b (A u - u^2) over ``span``, with
    ``A`` from ``_linear_part``.

    ``u`` is one state of shape (n,) or a block of states of shape (n, m),
    one per column, for an n x n ``A``; the block advances as m independent
    states. The input is not modified. Each step fills four preallocated
    stage buffers with A x - x^2; b enters only through the stage offsets
    (b dt/2, b dt/2, b dt) and the weights b dt (1, 2, 2, 1)/6, which
    combine the stages in one product. Undershoots of u in (-_TOL_POS, 0)
    are clamped to +0.0 after each full step; anything lower aborts with a
    halved-step suggestion. Recorded samples are copies.
    """
    u = np.array(u, dtype=float)
    n = len(A)
    if u.ndim not in (1, 2) or u.shape[0] != n:
        raise ValidationError(
            f"state has shape {u.shape}, operator expects ({n},) or ({n}, m)")
    dt = span / steps
    bdt = b * dt
    coef = bdt * np.array([1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0])
    S = np.empty((4,) + u.shape)
    stage = list(S)
    # stage i + 1 is evaluated at u + offset[i] * stage[i]
    offset = (0.5 * bdt, 0.5 * bdt, bdt)
    x = np.empty_like(u)
    sq = np.empty_like(u)
    incr = np.empty_like(u)
    S_flat, incr_flat = S.reshape(4, -1), incr.reshape(-1)
    # a step is ~20 calls on small arrays: bind them once, write into buffers
    dot, multiply, subtract, add = np.dot, np.multiply, np.subtract, np.add
    lowest = np.minimum.reduce
    recorded = []
    for k in range(1, steps + 1):
        xi = u
        for i in range(4):
            s = stage[i]
            dot(A, xi, out=s)
            multiply(xi, xi, out=sq)
            subtract(s, sq, out=s)
            if i < 3:
                multiply(s, offset[i], out=x)
                add(x, u, out=x)
                xi = x
        dot(coef, S_flat, out=incr_flat)
        add(u, incr, out=u)
        if lowest(u, axis=None) < 0.0:
            flat = int(np.argmin(u))
            low = float(u.flat[flat])
            if low < -_TOL_POS:
                node = flat // (u.size // n)
                raise PositivityError(
                    f"node {node} reached {low:.3e} < -{_TOL_POS:g}; "
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
    The samples are those of ``samples``, collected and unfolded to n nodes.
    """
    times, values = _collect(samples(u0, p, op, ctl, t_end))
    return Trajectory(times=_readonly(times), values=_readonly(_unfold(values, op.n)),
                      grid=op.grid)


def samples(u0: StateVector, p: SeasonParams, op: DispersalOperator,
            ctl: StepControl, t_end: float) -> Iterator[tuple[float, np.ndarray]]:
    """The samples of ``evolve`` as a stream of (t, state) on the stepped
    width: the leading ceil(n/2) nodes of a mirror-symmetric ``u0``, which
    stand for the even state they mirror, or all n. ``u0`` and ``t_end`` are
    checked here, before the first sample is asked for."""
    if not (math.isfinite(t_end) and t_end > 0):
        raise ValidationError(f"t_end must be positive, got {t_end!r}")
    A = _checked_linear_part(u0, p, op)
    return _samples(u0.values[:len(A)], p, A, ctl, t_end)


def _collect(stream: Iterable[tuple[float, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """The times of a sample stream, and its states stacked: (T, n) for a
    stream of one state, (T, n, m) for a block."""
    times, states = zip(*stream)
    return np.array(times), np.array(states)


def _period_end(u: np.ndarray, p: SeasonParams, A: np.ndarray,
                ctl: StepControl) -> np.ndarray:
    """One state (n,) or a block of states (n, m) one period on: the last
    sample of ``_samples`` to t = omega, every sample checked, none kept."""
    for _, end in _samples(u, p, A, ctl, p.omega):
        pass
    return end


def _samples(u0: np.ndarray, p: SeasonParams, A: np.ndarray,
             ctl: StepControl, t_end: float) -> Iterator[tuple[float, np.ndarray]]:
    """Yield (t, state) at every sample instant of ``evolve`` in time order,
    t = 0 first, for one state (n,) or a block of states (n, m). No state is
    modified after it is yielded. A good-season sample or season end is
    checked against the bound, max(a/b, sup of the whole block), before it
    is yielded; the samples of a good season are yielded once its span has
    been stepped."""
    om = p.omega
    bound = max(p.a / p.b, float(np.max(u0, initial=0.0))) * (1.0 + 1e-6)
    sample_dt = ctl.dt_good * ctl.stride

    def checked(t, v):
        m = float(np.max(v, initial=0.0))
        if m > bound:
            raise SolverError(
                f"a-priori bound violated at t={t:g}: sup u = {m:g} > {bound:g}")
        return t, v

    u = u0.copy()
    yield 0.0, u
    i = 0
    t = 0.0
    while t < t_end:
        bad_end = min((i + p.rho) * om, t_end)
        if t < bad_end:
            # interior samples of the exact decay at the nominal sampling period
            # (by index, so that long runs do not drift)
            j = 1
            while (s := t + j * sample_dt) < bad_end * (1.0 - 1e-15):
                yield s, math.exp(-p.delta * (s - t)) * u
                j += 1
            u = math.exp(-p.delta * (bad_end - t)) * u
            yield checked(bad_end, u)
            t = bad_end
        if t >= t_end:
            break
        good_end = min((i + 1) * om, t_end)
        if t < good_end:
            span = good_end - t
            steps = ctl.steps_for(span)
            dt = span / steps
            u, recorded = _rk4_span(u, A, p.b, span, steps, record_every=ctl.stride)
            for k, v in recorded:
                yield checked(t + k * dt, v)
            yield checked(good_end, u)
            t = good_end
        i += 1


def _step_doubling(u: np.ndarray, p: SeasonParams, A: np.ndarray,
                   steps: int, last: int):
    """Yield (N, est(N)) for N = steps, 2 steps, 4 steps, ... up to ``last``:
    est(N) = |P_N(u) - P_2N(u)| 16/15 in the sup norm, with P_N the period map
    of ``A`` at N RK4 steps per good season (``_period_end``), or None when
    either run fails: an undershoot (PositivityError) or a sample above the
    a-priori bound, both SolverErrors. Each yield costs one period map, the
    first two.
    """
    def end(steps):
        try:
            return _period_end(u, p, A, StepControl.for_params(p, steps))
        except SolverError:
            return None

    if steps > last:
        return
    coarse = end(steps)
    while steps <= last:
        fine = end(2 * steps)
        yield steps, (None if coarse is None or fine is None else
                      float(np.max(np.abs(coarse - fine))) * 16.0 / 15.0)
        steps, coarse = 2 * steps, fine


def fit_step(u0: StateVector, p: SeasonParams, op: DispersalOperator,
             ctl: StepControl) -> tuple[StepControl, Optional[float]]:
    """Coarsest RK4 step whose truncation error is already below rounding,
    with the sample instants of ``ctl`` kept.

    With S = N_nom / stride samples per good season of N_nom nominal steps,
    the candidates are N = S 2^k steps per good season, tried while
    4 N <= N_nom. Each runs the first period from ``u0`` (exact decay, then
    the good season); est(N) is the step-doubling estimate of
    ``_step_doubling``, which the periodic solve shares to choose its coarse
    step. The first N with est(N) < 8 est(2N), or est(N) = 0, is where
    halving the step stops gaining RK4's factor 16, and 2N is taken. A
    candidate whose run raises a SolverError fails, an undershoot or a
    breach of the a-priori bound alike. A one-season tolerance
    would not do: errors pile up over the slowly contracting periods.

    Returns the control of 2N steps and stride 2N / S, whose sample spacing
    equals ``ctl.dt_good * ctl.stride`` bit for bit, with est(2N). Returns
    ``ctl`` itself and None when S is not an integer or no candidate passes,
    so no more steps are taken than ``ctl`` takes.
    """
    A = _checked_linear_part(u0, p, op)
    nominal = ctl.steps_for(p.good_season_length)
    samples, rest = divmod(nominal, ctl.stride)
    if rest or 4 * samples > nominal:
        return ctl, None
    prev = None  # est(steps / 2)
    for steps, est in _step_doubling(u0.values[:len(A)], p, A, samples, nominal // 2):
        if prev is not None and est is not None and (prev == 0.0 or prev < 8.0 * est):
            ratio = steps // samples
            return StepControl(dt_good=ctl.dt_good * ctl.stride / ratio, stride=ratio), est
        prev = est
    return ctl, None


def period_map(u0: StateVector, p: SeasonParams, op: DispersalOperator,
               ctl: StepControl) -> StateVector:
    """One period of ``evolve``, samples included: u0 at t maps to t + omega."""
    return StateVector(evolve(u0, p, op, ctl, p.omega).final.values,
                       time=u0.time + p.omega)
