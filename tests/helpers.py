"""Shared builders and independent oracles for the test suite.

Oracles here deliberately avoid the code paths they check: brute-force
double loops for the operator, dense full-spectrum eigendecomposition for
the Lanczos eigen-solve, the continuum closed form of the Laplace kernel
for the critical-length root-find, the local-diffusion closed forms that
narrow kernels tend to, fine midpoint sums for closed-form kernel masses.
"""

import math

import numpy as np

from seasonal_dispersal import (BoundaryCondition, Grid, PositivityError, SeasonParams,
                                StateVector, assemble, period_map)

P1 = dict(delta=0.2, d=0.6, a=1.2, b=0.6, rho=0.6, omega=1.0)
P2 = dict(delta=0.2, d=1.0, a=1.2, b=0.6, rho=0.6, omega=1.0)
P3 = dict(delta=0.8, d=0.6, a=1.2, b=0.6, rho=0.6, omega=1.0)


def params(preset=None, **kw) -> SeasonParams:
    base = dict(preset) if preset else dict(P1)
    base.update(kw)
    return SeasonParams(**base)


def dirichlet_op(kernel, length, n, d):
    return assemble(kernel, Grid.centered(length, n), BoundaryCondition.DIRICHLET, d)


def dense_sigma1(op, a: float) -> float:
    """Full-spectrum oracle: sigma1 from the largest eigenvalue of d K."""
    lam = float(np.linalg.eigvalsh(op.d * op.K)[-1])
    return op.d - a - lam


def laplace_critical_length(p: SeasonParams, D: float) -> float:
    """Continuum critical length for the Laplace kernel e^{-|x|/D}/(2D).

    That kernel is the Green's function of 1 - D^2 d^2/dx^2 on the line, so
    K phi = mu phi on [-l/2, l/2] becomes phi'' = -k^2 phi with
    mu = 1/(1 + k^2 D^2) and Robin conditions from the exponential tails;
    the even principal mode satisfies k D tan(k l/2) = 1. lambda1 = 0 fixes
    mu* = 1 - g/((1-rho) d), g the growth margin, hence k* and l*. For P2
    this is 0.2145003696 D.
    """
    mu = 1.0 - p.growth_margin / ((1.0 - p.rho) * p.d)
    k = math.sqrt(1.0 / mu - 1.0) / D
    return 2.0 * math.atan(1.0 / (k * D)) / k


def local_sigma1(D: float, a: float, length: float) -> float:
    """sigma1 of local diffusion, -D u'' - a u with u = 0 at the ends of a
    habitat of ``length``: D pi^2 / length^2 - a."""
    return D * math.pi**2 / length**2 - a


def local_critical_length(p: SeasonParams, D: float) -> float:
    """Critical length of local diffusion, where lambda1 = 0:
    pi sqrt(D (1 - rho) / g), g the growth margin (g > 0). For P2 with
    D = 0.05 this is 0.74048."""
    return math.pi * math.sqrt(D * (1.0 - p.rho) / p.growth_margin)


def brute_apply(op, u: np.ndarray) -> np.ndarray:
    """O(n^2) double-loop evaluation of the discrete dispersal operator."""
    n = op.n
    out = np.zeros(n)
    for i in range(n):
        acc = 0.0
        for j in range(n):
            acc += op.K[i, j] * u[j]
        if op.bc is BoundaryCondition.DIRICHLET:
            out[i] = op.d * (acc - u[i])
        else:
            out[i] = op.d * (acc - op.rowmass[i] * u[i])
    return out


def rk4_step_reference(op, p, u: np.ndarray, dt: float) -> np.ndarray:
    """One unclamped classical RK4 step of u' = L u + u (a - b u), with every
    stage evaluated through ``op.apply`` on fresh arrays."""
    def rhs(v):
        return op.apply(v) + v * (p.a - p.b * v)
    k1 = rhs(u)
    k2 = rhs(u + 0.5 * dt * k1)
    k3 = rhs(u + 0.5 * dt * k2)
    k4 = rhs(u + dt * k3)
    return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_span_reference(op, p, u: np.ndarray, span: float, steps: int,
                       tol_pos: float) -> np.ndarray:
    """Straightforward stepper for one state (n,): ``steps`` reference RK4
    steps over ``span``, with the clamp policy of the package (undershoots
    in (-tol_pos, 0) become zero, anything lower raises)."""
    dt = span / steps
    for _ in range(steps):
        u = rk4_step_reference(op, p, u, dt)
        low = int(np.argmin(u))
        if u[low] < 0.0:
            if u[low] < -tol_pos:
                raise PositivityError("reference undershoot", node=low,
                                      value=float(u[low]), suggested_dt=dt / 2)
            u = np.where(u < 0.0, 0.0, u)
    return u


def plain_fixed_point(p, op, ctl, tol: float = 1e-12, max_periods: int = 2000) -> np.ndarray:
    """Fixed point of the period map by plain iteration u <- P(u) from the
    constant a/b + 1, stopped once |P(u) - u| <= tol: no acceleration and no
    certificate, only the public period_map."""
    u = StateVector(np.full(op.n, p.a / p.b + 1.0))
    for _ in range(max_periods):
        nxt = period_map(u, p, op, ctl)
        if np.max(np.abs(nxt.values - u.values)) <= tol:
            return nxt.values
        u = nxt
    raise AssertionError(f"plain iteration did not reach {tol:g} in {max_periods} periods")


def laplace_mass_quadrature(D: float, W: float, n: int = 200_000) -> float:
    """Fine midpoint quadrature of the Laplace kernel over [-W, W]."""
    dx = 2.0 * W / n
    x = -W + (np.arange(n) + 0.5) * dx
    return float(np.sum(np.exp(-np.abs(x) / D)) / (2.0 * D) * dx)


def tent_kernel_table(half_width: float, m: int = 201):
    """Samples of the unit-mass triangular kernel (1 - |x|/w)/w on [-w, w].

    Built by mirroring one half so the table is symmetric bit for bit.
    """
    if m % 2 == 0:
        raise ValueError("tent table needs an odd sample count")
    half = (1.0 - np.linspace(0.0, half_width, (m + 1) // 2) / half_width) / half_width
    return np.concatenate([half[:0:-1], half])


def random_nonneg_state(rng, n: int, with_zeros: bool = True) -> np.ndarray:
    u = rng.uniform(0.0, 1.0, n)
    if with_zeros:
        u *= rng.uniform(0.0, 1.0, n) > 0.3
        if not np.any(u > 0):
            u[int(rng.integers(n))] = 0.5
    return u


def overshooting(stepper, steps: int, seen: list):
    """``stepper`` (an ``evolution._rk4_span``) with every span of ``steps``
    RK4 steps ending at 1e3 times its state, above the a-priori bound of any
    positive run; the shape of each state so stepped is appended to ``seen``."""
    def stepped(u, A, b, span, n, *args, **kwargs):
        out, recorded = stepper(u, A, b, span, n, *args, **kwargs)
        if n == steps:
            seen.append(np.shape(u))
            out = 1e3 * out
        return out, recorded

    return stepped
