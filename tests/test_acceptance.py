"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see every verdict line.
Each test evaluates all of its sub-checks first, prints
``[criterion N] PASS/FAIL`` with details, then asserts, so a failing
sub-check never hides the other measurements.

One sub-check is expected to fail, and the fault is in the program:

* criterion 2, sigma1 at habitat 200 kernel scales inside (-a, -a + 5e-2):
  the continuous Dirichlet operator loses kernel mass across the boundary,
  so sigma1 > -a holds strictly. The midpoint matrix K[i,j] = J(x_i - x_j) dx
  overshoots the kernel mass instead (a row mass reaches about
  1 + (dx J(0))^2 / 3, within the allowance 1e-9 + (dx J(0))^2 of
  ``assemble``), so the discrete Perron root exceeds d and sigma1 lands
  3.3e-4 BELOW -a at
  n = 2048. Cell-integrated weights K[i,j] = F(x_i - y_{j-1/2}) -
  F(x_i - y_{j+1/2}), with F the antiderivative of J, keep every row mass
  <= 1 (measured excess 2.2e-16) and give sigma1 + a = +1.45e-4 at n = 2048.

Two sub-checks assert the model's closed forms:

* criterion 1, zero margin: at growth margin exactly 0, A B = 1 with
  A = e^{-delta rho omega} and B = e^{a (1-rho) omega}, so the exact period
  map is the Beverton-Holt step z -> z / (1 + k z), k = b A (B - 1) / a
  = 0.19061, and z_n = z_0 / (1 + n k z_0). The iterates must follow this to
  a relative 1e-10 over 5000 periods and decrease strictly; the decay is
  algebraic, z_5000 = 1.05e-3.
* criterion 4, P1 stationarity: the habitat [-0.2, 0.2] is 1/50 of the
  kernel scale 20, so the attractor contracts like the scalar model with
  growth rate a - d (1 - m), m = 1 - e^{-0.2/20}, at the rate
  1/R = exp(rho delta omega - (1-rho)(a - d (1-m)) omega) = 0.8848 per
  period. From |u(60w) - u(59w)| = 9.2e-4 the increments must not increase
  and must reach 1e-6 by period 130 (measured: period 115).
"""

import math
import time

import numpy as np
import pytest

from seasonal_dispersal import (BoundaryCondition, Grid, LaplaceKernel,
                                PeriodicSolution, Regime, StateVector,
                                StepControl, assemble,
                                asymptotic_profile_study, classify,
                                critical_length, evolve,
                                find_periodic_solution, logistic_flow,
                                ode_period_map, ode_periodic_solution,
                                period_map, principal_eigenpair)

from helpers import (P1, P2, P3, dense_sigma1, dirichlet_op, params,
                     random_nonneg_state)

DIR = BoundaryCondition.DIRICHLET
NEU = BoundaryCondition.NEUMANN


def _verdict(num: int, checks: list[tuple[str, bool, str]]) -> None:
    ok = all(c[1] for c in checks)
    detail = "; ".join(f"{name} {'ok' if good else 'FAILED'} ({info})"
                       for name, good, info in checks)
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    failed = [f"{name}: {info}" for name, good, info in checks if not good]
    assert not failed, f"criterion {num}: " + " | ".join(failed)


def test_criterion_1_ode_closed_form_vs_iteration():
    t0 = time.perf_counter()
    p = params(P1)
    zstar = ode_periodic_solution(p).z0

    z = 1.0
    hit = None
    for n in range(1, 201):
        z = ode_period_map(z, p)
        if abs(z - zstar) <= 1e-8:
            hit = n
            break

    # zero margin: A B = 1, so the exact period map is z -> z / (1 + k z)
    # and its iterates are z_n = w0 / (1 + n k w0)
    p3 = params(P3)
    assert p3.growth_margin == 0.0
    A = math.exp(-P3["delta"] * P3["rho"] * P3["omega"])
    B = math.exp(P3["a"] * (1 - P3["rho"]) * P3["omega"])
    k = P3["b"] * A * (B - 1) / P3["a"]
    w0 = w = 1.0
    worst_rel = 0.0
    decreasing = True
    for n in range(1, 5001):
        w_next = ode_period_map(w, p3)
        decreasing = decreasing and w_next < w
        w = w_next
        z = w0 / (1 + n * k * w0)
        worst_rel = max(worst_rel, abs(w - z) / z)
    elapsed = time.perf_counter() - t0

    _verdict(1, [
        ("convergence to closed form", hit is not None,
         f"|z - z*| <= 1e-8 after {hit} periods" if hit else "not within 200 periods"),
        ("zero-margin iterates follow the Beverton-Holt closed form",
         worst_rel <= 1e-10 and decreasing,
         f"k = {k:.5f}, max |w_n - z_n| / z_n = {worst_rel:.1e} over 5000 periods, "
         f"w_5000 = {w:.3e}, strictly decreasing {decreasing}"),
        ("runtime < 1 s", elapsed < 1.0, f"{elapsed:.3f} s"),
    ])


def test_criterion_2_spectral_properties():
    t0 = time.perf_counter()
    d, a = 0.6, 1.2
    k = LaplaceKernel(1.0)
    pairs = {}
    for ell in (1.0, 2.0, 4.0, 8.0, 16.0):
        n = min(2048, max(256, math.ceil(64 * ell)))
        pairs[ell] = principal_eigenpair(dirichlet_op(k, ell, n, d), a)
    sig = [pairs[ell].sigma1 for ell in (1.0, 2.0, 4.0, 8.0, 16.0)]
    decreasing = all(b < a_ for a_, b in zip(sig, sig[1:]))

    small = principal_eigenpair(dirichlet_op(k, 1e-3, 256, d), a)
    large = principal_eigenpair(dirichlet_op(k, 200.0, 2048, d), a)
    all_pairs = list(pairs.values()) + [small, large]
    below = all(pr.sigma1 < d - a for pr in all_pairs)
    residuals = all(pr.residual <= 1e-8 for pr in all_pairs)
    elapsed = time.perf_counter() - t0

    _verdict(2, [
        ("sigma1 strictly decreasing in length", decreasing,
         "sigma1(l) = " + ", ".join(f"{s:.4f}" for s in sig)),
        ("small-habitat limit", d - a - 1e-2 < small.sigma1 < d - a,
         f"sigma1(1e-3) = {small.sigma1:.6f}"),
        ("large-habitat limit in (-a, -a+5e-2)", -a < large.sigma1 < -a + 5e-2,
         f"sigma1(200) = {large.sigma1:.8f}, sigma1 + a = {large.sigma1 + a:.2e}; "
         "midpoint bias dx^2/12 = 8.0e-4 exceeds the continuum gap 2.4e-4 at n = 2048"),
        ("sigma1 < d - a on every solve", below, f"{len(all_pairs)} solves"),
        ("residuals <= 1e-8", residuals,
         f"max {max(pr.residual for pr in all_pairs):.2e}"),
        ("runtime < 30 s at n <= 2048", elapsed < 30.0, f"{elapsed:.1f} s"),
    ])


def test_criterion_3_regime_classification_of_presets():
    k = LaplaceKernel(20.0)
    c1 = classify(params(P1), k, DIR)
    c3 = classify(params(P3), k, DIR)
    res2 = critical_length(params(P2), k, tol=1e-4)
    lo, hi = res2.bracket if res2.bracket else (math.nan, math.nan)

    _verdict(3, [
        ("P1 persists on all habitats", c1.regime is Regime.PERSIST_ALL_DOMAINS,
         f"margin {c1.growth_margin:.2f} > (1-rho) d = 0.24"),
        ("P3 extinct on all habitats", c3.regime is Regime.EXTINCT_ALL_DOMAINS,
         f"margin {c3.growth_margin:.2f}"),
        ("P2 finite critical length", res2.verdict is Regime.CRITICAL_LENGTH
         and res2.ell_star is not None and math.isfinite(res2.ell_star),
         f"ell* = {res2.ell_star:.6f}" if res2.ell_star else "missing"),
        ("bracket width <= 1e-4", hi - lo <= 1e-4, f"width {hi - lo:.2e}"),
        ("opposite lambda1 signs at bracket ends",
         res2.lambda_lo is not None and res2.lambda_lo > 0 > res2.lambda_hi,
         f"lambda1 = {res2.lambda_lo:.3e} / {res2.lambda_hi:.3e}"),
    ])


def test_criterion_4_figures_1_and_3_qualitative():
    t0 = time.perf_counter()

    # (P1), habitat [-0.2, 0.2], cosine initial data, 60 periods
    p = params(P1)
    k = LaplaceKernel(20.0)
    op = dirichlet_op(k, 0.4, 128, p.d)
    ctl = StepControl.for_params(p, 2000, stride=2000)
    u = StateVector(np.cos(np.pi * op.grid.nodes / 0.4))
    for _ in range(59):
        u = period_map(u, p, op, ctl)
    u59 = u.values
    u = period_map(u, p, op, ctl)
    u60 = u.values
    positive = bool(np.all(u60 > 0))
    nonconstant = float(np.max(u60) - np.min(u60)) > 1e-3

    # The habitat is 1/50 of the kernel scale, so the attractor contracts
    # like the scalar model with growth rate a - d (1 - m), m the kernel mass
    # kept in the habitat: 1/R = exp(rho delta omega - (1-rho)(a - d(1-m)) omega).
    # Continue the same trajectory until the increment reaches 1e-6.
    m = 1 - math.exp(-0.2 / 20.0)
    rate = math.exp(p.rho * p.delta * p.omega
                    - (1 - p.rho) * (p.a - p.d * (1 - m)) * p.omega)
    increments = [float(np.max(np.abs(u60 - u59)))]
    hit = None
    for period in range(61, 131):
        prev = u.values
        u = period_map(u, p, op, ctl)
        increments.append(float(np.max(np.abs(u.values - prev))))
        if increments[-1] <= 1e-6:
            hit = period
            break
    inc_monotone = all(b <= a_ for a_, b in zip(increments, increments[1:]))
    tail_ratio = increments[-1] / increments[-2]

    # (P3), habitat [-4, 4], 60 periods: decay to zero
    p3 = params(P3)
    op3 = dirichlet_op(k, 8.0, 256, p3.d)
    u3 = StateVector(np.cos(np.pi * op3.grid.nodes / 8.0))
    tr3 = evolve(u3, p3, op3, StepControl.for_params(p3, 2000, stride=2000),
                 60 * p3.omega)
    sup3 = tr3.final.sup_norm

    # (P2): the published figure pairing conflicts with the monotone theory,
    # so the check is that sign(lambda1) decides persistence at both lengths
    p2 = params(P2)
    lam = {}
    for length, n in ((0.4, 512), (8.0, 512)):
        op2 = dirichlet_op(k, length, n, p2.d)
        lam1 = p2.lambda1(principal_eigenpair(op2, p2.a).sigma1)
        oracle = (1 - p2.rho) * dense_sigma1(op2, p2.a) + p2.rho * p2.delta
        assert lam1 == pytest.approx(oracle, abs=1e-7)
        lam[length] = lam1
    # direction of travel over 30 periods confirms each sign
    trend = {}
    for length in (0.4, 8.0):
        op2 = dirichlet_op(k, length, 128, p2.d)
        ctl2 = StepControl.for_params(p2, 500, stride=500)
        v = StateVector(np.cos(np.pi * op2.grid.nodes / length))
        sups = [v.sup_norm]
        for _ in range(30):
            v = period_map(v, p2, op2, ctl2)
            sups.append(v.sup_norm)
        trend[length] = sups
    shrinking = trend[0.4][-1] < 0.5 * trend[0.4][10]
    persistent = min(trend[8.0][10:]) >= 1e-2
    elapsed = time.perf_counter() - t0

    _verdict(4, [
        ("P1 period map stationary to 1e-6 by period 130", hit is not None,
         f"|u(60w) - u(59w)| = {increments[0]:.2e}, "
         + (f"1e-6 reached at period {hit}" if hit else
            f"|u(130w) - u(129w)| = {increments[-1]:.2e}")
         + f"; tail ratio {tail_ratio:.4f} vs closed-form 1/R = {rate:.4f}"),
        ("P1 increments non-increasing from period 60", inc_monotone,
         f"{len(increments)} increments"),
        ("P1 attractor positive", positive, f"min {np.min(u60):.3e}"),
        ("P1 attractor spatially non-constant", nonconstant,
         f"range {np.max(u60) - np.min(u60):.3e}"),
        ("P3 sup-norm < 1e-4 after 60 periods", sup3 < 1e-4, f"{sup3:.2e}"),
        ("P2 lambda1 signs at widths 0.4 and 8", lam[0.4] > 0 > lam[8.0],
         f"{lam[0.4]:.4f} / {lam[8.0]:.4f} (dense-oracle checked)"),
        ("P2 width 0.4 decays", shrinking,
         f"sup norm {trend[0.4][10]:.3e} -> {trend[0.4][-1]:.3e}"),
        ("P2 width 8 persists", persistent, f"min sup {min(trend[8.0][10:]):.3e}"),
        ("runtime < 2 min", elapsed < 120.0, f"{elapsed:.1f} s"),
    ])


def test_criterion_5_maximum_and_comparison_principles():
    rng = np.random.default_rng(2024)
    instances = 0
    strict_positive = True
    ordered = True
    worst_order = 0.0
    while instances < 50:
        p = params(delta=rng.uniform(0.1, 1.0), a=rng.uniform(0.5, 1.8),
                   b=rng.uniform(0.2, 1.2), d=rng.uniform(0.2, 1.2),
                   rho=rng.uniform(0.25, 0.75), omega=rng.uniform(0.5, 1.5))
        scale = rng.uniform(0.5, 15.0)
        length = rng.uniform(0.4, 3.5) * scale
        n = int(rng.integers(16, 48))
        bc = DIR if rng.uniform() < 0.7 else NEU
        op = assemble(LaplaceKernel(scale), Grid.centered(length, n), bc, p.d)
        ctl = StepControl.for_params(p, 200, stride=40)
        u0 = random_nonneg_state(rng, n, with_zeros=True)
        tru = evolve(StateVector(u0), p, op, ctl, p.omega)
        if not np.all(tru.final.values > 0.0):
            strict_positive = False
        v0 = u0 + rng.uniform(0.0, 0.6, n)
        trv = evolve(StateVector(v0), p, op, ctl, p.omega)
        gap = float(np.max(tru.values - trv.values))  # ordered iff <= 0 + tol
        worst_order = max(worst_order, gap)
        if gap > 1e-10:
            ordered = False
        instances += 1

    _verdict(5, [
        ("strict interior positivity after first good season", strict_positive,
         f"{instances} random instances"),
        ("ordered data stay ordered at all samples", ordered,
         f"worst violation {worst_order:.2e} (tol 1e-10)"),
    ])


def test_criterion_6_monotone_iteration_sandwich():
    p = params(P1)
    op = dirichlet_op(LaplaceKernel(20.0), 0.4, 64, p.d)
    pair = principal_eigenpair(op, p.a)
    ctl = StepControl.for_params(p, 2000, stride=400)
    sol = find_periodic_solution(p, op, pair, ctl, tol=1e-8)
    assert isinstance(sol, PeriodicSolution)
    tr = sol.trace
    upper_mono = bool(np.all(np.diff(tr.upper, axis=0) <= 1e-10))
    lower_mono = bool(np.all(np.diff(tr.lower, axis=0) >= -1e-10))
    gaps_mono = bool(np.all(np.diff(tr.gaps) <= 1e-12))
    agree = float(tr.gaps[-1])

    u0 = sol.values[0]
    in_bad = sol.times <= p.rho * p.omega
    fact_err = max(float(np.max(np.abs(
        sol.values[kk] - math.exp(-p.delta * sol.times[kk]) * u0)))
        for kk in np.nonzero(in_bad)[0])

    _verdict(6, [
        ("upper iterates non-increasing", upper_mono, f"{len(tr)} iterates"),
        ("lower iterates non-decreasing", lower_mono, f"{len(tr)} iterates"),
        ("gaps non-increasing", gaps_mono, f"gap_0 {tr.gaps[0]:.2e}"),
        ("limits agree to 1e-7", agree <= 1e-7, f"final gap {agree:.2e}"),
        ("periodic residual <= 1e-8", sol.residual <= 1e-8 * max(1.0, sol.sup_norm),
         f"residual {sol.residual:.2e}"),
        ("bad-season factorization to 1e-10", fact_err <= 1e-10 * max(1.0, np.max(u0)),
         f"max defect {fact_err:.2e}"),
    ])


def test_criterion_7_profile_limit():
    t0 = time.perf_counter()
    p = params(P1)
    zstar0 = ode_periodic_solution(p).z0
    entries = asymptotic_profile_study(p, LaplaceKernel(1.0), [10.0, 20.0, 40.0])
    devs = [e.deviation for e in entries]
    elapsed = time.perf_counter() - t0

    _verdict(7, [
        ("core deviations strictly decreasing", all(b < a for a, b in zip(devs, devs[1:])),
         "dev(L) = " + ", ".join(f"{v:.5f}" for v in devs)),
        ("final deviation < 0.05 z*(0)", devs[-1] < 0.05 * zstar0,
         f"{devs[-1]:.2e} vs bound {0.05 * zstar0:.3e}"),
        ("runtime < 5 min", elapsed < 300.0, f"{elapsed:.1f} s"),
    ])


def test_criterion_8_neumann_consistency():
    p = params(P1)
    op = assemble(LaplaceKernel(2.0), Grid.centered(1.0, 32), NEU, p.d)
    ctl = StepControl.for_params(p, 2000, stride=250)
    c0 = 0.8
    tr = evolve(StateVector(np.full(32, c0)), p, op, ctl, 20 * p.omega)

    # exact scalar trajectory evaluated at every recorded instant
    A = math.exp(-p.delta * p.bad_season_length)
    z_at_period = [c0]
    for _ in range(20):
        z_at_period.append(ode_period_map(z_at_period[-1], p))

    def z_exact(t):
        i = min(int(t / p.omega), 19)
        if t == (i + 1) * p.omega:
            return z_at_period[i + 1]
        s = t - i * p.omega
        zi = z_at_period[i]
        if s <= p.bad_season_length:
            return zi * math.exp(-p.delta * s)
        return logistic_flow(zi * A, p.a, p.b, s - p.bad_season_length)

    worst = max(float(np.max(np.abs(tr.values[kk] - z_exact(float(tr.times[kk])))))
                for kk in range(tr.times.size))

    rng = np.random.default_rng(88)
    sign_ok = True
    for _ in range(20):
        q = params(delta=rng.uniform(0.05, 1.5), a=rng.uniform(0.3, 2.0),
                   b=rng.uniform(0.2, 1.5), d=rng.uniform(0.2, 1.5),
                   rho=rng.uniform(0.1, 0.9), omega=rng.uniform(0.5, 2.0))
        verdict = classify(q, LaplaceKernel(1.0), NEU).regime
        expected = Regime.PERSIST if q.delta * q.rho - q.a * (1 - q.rho) < 0 \
            else Regime.EXTINCT
        if verdict is not expected:
            sign_ok = False

    _verdict(8, [
        ("constant data track the scalar orbit to 1e-6 over 20 periods",
         worst <= 1e-6, f"max deviation {worst:.2e}"),
        ("classification matches sign(delta rho - a (1-rho)) on 20 samples",
         sign_ok, "20 random parameter points"),
    ])


def test_criterion_9_numerical_orders():
    # temporal order: successive step halvings of one full period
    p = params(P1)
    op = dirichlet_op(LaplaceKernel(1.0), 2.0, 64, p.d)
    u0 = StateVector(np.cos(np.pi * op.grid.nodes / 2.0) ** 2 + 0.4)
    finals = []
    step_counts = (5, 10, 20, 40, 80)
    for steps in step_counts:
        ctl = StepControl.for_params(p, steps, stride=10 * steps)
        finals.append(period_map(u0, p, op, ctl).values)
    diffs = [float(np.max(np.abs(b - a))) for a, b in zip(finals, finals[1:])]
    dts = [p.good_season_length / s for s in step_counts[:-1]]
    slope = float(np.polyfit(np.log(dts), np.log(diffs), 1)[0])

    # spatial eigenvalue stability at n = 256
    d, a = 0.6, 1.2
    s256 = principal_eigenpair(dirichlet_op(LaplaceKernel(1.0), 2.0, 256, d), a).sigma1
    s512 = principal_eigenpair(dirichlet_op(LaplaceKernel(1.0), 2.0, 512, d), a).sigma1
    spatial = abs(s256 - s512)

    _verdict(9, [
        ("RK4 temporal order >= 3.8", slope >= 3.8,
         f"slope {slope:.2f}, halving diffs " + ", ".join(f"{v:.1e}" for v in diffs)),
        ("|sigma1(256) - sigma1(512)| <= 1e-4", spatial <= 1e-4, f"{spatial:.2e}"),
    ])
