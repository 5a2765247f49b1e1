import math
from dataclasses import replace

import numpy as np
import pytest

from seasonal_dispersal import (BoundaryCondition, Extinction, Grid,
                                LaplaceKernel, PeriodicSolution, Regime,
                                SolverError, StateVector, StepControl,
                                ValidationError, assemble,
                                asymptotic_profile_study, classify,
                                find_periodic_solution, logistic_flow,
                                ode_period_map, ode_periodic_solution,
                                period_map, principal_eigenpair, threshold)

from helpers import P1, P2, P3, dirichlet_op, params

NEU = BoundaryCondition.NEUMANN


class TestScalarOde:
    def test_logistic_flow_composition(self):
        z = logistic_flow(0.3, 1.2, 0.6, 0.7)
        z2 = logistic_flow(logistic_flow(0.3, 1.2, 0.6, 0.3), 1.2, 0.6, 0.4)
        assert z == pytest.approx(z2, rel=1e-12)

    def test_logistic_flow_equilibria(self):
        assert logistic_flow(0.0, 1.2, 0.6, 5.0) == 0.0
        assert logistic_flow(2.0, 1.2, 0.6, 9.0) == pytest.approx(2.0, rel=1e-12)
        assert logistic_flow(0.1, 1.2, 0.6, 200.0) == pytest.approx(2.0, rel=1e-9)

    def test_closed_form_z0_P1_rates(self):
        # z0 = a (A B - 1) / (b A (B - 1)) with A = e^{-0.12}, B = e^{0.48}
        sol = ode_periodic_solution(params(P1))
        A, B = math.exp(-0.12), math.exp(0.48)
        assert sol.z0 == pytest.approx(1.2 * (A * B - 1) / (0.6 * A * (B - 1)),
                                       rel=1e-14)
        assert sol.z0 == pytest.approx(1.586099, abs=1e-5)

    def test_closed_form_vs_forward_iteration_oracle(self):
        p = params(P1)
        sol = ode_periodic_solution(p)
        z = 1.0
        for _ in range(200):
            z_new = ode_period_map(z, p)
            if abs(z_new - z) <= 1e-14:
                break
            z = z_new
        assert abs(z - sol.z0) <= 1e-8

    def test_no_positive_solution_at_zero_margin(self):
        assert ode_periodic_solution(params(P3)) is None
        assert params(P3).growth_margin == pytest.approx(0.0)

    def test_no_positive_solution_for_negative_margin(self):
        assert ode_periodic_solution(params(delta=2.0, rho=0.6, a=1.0)) is None

    def test_pure_logistic_limit(self):
        # rho -> 0 removes the bad season: equilibrium a/b
        p = params(rho=1e-8, delta=0.7)
        sol = ode_periodic_solution(p)
        assert sol.z0 == pytest.approx(p.a / p.b, rel=1e-6)

    def test_periodicity_and_bad_season_decay(self):
        p = params(P1)
        sol = ode_periodic_solution(p)
        assert ode_period_map(sol.z0, p) == pytest.approx(sol.z0, rel=1e-12)
        assert sol.value(0.0) == pytest.approx(sol.z0)
        assert sol.value(p.omega) == pytest.approx(sol.z0)
        for t in (0.1, 0.3, 0.5):
            assert sol.value(t) == pytest.approx(sol.z0 * math.exp(-p.delta * t),
                                                 rel=1e-14)


@pytest.fixture(scope="module")
def p1_attractor():
    p = params(P1)
    op = dirichlet_op(LaplaceKernel(20.0), 0.4, 48, p.d)
    pair = principal_eigenpair(op, p.a)
    ctl = StepControl.for_params(p, 500)
    sol = find_periodic_solution(p, op, pair, ctl)
    return p, op, pair, ctl, sol


@pytest.fixture(scope="module")
def p3_extinct():
    p = params(P3)
    op = dirichlet_op(LaplaceKernel(20.0), 8.0, 64, p.d)
    return p, op, principal_eigenpair(op, p.a), StepControl.for_params(p, 300)


class TestFindPeriodicSolution:
    def test_positive_nonconstant_attractor(self, p1_attractor):
        _, _, _, _, sol = p1_attractor
        assert isinstance(sol, PeriodicSolution)
        u0 = sol.values[0]
        assert np.all(u0 > 0)
        assert np.max(u0) > u0[0]  # interior above the boundary node
        assert sol.residual <= 1e-8 * max(1.0, float(np.max(u0)))
        assert sol.lambda1 < 0

    def test_monotone_sandwich_trace(self, p1_attractor):
        _, _, _, _, sol = p1_attractor
        tr = sol.trace
        assert np.all(np.diff(tr.upper, axis=0) <= 1e-10)
        assert np.all(np.diff(tr.lower, axis=0) >= -1e-10)
        assert np.all(np.diff(tr.gaps) <= 1e-12)
        assert np.all(tr.lower <= tr.upper + 1e-10)
        assert tr.gaps[-1] <= 1e-8

    def test_bad_season_factorization(self, p1_attractor):
        p, _, _, _, sol = p1_attractor
        u0 = sol.values[0]
        in_bad = sol.times <= p.rho * p.omega
        for k in np.nonzero(in_bad)[0]:
            expect = math.exp(-p.delta * sol.times[k]) * u0
            err = np.max(np.abs(sol.values[k] - expect))
            assert err <= 1e-10 * max(1.0, np.max(np.abs(u0)))

    def test_uniqueness_from_distinct_starts(self, p1_attractor):
        p, op, pair, ctl, sol = p1_attractor
        other = find_periodic_solution(p, op, pair, ctl, upper_offset=3.0)
        assert np.max(np.abs(other.values[0] - sol.values[0])) <= 1e-7

    def test_extinction_P3(self, p3_extinct):
        p, op, pair, ctl = p3_extinct
        out = find_periodic_solution(p, op, pair, ctl)
        assert isinstance(out, Extinction)
        assert out.lambda1 >= 0
        assert out.evidence == "below_threshold"
        assert out.final_supnorm < 1e-10
        assert np.all(np.diff(out.trace.gaps) <= 1e-12)

    def test_extinction_bound_dominates_simulated_upper_sequence(self, p3_extinct):
        # the certificate M sup(phi1) e^{-lam k omega} must lie above the
        # stepped upper sequence from the same start at every period
        p, op, pair, ctl = p3_extinct
        out = find_periodic_solution(p, op, pair, ctl)
        phi = pair.phi1
        resid = op.apply(phi) + (p.a + pair.sigma1) * phi
        lam = p.lambda1(pair.sigma1 - np.max(resid / phi))
        top = p.a / p.b + 1.0
        bound = top * np.max(phi) / np.min(phi) * np.exp(
            -lam * p.omega * np.arange(out.periods + 1))
        assert out.final_supnorm == pytest.approx(bound[-1], rel=1e-12)
        assert bound[-2] >= 1e-10 > bound[-1]
        u = StateVector(np.full(op.n, top))
        for k in range(1, out.periods + 1):
            u = period_map(u, p, op, ctl)
            assert np.max(u.values) <= bound[k]

    def test_extinction_steps_no_period(self, p3_extinct, monkeypatch):
        from seasonal_dispersal import evolution

        def no_stepping(*args, **kwargs):
            raise AssertionError("the extinction certificate stepped the model")

        monkeypatch.setattr(evolution, "_rk4_span", no_stepping)
        p, op, pair, ctl = p3_extinct
        out = find_periodic_solution(p, op, pair, ctl)
        assert isinstance(out, Extinction)
        assert len(out.trace) == 2

    @pytest.mark.parametrize("preset, length, wrong_lambda1, message", [
        # true lambda1 < 0: the residual correction undoes the raised sigma1
        (P1, 0.4, 1e-3, "within the eigen residual of zero"),
        # true lambda1 > 0: no multiple of phi1 is a lower solution
        (P3, 8.0, -1e-3, "could not certify a lower solution"),
    ], ids=["extinction", "lower_start"])
    def test_wrong_sign_sigma1_is_refused(self, preset, length, wrong_lambda1, message):
        p = params(preset)
        op = dirichlet_op(LaplaceKernel(20.0), length, 48, p.d)
        pair = principal_eigenpair(op, p.a)
        assert p.lambda1(pair.sigma1) * wrong_lambda1 < 0
        # sigma1 moved so that (1 - rho) sigma1 + rho delta = wrong_lambda1
        wrong = replace(pair, sigma1=(wrong_lambda1 - p.rho * p.delta) / (1.0 - p.rho))
        assert p.lambda1(wrong.sigma1) == pytest.approx(wrong_lambda1)
        with pytest.raises(SolverError, match=message):
            find_periodic_solution(p, op, wrong, StepControl.for_params(p, 300))

    def test_neumann_rejected(self, p1_attractor):
        p, _, pair, ctl, _ = p1_attractor
        op = assemble(LaplaceKernel(20.0), Grid.centered(0.4, 16), NEU, p.d)
        with pytest.raises(ValidationError, match="Dirichlet"):
            find_periodic_solution(p, op, pair, ctl)


class TestIterationBudget:
    def test_budget_exhaustion_reports_gap(self, p1_attractor):
        from seasonal_dispersal import IterationBudgetError

        p, op, pair, ctl, _ = p1_attractor
        with pytest.raises(IterationBudgetError) as err:
            find_periodic_solution(p, op, pair, ctl, max_periods=2)
        assert err.value.periods == 2
        assert err.value.gap > 1e-8
        assert err.value.slow_near_threshold is False  # lambda1 ~ -0.12


class TestClassify:
    def test_presets(self):
        k = LaplaceKernel(20.0)
        assert classify(params(P1), k, BoundaryCondition.DIRICHLET).regime \
            is Regime.PERSIST_ALL_DOMAINS
        assert classify(params(P3), k, BoundaryCondition.DIRICHLET).regime \
            is Regime.EXTINCT_ALL_DOMAINS
        c2 = classify(params(P2), k, BoundaryCondition.DIRICHLET)
        assert c2.regime is Regime.CRITICAL_LENGTH
        assert c2.ell_star is not None and 0 < c2.ell_star < 1e4

    def test_neumann_P1(self):
        c = classify(params(P1), LaplaceKernel(20.0), NEU)
        assert c.regime is Regime.PERSIST
        assert c.lambda1 == pytest.approx(-0.36)
        assert c.sigma1 is None

    def test_neumann_extinct(self):
        c = classify(params(P3, delta=1.0), LaplaceKernel(20.0), NEU)
        assert c.regime is Regime.EXTINCT
        assert c.lambda1 >= 0

    def test_domain_threshold_fills_lambda1(self):
        p = params(P2)
        c = classify(p, LaplaceKernel(20.0), BoundaryCondition.DIRICHLET,
                     domain=Grid.centered(8.0, 256))
        assert c.lambda1 is not None and c.lambda1 < 0
        c_small = classify(p, LaplaceKernel(20.0), BoundaryCondition.DIRICHLET,
                           domain=Grid.centered(0.4, 256))
        assert c_small.lambda1 >= 0

    def test_growth_margin_reported(self):
        c = classify(params(P1), LaplaceKernel(20.0), BoundaryCondition.DIRICHLET)
        assert c.growth_margin == pytest.approx(0.36)


class TestClassificationCoherence:
    def test_fixed_point_existence_matches_lambda1_sign(self):
        # randomized cross-check between the spectral verdict and the actual
        # monotone-iteration outcome, away from the degenerate band
        rng = np.random.default_rng(77)
        k = LaplaceKernel(1.0)
        persist = extinct = 0
        attempts = 0
        while persist + extinct < 20 and attempts < 200:
            attempts += 1
            p = params(delta=rng.uniform(0.1, 0.9), a=rng.uniform(0.6, 1.8),
                       b=rng.uniform(0.3, 1.2), d=rng.uniform(0.3, 1.2),
                       rho=rng.uniform(0.3, 0.7), omega=1.0)
            length = rng.uniform(0.5, 6.0)
            op = dirichlet_op(k, length, 32, p.d)
            pair = principal_eigenpair(op, p.a)
            lam1 = threshold(p, op, pair).lambda1
            if abs(lam1) < 0.05:  # stay clear of the slow band near zero
                continue
            ctl = StepControl.for_params(p, 150)
            out = find_periodic_solution(p, op, pair, ctl, tol=1e-6,
                                         max_periods=1200)
            if lam1 < 0:
                assert isinstance(out, PeriodicSolution)
                assert np.all(out.values[0] > 0)
                persist += 1
            else:
                assert isinstance(out, Extinction)
                assert out.final_supnorm < out.trace.gaps[0]
                extinct += 1
        assert persist + extinct >= 20
        assert persist >= 3 and extinct >= 3


class TestNeumannOdeConsistency:
    def test_constant_data_converge_to_scalar_orbit(self):
        p = params(P1)
        op = assemble(LaplaceKernel(2.0), Grid.centered(1.0, 16), NEU, p.d)
        ctl = StepControl.for_params(p, 1000)
        z = ode_periodic_solution(p)
        u = StateVector(np.ones(16))
        for _ in range(80):
            u = period_map(u, p, op, ctl)
        rng_range = float(np.max(u.values) - np.min(u.values))
        assert rng_range <= 1e-9
        assert np.max(np.abs(u.values - z.z0)) <= 1e-6


class TestProfileStudy:
    def test_deviations_decrease_with_length(self):
        p = params(P1)
        entries = asymptotic_profile_study(p, LaplaceKernel(1.0), [6.0, 10.0],
                                           nodes_per_scale=10,
                                           steps_per_season=300)
        assert len(entries) == 2
        assert all(e.deviation >= 0 for e in entries)
        assert entries[1].deviation <= entries[0].deviation * 1.10
        assert all(e.lambda1 < 0 for e in entries)

    def test_bad_season_slice_factorizes(self):
        # both the attractor and the scalar orbit decay exactly through the
        # bad season, so the deviation inherits the e^{-delta t} factor
        p = params(P1)
        op = dirichlet_op(LaplaceKernel(1.0), 8.0, 128, p.d)
        pair = principal_eigenpair(op, p.a)
        sol = find_periodic_solution(p, op, pair, StepControl.for_params(p, 300))
        z = ode_periodic_solution(p)
        u0 = sol.values[0]
        base = np.abs(u0 - z.z0)
        for k in np.nonzero(sol.times <= p.rho * p.omega)[0]:
            t = float(sol.times[k])
            dev_t = np.abs(sol.values[k] - z.value(t))
            assert np.max(np.abs(dev_t - math.exp(-p.delta * t) * base)) <= 1e-9

    def test_rejects_nonpositive_margin(self):
        with pytest.raises(ValidationError, match="margin"):
            asymptotic_profile_study(params(P3), LaplaceKernel(1.0), [4.0, 8.0])

    def test_rejects_unsorted_lengths(self):
        with pytest.raises(ValidationError, match="increasing"):
            asymptotic_profile_study(params(P1), LaplaceKernel(1.0), [4.0, 3.0])

    def test_short_habitat_in_critical_regime_fails_loudly(self):
        # (P2)-like rates at kernel scale 1: critical length around 0.21, so
        # a much shorter habitat cannot supply a positive attractor
        p = params(P2)
        with pytest.raises(SolverError, match="lambda1"):
            asymptotic_profile_study(p, LaplaceKernel(1.0), [0.02, 0.05],
                                     steps_per_season=100, max_periods=400)
