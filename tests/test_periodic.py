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
                                period_map, principal_eigenpair)

from helpers import P1, P2, P3, dirichlet_op, params, plain_fixed_point

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
def p1_retried(p1_attractor):
    # every sampled run is an (m, 3) block (u~, u~ + eps phi1, u~ - eps phi1)
    # of the even part, m = ceil(n/2), whose columns 1 and 2 are a one-period
    # sandwich; nudging the first one's pair images up breaks
    # P(u~ + eps phi1) <= u~ + eps phi1 but keeps the order, and leaves P(u~)
    # as it is
    from seasonal_dispersal import periodic

    p, op, pair, ctl, _ = p1_attractor
    evolve = periodic._evolve
    blocks = []

    def nudged(block, *args):
        times, states = evolve(block, *args)
        blocks.append(block)
        if len(blocks) == 1:
            states = states.copy()
            states[-1, :, 1:] += 1e-6
        return times, states

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(periodic, "_evolve", nudged)
        sol = find_periodic_solution(p, op, pair, ctl)
    return sol, blocks


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

    def test_uniqueness_from_distinct_starts(self, p1_attractor, monkeypatch):
        from seasonal_dispersal import periodic

        p, op, pair, ctl, sol = p1_attractor
        monkeypatch.setattr(periodic, "UPPER_OFFSET", 3.0)
        other = find_periodic_solution(p, op, pair, ctl)
        assert np.max(np.abs(other.values[0] - sol.values[0])) <= 1e-7

    def test_extinction_P3(self, p3_extinct):
        p, op, pair, ctl = p3_extinct
        out = find_periodic_solution(p, op, pair, ctl)
        assert isinstance(out, Extinction)
        assert out.lambda1 >= 0
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
        (P3, 8.0, -1e-3, "no multiple of phi1 is a certified lower solution"),
    ], ids=["extinction", "lower_start"])
    def test_wrong_sign_sigma1_is_refused(self, preset, length, wrong_lambda1, message,
                                          monkeypatch):
        from seasonal_dispersal import evolution

        p = params(preset)
        op = dirichlet_op(LaplaceKernel(20.0), length, 48, p.d)
        pair = principal_eigenpair(op, p.a)
        assert p.lambda1(pair.sigma1) * wrong_lambda1 < 0
        # sigma1 moved so that (1 - rho) sigma1 + rho delta = wrong_lambda1
        wrong = replace(pair, sigma1=(wrong_lambda1 - p.rho * p.delta) / (1.0 - p.rho))
        assert p.lambda1(wrong.sigma1) == pytest.approx(wrong_lambda1)

        def no_stepping(*args, **kwargs):
            raise AssertionError("a refused solve stepped the model")

        # refused before any period is stepped
        monkeypatch.setattr(evolution, "_rk4_span", no_stepping)
        with pytest.raises(SolverError, match=message):
            find_periodic_solution(p, op, wrong, StepControl.for_params(p, 300))

    def test_non_positive_phi1_refused_before_stepping(self, p1_attractor, monkeypatch):
        from seasonal_dispersal import evolution

        def no_stepping(*args, **kwargs):
            raise AssertionError("a refused solve stepped the model")

        p, op, pair, ctl, _ = p1_attractor
        phi = pair.phi1.copy()
        phi[0] = 0.0
        monkeypatch.setattr(evolution, "_rk4_span", no_stepping)
        with pytest.raises(ValidationError, match="positive"):
            find_periodic_solution(p, op, replace(pair, phi1=phi), ctl)

    @pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan, math.inf])
    def test_bad_tol_refused_before_stepping(self, p1_attractor, monkeypatch, tol):
        # 0 and nan would step the whole budget, and -1e-8 blamed the order
        from seasonal_dispersal import evolution

        def no_stepping(*args, **kwargs):
            raise AssertionError("a refused solve stepped the model")

        p, op, pair, ctl, _ = p1_attractor
        monkeypatch.setattr(evolution, "_rk4_span", no_stepping)
        with pytest.raises(ValidationError, match="tol must be positive"):
            find_periodic_solution(p, op, pair, ctl, tol=tol)

    @pytest.mark.parametrize("budget", [-3, 2.5, math.nan, 4.0])
    def test_bad_max_periods_refused_before_stepping(self, p1_attractor, monkeypatch,
                                                     budget):
        # these stepped nothing and blamed the budget ("after 2.5 periods");
        # max_periods = 0, an empty budget, is TestIterationBudget's
        from seasonal_dispersal import evolution

        def no_stepping(*args, **kwargs):
            raise AssertionError("a refused solve stepped the model")

        p, op, pair, ctl, _ = p1_attractor
        monkeypatch.setattr(evolution, "_rk4_span", no_stepping)
        with pytest.raises(ValidationError, match="max_periods must be a nonnegative"):
            find_periodic_solution(p, op, pair, ctl, max_periods=budget)

    def test_neumann_rejected(self, p1_attractor):
        p, _, pair, ctl, _ = p1_attractor
        op = assemble(LaplaceKernel(20.0), Grid.centered(0.4, 16), NEU, p.d)
        with pytest.raises(ValidationError, match="Dirichlet"):
            find_periodic_solution(p, op, pair, ctl)

    def test_crossed_sequences_are_refused(self, p1_attractor, monkeypatch):
        # a period map that swaps the pair's upper and lower columns breaks
        # the ordering the trace promises, which the gap alone cannot see
        from seasonal_dispersal import periodic

        evolve = periodic._evolve

        def swapped(block, *args):
            times, states = evolve(block, *args)
            return times, states[..., [0, 2, 1]]

        monkeypatch.setattr(periodic, "_evolve", swapped)
        p, op, pair, ctl, _ = p1_attractor
        with pytest.raises(SolverError, match="ordering broken"):
            find_periodic_solution(p, op, pair, ctl)


class TestTwoStarts:
    """The accelerated, certified start against plain iteration of P from
    the classic start's upper member, the constant a/b + 1."""

    def test_accelerated_start_matches_classic_start(self, p1_attractor):
        p, op, _, ctl, sol = p1_attractor
        u0 = sol.values[0]
        assert len(sol.trace) == 2  # the certified pair and its image
        assert np.max(np.abs(u0 - plain_fixed_point(p, op, ctl))) <= 1e-8
        assert np.all(sol.trace.lower[-1] <= u0) and np.all(u0 <= sol.trace.upper[-1])

    def test_failed_sandwich_is_retried(self, p1_attractor, p1_retried):
        _, op, pair, _, sol = p1_attractor
        retried, blocks = p1_retried
        # two sandwiches u~ +- (tol/2) phi1 (max phi1 = 1), the second from a
        # later iterate, stepped on the even part's m = ceil(n/2) nodes; no
        # other block is stepped
        m = (op.n + 1) // 2
        assert len(blocks) == 2
        assert np.max(pair.phi1) == 1.0
        for block in blocks:
            assert block.shape == (m, 3)
            assert np.allclose(block[:, 1] - block[:, 2], 1e-8 * pair.phi1[:m],
                               rtol=0, atol=1e-15)
        assert np.any(blocks[1] != blocks[0])
        assert len(retried.trace) == 2
        assert np.all(retried.trace.upper[0][:m] == blocks[1][:, 1])
        assert np.all(retried.values[0][:m] == blocks[1][:, 0])
        # the failed pair's carried map: three more column-periods
        assert retried.periods == sol.periods + 3
        assert np.max(np.abs(retried.values[0] - sol.values[0])) <= 1e-8

    def test_attractor_is_sampled_from_the_pair_centre(self, p1_attractor):
        # the orbit is that of u~, the centre of the certified pair, which
        # lies strictly inside the certified enclosure; the residual is its
        # sampled period-map defect
        _, _, pair, _, sol = p1_attractor
        tr, u0 = sol.trace, sol.values[0]
        v = 0.5e-8 * pair.phi1  # max phi1 = 1
        assert np.allclose(tr.upper[0] - u0, v, rtol=0, atol=1e-15)
        assert np.allclose(u0 - tr.lower[0], v, rtol=0, atol=1e-15)
        assert np.min(u0 - tr.lower[-1]) > 0.0 and np.min(tr.upper[-1] - u0) > 0.0
        assert sol.residual == np.max(np.abs(sol.values[-1] - u0))

    def test_p1_n32_certifies_in_few_column_periods(self):
        p = params(P1)
        op = dirichlet_op(LaplaceKernel(20.0), 0.4, 32, p.d)
        pair = principal_eigenpair(op, p.a)
        ctl = StepControl.for_params(p, 400)
        sols = [find_periodic_solution(p, op, pair, ctl) for _ in range(2)]
        assert all(len(s.trace) == 2 for s in sols)  # certified pair and image
        assert sols[0].periods == sols[1].periods <= 40

    def test_p2_lambda1_near_minus_0p1_certifies_in_few_column_periods(self):
        # Anderson's residual goes more than 2 ANDERSON_DEPTH periods without a
        # new minimum here, and the iteration must not give up on that
        p = params(P2)
        op = dirichlet_op(LaplaceKernel(20.0), 18.57, 32, p.d)
        pair = principal_eigenpair(op, p.a)
        assert p.lambda1(pair.sigma1) == pytest.approx(-0.1, abs=5e-3)
        sol = find_periodic_solution(p, op, pair, StepControl.for_params(p, 200))
        assert isinstance(sol, PeriodicSolution)
        assert len(sol.trace) == 2
        assert sol.periods <= 40

    def test_p2_lambda1_near_minus_2p6e_4_certifies(self):
        # with a constant shift eps the sandwich's upper image rose above
        # u~ + eps at the centre nodes here, on every attempt; shifted along
        # phi1 it certifies well within the budget
        p = params(P2)
        op = dirichlet_op(LaplaceKernel(20.0), 4.319876, 64, p.d)
        pair = principal_eigenpair(op, p.a)
        assert p.lambda1(pair.sigma1) == pytest.approx(-2.6e-4, abs=1e-5)
        sol = find_periodic_solution(p, op, pair, StepControl.for_params(p, 200),
                                     max_periods=400)
        assert isinstance(sol, PeriodicSolution)
        assert len(sol.trace) == 2
        assert sol.trace.gaps[-1] <= 1e-8


#: habitats of P2 (kernel scale 20) with lambda1 between -9.3e-6 and
#: -1.4e-5; from the constant start a/b + 1, Anderson ran out of 400
#: periods at 4.2911 and 4.29115 and took 69-85 periods elsewhere
NEAR_THRESHOLD_HABITATS = (4.2910, 4.291078, 4.291078205996438, 4.2911, 4.29115,
                           4.2912, 4.2913, 4.2915)


class TestOneModeStart:
    """Anderson starts from the closed-form orbit z0 phi1 of the one-mode
    projection; the coarse step is still chosen from the constant top."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_start_is_the_fixed_point_where_phi1_is_constant(self, n):
        # on one or two nodes phi1 is constant, the projection is exact, and
        # z0 phi1 is the period map's fixed point up to RK4's error: the one
        # period a budget of 1 pays for steps it and reports |P(x0) - x0|
        from seasonal_dispersal import IterationBudgetError

        p = params(P1)
        op = dirichlet_op(LaplaceKernel(20.0), 0.4, n, p.d)
        pair = principal_eigenpair(op, p.a)
        assert np.all(pair.phi1 == pair.phi1[0])
        with pytest.raises(IterationBudgetError) as err:
            find_periodic_solution(p, op, pair, StepControl.for_params(p, 400),
                                   max_periods=1)
        assert err.value.gap <= 1e-12

    def test_coarse_step_is_chosen_from_top(self, p1_attractor):
        # from z0 phi1 the step choice would pick N = 4, whose fixed point
        # lies 3.8e-9 from the given step's; from top it picks 32, whose
        # fixed point lies 9.5e-12 from it
        _, _, _, _, sol = p1_attractor
        assert (sol.coarse_steps, sol.periods) == (32, 3)
        assert sol.coarse_periods <= 8

    @pytest.mark.parametrize("length", NEAR_THRESHOLD_HABITATS)
    def test_near_threshold_habitats_certify(self, length):
        p = params(P2)
        op = dirichlet_op(LaplaceKernel(20.0), length, 64, p.d)
        pair = principal_eigenpair(op, p.a)
        assert -1.5e-5 < p.lambda1(pair.sigma1) < 0.0
        sol = find_periodic_solution(p, op, pair, StepControl.for_params(p, 200),
                                     max_periods=400)
        assert isinstance(sol, PeriodicSolution)
        assert len(sol.trace) == 2 and sol.trace.gaps[-1] <= 1e-8


@pytest.fixture(scope="module")
def p1_stepped(p1_attractor):
    # the P1 fixture's solve again, with every RK4 span recorded as (state
    # shape, steps, sampled); only the map carrying the pair samples its run
    from seasonal_dispersal import evolution

    p, op, pair, ctl, _ = p1_attractor
    stepper, spans = evolution._rk4_span, []

    def recorded(u, A, b, span, steps, record_every=0):
        spans.append((np.shape(u), steps, record_every > 0))
        return stepper(u, A, b, span, steps, record_every)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evolution, "_rk4_span", recorded)
        sol = find_periodic_solution(p, op, pair, ctl)
    return sol, spans


class TestCoarsePhase:
    """Anderson on a coarse-step period map chooses the start; the
    certificate is stepped at the control the solve was given."""

    def test_certificate_is_stepped_at_the_given_step(self, p1_attractor, p1_stepped):
        p, _, _, ctl, _ = p1_attractor
        sol, spans = p1_stepped
        fine = ctl.steps_for(p.good_season_length)
        # one (m, 3) run carries the pair at the given step, and it alone is
        # sampled: the orbit is its first column
        assert [shape[1:] for shape, _, _ in spans].count((3,)) == 1
        assert [(shape[1:], steps) for shape, steps, sampled in spans
                if sampled] == [((3,), fine)]
        assert sol.coarse_steps is not None and 4 * sol.coarse_steps <= fine

    def test_coarse_periods_and_step_choice_count_against_the_budget(self, p1_attractor,
                                                                    p1_stepped):
        from seasonal_dispersal import IterationBudgetError

        p, op, pair, ctl, _ = p1_attractor
        sol, spans = p1_stepped
        assert sol.coarse_periods > 0
        maps = [steps for _, steps, _ in spans]
        fine = maps.count(ctl.steps_for(p.good_season_length))
        assert fine == sol.periods - 2  # the carried map's three columns map once
        # the step choice runs once at each 2^k up to twice the chosen count
        choice = len(maps) - sol.coarse_periods - fine
        assert choice == 2 + int(math.log2(sol.coarse_steps))
        assert maps.count(sol.coarse_steps) == sol.coarse_periods + 1
        exact = find_periodic_solution(p, op, pair, ctl, max_periods=len(maps))
        assert np.all(exact.values == sol.values)
        with pytest.raises(IterationBudgetError) as err:
            find_periodic_solution(p, op, pair, ctl, max_periods=len(maps) - 1)
        assert err.value.periods == len(maps) - 1
        assert 0.0 < err.value.gap < 1e-8  # the residual that let the pair ride

    def test_coarse_step_is_the_coarsest_within_eps(self, p1_attractor):
        # est(N) = |P_N(top) - P_2N(top)| 16/15 is at most eps = tol/2 at the
        # chosen N and above it at N/2
        from seasonal_dispersal.evolution import _linear_part, _one_period

        p, op, _, _, sol = p1_attractor
        top = np.full(op.n, p.a / p.b + 1.0)
        A = _linear_part(op, p.a, p.b, op.n)

        def est(steps):
            ends = [_one_period(top, p, A, StepControl.for_params(p, k))
                    for k in (steps, 2 * steps)]
            return float(np.max(np.abs(ends[0] - ends[1]))) * 16.0 / 15.0

        assert est(sol.coarse_steps) <= 0.5e-8 < est(sol.coarse_steps // 2)

    def test_perturbed_coarse_start_certifies_the_same_attractor(self, p1_attractor,
                                                                monkeypatch):
        # the certificate does not rest on the coarse phase: a start at the
        # given step 1e-6 phi1 off the coarse iterate still certifies u*
        # within tol
        from seasonal_dispersal import periodic

        p, op, pair, ctl, sol = p1_attractor
        anderson, levels = periodic._anderson, []

        def perturbed(x, period, q=1.0):
            levels.append(period)
            if len(levels) == 2:  # the given step's level, on the even part
                x = x + 1e-6 * pair.phi1[:len(x), None]
            return anderson(x, period, q)

        monkeypatch.setattr(periodic, "_anderson", perturbed)
        other = find_periodic_solution(p, op, pair, ctl)
        assert len(levels) == 2
        assert other.coarse_periods == sol.coarse_periods
        assert other.periods > sol.periods
        assert np.max(np.abs(other.values[0] - sol.values[0])) <= 1e-8
        assert other.trace.gaps[-1] <= 1e-8

    def test_no_qualifying_coarse_step_steps_no_coarse_period(self, p1_attractor):
        # at 7 steps per good season the only candidate, one step, is far
        # from eps: the solve is the given step's iteration alone
        p, op, pair, _, _ = p1_attractor
        sol = find_periodic_solution(p, op, pair, StepControl.for_params(p, 7))
        assert (sol.coarse_periods, sol.coarse_steps) == (0, None)
        assert len(sol.trace) == 2 and sol.trace.gaps[-1] <= 1e-8

    def test_pair_rides_only_after_a_residual_within_the_margin(self, p1_attractor):
        # at 7 steps per good season there is no coarse phase: the map after
        # a residual |P(x) - x| <= ANDERSON_MARGIN (1 - q) eps carries the
        # pair as an (m, 3) block, and every other map steps one column
        from seasonal_dispersal import evolution, periodic

        p, op, pair, _, _ = p1_attractor
        ctl = StepControl.for_params(p, 7)
        stepper, anderson = evolution._rk4_span, periodic._anderson
        widths, passed = [], []

        def recorded(u, A, b, span, steps, *args, **kwargs):
            if steps == 7:
                widths.append(np.shape(u)[1])
            return stepper(u, A, b, span, steps, *args, **kwargs)

        def watched(x, period, q=1.0):
            for x, image, q in anderson(x, period, q):
                margin = periodic.ANDERSON_MARGIN * (1.0 - q) * 0.5e-8
                passed.append(float(np.max(np.abs(image - x))) <= margin)
                yield x, image, q

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evolution, "_rk4_span", recorded)
            mp.setattr(periodic, "_anderson", watched)
            sol = find_periodic_solution(p, op, pair, ctl)
        assert sol.coarse_periods == 0 and len(widths) == len(passed)
        first = passed.index(True)
        assert first > 0 and widths[:first + 1] == [1] * (first + 1)
        assert widths[1:] == [3 if ok else 1 for ok in passed[:-1]]
        assert widths[-1] == 3 and sol.periods == len(widths) + 2 * widths.count(3)


@pytest.fixture(scope="module")
def p1_odd():
    # the P1 fixture's solve on an odd grid, whose middle node is its own mirror
    p = params(P1)
    op = dirichlet_op(LaplaceKernel(20.0), 0.4, 47, p.d)
    ctl = StepControl.for_params(p, 500)
    return p, op, ctl, find_periodic_solution(p, op, principal_eigenpair(op, p.a), ctl)


class TestEvenPart:
    """The persistence branch steps even states on their leading ceil(n/2)
    nodes and unfolds only its results."""

    @pytest.mark.parametrize("n", [47, 48])
    def test_folded_period_map_is_the_leading_half_of_the_full_one(self, n):
        from seasonal_dispersal.evolution import _linear_part, _one_period
        from seasonal_dispersal.operator import _unfold

        p = params(P1)
        op = dirichlet_op(LaplaceKernel(20.0), 0.4, n, p.d)
        m = (n + 1) // 2
        A_e, A = _linear_part(op, p.a, p.b, m), _linear_part(op, p.a, p.b, n)
        assert A_e.shape == (m, m)
        # A_e is A on the unfolded unit vectors, read on the leading half
        assert np.allclose(A_e, (A @ _unfold(np.eye(m), n).T)[:m],
                           rtol=1e-15, atol=0)
        y = np.cos(np.pi * op.grid.nodes[:m] / 0.4)
        full = _unfold(y[None], n)[0]
        assert np.array_equal(full, full[::-1])
        ctl = StepControl.for_params(p, 400)
        ref = _one_period(full, p, A, ctl)
        folded = _one_period(y, p, A_e, ctl)
        assert np.max(np.abs(folded - ref[:m])) <= 1e-14 * np.max(ref)

    def test_results_are_mirror_symmetric(self, p1_attractor, p1_odd):
        for sol in (p1_attractor[-1], p1_odd[-1]):
            assert sol.values.shape[1] == sol.grid.n
            assert np.array_equal(sol.values, sol.values[:, ::-1])
            for rows in (sol.trace.upper, sol.trace.lower):
                assert rows.shape == (2, sol.grid.n)
                assert np.array_equal(rows, rows[:, ::-1])

    def test_odd_grid_attractor_is_a_full_size_fixed_point(self, p1_odd):
        p, op, ctl, sol = p1_odd
        u0 = StateVector(sol.values[0])
        assert np.max(np.abs(period_map(u0, p, op, ctl).values - u0.values)) <= 1e-8

    def test_every_span_steps_the_even_part(self, p1_attractor, p1_stepped):
        _, op, _, _, _ = p1_attractor
        _, spans = p1_stepped
        assert spans and all(shape[0] == (op.n + 1) // 2 for shape, _, _ in spans)

    def test_solve_builds_one_folded_linear_part_and_no_dense_kernel(self, p1_attractor,
                                                                       monkeypatch):
        # A_e is built once per solve from the column, so a solve that read
        # the n x n K would raise here
        from seasonal_dispersal import DispersalOperator, periodic

        def dense(self):
            raise AssertionError("the periodic solve formed the n x n K")

        built, linear_part = [], periodic._linear_part

        def counted(op, a, b, m):
            A = linear_part(op, a, b, m)
            built.append(A.shape)
            return A

        p, op, pair, ctl, sol = p1_attractor
        monkeypatch.setattr(DispersalOperator, "K", property(dense))
        monkeypatch.setattr(periodic, "_linear_part", counted)
        again = find_periodic_solution(p, op, pair, ctl)
        assert isinstance(again, PeriodicSolution)
        assert np.array_equal(again.values, sol.values)
        m = (op.n + 1) // 2
        assert built == [(m, m)]


#: last fixed-point residual of the P1 fixture's solve at small budgets: 1
#: cannot pay for the step choice's first estimate (two periods) and steps
#: one period at the given step from the one-mode start z0 phi1, so its
#: residual is |P(z0 phi1) - z0 phi1| (None: derived in the test); 2 pays
#: for that estimate and no Anderson map; 9 for the step choice up to N = 32
#: (seven periods) and two coarse periods. The given step's first residual
#: differs from the coarse one by 5.5e-10 relative.
BUDGET_GAPS = {0: math.inf, 1: None, 2: math.inf, 9: 0.0001711331979563635}


class TestIterationBudget:
    @pytest.mark.parametrize("budget", sorted(BUDGET_GAPS))
    def test_budget_exhaustion_reports_gap(self, p1_attractor, budget):
        from seasonal_dispersal import IterationBudgetError

        p, op, pair, ctl, _ = p1_attractor
        with pytest.raises(IterationBudgetError, match=f"after {budget} periods;") as err:
            find_periodic_solution(p, op, pair, ctl, max_periods=budget)
        assert err.value.periods == budget
        gap = BUDGET_GAPS[budget]
        if gap is None:  # z0 phi1 from the one-mode orbit, c = <phi1^3>/<phi1^2>
            phi = pair.phi1
            c = float(np.sum(phi**3) / np.sum(phi**2))
            x0 = ode_periodic_solution(replace(p, a=-pair.sigma1, b=p.b * c)).z0 * phi
            gap = float(np.max(np.abs(period_map(StateVector(x0), p, op, ctl).values - x0)))
        assert err.value.gap == pytest.approx(gap, rel=1e-11)


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
            lam1 = p.lambda1(pair.sigma1)
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
                                     steps_per_season=100)
