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

from helpers import P1, P2, P3, dirichlet_op, overshooting, params, plain_fixed_point

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
    ctl = StepControl.for_params(p, 500)
    sol = find_periodic_solution(p, op, ctl)
    return p, op, sol.pair, ctl, sol


@pytest.fixture(scope="module")
def p1_retried(p1_attractor):
    # every collected run is an (m, 3) block (u~, u~ + v, u~ - v), v = w u~,
    # of the even part, m = ceil(n/2), whose columns 1 and 2 are a
    # one-period sandwich; nudging the first one's pair images up breaks
    # P(u~ + v) <= u~ + v but keeps the order, and leaves P(u~) as it is. A
    # run's first sample is its block
    from seasonal_dispersal import periodic

    p, op, _, ctl, _ = p1_attractor
    collect = periodic._collect
    blocks = []

    def nudged(stream):
        times, states = collect(stream)
        blocks.append(states[0])
        if len(blocks) == 1:
            states = states.copy()
            states[-1, :, 1:] += 1e-6
        return times, states

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(periodic, "_collect", nudged)
        sol = find_periodic_solution(p, op, ctl)
    return sol, blocks


@pytest.fixture(scope="module")
def p3_extinct():
    p = params(P3)
    op = dirichlet_op(LaplaceKernel(20.0), 8.0, 64, p.d)
    return p, op, StepControl.for_params(p, 300)


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

        p, op, _, ctl, sol = p1_attractor
        monkeypatch.setattr(periodic, "UPPER_OFFSET", 3.0)
        other = find_periodic_solution(p, op, ctl)
        assert np.max(np.abs(other.values[0] - sol.values[0])) <= 1e-7

    def test_extinction_P3(self, p3_extinct):
        p, op, ctl = p3_extinct
        out = find_periodic_solution(p, op, ctl)
        assert isinstance(out, Extinction)
        assert out.lambda1 >= 0
        assert out.final_supnorm < 1e-10
        assert np.all(np.diff(out.trace.gaps) <= 1e-12)

    def test_extinction_bound_dominates_simulated_upper_sequence(self, p3_extinct):
        # the certificate M sup(phi1) e^{-lam k omega} must lie above the
        # stepped upper sequence from the same start at every period
        p, op, ctl = p3_extinct
        out = find_periodic_solution(p, op, ctl)
        pair = out.pair
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

    def test_extinction_bound_is_read_at_the_enclosure_end(self):
        # P2 on a habitat of 1/20 kernel scale: the bound decays at lambda1 of
        # sigma_lo, the low end of the enclosure, from M = (a/b + 1) / min phi1
        # (9.751274129945097e-11 at 801 periods); lambda1 of sigma1 in its
        # place reads 9.751274080720759e-11, below the certified bound
        p = params(P2)
        op = dirichlet_op(LaplaceKernel(20.0), 1.0, 64, p.d)
        out = find_periodic_solution(p, op, StepControl.for_params(p, 200))
        assert isinstance(out, Extinction)
        M = (p.a / p.b + 1.0) / float(np.min(out.pair.phi1))
        lam_lo = p.lambda1(out.pair.enclosure[0])
        assert out.periods == 801
        assert out.final_supnorm == M * math.exp(-lam_lo * p.omega * 801)
        assert M * math.exp(-lam_lo * p.omega * 800) >= 1e-10

    def test_extinction_steps_no_period(self, p3_extinct, monkeypatch):
        # nor builds a linear part: only the persistence branch steps
        from seasonal_dispersal import evolution

        def refused(*args, **kwargs):
            raise AssertionError("the extinction certificate built or stepped the model")

        monkeypatch.setattr(evolution, "_linear_part", refused)
        monkeypatch.setattr(evolution, "_rk4_span", refused)
        p, op, ctl = p3_extinct
        out = find_periodic_solution(p, op, ctl)
        assert isinstance(out, Extinction)
        assert len(out.trace) == 2

    @pytest.mark.parametrize("preset, length, wrong_lambda1, message", [
        # true lambda1 < 0: the residual correction undoes the raised sigma1
        (P1, 0.4, 1e-3, "outside its enclosure"),
        # true lambda1 > 0: no multiple of phi1 is a lower solution
        (P3, 8.0, -1e-3, "no multiple of phi1 is a certified lower solution"),
    ], ids=["extinction", "lower_start"])
    def test_wrong_sign_sigma1_is_refused(self, preset, length, wrong_lambda1, message,
                                          monkeypatch):
        from seasonal_dispersal import evolution, periodic

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
        monkeypatch.setattr(periodic, "principal_eigenpair", lambda op, a: wrong)
        monkeypatch.setattr(evolution, "_rk4_span", no_stepping)
        with pytest.raises(SolverError, match=message):
            find_periodic_solution(p, op, StepControl.for_params(p, 300))

    def test_lambda1_at_zero_is_refused_as_straddling(self, monkeypatch):
        # delta tuned so that lambda1 = 0 on the habitat, as
        # test_uncertified_start_is_probed_not_kept tunes it: the enclosure
        # straddles zero, and the refusal names that cause, before any step
        from seasonal_dispersal import evolution

        p2 = params(P2)
        op = dirichlet_op(LaplaceKernel(20.0), 8.0, 48, p2.d)
        delta0 = -(1 - p2.rho) * principal_eigenpair(op, p2.a).sigma1 / p2.rho

        def no_stepping(*args, **kwargs):
            raise AssertionError("a refused solve stepped the model")

        monkeypatch.setattr(evolution, "_rk4_span", no_stepping)
        for shift in (0.0, 1e-15, -1e-15):
            p = params(P2, delta=delta0 + shift)
            with pytest.raises(SolverError, match="within its eigen residual of zero: "
                               r"its enclosure \[.*\] straddles zero") as err:
                find_periodic_solution(p, op, StepControl.for_params(p, 300))
            assert "outside" not in str(err.value)

    @pytest.mark.parametrize("steps", [500, 7], ids=["carried", "uncarried"])
    def test_map_leaving_the_bound_is_refused(self, p1_attractor, monkeypatch, steps):
        # every map checks the a-priori bound max(a/b, sup of its block): an
        # image pushed above it at the given step raises. At 500 steps the
        # given step's first map carries the pair; at 7 there is no coarse
        # phase and it steps the one-mode start alone
        from seasonal_dispersal import evolution

        p, op, _, _, _ = p1_attractor
        broken = []
        monkeypatch.setattr(evolution, "_rk4_span",
                            overshooting(evolution._rk4_span, steps, broken))
        with pytest.raises(SolverError, match="a-priori bound violated"):
            find_periodic_solution(p, op, StepControl.for_params(p, steps))
        assert broken == [((op.n + 1) // 2, 3 if steps == 500 else 1)]

    @pytest.mark.parametrize("preset", [P1, P3], ids=["persist", "extinct"])
    def test_rate_differing_from_params_is_refused_first(self, monkeypatch, preset):
        # the operator's dispersal rate is checked against p.d before the
        # eigen-solve, in either branch
        from seasonal_dispersal import periodic

        def eigen(*args):
            raise AssertionError("a refused solve made its eigen-solve")

        monkeypatch.setattr(periodic, "principal_eigenpair", eigen)
        p = params(preset)
        op = dirichlet_op(LaplaceKernel(20.0), 0.4, 16, 2 * p.d)
        with pytest.raises(ValidationError, match=r"differs from params d=0\.6"):
            find_periodic_solution(p, op, StepControl.for_params(p, 300))

    def test_neumann_rejected(self, p1_attractor):
        p, _, _, ctl, _ = p1_attractor
        op = assemble(LaplaceKernel(20.0), Grid.centered(0.4, 16), NEU, p.d)
        with pytest.raises(ValidationError, match="Dirichlet"):
            find_periodic_solution(p, op, ctl)

    def test_crossed_sequences_are_refused(self, p1_attractor, monkeypatch):
        # a period map that swaps the pair's upper and lower columns breaks
        # the ordering the trace promises, which the gap alone cannot see
        from seasonal_dispersal import periodic

        collect = periodic._collect

        def swapped(stream):
            times, states = collect(stream)
            return times, states[..., [0, 2, 1]]

        monkeypatch.setattr(periodic, "_collect", swapped)
        p, op, _, ctl, _ = p1_attractor
        with pytest.raises(SolverError, match="ordering broken"):
            find_periodic_solution(p, op, ctl)


    def test_wide_image_gap_is_not_certified(self, p1_attractor, monkeypatch):
        # each carried run's upper column raised by 4 tol in its block and 2 tol
        # in its image keeps both sandwich inequalities and the order, but its
        # images lie more than tol apart: no pair certifies, and the budget,
        # cut to 40 periods, runs out
        from seasonal_dispersal import periodic

        collect, tol = periodic._collect, periodic.PERIODIC_TOL

        def widened(stream):
            times, states = collect(stream)
            states = states.copy()
            states[0, :, 1] += 4 * tol
            states[-1, :, 1] += 2 * tol
            return times, states

        monkeypatch.setattr(periodic, "_collect", widened)
        monkeypatch.setattr(periodic, "MAX_PERIODS", 40)
        p, op, _, ctl, _ = p1_attractor
        with pytest.raises(SolverError, match="no pair 1e-08 apart certified after 40 periods"):
            find_periodic_solution(p, op, ctl)

    def test_final_residual_is_checked(self, p1_attractor, monkeypatch):
        # the carried run's image of u~ moved by 1e-6, its pair left as it
        # is: the pair certifies, and the period-map residual of the orbit
        # returned is refused
        from seasonal_dispersal import periodic

        collect = periodic._collect

        def moved(stream):
            times, states = collect(stream)
            states = states.copy()
            states[-1, :, 0] += 1e-6
            return times, states

        monkeypatch.setattr(periodic, "_collect", moved)
        p, op, _, ctl, _ = p1_attractor
        with pytest.raises(SolverError, match="period-map residual 1e-06 exceeds tolerance 1e-08"):
            find_periodic_solution(p, op, ctl)

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
        _, op, _, _, sol = p1_attractor
        retried, blocks = p1_retried
        # two sandwiches (1 +- w) u~, w = min((tol/2) / sup u~, 1/2), the
        # second from a later iterate, stepped on the even part's
        # m = ceil(n/2) nodes; no other block is stepped
        m = (op.n + 1) // 2
        assert len(blocks) == 2
        for block in blocks:
            assert block.shape == (m, 3)
            u = block[:, 0]
            assert np.allclose(block[:, 1] - block[:, 2],
                               2 * min(0.5e-8 / np.max(u), 0.5) * u, rtol=0, atol=1e-15)
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
        _, _, _, _, sol = p1_attractor
        tr, u0 = sol.trace, sol.values[0]
        v = min(0.5e-8 / np.max(u0), 0.5) * u0
        assert np.allclose(tr.upper[0] - u0, v, rtol=0, atol=1e-15)
        assert np.allclose(u0 - tr.lower[0], v, rtol=0, atol=1e-15)
        assert np.min(u0 - tr.lower[-1]) > 0.0 and np.min(tr.upper[-1] - u0) > 0.0
        assert sol.residual == np.max(np.abs(sol.values[-1] - u0))

    def test_p1_n32_certifies_in_few_column_periods(self):
        p = params(P1)
        op = dirichlet_op(LaplaceKernel(20.0), 0.4, 32, p.d)
        ctl = StepControl.for_params(p, 400)
        sols = [find_periodic_solution(p, op, ctl) for _ in range(2)]
        assert all(len(s.trace) == 2 for s in sols)  # certified pair and image
        assert sols[0].periods == sols[1].periods <= 40

    def test_p2_lambda1_near_minus_0p1_certifies_in_few_column_periods(self):
        # Anderson's residual goes more than 2 ANDERSON_DEPTH periods without a
        # new minimum here, and the iteration must not give up on that
        p = params(P2)
        op = dirichlet_op(LaplaceKernel(20.0), 18.57, 32, p.d)
        sol = find_periodic_solution(p, op, StepControl.for_params(p, 200))
        assert sol.lambda1 == pytest.approx(-0.1, abs=5e-3)
        assert isinstance(sol, PeriodicSolution)
        assert len(sol.trace) == 2
        assert sol.periods <= 40

    def test_p2_lambda1_near_minus_2p6e_4_certifies(self, monkeypatch):
        # with a constant shift eps the sandwich's upper image rose above
        # u~ + eps at the centre nodes here, on every attempt; scaled from u~
        # it certifies well within the budget
        from seasonal_dispersal import periodic

        p = params(P2)
        op = dirichlet_op(LaplaceKernel(20.0), 4.319876, 64, p.d)
        monkeypatch.setattr(periodic, "MAX_PERIODS", 400)
        sol = find_periodic_solution(p, op, StepControl.for_params(p, 200))
        assert sol.lambda1 == pytest.approx(-2.6e-4, abs=1e-5)
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
    def test_start_is_the_fixed_point_where_phi1_is_constant(self, n, monkeypatch):
        # on one or two nodes phi1 is constant, the projection is exact, and
        # z0 phi1 is the period map's fixed point up to RK4's error: the one
        # period a budget of 1 pays for steps it and reports |P(x0) - x0|
        from seasonal_dispersal import IterationBudgetError, periodic

        p = params(P1)
        op = dirichlet_op(LaplaceKernel(20.0), 0.4, n, p.d)
        pair = principal_eigenpair(op, p.a)
        assert np.all(pair.phi1 == pair.phi1[0])
        monkeypatch.setattr(periodic, "MAX_PERIODS", 1)
        with pytest.raises(IterationBudgetError) as err:
            find_periodic_solution(p, op, StepControl.for_params(p, 400))
        assert err.value.gap <= 1e-12

    def test_coarse_step_is_chosen_from_top(self, p1_attractor):
        # from z0 phi1 the step choice would pick N = 4, whose fixed point
        # lies 3.8e-9 from the given step's; from top it picks 32, whose
        # fixed point lies 9.5e-12 from it
        _, _, _, _, sol = p1_attractor
        assert (sol.coarse_steps, sol.periods, sol.coarse_periods) == (32, 3, 7)
        assert type(sol.periods) is int and type(sol.coarse_periods) is int

    @pytest.mark.parametrize("length", NEAR_THRESHOLD_HABITATS)
    def test_near_threshold_habitats_certify(self, length, monkeypatch):
        from seasonal_dispersal import periodic

        p = params(P2)
        op = dirichlet_op(LaplaceKernel(20.0), length, 64, p.d)
        monkeypatch.setattr(periodic, "MAX_PERIODS", 400)
        sol = find_periodic_solution(p, op, StepControl.for_params(p, 200))
        assert -1.5e-5 < sol.lambda1 < 0.0
        assert isinstance(sol, PeriodicSolution)
        assert len(sol.trace) == 2 and sol.trace.gaps[-1] <= 1e-8


#: the n = 64 discrete root of lambda1 for P2 (kernel scale 20, 200 steps),
#: from 60 bisection steps
P2_ROOT_N64 = 4.2899268394637735


class TestScaledPair:
    """The pair (1 +- w) u~ is scaled from the iterate, so it is positive
    however small u* is; on these habitats it certifies at its first
    carried map."""

    @pytest.mark.parametrize("scale, length, n, steps", [
        # just above the threshold: sup u* is 1.7e-9, below eps = PERIODIC_TOL / 2
        (20.0, P2_ROOT_N64 * (1 + 1e-8), 64, 200),
        (20.0, 4.32, 64, 200),
        (1.0, 20.0, 320, 400)])
    def test_certifies_at_the_first_carried_map(self, scale, length, n, steps,
                                                monkeypatch):
        from seasonal_dispersal import periodic

        p = params(P2)
        op = dirichlet_op(LaplaceKernel(scale), length, n, p.d)
        monkeypatch.setattr(periodic, "MAX_PERIODS", 50)
        sol = find_periodic_solution(p, op, StepControl.for_params(p, steps))
        assert sol.lambda1 < 0.0
        assert sol.periods == 3
        assert sol.trace.gaps[-1] <= periodic.PERIODIC_TOL


@pytest.fixture(scope="module")
def p1_stepped(p1_attractor):
    # the P1 fixture's solve again, with every RK4 span recorded as (state
    # shape, steps, collected); every map samples its run, and only the
    # carrying map's samples are collected. A one-period run has one good
    # season, the span stepped last when its samples are collected
    from seasonal_dispersal import evolution, periodic

    p, op, _, ctl, _ = p1_attractor
    stepper, collect, spans = evolution._rk4_span, periodic._collect, []

    def recorded(u, A, b, span, steps, record_every=0):
        spans.append((np.shape(u), steps, False))
        return stepper(u, A, b, span, steps, record_every)

    def collected(stream):
        run = collect(stream)
        spans[-1] = spans[-1][:2] + (True,)
        return run

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evolution, "_rk4_span", recorded)
        mp.setattr(periodic, "_collect", collected)
        sol = find_periodic_solution(p, op, ctl)
    return sol, spans


class TestCoarsePhase:
    """Anderson on a coarse-step period map chooses the start; the
    certificate is stepped at the control the solve was given."""

    def test_certificate_is_stepped_at_the_given_step(self, p1_attractor, p1_stepped):
        p, _, _, ctl, _ = p1_attractor
        sol, spans = p1_stepped
        fine = ctl.steps_for(p.good_season_length)
        # one (m, 3) run carries the pair at the given step, and its samples
        # alone are collected: the orbit is its first column
        assert [shape[1:] for shape, _, _ in spans].count((3,)) == 1
        assert [(shape[1:], steps) for shape, steps, collected in spans
                if collected] == [((3,), fine)]
        assert sol.coarse_steps is not None and 4 * sol.coarse_steps <= fine

    def test_coarse_periods_and_step_choice_count_against_the_budget(self, p1_attractor,
                                                                    p1_stepped,
                                                                    monkeypatch):
        from seasonal_dispersal import IterationBudgetError, periodic

        p, op, _, ctl, _ = p1_attractor
        sol, spans = p1_stepped
        assert sol.coarse_periods > 0
        maps = [steps for _, steps, _ in spans]
        fine = maps.count(ctl.steps_for(p.good_season_length))
        assert fine == sol.periods - 2  # the carried map's three columns map once
        # the step choice runs once at each 2^k up to twice the chosen count
        choice = len(maps) - sol.coarse_periods - fine
        assert choice == 2 + int(math.log2(sol.coarse_steps))
        assert maps.count(sol.coarse_steps) == sol.coarse_periods + 1
        monkeypatch.setattr(periodic, "MAX_PERIODS", len(maps))
        exact = find_periodic_solution(p, op, ctl)
        assert np.all(exact.values == sol.values)
        monkeypatch.setattr(periodic, "MAX_PERIODS", len(maps) - 1)
        with pytest.raises(IterationBudgetError) as err:
            find_periodic_solution(p, op, ctl)
        assert err.value.periods == len(maps) - 1
        assert 0.0 < err.value.gap < 1e-8  # the residual that let the pair ride

    def test_coarse_step_is_the_coarsest_within_eps(self, p1_attractor):
        # est(N) = |P_N(top) - P_2N(top)| 16/15 is at most eps = tol/2 at the
        # chosen N and above it at N/2
        from seasonal_dispersal.evolution import _linear_part, _period_end

        p, op, _, _, sol = p1_attractor
        top = np.full(op.n, p.a / p.b + 1.0)
        A = _linear_part(op, p.a, p.b, op.n)

        def est(steps):
            ends = [_period_end(top, p, A, StepControl.for_params(p, k))
                    for k in (steps, 2 * steps)]
            return float(np.max(np.abs(ends[0] - ends[1]))) * 16.0 / 15.0

        assert est(sol.coarse_steps) <= 0.5e-8 < est(sol.coarse_steps // 2)

    def test_candidate_breaking_the_bound_is_skipped(self, p1_attractor, monkeypatch):
        # a step-choice candidate whose period ends above the a-priori bound
        # fails as an undershooting one does: with P_N broken at the chosen
        # N, est(N/2) and est(N) are None, and the choice moves on to 2N
        from seasonal_dispersal import evolution, periodic

        p, op, _, ctl, sol = p1_attractor
        N = sol.coarse_steps
        assert N >= 2 and 8 * N <= ctl.steps_for(p.good_season_length)
        choice, estimates, broken = periodic._step_doubling, [], []

        def recorded(*args):
            for steps, est in choice(*args):
                estimates.append((steps, est))
                yield steps, est

        monkeypatch.setattr(periodic, "_step_doubling", recorded)
        monkeypatch.setattr(evolution, "_rk4_span",
                            overshooting(evolution._rk4_span, N, broken))
        other = find_periodic_solution(p, op, ctl)
        assert broken == [((op.n + 1) // 2, 1)]  # the choice's one run at N
        assert [steps for steps, est in estimates if est is None] == [N // 2, N]
        assert estimates[-1][0] == other.coarse_steps == 2 * N
        assert np.max(np.abs(other.values[0] - sol.values[0])) <= 1e-8
        assert other.trace.gaps[-1] <= 1e-8

    def test_perturbed_coarse_start_certifies_the_same_attractor(self, p1_attractor,
                                                                monkeypatch):
        # the certificate does not rest on the coarse phase: when the first
        # map at the given step steps its block 1e-6 phi1 off the coarse
        # iterate, the solve still certifies u* within tol
        from seasonal_dispersal import periodic

        p, op, pair, ctl, sol = p1_attractor
        good = p.good_season_length
        fine = ctl.steps_for(good)
        period_end, samples, levels = periodic._period_end, periodic._samples, []

        def stepped(u, p, A, level):
            levels.append(level.steps_for(good))
            return period_end(u, p, A, level)

        def perturbed(u0, p, A, level, t_end):
            levels.append(level.steps_for(good))
            if levels.count(fine) == 1:  # the given step's first map, on the even part
                u0 = u0 + 1e-6 * pair.phi1[:len(u0), None]
            return samples(u0, p, A, level, t_end)

        monkeypatch.setattr(periodic, "_period_end", stepped)
        monkeypatch.setattr(periodic, "_samples", perturbed)
        other = find_periodic_solution(p, op, ctl)
        # coarse maps first, then maps at the given step
        coarse = levels.index(fine)
        assert levels == [sol.coarse_steps] * coarse + [fine] * (len(levels) - coarse)
        assert other.coarse_periods == sol.coarse_periods == coarse
        assert other.periods > sol.periods
        assert np.max(np.abs(other.values[0] - sol.values[0])) <= 1e-8
        assert other.trace.gaps[-1] <= 1e-8

    def test_no_qualifying_coarse_step_steps_no_coarse_period(self, p1_attractor):
        # at 7 steps per good season the only candidate, one step, is far
        # from eps: the solve is the given step's iteration alone
        p, op, _, _, _ = p1_attractor
        sol = find_periodic_solution(p, op, StepControl.for_params(p, 7))
        assert (sol.coarse_periods, sol.coarse_steps) == (0, None)
        assert len(sol.trace) == 2 and sol.trace.gaps[-1] <= 1e-8

    def test_pair_rides_only_after_a_residual_within_the_margin(self, p1_attractor):
        # at 7 steps per good season there is no coarse phase
        p, op, _, _, _ = p1_attractor
        assert_pair_rides_after_the_margin(p, op, StepControl.for_params(p, 7))

    def test_contraction_is_measured_from_the_last_pair(self):
        # P2 near the threshold at tol 1e-10 has no coarse phase, and its pair
        # rides at another map if q is measured from an older pair
        p = params(P2)
        op = dirichlet_op(LaplaceKernel(20.0), 4.32, 64, p.d)
        assert_pair_rides_after_the_margin(p, op, StepControl.for_params(p, 200), tol=1e-10)

    def test_extrapolation_reads_the_last_pairs_of_its_level(self):
        # P2 near the threshold: the coarse phase and the given step's level
        # each take several maps; each extrapolation reads the last
        # ANDERSON_DEPTH + 1 pairs (x, P(x)) of the level the next map is at,
        # so the given step's first map steps the coarse phase's last x
        from seasonal_dispersal.periodic import ANDERSON_DEPTH

        p = params(P2)
        op = dirichlet_op(LaplaceKernel(20.0), 4.3, 64, p.d)
        ctl = StepControl.for_params(p, 200)
        sol, maps, histories = solve_recorded(p, op, ctl)
        coarse = sol.coarse_periods
        assert coarse >= 2 and len(maps) - coarse >= 2
        assert np.array_equal(maps[coarse][2], maps[coarse - 1][2])
        levels = [maps[:coarse], maps[coarse:]]
        expected = [level[max(0, k - ANDERSON_DEPTH):k + 1]
                    for level in levels for k in range(len(level) - 1)]
        assert len(histories) == len(expected)
        for history, pairs in zip(histories, expected):
            assert len(history) == len(pairs)
            assert all(np.array_equal(x, m[2]) and np.array_equal(image, m[3])
                       for (x, image), m in zip(history, pairs))


def solve_recorded(p, op, ctl, tol=1e-8):
    """find_periodic_solution at PERIODIC_TOL = ``tol`` with each period map
    of its loop recorded as (steps per good season, columns stepped, x,
    P(x)), and each history that _extrapolate is given."""
    from seasonal_dispersal import periodic

    good = p.good_season_length
    period_end, samples = periodic._period_end, periodic._samples
    extrapolate = periodic._extrapolate
    maps, histories = [], []

    def mapped(x, p, A, level):
        image = period_end(x, p, A, level)
        maps.append((level.steps_for(good), 1, x, image))
        return image

    def carried(block, p, A, level, t_end):
        run = list(samples(block, p, A, level, t_end))
        maps.append((level.steps_for(good), block.shape[1], block[:, :1], run[-1][1][:, :1]))
        return iter(run)

    def extrapolated(history):
        histories.append(list(history))
        return extrapolate(history)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(periodic, "_period_end", mapped)
        mp.setattr(periodic, "_samples", carried)
        mp.setattr(periodic, "_extrapolate", extrapolated)
        mp.setattr(periodic, "PERIODIC_TOL", tol)
        sol = find_periodic_solution(p, op, ctl)
    return sol, maps, histories


def assert_pair_rides_after_the_margin(p, op, ctl, tol=1e-8):
    """With no coarse phase, the map after a residual |P(x) - x| <=
    ANDERSON_MARGIN (1 - q) eps carries the pair as an (m, 3) block, and every
    other map steps one column; q is the sup-norm ratio of the last P(x) and
    x steps, 1 before the second map."""
    from seasonal_dispersal import evolution, periodic

    stepper, widths = evolution._rk4_span, []
    steps = ctl.steps_for(p.good_season_length)

    def recorded(u, A, b, span, n, *args, **kwargs):
        if n == steps:
            widths.append(np.shape(u)[1])
        return stepper(u, A, b, span, n, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evolution, "_rk4_span", recorded)
        sol, maps, _ = solve_recorded(p, op, ctl, tol=tol)
    passed, q = [], 1.0
    for k, (_, _, x, image) in enumerate(maps):
        if k > 0:
            x_last, image_last = maps[k - 1][2:]
            step = float(np.max(np.abs(x - x_last)))
            q = float(np.max(np.abs(image - image_last))) / step if step > 0.0 else 1.0
        margin = periodic.ANDERSON_MARGIN * (1.0 - q) * 0.5 * tol
        passed.append(float(np.max(np.abs(image - x))) <= margin)
    assert sol.coarse_periods == 0 and len(widths) == len(passed)
    first = passed.index(True)
    assert first > 0 and widths[:first + 1] == [1] * (first + 1)
    assert widths[1:] == [3 if ok else 1 for ok in passed[:-1]]
    assert widths[-1] == 3 and sol.periods == len(widths) + 2 * widths.count(3)


class TestAndersonExtrapolation:
    """The next iterate from the pairs (x, P(x)) of one level, oldest first."""

    @staticmethod
    def affine_pairs(c, count):
        # pairs of the plain iteration of P(x) = x / 2 + c from x = 10,
        # whose fixed point is 2 c; every x and P(x) here is positive
        x, pairs = np.full((2, 1), 10.0), []
        for _ in range(count):
            pairs.append((x, 0.5 * x + c))
            x = pairs[-1][1]
        return pairs

    def test_one_pair_gives_its_image(self):
        from seasonal_dispersal.periodic import _extrapolate

        x, image = np.array([[1.0], [2.0]]), np.array([[1.5], [1.75]])
        assert np.array_equal(_extrapolate([(x, image)]), image)

    def test_an_entry_at_most_zero_falls_back_to_the_last_image(self):
        # two pairs of an affine map extrapolate to its fixed point; where
        # that is (2, -2), the last P(x) = (4, 1) is taken instead
        from seasonal_dispersal.periodic import _extrapolate

        c = np.array([[1.0], [1.5]])
        assert np.allclose(_extrapolate(self.affine_pairs(c, 2)), 2.0 * c,
                           rtol=0.0, atol=1e-14)
        history = self.affine_pairs(np.array([[1.0], [-1.0]]), 2)
        assert np.all(history[-1][1] > 0.0)
        assert np.array_equal(_extrapolate(history), history[-1][1])

    def test_only_the_last_depth_plus_one_pairs_count(self):
        from seasonal_dispersal.periodic import ANDERSON_DEPTH, _extrapolate

        # a map with no exact extrapolation, so each pair changes the result
        rng = np.random.default_rng(3)
        pairs, x = [], rng.uniform(1.0, 2.0, (4, 1))
        for _ in range(5):
            pairs.append((x, 1.0 + 0.5 * np.sin(x)))
            x = pairs[-1][1] + 0.01 * rng.standard_normal((4, 1))
        last = _extrapolate(pairs[-ANDERSON_DEPTH - 1:])
        assert np.array_equal(_extrapolate(pairs), last)
        assert not np.array_equal(_extrapolate(pairs[-ANDERSON_DEPTH:]), last)


@pytest.fixture(scope="module")
def p1_odd():
    # the P1 fixture's solve on an odd grid, whose middle node is its own mirror
    p = params(P1)
    op = dirichlet_op(LaplaceKernel(20.0), 0.4, 47, p.d)
    ctl = StepControl.for_params(p, 500)
    return p, op, ctl, find_periodic_solution(p, op, ctl)


class TestEvenPart:
    """The persistence branch steps even states on their leading ceil(n/2)
    nodes and unfolds only its results."""

    @pytest.mark.parametrize("n", [47, 48])
    def test_folded_period_map_is_the_leading_half_of_the_full_one(self, n):
        from seasonal_dispersal.evolution import _linear_part, _period_end
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
        ref = _period_end(full, p, A, ctl)
        folded = _period_end(y, p, A_e, ctl)
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
        from seasonal_dispersal import DispersalOperator, evolution

        def dense(self):
            raise AssertionError("the periodic solve formed the n x n K")

        built, linear_part = [], evolution._linear_part

        def counted(op, a, b, m):
            A = linear_part(op, a, b, m)
            built.append(A.shape)
            return A

        p, op, _, ctl, sol = p1_attractor
        monkeypatch.setattr(DispersalOperator, "K", property(dense))
        monkeypatch.setattr(evolution, "_linear_part", counted)
        again = find_periodic_solution(p, op, ctl)
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
    def test_budget_exhaustion_reports_gap(self, p1_attractor, budget, monkeypatch):
        from seasonal_dispersal import IterationBudgetError, periodic

        p, op, pair, ctl, _ = p1_attractor
        monkeypatch.setattr(periodic, "MAX_PERIODS", budget)
        with pytest.raises(IterationBudgetError, match=f"after {budget} periods;") as err:
            find_periodic_solution(p, op, ctl)
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
    def test_fixed_point_existence_matches_lambda1_sign(self, monkeypatch):
        # randomized cross-check between the spectral verdict and the actual
        # monotone-iteration outcome, away from the degenerate band
        from seasonal_dispersal import periodic

        monkeypatch.setattr(periodic, "PERIODIC_TOL", 1e-6)
        monkeypatch.setattr(periodic, "MAX_PERIODS", 1200)
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
            out = find_periodic_solution(p, op, ctl)
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
    def test_deviations_decrease_with_length(self, monkeypatch):
        # both habitats take the 256-node floor
        from seasonal_dispersal import periodic

        p = params(P1)
        monkeypatch.setattr(periodic, "PROFILE_STEPS_PER_SEASON", 300)
        entries = asymptotic_profile_study(p, LaplaceKernel(1.0), [6.0, 10.0])
        assert len(entries) == 2
        assert all(e.deviation >= 0 for e in entries)
        assert entries[1].deviation <= entries[0].deviation * 1.10
        assert all(e.lambda1 < 0 for e in entries)

    def test_growing_deviation_is_refused(self, monkeypatch):
        # the second habitat's attractor, halved, sits further from z*
        from seasonal_dispersal import periodic

        solve = periodic.find_periodic_solution
        solved = []

        def halved_second(p, op, ctl):
            solved.append(solve(p, op, ctl))
            sol = solved[-1]
            return replace(sol, values=0.5 * sol.values) if len(solved) == 2 else sol

        monkeypatch.setattr(periodic, "PROFILE_STEPS_PER_SEASON", 300)
        monkeypatch.setattr(periodic, "find_periodic_solution", halved_second)
        with pytest.raises(SolverError, match="core deviation grew"):
            asymptotic_profile_study(params(P1), LaplaceKernel(1.0), [6.0, 10.0])
        assert len(solved) == 2

    def test_bad_season_slice_factorizes(self):
        # both the attractor and the scalar orbit decay exactly through the
        # bad season, so the deviation inherits the e^{-delta t} factor
        p = params(P1)
        op = dirichlet_op(LaplaceKernel(1.0), 8.0, 128, p.d)
        sol = find_periodic_solution(p, op, StepControl.for_params(p, 300))
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_lengths(self, bad, monkeypatch):
        # refused before the first habitat is solved
        from seasonal_dispersal import periodic

        def never(*args, **kwargs):
            raise AssertionError("a habitat was solved")

        monkeypatch.setattr(periodic, "find_periodic_solution", never)
        with pytest.raises(ValidationError, match="finite, positive and strictly increasing"):
            asymptotic_profile_study(params(P1), LaplaceKernel(1.0), [4.0, bad])

    def test_short_habitat_in_critical_regime_fails_loudly(self):
        # (P2)-like rates at kernel scale 1: critical length around 0.21, so
        # a much shorter habitat cannot supply a positive attractor
        p = params(P2)
        with pytest.raises(SolverError, match="lambda1"):
            asymptotic_profile_study(p, LaplaceKernel(1.0), [0.02, 0.05])
