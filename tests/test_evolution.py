import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from seasonal_dispersal import (BoundaryCondition, Grid, LaplaceKernel,
                                PositivityError, SolverError, StateVector,
                                StepControl, ValidationError, assemble, evolve,
                                period_map)
from seasonal_dispersal import evolution
from seasonal_dispersal.config import parse_config
from seasonal_dispersal.evolution import _rk4_span

from helpers import (P1, dirichlet_op, overshooting, params, random_nonneg_state,
                     rk4_span_reference, rk4_step_reference)

NEU = BoundaryCondition.NEUMANN
DIR = BoundaryCondition.DIRICHLET


def linear(op, p):
    """The full-size linear part, which evolve and period_map step for a
    start that does not equal its mirror."""
    return evolution._linear_part(op, p.a, p.b, op.n)


def scalar_logistic(c, a, b, tau):
    return a * c * math.exp(a * tau) / (a + b * c * (math.exp(a * tau) - 1.0))


class TestStepControl:
    def test_steps_divide_span_exactly(self):
        p = params(P1)
        ctl = StepControl.for_params(p, steps_per_season=2000)
        assert ctl.steps_for(p.good_season_length) == 2000
        # a slightly perturbed nominal step still yields a whole count
        ctl2 = StepControl(dt_good=p.good_season_length / 1999.4)
        assert ctl2.steps_for(p.good_season_length) == 1999

    def test_validation(self):
        with pytest.raises(ValidationError):
            StepControl(dt_good=0.0)
        with pytest.raises(ValidationError):
            StepControl(dt_good=0.1, stride=0)


class TestBadSeason:
    @staticmethod
    def _decay(u0, t_end):
        # evolve to a time inside the first bad season: exact decay only
        p = params(P1)
        op = dirichlet_op(LaplaceKernel(20.0), 0.4, u0.size, p.d)
        return evolve(StateVector(u0), p, op, StepControl.for_params(p, 10), t_end).final

    def test_uniform_decay_by_hand(self):
        # delta = 0.2 over span rho*omega = 0.6: factor e^{-0.12}
        p = params(P1)
        out = self._decay(np.ones(8), p.rho * p.omega)
        assert np.allclose(out.values, math.exp(-0.12), rtol=1e-15)
        assert out.time == 0.6

    def test_zero_fixed_point(self):
        out = self._decay(np.zeros(5), 0.3)
        assert np.all(out.values == 0.0)

    def test_strict_positivity_preserved(self):
        u0 = np.array([1e-300, 2.0, 1e-12])
        out = self._decay(u0, 0.5)
        assert np.all(out.values[u0 > 0] > 0)


class TestGoodSeason:
    """One good season of RK4 through the fused stepper."""

    def test_zero_fixed_point(self):
        p = params(P1)
        op = dirichlet_op(LaplaceKernel(20.0), 0.4, 16, p.d)
        out, _ = _rk4_span(np.zeros(16), linear(op, p), p.b, 0.4, 100)
        assert np.all(out == 0.0)

    def test_neumann_constant_matches_scalar_logistic(self):
        p = params(P1)
        op = assemble(LaplaceKernel(5.0), Grid.centered(2.0, 24), NEU, p.d)
        c = 0.37
        out, _ = _rk4_span(np.full(24, c), linear(op, p), p.b, 0.4, 2000)
        expect = scalar_logistic(c, p.a, p.b, 0.4)
        assert np.max(np.abs(out - expect)) <= 1e-8

    def test_linear_problem_matches_matrix_exponential(self):
        # b ~ 0 makes the good season linear: u' = (L + a I) u, solved
        # exactly by the scaling-and-squaring matrix exponential
        p = params(b=1e-30)
        op = dirichlet_op(LaplaceKernel(1.0), 2.0, 32, p.d)
        rng = np.random.default_rng(21)
        u0 = rng.uniform(0.2, 1.0, 32)
        out, _ = _rk4_span(u0, linear(op, p), p.b, 0.4, 64)
        gen = op.d * (op.K - np.eye(32)) + p.a * np.eye(32)
        exact = expm(gen * 0.4) @ u0
        assert np.max(np.abs(out - exact)) <= 1e-6

    def test_linear_problem_rk4_order(self):
        p = params(b=1e-30)
        op = dirichlet_op(LaplaceKernel(1.0), 2.0, 24, p.d)
        rng = np.random.default_rng(22)
        u0 = rng.uniform(0.2, 1.0, 24)
        gen = op.d * (op.K - np.eye(24)) + p.a * np.eye(24)
        exact = expm(gen * 0.4) @ u0
        errs, dts = [], []
        for steps in (4, 8, 16, 32):
            out, _ = _rk4_span(u0, linear(op, p), p.b, 0.4, steps)
            errs.append(np.max(np.abs(out - exact)))
            dts.append(0.4 / steps)
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert slope >= 3.5

    def test_split_season_composes(self):
        # stepping the season in two halves uses the same effective dt, so
        # the composition agrees with the single span to rounding noise
        p = params(P1)
        op = dirichlet_op(LaplaceKernel(2.0), 1.0, 16, p.d)
        u0 = np.full(16, 0.4)
        whole, _ = _rk4_span(u0, linear(op, p), p.b, 0.4, 200)
        half, _ = _rk4_span(u0, linear(op, p), p.b, 0.2, 100)
        both, _ = _rk4_span(half, linear(op, p), p.b, 0.2, 100)
        assert np.max(np.abs(both - whole)) <= 1e-12

    def test_positivity_violation_reports_node_and_dt(self):
        # one giant step on a strongly supercritical state undershoots
        p = params(a=0.1, b=1.0)
        op = dirichlet_op(LaplaceKernel(1.0), 1.0, 8, p.d)
        with pytest.raises(PositivityError) as err:
            _rk4_span(np.full(8, 30.0), linear(op, p), p.b, p.good_season_length, 1)
        assert err.value.suggested_dt < p.good_season_length
        assert 0 <= err.value.node < 8


class TestFusedStepper:
    @pytest.mark.parametrize("bc", [DIR, NEU])
    def test_matches_reference_for_state_and_block(self, bc):
        p = params(P1)
        op = assemble(LaplaceKernel(2.0), Grid.centered(1.5, 20), bc, p.d)
        block = np.random.default_rng(51).uniform(0.1, 2.0, (20, 3))
        before = block.copy()
        span, steps = p.good_season_length, 80
        out, _ = _rk4_span(block, linear(op, p), p.b, span, steps)
        assert out.shape == (20, 3)
        assert np.array_equal(block, before)  # the input is not stepped in place
        for j in range(3):
            ref = rk4_span_reference(op, p, block[:, j], span, steps, 1e-12)
            single, _ = _rk4_span(block[:, j], linear(op, p), p.b, span, steps)
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(single - ref)) <= 1e-13 * scale
            assert np.max(np.abs(out[:, j] - ref)) <= 1e-13 * scale
            assert np.max(np.abs(out[:, j] - single)) <= 1e-14 * scale

    @pytest.mark.parametrize("b", [1e-3, 1e3])
    def test_matches_reference_far_from_unit_competition(self, b):
        # A carries 1/b and the stage offsets and weights carry b: at a/b = 2
        # and b three decades either side of 1, the state, a column and a
        # block still meet the reference, over the good season or 2/a,
        # whichever is shorter
        p = params(P1, a=2.0 * b, b=b)
        op = dirichlet_op(LaplaceKernel(2.0), 1.5, 20, p.d)
        block = np.random.default_rng(51).uniform(0.1, 2.0, (20, 3))
        span, steps = min(p.good_season_length, 2.0 / p.a), 80
        A = linear(op, p)
        out, _ = _rk4_span(block, A, p.b, span, steps)
        column, _ = _rk4_span(block[:, :1], A, p.b, span, steps)
        assert column.shape == (20, 1)
        for j in range(3):
            ref = rk4_span_reference(op, p, block[:, j], span, steps, 1e-12)
            assert np.max(np.abs(ref - block[:, j])) > 0.3  # the span moves it
            single, _ = _rk4_span(block[:, j], A, p.b, span, steps)
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(single - ref)) <= 1e-13 * scale
            assert np.max(np.abs(out[:, j] - ref)) <= 1e-13 * scale
            if j == 0:
                assert np.max(np.abs(column[:, 0] - ref)) <= 1e-13 * scale

    @pytest.mark.parametrize("b", [1e-3, 1e3])
    def test_positivity_error_in_state_units_far_from_unit_competition(self, b):
        # u0 = 30 / b is the b = 1 overshoot of test_positivity_violation_*
        # rescaled: the error reports the undershoot of u itself
        p = params(a=0.1, b=b)
        op = dirichlet_op(LaplaceKernel(1.0), 1.0, 8, p.d)
        u0 = np.full(8, 30.0 / b)
        raw = rk4_step_reference(op, p, u0, p.good_season_length)
        with pytest.raises(PositivityError) as err:
            _rk4_span(u0, linear(op, p), p.b, p.good_season_length, 1)
        assert err.value.node == int(np.argmin(raw))
        assert err.value.value == pytest.approx(float(raw.min()), rel=1e-12)

    @pytest.mark.parametrize("b", [1e-3, 1e3])
    def test_clamped_undershoot_far_from_unit_competition(self, b, monkeypatch):
        # test_clamped_undershoot_is_positive_zero rescaled by 1/b: two
        # undershoots of about -3.9e-7 / b, inside a _TOL_POS of 1.5 times
        # that, clamp to +0.0; compared as b u, they would fall outside it
        # at b = 1e3
        p = params(a=0.1, b=b)
        op = dirichlet_op(LaplaceKernel(1.0), 1.0, 8, p.d)
        u0 = np.full(8, 4.12365298718214 / b)
        raw = rk4_step_reference(op, p, u0, 0.4)
        clamped = raw < 0.0
        assert np.count_nonzero(clamped) == 2
        monkeypatch.setattr(evolution, "_TOL_POS", -1.5 * float(raw.min()))
        out, _ = _rk4_span(u0, linear(op, p), p.b, 0.4, 1)
        assert np.all(out[clamped] == 0.0)
        assert not np.any(np.signbit(out))
        assert np.max(np.abs(out[~clamped] - raw[~clamped])) <= 1e-13 * np.max(raw)

    def test_recorded_samples_are_copies(self):
        p = params(P1)
        op = dirichlet_op(LaplaceKernel(2.0), 1.0, 12, p.d)
        u0 = np.full(12, 0.3)
        out, recorded = _rk4_span(u0, linear(op, p), p.b, 0.4, 40, record_every=10)
        assert [k for k, _ in recorded] == [10, 20, 30]
        first = rk4_span_reference(op, p, u0, 0.1, 10, 1e-12)
        assert np.max(np.abs(recorded[0][1] - first)) <= 1e-13 * np.max(first)
        assert not np.array_equal(recorded[-1][1], out)

    def test_block_positivity_error_reports_node(self):
        p = params(a=0.1, b=1.0)
        op = dirichlet_op(LaplaceKernel(1.0), 1.0, 8, p.d)
        with pytest.raises(PositivityError) as single:
            _rk4_span(np.full(8, 30.0), linear(op, p), p.b, 0.4, 1)
        block = np.column_stack([np.full(8, 0.5), np.full(8, 30.0), np.full(8, 0.2)])
        with pytest.raises(PositivityError) as err:
            _rk4_span(block, linear(op, p), p.b, 0.4, 1)
        assert 0 <= err.value.node < 8
        assert err.value.node == single.value.node
        assert err.value.suggested_dt == 0.2

    def test_clamped_undershoot_is_positive_zero(self, monkeypatch):
        # one RK4 step of 0.4 from this constant undershoots zero by less
        # than _TOL_POS, raised here, at two nodes; the clamp must give
        # +0.0, never -0.0
        p = params(a=0.1, b=1.0)
        op = dirichlet_op(LaplaceKernel(1.0), 1.0, 8, p.d)
        u0 = np.full(8, 4.12365298718214)
        raw = rk4_step_reference(op, p, u0, 0.4)
        clamped = raw < 0.0
        assert np.count_nonzero(clamped) == 2
        assert -9e-7 < raw.min() < -3e-7
        monkeypatch.setattr(evolution, "_TOL_POS", 9e-7)
        out, _ = _rk4_span(u0, linear(op, p), p.b, 0.4, 1)
        assert np.all(out[clamped] == 0.0)
        assert not np.any(np.signbit(out))
        assert np.max(np.abs(out[~clamped] - raw[~clamped])) <= 1e-13 * np.max(raw)

    def test_clamped_undershoot_in_a_block_column(self, monkeypatch):
        # the start of test_clamped_undershoot_is_positive_zero as the last
        # column of an (8, 3) block: node-major order interleaves the
        # columns, and exactly its two undershoots clamp to +0.0
        p = params(a=0.1, b=1.0)
        op = dirichlet_op(LaplaceKernel(1.0), 1.0, 8, p.d)
        block = np.column_stack([np.full(8, 0.5), np.linspace(0.2, 1.0, 8),
                                 np.full(8, 4.12365298718214)])
        raw = rk4_step_reference(op, p, block[:, 2], 0.4)
        clamped = np.zeros(block.shape, dtype=bool)
        clamped[:, 2] = raw < 0.0
        assert np.count_nonzero(clamped) == 2
        monkeypatch.setattr(evolution, "_TOL_POS", -1.5 * float(raw.min()))
        out, _ = _rk4_span(block, linear(op, p), p.b, 0.4, 1)
        assert np.all(out[clamped] == 0.0)
        assert np.all(out[~clamped] > 0.0)
        assert not np.any(np.signbit(out))
        for j in range(3):
            single, _ = _rk4_span(block[:, j], linear(op, p), p.b, 0.4, 1)
            assert np.max(np.abs(out[:, j] - single)) <= 1e-14 * np.max(single)

    @pytest.mark.parametrize("scales", [None, (1.0, 0.5, 0.25)])
    def test_step_allocates_nothing(self, scales):
        # the stepper writes every step into buffers made before the first:
        # a span of 2000 steps peaks where one of 20 does, for a folded
        # state (64,) and a block (64, 3)
        p = params(P1)
        op = dirichlet_op(LaplaceKernel(20.0), 0.4, 128, p.d)
        A = evolution._linear_part(op, p.a, p.b, 64)
        u = np.cos(np.pi * op.grid.nodes[:64] / 0.4)
        u = u if scales is None else np.outer(u, scales)

        def peak(steps):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            _rk4_span(u, A, p.b, 0.4 * steps / 400, steps)
            return tracemalloc.get_traced_memory()[1] - before

        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            short, long = peak(20), peak(2000)
        finally:
            if not tracing:
                tracemalloc.stop()
        assert abs(long - short) <= 1024

    def test_shape_checked_at_entry(self):
        p = params(P1)
        op = dirichlet_op(LaplaceKernel(2.0), 1.0, 8, p.d)
        with pytest.raises(ValidationError, match="shape"):
            _rk4_span(np.ones(9), linear(op, p), p.b, 0.4, 4)
        with pytest.raises(ValidationError, match="shape"):
            _rk4_span(np.ones((8, 2, 2)), linear(op, p), p.b, 0.4, 4)


class TestEvolve:
    def test_zero_stays_zero(self):
        p = params(P1)
        op = dirichlet_op(LaplaceKernel(20.0), 0.4, 12, p.d)
        tr = evolve(StateVector(np.zeros(12)), p, op, StepControl.for_params(p, 50),
                    3 * p.omega)
        assert np.all(tr.values == 0.0)

    def test_season_boundaries_are_samples(self):
        p = params(P1, omega=1.3)
        op = dirichlet_op(LaplaceKernel(20.0), 0.4, 8, p.d)
        tr = evolve(StateVector(np.full(8, 0.5)), p, op,
                    StepControl.for_params(p, 40, stride=7), 2.5 * p.omega)
        times = set(tr.times.tolist())
        for i in range(3):
            if i * p.omega <= 2.5 * p.omega:
                assert i * p.omega in times
            if (i + p.rho) * p.omega <= 2.5 * p.omega:
                assert (i + p.rho) * p.omega in times
        assert np.all(np.diff(tr.times) > 0)
        assert tr.times[-1] == 2.5 * p.omega

    def test_nonnegative_and_bounded(self):
        rng = np.random.default_rng(31)
        p = params(P1)
        op = dirichlet_op(LaplaceKernel(2.0), 1.5, 24, p.d)
        u0 = random_nonneg_state(rng, 24)
        tr = evolve(StateVector(u0), p, op, StepControl.for_params(p, 300), 2 * p.omega)
        assert np.all(tr.values >= 0.0)
        bound = max(p.a / p.b, u0.max()) * (1 + 1e-6)
        assert np.max(tr.values) <= bound

    def test_interior_positivity_after_first_good_season(self):
        rng = np.random.default_rng(32)
        p = params(P1)
        op = dirichlet_op(LaplaceKernel(2.0), 1.5, 24, p.d)
        u0 = random_nonneg_state(rng, 24, with_zeros=True)
        tr = evolve(StateVector(u0), p, op, StepControl.for_params(p, 300), p.omega)
        assert np.all(tr.final.values > 0.0)

    def test_full_period_matches_piecewise_exponential_oracle(self):
        # linear limit across a whole period: exact decay then expm
        p = params(b=1e-30)
        op = dirichlet_op(LaplaceKernel(1.0), 2.0, 32, p.d)
        rng = np.random.default_rng(33)
        u0 = rng.uniform(0.1, 0.9, 32)
        tr = evolve(StateVector(u0), p, op, StepControl.for_params(p, 2000), p.omega)
        gen = op.d * (op.K - np.eye(32)) + p.a * np.eye(32)
        exact = expm(gen * p.good_season_length) @ (math.exp(-p.delta * 0.6) * u0)
        assert np.max(np.abs(tr.final.values - exact)) <= 1e-6

    def test_negative_initial_data_rejected(self):
        p = params(P1)
        op = dirichlet_op(LaplaceKernel(20.0), 0.4, 8, p.d)
        with pytest.raises(ValidationError, match="nonnegative"):
            evolve(StateVector(np.array([-0.1] + [0.5] * 7)), p, op,
                   StepControl.for_params(p, 10), p.omega)

    def test_bound_checked_at_recorded_good_season_samples(self, monkeypatch):
        # raise every recorded sample above the bound but leave the season
        # ends alone: only the per-sample check can catch it
        p = params(P1)
        op = dirichlet_op(LaplaceKernel(20.0), 0.4, 8, p.d)
        stepper = evolution._rk4_span

        def spiked(*args, **kwargs):
            u, recorded = stepper(*args, **kwargs)
            return u, [(k, v + 10.0) for k, v in recorded]

        monkeypatch.setattr(evolution, "_rk4_span", spiked)
        with pytest.raises(SolverError, match="a-priori bound"):
            evolve(StateVector(np.full(8, 0.5)), p, op,
                   StepControl.for_params(p, 40, stride=7), p.omega)

    def test_bad_season_sample_times_by_index(self):
        # summing 0.1 * 3 two hundred times drifts; the sample times must be
        # season start + j * sample_dt exactly
        p = params(P1, omega=100.0)
        op = dirichlet_op(LaplaceKernel(20.0), 0.4, 4, p.d)
        ctl = StepControl(dt_good=0.1, stride=3)
        tr = evolve(StateVector(np.full(4, 0.5)), p, op, ctl, 2 * p.omega)
        sample_dt = ctl.dt_good * ctl.stride
        for start in (0.0, p.omega):
            inside = tr.times[(tr.times > start) & (tr.times < start + p.rho * p.omega)]
            assert inside.size == 199
            expect = start + np.arange(1, inside.size + 1) * sample_dt
            assert np.array_equal(inside, expect)

    def test_partial_period_end(self):
        p = params(P1)
        op = dirichlet_op(LaplaceKernel(20.0), 0.4, 8, p.d)
        tr = evolve(StateVector(np.full(8, 0.3)), p, op,
                    StepControl.for_params(p, 40), 0.25)
        assert tr.times[-1] == 0.25
        # still inside the first bad season: exact decay
        assert np.allclose(tr.final.values, 0.3 * math.exp(-p.delta * 0.25), rtol=1e-14)


class TestPeriodMap:
    def test_zero_fixed_point(self):
        p = params(P1)
        op = dirichlet_op(LaplaceKernel(20.0), 0.4, 8, p.d)
        out = period_map(StateVector(np.zeros(8)), p, op, StepControl.for_params(p, 50))
        assert np.all(out.values == 0.0)

    def test_matches_evolve_over_one_period(self):
        p = params(P1)
        op = dirichlet_op(LaplaceKernel(20.0), 0.4, 16, p.d)
        ctl = StepControl.for_params(p, 400)
        u0 = StateVector(np.cos(np.pi * op.grid.nodes / 0.4))
        via_map = period_map(u0, p, op, ctl)
        via_evolve = evolve(u0, p, op, ctl, p.omega)
        assert np.max(np.abs(via_map.values - via_evolve.final.values)) == 0.0
        assert via_map.time == p.omega

    @pytest.mark.parametrize("rho, omega", [(0.3, 1.3), (0.45, 0.7)])
    def test_matches_evolve_where_season_lengths_round(self, rho, omega):
        # here (1 - rho) omega and omega - rho omega differ in the last bit;
        # the period map must integrate the span evolve integrates
        p = params(P1, rho=rho, omega=omega)
        op = dirichlet_op(LaplaceKernel(20.0), 0.4, 16, p.d)
        ctl = StepControl.for_params(p, 400)
        u0 = StateVector(np.cos(np.pi * op.grid.nodes / 0.4))
        via_map = period_map(u0, p, op, ctl)
        via_evolve = evolve(u0, p, op, ctl, p.omega)
        assert np.array_equal(via_map.values, via_evolve.final.values)

    def test_monotone_in_initial_data(self):
        rng = np.random.default_rng(41)
        p = params(P1)
        op = dirichlet_op(LaplaceKernel(2.0), 1.0, 24, p.d)
        ctl = StepControl.for_params(p, 400)
        u0 = random_nonneg_state(rng, 24, with_zeros=False)
        v0 = u0 + rng.uniform(0.0, 0.5, 24)
        pu = period_map(StateVector(u0), p, op, ctl).values
        pv = period_map(StateVector(v0), p, op, ctl).values
        assert np.all(pu <= pv + 1e-10)

    def test_constant_above_ceiling_is_upper_solution(self):
        p = params(P1)
        op = dirichlet_op(LaplaceKernel(20.0), 0.4, 24, p.d)
        ctl = StepControl.for_params(p, 400)
        M = p.a / p.b + 1.0
        out = period_map(StateVector(np.full(24, M)), p, op, ctl)
        assert np.all(out.values <= M)


def test_linear_part_is_built_once_per_call(monkeypatch):
    # evolve, period_map and fit_step each build A once from the column,
    # however many spans and period maps they step with it, and none reads
    # the dense K: with K raising, their results stay the same bit for bit.
    # The cosine start is even, so A is the (8, 8) fold
    from seasonal_dispersal import DispersalOperator

    p = params(P1)
    op = dirichlet_op(LaplaceKernel(20.0), 0.4, 16, p.d)
    u0 = StateVector(np.cos(np.pi * op.grid.nodes / 0.4))
    ctl = StepControl.for_params(p, 400, stride=20)
    calls = (lambda: evolve(u0, p, op, ctl, 3 * p.omega).values.tobytes(),
             lambda: period_map(u0, p, op, ctl).values.tobytes(),
             lambda: evolution.fit_step(u0, p, op, ctl))
    expected = [call() for call in calls]
    built, linear_part = [], evolution._linear_part

    def counted(op_, a, b, m):
        A = linear_part(op_, a, b, m)
        built.append(A.shape)
        return A

    def dense(self):
        raise AssertionError("the dense n x n K was read")

    monkeypatch.setattr(evolution, "_linear_part", counted)
    monkeypatch.setattr(DispersalOperator, "K", property(dense))
    for call, want in zip(calls, expected):
        built.clear()
        got = call()
        assert built == [(8, 8)]
        assert got == want


@pytest.mark.parametrize("fault, message", [("negative", "nonnegative"),
                                            ("nodes", "nodes, operator expects"),
                                            ("rate", "differs from params d=0.6")],
                         ids=["negative", "nodes", "rate"])
@pytest.mark.parametrize("entry", ["evolve", "period_map", "fit_step"])
def test_entry_points_check_initial_state_and_rate(entry, fault, message):
    # one check of the initial data and of the operator's dispersal rate,
    # before any step: p.d = 0.6 on an operator assembled with d = 1
    p = params(P1)
    op = dirichlet_op(LaplaceKernel(20.0), 0.4, 16, 0.6 if fault != "rate" else 1.0)
    u0 = np.full(16, 0.5)
    if fault == "negative":
        u0[3] = -0.1
    elif fault == "nodes":
        u0 = u0[:15]
    u0, ctl = StateVector(u0), StepControl.for_params(p, 400, stride=20)
    calls = {"evolve": lambda: evolve(u0, p, op, ctl, p.omega),
             "period_map": lambda: period_map(u0, p, op, ctl),
             "fit_step": lambda: evolution.fit_step(u0, p, op, ctl)}
    with pytest.raises(ValidationError, match=message):
        calls[entry]()


def test_no_span_allocates_a_square_array(monkeypatch):
    # the stepper keeps O(n m) buffers and takes its n x n linear part ready
    # made, once per call: no span of evolve over three periods may hold a
    # quarter of an n x n float array more than it was given
    p = params(P1)
    n = 256
    op = dirichlet_op(LaplaceKernel(20.0), 0.4, n, p.d)
    u0 = StateVector(np.cos(np.pi * op.grid.nodes / 0.4))
    stepper, peaks = evolution._rk4_span, []

    def traced(*args, **kwargs):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        try:
            return stepper(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] - before)

    monkeypatch.setattr(evolution, "_rk4_span", traced)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        evolve(u0, p, op, StepControl.for_params(p, 40, stride=10), 3 * p.omega)
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(peaks) == 3
    assert 0 < max(peaks) < 8 * n * n / 4


class TestFitStep:
    """``fit_step``: the coarsest RK4 step at the rounding floor, with the
    sample instants of the nominal control (the ``simulate`` default of
    2000 steps per good season and stride 100)."""

    @staticmethod
    def _case(n=64, **kw):
        p = params(P1, **kw)
        op = dirichlet_op(LaplaceKernel(20.0), 0.4, n, p.d)
        u0 = StateVector(np.cos(np.pi * op.grid.nodes / 0.4))
        return p, op, u0, StepControl.for_params(p, 2000, stride=100)

    def test_fitted_trajectory_matches_nominal_step(self):
        p, op, u0, ctl = self._case()
        fit, est = evolution.fit_step(u0, p, op, ctl)
        assert fit.steps_for(p.good_season_length) < 2000 and 0.0 < est < 1e-13
        assert fit.dt_good * fit.stride == ctl.dt_good * ctl.stride
        coarse = evolve(u0, p, op, fit, 3 * p.omega)
        nominal = evolve(u0, p, op, ctl, 3 * p.omega)
        assert coarse.times.size == nominal.times.size
        assert np.max(np.abs(coarse.values - nominal.values)) <= 1e-12
        # season boundaries exact; interior labels within an ulp
        boundaries = [i * p.omega for i in range(4)] + [(i + p.rho) * p.omega
                                                       for i in range(3)]
        for t in boundaries:
            assert np.count_nonzero(coarse.times == t) == 1
            assert np.count_nonzero(nominal.times == t) == 1
        assert np.all(np.abs(coarse.times - nominal.times) <= np.spacing(nominal.times))

    def test_choice_is_the_rule_on_one_period_estimates(self):
        # est(N) = |P_N(u0) - P_2N(u0)| 16/15 over 20 2^k steps, and the first
        # N with est(N) < 8 est(2N) gives 2N, bit for bit: the step-doubling
        # helper it shares with the periodic solve changes no number. The
        # cosine start is even, so the periods are stepped on its half
        p, op, u0, ctl = self._case()
        m = (op.n + 1) // 2
        counts = [20 * 2 ** k for k in range(7)]
        ends = {k: evolution._period_end(u0.values[:m], p,
                                         evolution._linear_part(op, p.a, p.b, m),
                                         StepControl.for_params(p, k))
                for k in counts}
        est = {k: float(np.max(np.abs(ends[k] - ends[2 * k]))) * 16.0 / 15.0
               for k in counts[:-1]}
        N = next(k for k in counts[:-2] if est[k] == 0.0 or est[k] < 8.0 * est[2 * k])
        fit, e = evolution.fit_step(u0, p, op, ctl)
        assert fit.steps_for(p.good_season_length) == 2 * N
        assert e == est[2 * N]

    def test_figure_config_takes_at_most_200_steps(self, tmp_path):
        text = (Path(__file__).resolve().parent.parent / "scripts" / "p1_figure.cfg").read_text()
        cfg = parse_config(text.replace("out/", f"{tmp_path}/"))
        op = assemble(cfg.kernel, cfg.grid, cfg.bc, cfg.params.d)
        fit, est = evolution.fit_step(cfg.u0, cfg.params, op, cfg.ctl)
        assert fit.steps_for(cfg.params.good_season_length) <= 200
        assert est is not None and est < 1e-13

    def test_long_season_keeps_nominal_step(self):
        # omega = 10: no candidate up to a quarter of the nominal count is
        # at the rounding floor, so no more steps than the nominal are taken
        p, op, u0, ctl = self._case(omega=10.0)
        assert evolution.fit_step(u0, p, op, ctl) == (ctl, None)

    @pytest.mark.parametrize("stride", [300, 1], ids=["non_integral", "over_cap"])
    def test_no_candidate_keeps_nominal_step_unstepped(self, monkeypatch, stride):
        # 2000 / 300 samples per good season is not an integer; with a
        # sample every step, the first candidate (2000) exceeds a quarter
        # of the nominal count
        p, op, u0, _ = self._case()
        ctl = StepControl.for_params(p, 2000, stride=stride)

        def stepped(*args, **kwargs):
            raise AssertionError("no candidate may be run")

        monkeypatch.setattr(evolution, "_rk4_span", stepped)
        assert evolution.fit_step(u0, p, op, ctl) == (ctl, None)

    def test_candidate_raising_positivity_error_is_skipped(self, monkeypatch):
        p, op, u0, ctl = self._case()
        unpatched = evolution.fit_step(u0, p, op, ctl)
        stepper, failed = evolution._rk4_span, []

        def coarse_fails(u, A, b, span, steps, *args, **kwargs):
            if steps < 80:
                failed.append(steps)
                raise PositivityError("negative", node=0, value=-1.0,
                                      suggested_dt=span / steps / 2)
            return stepper(u, A, b, span, steps, *args, **kwargs)

        monkeypatch.setattr(evolution, "_rk4_span", coarse_fails)
        assert evolution.fit_step(u0, p, op, ctl) == unpatched
        assert sorted(failed) == [20, 40]

    def test_candidate_breaking_the_bound_is_skipped(self, monkeypatch):
        # a candidate whose period ends above the a-priori bound fails as an
        # undershooting one does: est(20), which needs it, is None, est(40)
        # is not, and the choice moves on to the step it makes unpatched
        p, op, u0, ctl = self._case()
        unpatched = evolution.fit_step(u0, p, op, ctl)
        m = (op.n + 1) // 2
        start, A = u0.values[:m], evolution._linear_part(op, p.a, p.b, m)
        broken = []
        monkeypatch.setattr(evolution, "_rk4_span",
                            overshooting(evolution._rk4_span, 20, broken))
        with pytest.raises(SolverError, match="a-priori bound violated"):
            evolution._period_end(start, p, A, StepControl.for_params(p, 20))
        est = dict(evolution._step_doubling(start, p, A, 20, 40))
        assert est[20] is None and est[40] is not None
        broken.clear()
        assert evolution.fit_step(u0, p, op, ctl) == unpatched
        assert broken == [(m,)]

    def test_every_candidate_failing_keeps_nominal_step(self, monkeypatch):
        p, op, u0, ctl = self._case()

        def fails(u, A, b, span, steps, *args, **kwargs):
            raise PositivityError("negative", node=0, value=-1.0,
                                  suggested_dt=span / steps / 2)

        monkeypatch.setattr(evolution, "_rk4_span", fails)
        assert evolution.fit_step(u0, p, op, ctl) == (ctl, None)


class TestFold:
    """A start that equals its mirror bit for bit is stepped on its leading
    m = ceil(n/2) nodes by ``evolve``, ``period_map`` and ``fit_step``; any
    other start at full size. The full-size references step ``_rk4_span``
    with ``_linear_part(op, a, b, n)``."""

    @staticmethod
    def _case(bc, n):
        p = params(P1)
        op = assemble(LaplaceKernel(20.0), Grid.centered(0.4, n), bc, p.d)
        u0 = StateVector(np.cos(np.pi * op.grid.nodes / 0.4))
        return p, op, u0, StepControl.for_params(p, 40, stride=10)

    @staticmethod
    def _widths(monkeypatch):
        """The row counts of every A built and every state stepped."""
        seen = {"A": [], "u": []}
        build, stepper = evolution._linear_part, evolution._rk4_span

        def built(op, a, b, m):
            seen["A"].append(m)
            return build(op, a, b, m)

        def stepped(u, *args, **kwargs):
            seen["u"].append(u.shape[0])
            return stepper(u, *args, **kwargs)

        monkeypatch.setattr(evolution, "_linear_part", built)
        monkeypatch.setattr(evolution, "_rk4_span", stepped)
        return seen

    @pytest.mark.parametrize("bc", [DIR, NEU], ids=["dirichlet", "neumann"])
    @pytest.mark.parametrize("n", [1, 2, 3, 47, 128])
    def test_even_start_steps_half_and_stays_mirrored(self, monkeypatch, bc, n):
        p, op, u0, ctl = self._case(bc, n)
        A = linear(op, p)
        m = (n + 1) // 2
        full_times, full = evolution._collect(
            evolution._samples(u0.values, p, A, ctl, 2 * p.omega))
        seen = self._widths(monkeypatch)
        tr = evolve(u0, p, op, ctl, 2 * p.omega)
        end = period_map(u0, p, op, ctl).values
        assert set(seen["A"]) == {m} and set(seen["u"]) == {m}
        assert np.array_equal(tr.values, tr.values[:, ::-1])
        assert np.array_equal(end, end[::-1])
        assert np.array_equal(tr.times, full_times)
        ulps = 8 * np.finfo(float).eps * np.max(full)
        assert np.max(np.abs(tr.values - full)) <= ulps
        assert np.max(np.abs(end - evolution._period_end(u0.values, p, A, ctl))) <= ulps

    @pytest.mark.parametrize("bc", [DIR, NEU], ids=["dirichlet", "neumann"])
    @pytest.mark.parametrize("n", [1, 2, 3, 47, 128])
    def test_fit_step_on_even_start_matches_full_size(self, monkeypatch, bc, n):
        # with the fold width forced to n, fit_step steps at full size
        p, op, u0, _ = self._case(bc, n)
        ctl = StepControl.for_params(p, 2000, stride=100)
        monkeypatch.setattr(evolution, "_fold_width", lambda v: np.asarray(v).shape[-1])
        full, full_est = evolution.fit_step(u0, p, op, ctl)
        monkeypatch.undo()
        seen = self._widths(monkeypatch)
        fit, est = evolution.fit_step(u0, p, op, ctl)
        assert set(seen["A"]) == {(n + 1) // 2} and set(seen["u"]) == {(n + 1) // 2}
        assert fit == full
        assert abs(est - full_est) <= 8 * np.finfo(float).eps

    @pytest.mark.parametrize("n", [2, 3, 47, 128])
    def test_start_one_ulp_off_mirror_steps_full_size(self, monkeypatch, n):
        p, op, u0, ctl = self._case(DIR, n)
        values = u0.values.copy()
        values[0] = np.nextafter(values[0], 1.0)
        u0 = StateVector(values)
        A = linear(op, p)
        full = evolution._collect(evolution._samples(values, p, A, ctl, 2 * p.omega))[1]
        seen = self._widths(monkeypatch)
        tr = evolve(u0, p, op, ctl, 2 * p.omega)
        end = period_map(u0, p, op, ctl).values
        evolution.fit_step(u0, p, op, StepControl.for_params(p, 2000, stride=100))
        assert set(seen["A"]) == {n} and set(seen["u"]) == {n}
        assert np.array_equal(tr.values, full)
        assert np.array_equal(end, evolution._period_end(values, p, A, ctl))
