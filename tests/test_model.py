import math

import numpy as np
import pytest

from seasonal_dispersal import (Grid, LaplaceKernel, SeasonParams, StateVector,
                                TabulatedKernel, ValidationError)

from helpers import laplace_mass_quadrature, params, tent_kernel_table


class TestSeasonParams:
    def test_published_set_accepted(self):
        p = SeasonParams(delta=0.2, a=1.2, b=0.6, d=0.6, rho=0.6, omega=1.0)
        assert p.growth_margin == pytest.approx(0.36)

    def test_rho_boundaries_rejected(self):
        with pytest.raises(ValidationError, match="rho"):
            params(rho=0.0)
        with pytest.raises(ValidationError, match="rho"):
            params(rho=1.0)
        with pytest.raises(ValidationError, match="rho"):
            params(rho=1.5)

    def test_negative_competition_rejected(self):
        with pytest.raises(ValidationError, match="b"):
            params(b=-1.0)

    @pytest.mark.parametrize("field", ["delta", "a", "b", "d", "omega"])
    def test_nonpositive_fields_named(self, field):
        with pytest.raises(ValidationError, match=field):
            params(**{field: 0.0})
        with pytest.raises(ValidationError, match=field):
            params(**{field: math.nan})

    def test_season_lengths(self):
        p = params(rho=0.6, omega=2.0)
        assert p.bad_season_length == pytest.approx(1.2)
        assert p.good_season_length == pytest.approx(0.8)


class TestLaplaceKernel:
    def test_value_at_zero(self):
        assert LaplaceKernel(scale=20.0).evaluate(0.0) == pytest.approx(1.0 / 40.0)

    def test_even_exactly(self):
        k = LaplaceKernel(scale=2.5)
        rng = np.random.default_rng(7)
        x = rng.uniform(-50, 50, 1000)
        assert np.all(k.evaluate(x) == k.evaluate(-x))

    def test_nonnegative(self):
        k = LaplaceKernel(scale=1.0)
        assert np.all(k.evaluate(np.linspace(-100, 100, 501)) >= 0)

    @pytest.mark.parametrize("ratio", [0.1, 1.0, 10.0])
    def test_mass_matches_quadrature(self, ratio):
        # closed form 1 - exp(-W/D) against an independent fine midpoint sum
        D = 2.0
        W = ratio * D
        assert LaplaceKernel(D).mass(W) == pytest.approx(
            laplace_mass_quadrature(D, W), abs=1e-8)

    def test_mass_closed_form_example(self):
        assert LaplaceKernel(20.0).mass(20.0) == pytest.approx(
            1.0 - math.exp(-1.0), abs=1e-12)

    def test_mass_monotone_and_bounded(self):
        k = LaplaceKernel(scale=3.0)
        masses = [k.mass(W) for W in np.geomspace(0.01, 1e4, 40)]
        assert all(b >= a for a, b in zip(masses, masses[1:]))
        assert all(m <= 1.0 + 1e-9 for m in masses)

    def test_mass_vanishes_with_interval(self):
        assert LaplaceKernel(1.0).mass(1e-12) < 1e-11

    def test_invalid_scale(self):
        with pytest.raises(ValidationError):
            LaplaceKernel(scale=0.0)


class TestTabulatedKernel:
    def test_tent_round_trip(self):
        k = TabulatedKernel(values=tent_kernel_table(2.0), half_width=2.0)
        assert k.evaluate(0.0) == pytest.approx(0.5)
        assert k.mass(2.0) == pytest.approx(1.0, abs=1e-12)
        assert k.mass(1.0) == pytest.approx(0.75, abs=1e-12)  # by hand
        assert k.mass(50.0) == pytest.approx(1.0, abs=1e-12)

    def test_clipped_outside_support(self):
        k = TabulatedKernel(values=tent_kernel_table(1.5), half_width=1.5)
        assert np.all(k.evaluate(np.array([1.6, -2.0, 100.0])) == 0.0)

    def test_symmetry_within_interpolation_tolerance(self):
        # an odd- and an even-sized table; evaluation at |x| is even bit for bit
        half = np.linspace(1.0, 0.1, 17)
        even = np.concatenate([half[::-1], half])
        even /= np.trapezoid(even, np.linspace(-1.0, 1.0, even.size))
        rng = np.random.default_rng(3)
        x = rng.uniform(-1.5, 1.5, 1000)
        for values in (tent_kernel_table(1.0, m=33), even):
            k = TabulatedKernel(values=values, half_width=1.0)
            assert np.max(np.abs(k.evaluate(x) - k.evaluate(-x))) <= 1e-12
            assert np.array_equal(k.evaluate(x), k.evaluate(-x))

    def test_asymmetric_table_rejected(self):
        v = tent_kernel_table(1.0)
        v = v.copy()
        v[3] += 1e-9
        with pytest.raises(ValidationError, match="symmetric"):
            TabulatedKernel(values=v, half_width=1.0)

    def test_negative_sample_rejected(self):
        v = tent_kernel_table(1.0).copy()
        v[0] = -1e-3
        with pytest.raises(ValidationError, match="negative"):
            TabulatedKernel(values=v, half_width=1.0)

    def test_wrong_mass_rejected(self):
        with pytest.raises(ValidationError, match="mass"):
            TabulatedKernel(values=1.01 * tent_kernel_table(1.0), half_width=1.0)

    def test_mass_normalized_exactly(self):
        # a table off by less than 1e-6 is accepted and renormalized
        v = (1.0 + 5e-7) * tent_kernel_table(1.0)
        k = TabulatedKernel(values=v, half_width=1.0)
        assert k.mass(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_even_sample_count_uniform_kernel(self):
        # 4 samples of the uniform kernel 1/(2w); interpolation at 0 crosses
        # the gap between the two middle samples
        w = 2.0
        k = TabulatedKernel(values=np.full(4, 1.0 / (2.0 * w)), half_width=w)
        assert k.evaluate(0.0) == pytest.approx(0.25)
        assert k.mass(w) == pytest.approx(1.0, abs=1e-12)
        assert k.mass(0.5) == pytest.approx(0.25, abs=1e-12)

    def test_zero_at_origin_rejected(self):
        xs = np.linspace(-1, 1, 5)
        v = np.array([0.0, 1.0, 0.0, 1.0, 0.0])  # unit trapezoid mass, J(0) = 0
        assert np.trapezoid(v, xs) == pytest.approx(1.0)
        with pytest.raises(ValidationError, match="origin"):
            TabulatedKernel(values=v, half_width=1.0)


class TestGrid:
    def test_midpoint_nodes(self):
        g = Grid(l1=-0.5, l2=0.5, n=4)
        assert g.dx == pytest.approx(0.25)
        assert np.allclose(g.nodes, [-0.375, -0.125, 0.125, 0.375])
        assert np.all(np.diff(g.nodes) > 0)
        assert g.nodes[0] > g.l1 and g.nodes[-1] < g.l2

    def test_weights_sum_to_length(self):
        for n in (2, 7, 64, 128):
            g = Grid(l1=-1.3, l2=2.9, n=n)
            assert n * g.dx == pytest.approx(g.l2 - g.l1, rel=1e-12)

    def test_refinement_preserves_total_weight(self):
        g1 = Grid(l1=0.0, l2=3.7, n=100)
        g2 = Grid(l1=0.0, l2=3.7, n=200)
        assert g1.n * g1.dx == pytest.approx(g2.n * g2.dx, rel=1e-12)

    def test_single_node_allowed(self):
        g = Grid(l1=-0.5, l2=0.5, n=1)
        assert g.nodes[0] == pytest.approx(0.0)
        assert g.dx == pytest.approx(1.0)

    def test_invalid(self):
        with pytest.raises(ValidationError):
            Grid(l1=1.0, l2=1.0, n=4)
        with pytest.raises(ValidationError):
            Grid(l1=0.0, l2=1.0, n=0)

    def test_centered(self):
        g = Grid.centered(8.0, 16)
        assert (g.l1, g.l2) == (-4.0, 4.0)


class TestStateVector:
    def test_basic(self):
        s = StateVector(np.array([1.0, 2.0, 0.5]), time=0.25)
        assert len(s) == 3
        assert s.sup_norm == pytest.approx(2.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            StateVector(np.array([1.0, math.inf]))
        with pytest.raises(ValidationError):
            StateVector(np.array([1.0]), time=math.nan)

    def test_immutable(self):
        s = StateVector(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            s.values[0] = 9.0
