import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from seasonal_dispersal import (BoundaryCondition, BracketError, Grid,
                                LaplaceKernel, Regime, StepControl,
                                ValidationError, assemble, critical_length,
                                find_periodic_solution, principal_eigenpair, spectral)
from seasonal_dispersal.spectral import sigma1_bounds

from helpers import (P1, P2, P3, dense_sigma1, dirichlet_op, laplace_critical_length,
                     params)

NEU = BoundaryCondition.NEUMANN


def test_single_node_eigenproblem_by_hand():
    # 1x1 problem: r = d K00 = 0.5, sigma1 = d - a - r = 0.5
    op = dirichlet_op(LaplaceKernel(1.0), 1.0, 1, d=1.0)
    pair = principal_eigenpair(op, a=0.0)
    assert pair.sigma1 == pytest.approx(1.0 - op.d * op.K[0, 0], abs=1e-14)
    assert pair.sigma1 == pytest.approx(0.5, abs=1e-14)
    assert pair.phi1[0] == pytest.approx(1.0)


def test_sigma1_below_d_minus_a_and_residual():
    rng = np.random.default_rng(5)
    for _ in range(10):
        d = rng.uniform(0.2, 2.0)
        a = rng.uniform(0.1, 2.0)
        scale = rng.uniform(0.5, 10.0)
        length = rng.uniform(0.3, 4.0) * scale
        op = dirichlet_op(LaplaceKernel(scale), length, int(rng.integers(16, 64)), d)
        pair = principal_eigenpair(op, a)
        assert pair.sigma1 < d - a
        assert pair.residual <= 1e-8
        assert np.all(pair.phi1 > 0)
        assert np.max(pair.phi1) == pytest.approx(1.0)


def test_eigen_identity_residual_in_sup_norm():
    p = params(P1)
    op = dirichlet_op(LaplaceKernel(20.0), 0.4, 64, p.d)
    pair = principal_eigenpair(op, p.a)
    defect = op.d * (op.K @ pair.phi1 - pair.phi1) + p.a * pair.phi1 \
        + pair.sigma1 * pair.phi1
    assert np.max(np.abs(defect)) <= 1e-8


def test_against_dense_full_spectrum_oracle():
    for d, a, scale, length, n in [(0.6, 1.2, 1.0, 2.0, 128),
                                   (1.0, 1.2, 20.0, 0.4, 96),
                                   (0.9, 0.3, 2.0, 7.0, 160)]:
        op = dirichlet_op(LaplaceKernel(scale), length, n, d)
        pair = principal_eigenpair(op, a)
        assert pair.sigma1 == pytest.approx(dense_sigma1(op, a), abs=1e-7)


def test_wide_habitat_against_dense_oracle():
    # 100 and 200 kernel scales at n = 2048: the top two eigenvalues of K lie
    # close together (ratio 0.99717 at 100 scales), so a power iteration
    # would need thousands of steps; Lanczos needs a few dozen products
    for length, products in ((100.0, 60), (200.0, 100)):
        op = dirichlet_op(LaplaceKernel(1.0), length, 2048, 1.0)
        pair = principal_eigenpair(op, 1.2)
        assert pair.sigma1 == pytest.approx(dense_sigma1(op, 1.2), abs=1e-8)
        assert pair.iterations <= products


def test_krylov_space_closing_early():
    # K is centrosymmetric, so the Krylov space of the ones vector closes at
    # dimension ceil(n/2); on tiny grids that happens before the Ritz
    # estimate converges, and the exact Ritz pair is returned
    for n in range(1, 10):
        op = dirichlet_op(LaplaceKernel(1.0), 2.0, n, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pair = principal_eigenpair(op, 1.2)
        assert pair.sigma1 == pytest.approx(dense_sigma1(op, 1.2), abs=1e-12)
        assert np.all(np.isfinite(pair.phi1)) and np.all(pair.phi1 > 0)
        assert pair.residual <= 1e-8


def test_grid_refinement_stability():
    p = params(P2)
    vals = []
    for n in (256, 512):
        op = dirichlet_op(LaplaceKernel(1.0), 2.0, n, p.d)
        vals.append(principal_eigenpair(op, p.a).sigma1)
    assert abs(vals[0] - vals[1]) <= 1e-4


def test_requires_dirichlet():
    op = assemble(LaplaceKernel(1.0), Grid.centered(1.0, 8), NEU, d=1.0)
    with pytest.raises(ValidationError, match="Dirichlet"):
        principal_eigenpair(op, a=1.0)


class TestThreshold:
    """lambda1 = SeasonParams.lambda1(sigma1) on the eigen-solve's sigma1."""

    def test_neumann_closed_form_P1(self):
        # constants are principal under Neumann, so sigma1 = -a
        p = params(P1)
        lam1 = p.lambda1(-p.a)
        assert lam1 == pytest.approx(0.6 * 0.2 - 1.2 * 0.4, abs=1e-15)
        assert lam1 == pytest.approx(-0.36)

    def test_dirichlet_affine_in_rho(self):
        # with sigma1 held fixed, lambda1 interpolates sigma1 (rho -> 0)
        # and delta (rho -> 1) affinely
        op = dirichlet_op(LaplaceKernel(2.0), 2.0, 64, d=0.6)
        pair = principal_eigenpair(op, a=1.2)
        s = pair.sigma1
        for rho in (0.05, 0.3, 0.5, 0.8, 0.95):
            p = params(d=0.6, a=1.2, rho=rho)
            assert p.lambda1(s) == pytest.approx(s + rho * (p.delta - s), rel=1e-12)

    def test_dirichlet_lower_bound(self):
        p = params(P1)
        op = dirichlet_op(LaplaceKernel(20.0), 0.4, 64, p.d)
        lam1 = p.lambda1(principal_eigenpair(op, p.a).sigma1)
        assert lam1 > p.rho * p.delta - (1 - p.rho) * p.a

    def test_P2_opposite_signs_with_oracle(self):
        p = params(P2)
        k = LaplaceKernel(20.0)
        lams = {}
        for length in (0.4, 8.0):
            n = 512
            op = dirichlet_op(k, length, n, p.d)
            lam1 = p.lambda1(principal_eigenpair(op, p.a).sigma1)
            oracle = (1 - p.rho) * dense_sigma1(op, p.a) + p.rho * p.delta
            assert lam1 == pytest.approx(oracle, abs=1e-7)
            lams[length] = lam1
        assert lams[0.4] > 0 > lams[8.0]

    def test_rate_mismatch_rejected(self):
        p = params(P1)
        op = dirichlet_op(LaplaceKernel(20.0), 0.4, 16, d=0.7)
        with pytest.raises(ValidationError, match="dispersal"):
            find_periodic_solution(p, op, StepControl.for_params(p, 10))


class TestSpectralProperties:
    def test_sigma1_strictly_decreasing_in_length(self):
        p = params(P1)
        k = LaplaceKernel(1.0)
        sig = []
        for ell in (1.0, 2.0, 4.0, 8.0, 16.0):
            n = max(256, math.ceil(64 * ell))
            sig.append(principal_eigenpair(dirichlet_op(k, ell, n, p.d), p.a).sigma1)
        assert all(b < a for a, b in zip(sig, sig[1:]))

    def test_limits_small_and_large_domain(self):
        d, a = 0.6, 1.2
        k = LaplaceKernel(1.0)
        s_small = principal_eigenpair(dirichlet_op(k, 1e-3, 256, d), a).sigma1
        assert abs(s_small - (d - a)) <= 1e-2
        s_large = principal_eigenpair(dirichlet_op(k, 200.0, 1024, d), a).sigma1
        assert abs(s_large - (-a)) <= 5e-2

    def test_translation_invariance(self):
        rng = np.random.default_rng(9)
        p = params(P2)
        k = LaplaceKernel(1.5)
        base = principal_eigenpair(
            assemble(k, Grid(-1.0, 2.0, 96), BoundaryCondition.DIRICHLET, p.d), p.a)
        for _ in range(4):
            c = rng.uniform(-30.0, 30.0)
            shifted = principal_eigenpair(
                assemble(k, Grid(-1.0 + c, 2.0 + c, 96), BoundaryCondition.DIRICHLET,
                         p.d), p.a)
            assert abs(shifted.sigma1 - base.sigma1) <= 1e-10

    def test_linear_scaling_in_d_at_zero_growth(self):
        k = LaplaceKernel(1.0)
        s1 = principal_eigenpair(dirichlet_op(k, 2.0, 128, 0.7), a=0.0).sigma1
        s2 = principal_eigenpair(dirichlet_op(k, 2.0, 128, 1.4), a=0.0).sigma1
        assert abs(s2 / s1 - 2.0) <= 1e-8


def test_threshold_is_linear_period_map_decay_rate(monkeypatch):
    # the linearized model (b ~ 0) maps phi1 to e^{-lambda1 omega} phi1 over
    # one period: exact decay through the bad season and, since phi1 is an
    # eigenfunction of the frozen good-season operator, pure exponential
    # growth at rate -sigma1 through the good one
    from seasonal_dispersal import StateVector, period_map

    p = params(P1, b=1e-30)
    op = dirichlet_op(LaplaceKernel(2.0), 3.0, 64, p.d)
    monkeypatch.setattr(spectral, "EIGEN_TOL", 1e-12)
    pair = principal_eigenpair(op, p.a)
    lam1 = p.lambda1(pair.sigma1)
    out = period_map(StateVector(pair.phi1), p, op, StepControl.for_params(p, 2000))
    expected = math.exp(-lam1 * p.omega) * pair.phi1
    assert np.max(np.abs(out.values - expected)) <= 1e-9 * np.max(expected)


def test_tabulated_kernel_eigen_matches_dense_oracle():
    from helpers import tent_kernel_table
    from seasonal_dispersal import TabulatedKernel

    k = TabulatedKernel(tent_kernel_table(1.0, m=81), half_width=1.0)
    op = assemble(k, Grid.centered(1.5, 96), BoundaryCondition.DIRICHLET, 0.8)
    pair = principal_eigenpair(op, a=1.1)
    assert pair.sigma1 == pytest.approx(dense_sigma1(op, 1.1), abs=1e-7)
    assert np.all(pair.phi1 > 0)


class TestSigma1Bounds:
    def test_encloses_dense_sigma1_for_any_positive_phi(self):
        p = params(P1)
        op = dirichlet_op(LaplaceKernel(20.0), 0.4, 24, p.d)
        exact = dense_sigma1(op, p.a)
        rng = np.random.default_rng(12)
        for _ in range(20):
            phi = rng.uniform(0.01, 1.0, op.n)
            lo, hi = sigma1_bounds(op, p.a, phi, op.apply(phi))
            assert lo <= exact <= hi

    def test_width_at_eigenpair_within_residual_bound(self):
        p = params(P1)
        op = dirichlet_op(LaplaceKernel(20.0), 0.4, 24, p.d)
        pair = principal_eigenpair(op, p.a)
        lo, hi = sigma1_bounds(op, p.a, pair.phi1, op.apply(pair.phi1))
        assert lo <= dense_sigma1(op, p.a) <= hi
        assert lo <= pair.sigma1 <= hi
        assert hi - lo <= 2.0 * pair.residual / np.min(pair.phi1)

    @pytest.mark.parametrize("bad", [0.0, -1e-3, np.nan])
    def test_non_positive_phi_refused(self, bad):
        op = dirichlet_op(LaplaceKernel(20.0), 0.4, 8, 0.6)
        phi = np.ones(op.n)
        phi[3] = bad
        with pytest.raises(ValidationError, match="positive"):
            sigma1_bounds(op, 1.2, phi, op.apply(phi))


@pytest.mark.parametrize("n", [1, 2, 3, 64])
def test_eigen_solve_ends_within_2n_products(n, monkeypatch):
    # no budget bounds the Lanczos loop: the Krylov space is closed by
    # dimension n at the latest, so at a tolerance of 0 the solve gives up
    # after at most n Lanczos products and as many explicit ones; on one
    # node the 1 x 1 problem is solved exactly, and its residual 0 passes
    from seasonal_dispersal import EigenConvergenceError

    monkeypatch.setattr(spectral, "EIGEN_TOL", 0.0)
    op = dirichlet_op(LaplaceKernel(1.0), 4.0, n, 0.6)
    if n == 1:
        pair = principal_eigenpair(op, a=1.2)
        assert pair.residual == 0.0 and pair.iterations == 2
        return
    with pytest.raises(EigenConvergenceError, match="closed") as err:
        principal_eigenpair(op, a=1.2)
    assert 0 < err.value.iterations <= 2 * n
    assert err.value.last_residual > 0


class TestCriticalLength:
    def test_P1_persists_everywhere(self):
        # margin 0.36 > (1 - rho) d = 0.24
        res = critical_length(params(P1), LaplaceKernel(20.0))
        assert res.verdict is Regime.PERSIST_ALL_DOMAINS
        assert res.ell_star is None

    def test_P3_extinct_everywhere(self):
        # margin = 0.48 - 0.48 = 0
        res = critical_length(params(P3), LaplaceKernel(20.0))
        assert res.verdict is Regime.EXTINCT_ALL_DOMAINS

    def test_P2_finite_critical_length(self):
        p = params(P2)
        res = critical_length(p, LaplaceKernel(20.0))
        assert res.verdict is Regime.CRITICAL_LENGTH
        lo, hi = res.bracket
        assert hi - lo <= 1e-4
        assert res.lambda_lo > 0 > res.lambda_hi
        assert lo < res.ell_star < hi
        # independent sign check at the bracket endpoints via dense solves
        for ell, expect_positive in ((lo, True), (hi, False)):
            n = max(256, math.ceil(64 * ell / 20.0))
            op = dirichlet_op(LaplaceKernel(20.0), ell, n, p.d)
            lam = (1 - p.rho) * dense_sigma1(op, p.a) + p.rho * p.delta
            assert (lam > 0) is expect_positive

    @pytest.mark.parametrize("scale", [1.0, 3.7, 20.0])
    def test_P2_against_continuum_closed_form(self, scale, monkeypatch):
        p = params(P2)
        solves = []

        def spy(op, a):
            pair = principal_eigenpair(op, a)
            solves.append((op.grid.l2 - op.grid.l1, op.n, pair))
            return pair

        monkeypatch.setattr(spectral, "principal_eigenpair", spy)
        res = critical_length(p, LaplaceKernel(scale))
        assert len(solves) <= 12
        lo, hi = res.bracket
        assert hi - lo <= 1e-4
        assert res.lambda_lo > 0 > res.lambda_hi
        # each end's sign is certified by the enclosure of its own solve
        for ell, lam in ((lo, res.lambda_lo), (hi, res.lambda_hi)):
            (n, pair), = [(n, pair) for length, n, pair in solves if length == ell]
            assert lam == p.lambda1(pair.sigma1)
            op = dirichlet_op(LaplaceKernel(scale), ell, n, p.d)
            lower, upper = (p.lambda1(s) for s in sigma1_bounds(
                op, p.a, pair.phi1, op.apply(pair.phi1)))
            assert lower > 0 if lam > 0 else upper < 0
        assert abs(res.ell_star - laplace_critical_length(p, scale)) <= 1e-4

    def test_uncertified_start_is_probed_not_kept(self):
        # delta tuned so that lambda1 = 0 at the starting length ell = 1 (one
        # kernel scale, n = 256): that solve's enclosure straddles zero, so it
        # must not become a bracket end; the probes at 1 -+ tol/4 certify
        p2 = params(P2)
        op = dirichlet_op(LaplaceKernel(1.0), 1.0, 256, p2.d)
        delta0 = -(1 - p2.rho) * principal_eigenpair(op, p2.a).sigma1 / p2.rho
        for shift in (0.0, 1e-15, -1e-15):
            p = params(P2, delta=delta0 + shift)
            res = critical_length(p, LaplaceKernel(1.0))
            lo, hi = res.bracket
            assert 0 < hi - lo <= 1e-4
            assert lo < 1.0 < hi
            for ell, positive in ((lo, True), (hi, False)):
                op = dirichlet_op(LaplaceKernel(1.0), ell, 256, p.d)
                pair = principal_eigenpair(op, p.a)
                lower, upper = (p.lambda1(s) for s in sigma1_bounds(
                    op, p.a, pair.phi1, op.apply(pair.phi1)))
                assert (lower > 0) if positive else (upper < 0)

    def test_pair_disagreeing_with_its_enclosure_is_not_kept(self, monkeypatch):
        # every solve's sigma1 is moved, as test_wrong_sign_sigma1_is_refused
        # moves it, so that lambda1 takes the other sign while the enclosure
        # still holds the true one: such a pair certifies no sign, so neither
        # the start nor the probes around it may become a bracket end
        p = params(P2)
        solves = []

        def wrong(op, a):
            pair = principal_eigenpair(op, a)
            lower, upper = (p.lambda1(s) for s in pair.enclosure)
            assert lower > 0 or upper < 0  # the enclosure certifies a sign
            wrong_lambda1 = -p.lambda1(pair.sigma1)
            solves.append(op.grid.l2 - op.grid.l1)
            return replace(pair, sigma1=(wrong_lambda1 - p.rho * p.delta) / (1.0 - p.rho))

        monkeypatch.setattr(spectral, "principal_eigenpair", wrong)
        with pytest.raises(BracketError, match="eigen residual"):
            critical_length(p, LaplaceKernel(20.0))
        assert solves == pytest.approx([20.0, 20.0 - 2.5e-5])

    def test_tolerance_below_certified_resolution_reported(self, monkeypatch):
        # near ell* at kernel scale 20, lambda1 falls by 8.7e-3 per unit
        # length, so it moves by 2e-17 over BRACKET_TOL / 4 = 2.5e-15: far
        # below the width of the lambda1 enclosure of any eigen-solve in
        # floating point
        monkeypatch.setattr(spectral, "BRACKET_TOL", 1e-14)
        with pytest.raises(BracketError, match="eigen residual"):
            critical_length(params(P2), LaplaceKernel(20.0))

    def test_degenerate_regime_boundary_reports_bracket_failure(self):
        # margin exactly equal to (1-rho) d (dyadic values, so the equality
        # is bit-exact): the middle regime applies but lambda1(ell) < 0 for
        # every ell, so no sign change exists
        p = params(delta=0.5, a=1.0, b=0.6, d=0.5, rho=0.5, omega=1.0)
        assert p.growth_margin == (1 - p.rho) * p.d
        with pytest.raises(BracketError, match="degenerate"):
            critical_length(p, LaplaceKernel(1.0))

    def test_expansion_cap_reported(self, monkeypatch):
        # weak growth pushes ell* to tens of kernel scales; a small expansion
        # cap must fail loudly instead of extrapolating
        from seasonal_dispersal import spectral

        p = params(a=0.4, d=1.0)
        assert 0 < p.growth_margin <= (1 - p.rho) * p.d
        monkeypatch.setattr(spectral, "EXPAND_CAP", 4.0)
        with pytest.raises(BracketError, match="no sign change"):
            critical_length(p, LaplaceKernel(1.0))
