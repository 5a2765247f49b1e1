import tracemalloc

import numpy as np
import pytest

from seasonal_dispersal import (BoundaryCondition, Grid, LaplaceKernel,
                                StateVector, TabulatedKernel, ValidationError,
                                assemble, classify, principal_eigenpair)

from helpers import P2, brute_apply, dirichlet_op, params, tent_kernel_table

D = BoundaryCondition.DIRICHLET
N = BoundaryCondition.NEUMANN


def test_diagonal_is_kernel_peak_times_weight():
    for scale, length, n in [(20.0, 0.4, 16), (1.0, 2.0, 33), (0.5, 3.0, 8)]:
        op = dirichlet_op(LaplaceKernel(scale), length, n, d=0.7)
        assert np.allclose(np.diag(op.K), (length / n) / (2.0 * scale), rtol=1e-14)


def test_single_node_hand_value():
    # one midpoint cell on [-1/2, 1/2] with the unit-scale Laplace kernel:
    # K = J(0) * dx = 0.5, row mass 0.5
    op = dirichlet_op(LaplaceKernel(1.0), 1.0, 1, d=1.0)
    assert op.K.shape == (1, 1)
    assert op.K[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert op.rowmass[0] == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 47])
def test_block_is_K_on_mirrored_states(n):
    # K[i, j] = c[|i - j|]; _block(m) is K applied to the states that _unfold
    # mirrors from m leading nodes, read on those nodes, for every m from
    # ceil(n/2) (the even fold) to n (K itself)
    from seasonal_dispersal.operator import _unfold

    op = dirichlet_op(LaplaceKernel(20.0), 0.4, n, d=0.6)
    i = np.arange(n)
    assert np.array_equal(op.K, op.column[np.abs(i[:, None] - i)])
    for m in range((n + 1) // 2, n + 1):
        assert np.allclose(op._block(m), (op.K @ _unfold(np.eye(m), n).T)[:m],
                           rtol=1e-15, atol=0)


def test_symmetric_for_tabulated_kernel():
    k = TabulatedKernel(values=tent_kernel_table(1.2, m=41), half_width=1.2)
    op = assemble(k, Grid(-0.7, 1.9, 37), D, d=0.3)
    assert np.array_equal(op.K, op.K.T)
    assert np.all(op.K >= 0)
    assert np.all(np.diag(op.K) > 0)


def test_row_masses_bounded_on_resolved_grids():
    # strict bound: 0 < m_i <= 1 + 1e-9 while boundary losses dominate the
    # midpoint-rule excess (habitat not much wider than the kernel)
    for kernel, length, n in [(LaplaceKernel(20.0), 8.0, 256),
                              (LaplaceKernel(1.0), 16.0, 1024),
                              (TabulatedKernel(tent_kernel_table(1.0), 1.0), 1.2, 256)]:
        op = dirichlet_op(kernel, length, n, d=1.0)
        assert np.all(op.rowmass > 0)
        assert np.max(op.rowmass) <= 1.0 + 1e-9


def test_dirichlet_apply_matches_brute_force():
    rng = np.random.default_rng(11)
    op = dirichlet_op(LaplaceKernel(2.0), 3.0, 16, d=0.9)
    u = rng.uniform(0.0, 2.0, 16)
    assert np.max(np.abs(op.apply(u) - brute_apply(op, u))) <= 1e-12


def test_neumann_apply_matches_brute_force():
    rng = np.random.default_rng(12)
    op = assemble(LaplaceKernel(0.8), Grid(-1.0, 2.0, 16), N, d=1.3)
    u = rng.uniform(0.0, 2.0, 16)
    assert np.max(np.abs(op.apply(u) - brute_apply(op, u))) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 128, 513, 2048])
def test_fft_apply_matches_dense_and_brute_force(n):
    # the tent kernel vanishes beyond 1, so most of its column is zero
    rng = np.random.default_rng(n)
    for kernel, length in [(LaplaceKernel(1.0), 7.0),
                           (TabulatedKernel(tent_kernel_table(1.0, m=41), 1.0), 6.0)]:
        for bc in (D, N):
            op = assemble(kernel, Grid(-0.3 * length, 0.7 * length, n), bc, d=0.9)
            u = rng.normal(size=n)
            tol = 1e-14 * np.max(np.abs(u))
            out = op.apply(u)
            assert np.max(np.abs(out - op.d * (op.K @ u - op.loss * u))) <= tol
            if n <= 513:  # the double loop alone takes seconds at n = 2048
                assert np.max(np.abs(out - brute_apply(op, u))) <= tol


def test_block_product_equals_column_products():
    rng = np.random.default_rng(15)
    op = dirichlet_op(LaplaceKernel(2.0), 9.0, 200, d=0.7)
    X = rng.normal(size=(200, 3))
    block = op._matvec(X)
    assert block.shape == (200, 3)
    for j in range(3):
        assert np.max(np.abs(block[:, j] - op._matvec(X[:, j]))) <= 1e-15 * np.max(np.abs(X))


def test_prefix_sum_rowmass_matches_dense_row_sums():
    for kernel, length, n in [(LaplaceKernel(1.0), 7.0, 2048),
                              (LaplaceKernel(1.0), 100.0, 2048),
                              (LaplaceKernel(20.0), 8.0, 513),
                              (TabulatedKernel(tent_kernel_table(1.0), 1.0), 5.0, 1000)]:
        op = dirichlet_op(kernel, length, n, d=1.0)
        assert np.max(np.abs(op.rowmass - op.K.sum(axis=1))) <= 1e-15


def test_spectral_path_allocates_no_dense_matrix():
    # one dense matrix at n = 4096 is 128 MiB; the column, its spectrum and
    # the iterates take well under 1 MiB
    p = params(P2)
    kernel = LaplaceKernel(1.0)
    tracemalloc.start()
    try:
        op = dirichlet_op(kernel, 100.0, 4096, p.d)
        pair = principal_eigenpair(op, p.a)
        op.apply(pair.phi1)
        classify(p, kernel, D, domain=op.grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert "K" not in op.__dict__


def test_neumann_annihilates_constants():
    op = assemble(LaplaceKernel(5.0), Grid.centered(2.0, 48), N, d=0.6)
    out = op.apply(np.full(48, 7.0))
    assert np.max(np.abs(out)) <= 1e-12 * 7.0


def test_dirichlet_on_constant_is_nonpositive():
    op = dirichlet_op(LaplaceKernel(5.0), 2.0, 48, d=0.6)
    out = op.apply(np.ones(48))
    assert np.all(out <= 0.0)
    assert np.allclose(out, op.d * (op.rowmass - 1.0), atol=1e-14)


def test_boundary_condition_difference_identity():
    rng = np.random.default_rng(13)
    g = Grid.centered(3.0, 24)
    k = LaplaceKernel(1.5)
    opd = assemble(k, g, D, d=0.8)
    opn = assemble(k, g, N, d=0.8)
    u = rng.uniform(0.0, 1.0, 24)
    lhs = opn.apply(u) - opd.apply(u)
    rhs = 0.8 * (1.0 - opn.rowmass) * u
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_quasi_positivity_at_zero_nodes():
    rng = np.random.default_rng(14)
    g = Grid.centered(2.0, 32)
    u = rng.uniform(0.0, 1.0, 32)
    u[::3] = 0.0
    for bc in (D, N):
        op = assemble(LaplaceKernel(1.0), g, bc, d=0.7)
        out = op.apply(u)
        assert np.all(out[u == 0.0] >= 0.0)


def test_apply_accepts_state_vector_and_checks_shape():
    op = dirichlet_op(LaplaceKernel(1.0), 1.0, 8, d=1.0)
    s = StateVector(np.ones(8))
    assert np.array_equal(op.apply(s), op.apply(np.ones(8)))
    with pytest.raises(ValidationError, match="shape"):
        op.apply(np.ones(9))


def test_rowmass_closed_form_convergence_order():
    # For u == 1 the Dirichlet operator equals d (m(x) - 1) with the exact
    # m(x) = 1 - (e^{-(x-l1)/D} + e^{-(l2-x)/D}) / 2; midpoint assembly must
    # approach it at second order.
    d, scale, l1, l2 = 0.9, 1.0, -1.0, 1.0
    k = LaplaceKernel(scale)
    errs, dxs = [], []
    for n in (64, 128, 256, 512):
        g = Grid(l1, l2, n)
        op = assemble(k, g, D, d=d)
        x = g.nodes
        exact = 1.0 - 0.5 * (np.exp(-(x - l1) / scale) + np.exp(-(l2 - x) / scale))
        errs.append(np.max(np.abs(op.rowmass - exact)))
        dxs.append(g.dx)
    slope = np.polyfit(np.log(dxs), np.log(errs), 1)[0]
    assert slope >= 1.9


def test_apply_grid_convergence_order():
    # smooth profile, errors measured against a fine reference interpolated
    # onto each coarse grid
    d, scale = 0.6, 1.0
    k = LaplaceKernel(scale)
    u_fn = lambda x: np.cos(np.pi * x / 2.0) ** 2 + 0.5

    g_ref = Grid(-1.0, 1.0, 8192)
    ref = assemble(k, g_ref, D, d=d).apply(u_fn(g_ref.nodes))

    errs, dxs = [], []
    for n in (64, 128, 256, 512):
        g = Grid(-1.0, 1.0, n)
        out = assemble(k, g, D, d=d).apply(u_fn(g.nodes))
        ref_on_g = np.interp(g.nodes, g_ref.nodes, ref)
        errs.append(np.max(np.abs(out - ref_on_g)))
        dxs.append(g.dx)
    slope = np.polyfit(np.log(dxs), np.log(errs), 1)[0]
    assert slope >= 1.9


def test_invalid_dispersal_rate():
    with pytest.raises(ValidationError, match="dispersal"):
        assemble(LaplaceKernel(1.0), Grid.centered(1.0, 4), D, d=0.0)
