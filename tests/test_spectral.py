import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from hardylab import lapack, spectral
from hardylab.bessel import bessel_zeros
from hardylab.spectral import (RadialGrid, SupercriticalCouplingError, assemble_hardy_operator,
                               bessel_order, critical_constant, dirichlet_eigenpairs,
                               hardy_pencil_infimum, hardy_rayleigh, solve_spectrum,
                               tridiagonal_apply, tridiagonal_norm)


def make_basis(n, lam, k, dim=3):
    grid = RadialGrid(n)
    return solve_spectrum(assemble_hardy_operator(grid, lam, dim), k)


def test_critical_constant_values():
    assert critical_constant(3) == 0.25
    assert critical_constant(1) == 0.25
    assert critical_constant(4) == 1.0


def test_critical_constant_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        critical_constant(2)
    with pytest.raises(ValueError):
        critical_constant(0)


def test_bessel_order_values():
    assert bessel_order(0.0, 3) == pytest.approx(0.5)
    assert bessel_order(3 / 16, 3) == pytest.approx(0.25)
    assert bessel_order(-0.75, 3) == pytest.approx(1.0)


def test_bessel_order_rejects_supercritical():
    with pytest.raises(SupercriticalCouplingError):
        bessel_order(0.25, 3)
    with pytest.raises(SupercriticalCouplingError):
        bessel_order(0.3, 3)


def test_small_grid_rejected():
    with pytest.raises(ValueError, match="grid too small"):
        assemble_hardy_operator(RadialGrid(5), 0.0, 3)


def test_laplacian_spectrum_matches_sine_modes():
    basis = make_basis(800, 0.0, 5)
    exact = (np.arange(1, 6) * np.pi) ** 2
    ratios = basis.eigenvalues / exact
    assert np.all(ratios >= 0.995) and np.all(ratios <= 1.0)


def test_singular_spectrum_matches_bessel_oracle():
    basis = make_basis(800, 3 / 16, 3)
    oracle = bessel_zeros(0.25, 3) ** 2
    rel = np.abs(basis.eigenvalues - oracle) / oracle
    assert rel.max() <= 1e-2


def test_first_singular_eigenvalue_between_bessel_brackets():
    basis = make_basis(800, 3 / 16, 1)
    lo = bessel_zeros(0.0, 1)[0] ** 2
    hi = bessel_zeros(0.5, 1)[0] ** 2
    assert lo < basis.eigenvalues[0] < hi


def test_richardson_order_two_at_zero_coupling():
    errs = []
    for n in (200, 400, 800):
        mu1 = make_basis(n, 0.0, 1).eigenvalues[0]
        errs.append(abs(mu1 - np.pi**2))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(abs(o - 2.0) <= 0.2 for o in orders)


def test_negative_coupling_oracle():
    basis = make_basis(800, -0.75, 3)
    oracle = bessel_zeros(1.0, 3) ** 2
    rel = np.abs(basis.eigenvalues - oracle) / oracle
    assert rel.max() <= 1e-2


def test_eigen_residual_and_orthonormality():
    grid = RadialGrid(400)
    op = assemble_hardy_operator(grid, 3 / 16, 3)
    basis = solve_spectrum(op, 6)
    a_norm = tridiagonal_norm(op.diagonal, op.offdiagonal)
    for k in range(6):
        v = basis.eigenvectors[:, k]
        res = np.linalg.norm(tridiagonal_apply(op.diagonal, op.offdiagonal, v)
                             - basis.eigenvalues[k] * v)
        assert res <= 1e-10 * a_norm * np.linalg.norm(v)
    gram = grid.spacing * basis.eigenvectors.T @ basis.eigenvectors
    assert np.abs(gram - np.eye(6)).max() <= 1e-10


def test_sign_convention_first_component_positive():
    basis = make_basis(128, 0.0, 4)
    for k in range(4):
        col = basis.eigenvectors[:, k]
        idx = np.flatnonzero(np.abs(col) > 1e-12 * np.abs(col).max())
        assert col[idx[0]] > 0


def per_column_eigenpairs(diagonal, offdiagonal, spacing, count):
    """dirichlet_eigenpairs with its sign rule and residual check run one
    column at a time."""
    vals, vecs = eigh_tridiagonal(diagonal, offdiagonal, select="i",
                                  select_range=(0, count - 1))
    vecs = vecs / np.sqrt(spacing)
    a_norm = tridiagonal_norm(diagonal, offdiagonal)
    for k in range(count):
        col = vecs[:, k]
        idx = np.flatnonzero(np.abs(col) > 1e-12 * np.abs(col).max())
        if len(idx) and col[idx[0]] < 0:
            vecs[:, k] = col = -col
        res = np.linalg.norm(tridiagonal_apply(diagonal, offdiagonal, col) - vals[k] * col)
        if res > spectral.EIGEN_RESIDUAL_TOL * a_norm * np.linalg.norm(col):
            raise RuntimeError(f"eigenpair {k} residual {res:.3e} exceeds tolerance")
    return vals, vecs


@settings(max_examples=40, deadline=None)
@given(st.integers(8, 600), st.floats(-2.0, 0.24), st.integers(1, 16),
       st.sampled_from([1, 3, 5]))
def test_eigenpairs_equal_per_column_loop(n, lam, k, dim):
    op = assemble_hardy_operator(RadialGrid(n), lam, dim)
    args = (op.diagonal, op.offdiagonal, op.grid.spacing, min(k, n))
    vals, vecs = dirichlet_eigenpairs(*args)
    ref_vals, ref_vecs = per_column_eigenpairs(*args)
    assert np.array_equal(vals, ref_vals)
    assert np.array_equal(vecs, ref_vecs)


def test_eigenpair_failure_names_the_first_failing_pair(monkeypatch):
    op = assemble_hardy_operator(RadialGrid(200), 3 / 16, 3)
    args = (op.diagonal, op.offdiagonal, op.grid.spacing, 6)
    monkeypatch.setattr(spectral, "EIGEN_RESIDUAL_TOL", 0.0)
    with pytest.raises(RuntimeError, match="eigenpair 0 residual"):
        dirichlet_eigenpairs(*args)
    # eigenvalues 2 and 4 off by 1: those two pairs fail, and the first is named
    monkeypatch.undo()

    def shifted(*a, **kw):
        vals, vecs = lapack.eigh_tridiagonal(*a, **kw)
        vals[[4, 2]] += 1.0
        return vals, vecs

    monkeypatch.setattr(spectral, "eigh_tridiagonal", shifted)
    with pytest.raises(RuntimeError, match="eigenpair 2 residual"):
        dirichlet_eigenpairs(*args)


def test_coercivity_below_critical():
    for lam in (-5.0, 0.0, 0.2, 0.2499):
        basis = make_basis(256, lam, 3)
        assert np.all(basis.eigenvalues > 0)


def test_k_modes_exceeding_size_rejected():
    op = assemble_hardy_operator(RadialGrid(16), 0.0, 3)
    with pytest.raises(ValueError):
        solve_spectrum(op, 17)


@pytest.mark.parametrize("k_modes", [0, -3])
def test_k_modes_below_one_rejected_by_name(k_modes):
    op = assemble_hardy_operator(RadialGrid(16), 0.0, 3)
    with pytest.raises(ValueError, match=f"count must be >= 1: k_modes = {k_modes}"):
        solve_spectrum(op, k_modes)


def test_hardy_quotient_on_parabola():
    grid = RadialGrid(200)
    v = grid.nodes * (1 - grid.nodes)
    assert hardy_rayleigh(grid, v) >= 0.25


def test_hardy_quotient_random_sweep():
    grid = RadialGrid(200)
    rng = np.random.default_rng(7)
    for _ in range(200):
        assert hardy_rayleigh(grid, rng.standard_normal(200)) >= 0.25 - 1e-10


def test_hardy_zero_vector_rejected():
    grid = RadialGrid(64)
    with pytest.raises(ValueError, match="degenerate"):
        hardy_rayleigh(grid, np.zeros(64))
    batch = np.ones((3, 64))
    batch[1] = 0.0
    with pytest.raises(ValueError, match="degenerate"):
        hardy_rayleigh(grid, batch)
    with pytest.raises(ValueError, match="does not match"):
        hardy_rayleigh(grid, np.ones((3, 63)))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(8, 300), shape=st.lists(st.integers(1, 6), min_size=1, max_size=2),
       seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-100, 1.0, 1e100]))
def test_hardy_quotient_batched_equals_one_row(n, shape, seed, scale):
    # the cli's hardy stage reduces blocks of rows; each must be the one-row value
    grid = RadialGrid(n)
    v = scale * np.random.default_rng(seed).standard_normal((*shape, n))
    batched = hardy_rayleigh(grid, v)
    assert batched.shape == tuple(shape)
    one_row = [hardy_rayleigh(grid, row) for row in v.reshape(-1, n)]
    assert all(isinstance(q, float) for q in one_row)
    assert np.array_equal(batched, np.reshape(one_row, shape))


def test_pencil_infimum_above_quarter_and_decreasing():
    values = [hardy_pencil_infimum(RadialGrid(n)) for n in (100, 200, 400)]
    assert all(v > 0.25 for v in values)
    assert values[0] > values[1] > values[2]


def test_dimension_reduction_consistency():
    # n = 5 with lambda = lambda_star(5) - nu^2 must reproduce the same
    # reduced problem as n = 3 with matching Bessel order
    lam5 = critical_constant(5) - 0.25  # nu = 1/2
    b5 = make_basis(400, lam5, 3, dim=5)
    b3 = make_basis(400, 0.0, 3, dim=3)
    assert np.allclose(b5.eigenvalues, b3.eigenvalues, rtol=1e-12)
