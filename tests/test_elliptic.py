import numpy as np
import pytest

from hardylab.cli import _one_blas_thread
from hardylab.elliptic import (CylinderWindow, EllipticProfile, elliptic_residual,
                               moment_trace, transform, ucp_probe,
                               uniqueness_pipeline)
from hardylab.errors import IllPosedTruncationError
from hardylab.evolution import (TimeGrid, free_trajectory, interval_mask,
                                observability_matrix)
from hardylab.evolution import ModeTrajectory
from hardylab.flatness import build_kernel, gevrey_bump
from hardylab.spectral import RadialGrid, SpectralBasis, assemble_hardy_operator, solve_spectrum


def make_basis(n=300, lam=3 / 16, k=4):
    grid = RadialGrid(n)
    return solve_spectrum(assemble_hardy_operator(grid, lam, 3), k)


@pytest.fixture(scope="module")
def setup():
    basis = make_basis()
    bump = gevrey_bump(1.0, 2.0)
    tau_grid = TimeGrid(1.0, 512)
    t_nodes = np.linspace(-1.0, 1.0, 401)
    kernel = build_kernel(bump, t_nodes, tau_grid.times, 24)
    return basis, bump, tau_grid, kernel


def test_transform_linearity_and_zero(setup):
    basis, bump, tau_grid, kernel = setup
    zero = transform(free_trajectory(np.zeros(4), basis, tau_grid), kernel, basis.eigenvalues)
    assert np.abs(zero.values).max() == 0.0
    rng = np.random.default_rng(3)
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    pa = transform(free_trajectory(a, basis, tau_grid), kernel, basis.eigenvalues)
    pb = transform(free_trajectory(b, basis, tau_grid), kernel, basis.eigenvalues)
    pab = transform(free_trajectory(a + b, basis, tau_grid), kernel, basis.eigenvalues)
    scale = np.abs(pab.values).max()
    assert np.abs(pab.values - pa.values - pb.values).max() <= 1e-12 * max(scale, 1.0)


def test_streamed_transform_matches_dense_contraction(setup):
    basis, bump, tau_grid, kernel401 = setup
    traj = free_trajectory(np.array([1.0, -0.5 + 0.25j, 0.1, 0.7j]), basis, tau_grid)
    # 65 and 129 t nodes leave a one-row remainder, which joins the block before it
    short = [build_kernel(bump, np.linspace(-1.0, 1.0, nt), tau_grid.times, 24) for nt in (65, 129)]
    for kernel in [kernel401, *short]:
        profile = transform(traj, kernel, basis.eigenvalues)
        dense = ((kernel.values * tau_grid.trapezoid_weights()) @ traj.coeffs).T
        scale = np.abs(profile.values).max()
        assert np.abs(profile.values - dense).max() <= 1e-13 * scale


@pytest.mark.parametrize("nt", [65, 129, 257, 4033])
def test_transform_with_one_row_remainder_equals_dense_contraction(setup, nt):
    # at 64m + 1 t nodes the last row joins the block before it; contracted
    # alone, numpy would sum it with a matrix-vector kernel, in another order
    # than the dense product.  One BLAS thread, as the CLI runs: with more,
    # OpenBLAS splits products of different shapes differently
    basis, bump, tau_grid, _ = setup
    kernel = build_kernel(bump, np.linspace(-1.0, 1.0, nt), tau_grid.times, 24)
    traj = free_trajectory(np.array([1.0, -0.5 + 0.25j, 0.1, 0.7j]), basis, tau_grid)
    with _one_blas_thread():
        profile = transform(traj, kernel, basis.eigenvalues)
        dense = (kernel.values * tau_grid.trapezoid_weights()) @ traj.coeffs
    assert np.array_equal(profile.values, dense.T)


def test_transform_grid_mismatch_rejected(setup):
    basis, bump, tau_grid, kernel = setup
    other = TimeGrid(1.0, 256)
    with pytest.raises(ValueError, match="tau grid"):
        transform(free_trajectory(np.ones(4), basis, other), kernel, basis.eigenvalues)


def test_transform_at_minus_one_equals_moment_trace(setup):
    basis, bump, tau_grid, kernel = setup
    c0 = np.array([1.0, -0.5 + 0.25j, 0.1, 0.7j])
    traj = free_trajectory(c0, basis, tau_grid)
    profile = transform(traj, kernel, basis.eigenvalues)
    moments = moment_trace(bump, traj)
    assert np.abs(profile.values[:, 0] - moments).max() <= 1e-12


def test_zero_frequency_profile_is_affine(setup):
    _, bump, tau_grid, kernel = setup
    # mu = 0 mode: W'' = 0, so the three-point second difference vanishes
    traj = ModeTrajectory(tau_grid, np.ones((len(tau_grid.times), 1), complex))
    profile = transform(traj, kernel, np.array([0.0]))
    v = profile.values[0]
    dt = profile.t_nodes[1] - profile.t_nodes[0]
    second = np.abs(v[2:] - 2 * v[1:-1] + v[:-2]) / dt**2
    assert second.max() <= 1e-6 * max(np.abs(v).max(), 1.0)


def test_elliptic_residual_on_exact_cosh_profiles():
    mus = np.array([4.0, 9.0])
    for nt, tol_factor in ((801, 1.0), (1601, 0.26)):
        t = np.linspace(-1.0, 1.0, nt)
        dt = t[1] - t[0]
        values = np.vstack([np.cosh(np.sqrt(mu) * t) for mu in mus]).astype(complex)
        profile = EllipticProfile(t, values, mus)
        residual, _ = elliptic_residual(profile)
        # FD truncation: dt^2/12 * mu^2 * ||W|| / (1 + mu ||W||) ~ dt^2 mu / 12
        bound = dt**2 * mus.max() / 12 * 1.2
        assert residual <= bound


def test_low_truncation_inflates_transform_residual(setup):
    basis, bump, tau_grid, kernel24 = setup
    kernel4 = build_kernel(bump, kernel24.t_nodes, tau_grid.times, 4)
    traj = free_trajectory(np.ones(4), basis, tau_grid)
    res24, _ = elliptic_residual(transform(traj, kernel24, basis.eigenvalues))
    res4, _ = elliptic_residual(transform(traj, kernel4, basis.eigenvalues))
    assert res4 >= 100.0 * res24  # truncation tail dominates at low order


def test_moment_trace_zero_frequency_positive(setup):
    _, bump, tau_grid, _ = setup
    traj = ModeTrajectory(tau_grid, np.ones((len(tau_grid.times), 1), complex))
    m = moment_trace(bump, traj)
    assert m[0].real > 0 and abs(m[0].imag) <= 1e-15


def test_moment_conjugate_symmetry(setup):
    _, bump, tau_grid, _ = setup
    mu = 7.3
    up = ModeTrajectory(tau_grid,
                        np.exp(1j * mu * tau_grid.times)[:, None].astype(complex))
    dn = ModeTrajectory(tau_grid,
                        np.exp(-1j * mu * tau_grid.times)[:, None].astype(complex))
    m_up = moment_trace(bump, up)[0]
    m_dn = moment_trace(bump, dn)[0]
    assert m_dn == pytest.approx(np.conj(m_up), abs=1e-15)


def test_ucp_single_mode_positive():
    basis = make_basis(k=1)
    window = CylinderWindow(interval_mask(basis.grid, 0.3, 0.6), np.linspace(-1, 1, 17))
    report = ucp_probe(basis, window)
    assert report.singular_values[-1] > 0
    assert report.rank == 2


def test_ucp_full_rank_six_modes():
    basis = make_basis(k=6)
    window = CylinderWindow(interval_mask(basis.grid, 0.3, 0.6), np.linspace(-1, 1, 33))
    report = ucp_probe(basis, window)
    assert report.rank == 12


def test_ucp_single_time_slice_deficient():
    basis = make_basis(k=4)
    window = CylinderWindow(interval_mask(basis.grid, 0.3, 0.6), np.array([0.25]))
    report = ucp_probe(basis, window)
    assert report.rank <= 4  # growth/decay pair collapses without t-variation


def column_loop_ucp_matrix(basis, window):
    # the column-by-column construction of the dense UCP matrix
    s = np.sqrt(basis.eigenvalues)
    grow = np.exp(np.outer(window.t_nodes - 1.0, s))
    decay = np.exp(-np.outer(window.t_nodes + 1.0, s))
    phi = basis.eigenvectors[window.mask.node_indices, :]
    cols = []
    for k in range(basis.k_modes):
        cols.append(np.outer(grow[:, k], phi[:, k]).ravel())
        cols.append(np.outer(decay[:, k], phi[:, k]).ravel())
    return np.column_stack(cols)


def test_ucp_matrix_matches_column_loop():
    basis = make_basis(k=6)
    window = CylinderWindow(interval_mask(basis.grid, 0.3, 0.6), np.linspace(-1, 1, 33))
    sv = np.linalg.svd(column_loop_ucp_matrix(basis, window), compute_uv=False)
    assert np.abs(ucp_probe(basis, window).singular_values - sv).max() <= 1e-13 * sv[0]


def test_ucp_single_time_slice_matches_column_loop():
    # one time node leaves a core of k rows for 2k unknowns
    basis = make_basis(k=4)
    window = CylinderWindow(interval_mask(basis.grid, 0.3, 0.6), np.array([0.25]))
    dense = column_loop_ucp_matrix(basis, window)
    sv = np.linalg.svd(dense, compute_uv=False)
    report = ucp_probe(basis, window)
    assert report.singular_values.shape == sv.shape
    assert np.abs(report.singular_values - sv).max() <= 1e-13 * sv[0]
    assert report.rank == np.linalg.matrix_rank(dense) == 4


def test_ucp_requires_positive_modes():
    basis = make_basis(k=2)
    neg = SpectralBasis(basis.grid, np.array([-1.0, 4.0]), basis.eigenvectors,
                        basis.bessel_order)
    window = CylinderWindow(interval_mask(basis.grid, 0.3, 0.6), np.linspace(-1, 1, 9))
    with pytest.raises(ValueError, match="positive"):
        ucp_probe(neg, window)


def test_uniqueness_pipeline_zero_state(setup):
    basis = setup[0]
    mask = interval_mask(basis.grid, 0.3, 0.6)
    cert = uniqueness_pipeline(np.zeros(4), basis, mask, TimeGrid(1.0, 16))
    assert cert.eta == 0.0 and cert.bound == 0.0


def test_uniqueness_pipeline_reconstructs(setup):
    basis = setup[0]
    mask = interval_mask(basis.grid, 0.0, 1.0)
    rng = np.random.default_rng(11)
    c0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    cert = uniqueness_pipeline(c0, basis, mask, TimeGrid(1.0, 32))
    assert cert.reconstruction_error <= 1e-8
    assert cert.bound == pytest.approx(cert.eta / cert.sigma_min)
    assert cert.bound >= cert.c0_norm - 1e-9


def test_uniqueness_pipeline_refuses_degenerate_basis(setup):
    basis = setup[0]
    # duplicated mode makes two observation columns identical: sigma_min = 0
    dup = SpectralBasis(
        basis.grid,
        np.array([basis.eigenvalues[0], basis.eigenvalues[0]]),
        np.column_stack([basis.eigenvectors[:, 0], basis.eigenvectors[:, 0]]),
        basis.bessel_order,
    )
    mask = interval_mask(basis.grid, 0.3, 0.6)
    with pytest.raises(IllPosedTruncationError):
        uniqueness_pipeline(np.array([1.0, 1.0]), dup, mask, TimeGrid(1.0, 8))


def test_uniqueness_pipeline_refuses_near_singular_basis(setup):
    basis = setup[0]
    # two modes a 1e-13 perturbation apart: sigma_min positive but below the floor
    phi = basis.eigenvectors
    near = SpectralBasis(
        basis.grid,
        np.array([basis.eigenvalues[0], basis.eigenvalues[0]]),
        np.column_stack([phi[:, 0], phi[:, 0] + 1e-13 * phi[:, 1]]),
        basis.bessel_order,
    )
    mask = interval_mask(basis.grid, 0.3, 0.6)
    grid = TimeGrid(1.0, 8)
    sigma_min = observability_matrix(near, mask, grid).singular_values[-1]
    assert 0.0 < sigma_min < 1e-12
    with pytest.raises(IllPosedTruncationError):
        uniqueness_pipeline(np.array([1.0, 1.0]), near, mask, grid)
