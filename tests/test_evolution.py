import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hardylab.evolution import (ModeState, TimeGrid, duhamel_modal_source, duhamel_solve,
                                fat_cantor_mask, free_trajectory, interval_mask,
                                numerical_rank, observability_matrix, observe,
                                propagate)
from hardylab.spectral import RadialGrid, SpectralBasis, assemble_hardy_operator, solve_spectrum


def make_basis(n=200, lam=0.0, k=4):
    grid = RadialGrid(n)
    return solve_spectrum(assemble_hardy_operator(grid, lam, 3), k)


def synthetic_basis(mus):
    # diagonal-only stand-in: grid and vectors unused by phase propagation
    grid = RadialGrid(8)
    mus = np.asarray(mus, dtype=float)
    vecs = np.zeros((8, len(mus)))
    vecs[: len(mus), :] = np.eye(len(mus))
    return SpectralBasis(grid, mus, vecs / np.sqrt(grid.spacing), 0.5)


def test_propagate_identity_at_zero_time():
    basis = synthetic_basis([1.0, 2.0])
    state = ModeState(np.array([1.0 + 0j, 0.0]))
    out = propagate(state, basis, 0.0)
    assert np.array_equal(out.coeffs, state.coeffs)


def test_propagate_exact_phase():
    basis = synthetic_basis([np.pi**2])
    out = propagate(ModeState(np.array([1.0 + 0j])), basis, 1.0)
    assert out.coeffs[0] == pytest.approx(np.exp(1j * np.pi**2), abs=1e-15)


def test_norm_conservation_and_reversal():
    basis = make_basis()
    rng = np.random.default_rng(0)
    c0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    state = ModeState(c0)
    for t in (0.3, 1.7, 10.0):
        fwd = propagate(state, basis, t)
        assert abs(fwd.norm() - state.norm()) <= 1e-12
        back = propagate(fwd, basis, -t)
        assert np.abs(back.coeffs - c0).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.floats(-50.0, 50.0), st.integers(1, 16), st.sampled_from([-1.0, 0.0, 3 / 16, 0.24]),
       st.integers(0, 2**31))
def test_propagate_unitary_and_reversible(t, k, lam, seed):
    basis = make_basis(lam=lam, k=k)
    rng = np.random.default_rng(seed)
    c0 = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    state = ModeState(c0)
    fwd = propagate(state, basis, t)
    assert abs(fwd.norm() - state.norm()) <= 1e-12
    assert np.abs(propagate(fwd, basis, -t).coeffs - c0).max() <= 1e-12


def test_duhamel_zero_frequency_constant_source():
    basis = synthetic_basis([0.0])
    grid = TimeGrid(1.0, 100)
    traj = duhamel_solve(np.array([2.0 + 0j]), np.ones(101), basis, grid)
    assert np.abs(traj.coeffs[:, 0] - (-1j * 2.0 * grid.times)).max() <= 1e-13


def test_duhamel_zero_source_is_zero():
    basis = make_basis(k=3)
    grid = TimeGrid(1.0, 50)
    traj = duhamel_solve(np.zeros(3, dtype=complex), np.zeros(51), basis, grid)
    assert np.abs(traj.coeffs).max() == 0.0


def test_duhamel_initial_slope():
    basis = make_basis(k=2)
    f = np.array([1.0 + 0.5j, -0.25 + 0j])
    errs = []
    for steps in (100, 200, 400):
        grid = TimeGrid(1e-2, steps)
        rho = 1.0 + grid.times / 2
        traj = duhamel_solve(f, rho, basis, grid)
        slope = (traj.coeffs[1] - traj.coeffs[0]) / grid.dt
        errs.append(np.abs(slope + 1j * f * rho[0]).max())
    assert errs[0] <= 0.05 and errs[-1] < errs[0]


def test_duhamel_linearity():
    basis = make_basis(k=3)
    grid = TimeGrid(1.0, 128)
    rng = np.random.default_rng(1)
    f1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    f2 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    rho1 = np.sin(np.pi * grid.times)
    rho2 = grid.times**2
    t_sum = duhamel_solve(f1 + f2, rho1, basis, grid)
    t_1 = duhamel_solve(f1, rho1, basis, grid)
    t_2 = duhamel_solve(f2, rho1, basis, grid)
    assert np.abs(t_sum.coeffs - t_1.coeffs - t_2.coeffs).max() <= 1e-12
    r_sum = duhamel_solve(f1, rho1 + rho2, basis, grid)
    r_1 = duhamel_solve(f1, rho2, basis, grid)
    assert np.abs(r_sum.coeffs - t_1.coeffs - r_1.coeffs).max() <= 1e-12


def test_duhamel_quadrature_second_order():
    basis = make_basis(k=2)
    f = np.array([1.0 + 0j, 0.5 - 0.25j])

    def solve(steps):
        grid = TimeGrid(1.0, steps)
        rho = np.exp(-grid.times) * np.sin(2 * grid.times)
        return duhamel_solve(f, rho, basis, grid).coeffs[-1]

    c1, c2, c4 = solve(200), solve(400), solve(800)
    reference = c4 + (c4 - c2) / 3.0  # Richardson extrapolation at order 2
    e1 = np.abs(c1 - reference).max()
    e2 = np.abs(c2 - reference).max()
    assert e1 / e2 == pytest.approx(4.0, rel=0.2)


def recursive_duhamel(g, mus, grid):
    """Reference: the panel recursion acc <- P acc + h/2 (P g_j + g_{j+1})."""
    phase = np.exp(1j * np.asarray(mus) * grid.dt)
    acc = np.zeros(g.shape[1], dtype=complex)
    coeffs = np.zeros(g.shape, dtype=complex)
    half = 0.5 * grid.dt
    for j in range(grid.steps):
        acc = phase * acc + half * (phase * g[j] + g[j + 1])
        coeffs[j + 1] = -1j * acc
    return coeffs


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5000), st.floats(0.1, 1.0),
       st.lists(st.floats(0.0, (16 * np.pi) ** 2), min_size=1, max_size=4),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_duhamel_matches_recursion(steps, horizon, mus, smooth, seed):
    # smooth separable sources leave |c| ~ |g| / mu, which exposes phase
    # rounding that white-noise sources average out
    grid = TimeGrid(horizon, steps)
    rng = np.random.default_rng(seed)
    shape = (steps + 1, len(mus))
    if smooth:
        g = np.outer(1.0 + grid.times / 2, rng.standard_normal(len(mus)) + 1j)
    else:
        g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    expected = recursive_duhamel(g, mus, grid)
    got = duhamel_modal_source(g, np.array(mus), grid).coeffs
    scale = np.abs(expected).max(axis=0)
    assert np.all(np.abs(got - expected).max(axis=0) <= 1e-12 * scale)


def test_observe_zero_and_parseval():
    basis = make_basis(n=300, k=4)
    grid = TimeGrid(1.0, 16)
    zero = free_trajectory(np.zeros(4), basis, grid)
    mask = interval_mask(basis.grid, 0.3, 0.6)
    assert np.abs(observe(zero, mask, basis)).max() == 0.0
    c0 = np.array([1.0, -0.5j, 0.25, 0.1 + 0.1j])
    traj = free_trajectory(c0, basis, grid)
    full = interval_mask(basis.grid, 0.0, 1.0)
    samples = observe(traj, full, basis)
    norms = basis.grid.spacing * np.sum(np.abs(samples) ** 2, axis=1)
    assert np.abs(norms - np.sum(np.abs(c0) ** 2)).max() <= 1e-12


def test_observe_single_mode_proportional_to_eigenfunction():
    basis = make_basis(n=300, k=2)
    grid = TimeGrid(1.0, 8)
    traj = free_trajectory(np.array([1.0, 0.0]), basis, grid)
    mask = interval_mask(basis.grid, 0.3, 0.6)
    samples = observe(traj, mask, basis)
    phi = basis.eigenvectors[mask.node_indices, 0]
    for j in range(9):
        expected = np.exp(1j * basis.eigenvalues[0] * grid.times[j]) * phi
        assert np.abs(samples[j] - expected).max() <= 1e-12


def test_empty_interval_mask_rejected():
    grid = RadialGrid(50)
    with pytest.raises(ValueError):
        interval_mask(grid, 0.5, 0.5001)  # no nodes inside
    with pytest.raises(ValueError):
        interval_mask(grid, 0.9, 0.2)


def test_observability_single_mode_positive():
    basis = make_basis(n=200, k=1)
    mask = interval_mask(basis.grid, 0.42, 0.55)
    report = observability_matrix(basis, mask, TimeGrid(1.0, 8))
    assert report.singular_values[-1] > 0
    assert report.rank == 1


def test_observability_fat_cantor_full_rank():
    basis = make_basis(n=400, k=6)
    mask = fat_cantor_mask(basis.grid, (0.0, 1.0))
    report = observability_matrix(basis, mask, TimeGrid(1.0, 16))
    assert report.rank == 6


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(1, 8), st.integers(0, 8), st.integers(0, 2**31))
def test_numerical_rank_matches_matrix_rank(rows, cols, rank, seed):
    rng = np.random.default_rng(seed)
    rank = min(rank, rows, cols)
    left = rng.standard_normal((rows, rank)) + 1j * rng.standard_normal((rows, rank))
    m = left @ rng.standard_normal((rank, cols))
    s = np.linalg.svd(m, compute_uv=False)
    assert numerical_rank(s, m.shape) == np.linalg.matrix_rank(m)


def dense_observability_matrix(basis, mask, grid):
    # the dense (times * nodes, k) construction the Khatri-Rao core replaced
    n_rows = (grid.steps + 1) * mask.n_nodes
    phases = np.exp(1j * np.outer(grid.times, basis.eigenvalues))  # (nt, k)
    phi = basis.eigenvectors[mask.node_indices, :]                 # (nm, k)
    m = phases[:, None, :] * phi[None, :, :]                       # (nt, nm, k)
    w = np.sqrt(np.outer(grid.trapezoid_weights(), mask.weights))  # (nt, nm)
    m = m * w[:, :, None]
    return m.reshape(n_rows, basis.k_modes)


def test_observability_rank_matches_matrix_rank():
    basis = make_basis(n=200, k=4)
    for mask in (interval_mask(basis.grid, 0.5, 0.5 + 2.5 * basis.grid.spacing),
                 fat_cantor_mask(basis.grid, (0.0, 1.0))):
        report = observability_matrix(basis, mask, TimeGrid(1.0, 8))
        dense = dense_observability_matrix(basis, mask, TimeGrid(1.0, 8))
        assert report.rank == np.linalg.matrix_rank(dense)


def oracle_mask(kind, grid):
    if kind == "cantor":
        return fat_cantor_mask(grid, (0.0, 1.0))
    if kind == "interval":
        return interval_mask(grid, 0.3, 0.6)
    # a window of exactly `kind` nodes, starting at node 20
    lo = 19.5 * grid.spacing
    return interval_mask(grid, lo, lo + kind * grid.spacing)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 12), st.integers(1, 64), st.floats(-1.0, 0.24),
       st.sampled_from([1, 2, "interval", "cantor"]), st.integers(0, 2**31))
def test_observability_matches_dense_oracle(k, steps, lam, kind, seed):
    basis = make_basis(n=64, lam=lam, k=k)
    mask = oracle_mask(kind, basis.grid)
    grid = TimeGrid(1.0, steps)
    if k > (steps + 1) * mask.n_nodes:
        with pytest.raises(ValueError, match="fewer samples"):
            observability_matrix(basis, mask, grid)
        return
    report = observability_matrix(basis, mask, grid)
    dense = dense_observability_matrix(basis, mask, grid)
    s = np.linalg.svd(dense, compute_uv=False)
    assert report.singular_values.shape == s.shape
    assert np.abs(report.singular_values - s).max() <= 1e-13 * s[0]
    assert report.rank == np.linalg.matrix_rank(dense)
    rng = np.random.default_rng(seed)
    samples = (rng.standard_normal((steps + 1, mask.n_nodes))
               + 1j * rng.standard_normal((steps + 1, mask.n_nodes)))
    expected, *_ = np.linalg.lstsq(dense, samples.ravel(), rcond=None)
    x = report.least_squares(samples)
    # two backward-stable solves differ by about kappa * eps relative; a
    # one-node window with steps ~ k reaches kappa ~ 1e5
    kappa = s[0] / s[report.rank - 1]
    tol = max(1e-12, 16 * kappa * np.finfo(float).eps)
    assert np.linalg.norm(x - expected) <= tol * max(1.0, np.linalg.norm(expected))


def test_observability_single_node_reported():
    basis = make_basis(n=200, k=4)
    mask = interval_mask(basis.grid, 0.5, 0.5 + 2.5 * basis.grid.spacing)
    report = observability_matrix(basis, mask, TimeGrid(1.0, 8))
    # degenerate window: rank reported, not asserted
    assert 1 <= report.rank <= 4


def test_fat_cantor_construction():
    grid = RadialGrid(256)
    mask = fat_cantor_mask(grid, (0.0, 1.0))
    # stage-0 removal is the middle quarter
    kept_after_one = [(0.0, 3 / 8), (5 / 8, 1.0)]
    assert mask.intervals[0][0] == 0.0
    assert all(hi <= 3 / 8 + 1e-15 or lo >= 5 / 8 - 1e-15 for lo, hi in mask.intervals), kept_after_one
    # geometric series: limiting measure 1/2, depth-d analytic value
    depth = mask.depth
    assert mask.analytic_measure == pytest.approx(0.5 + 2.0 ** (-(depth + 1)), abs=1e-15)
    # grid-realized measure close to the analytic one
    assert abs(mask.realized_measure() - mask.analytic_measure) <= 2 * grid.spacing * depth


def test_observability_near_singular_matches_dense_oracle():
    # two modes a 1e-13 perturbation apart: sigma_min ~ 2.6e-14 lies below the
    # rank tolerance of the full 810-row map but above that of its 4-row core
    basis = make_basis(n=300, lam=3 / 16, k=2)
    phi = basis.eigenvectors
    near = SpectralBasis(basis.grid, np.array([basis.eigenvalues[0]] * 2),
                         np.column_stack([phi[:, 0], phi[:, 0] + 1e-13 * phi[:, 1]]),
                         basis.bessel_order)
    mask = interval_mask(basis.grid, 0.3, 0.6)
    grid = TimeGrid(1.0, 8)
    report = observability_matrix(near, mask, grid)
    dense = dense_observability_matrix(near, mask, grid)
    assert 0.0 < report.singular_values[-1] < 1e-12
    assert report.rank == np.linalg.matrix_rank(dense) == 1
    samples = (dense @ np.array([1.0, 2.0j])).reshape(grid.steps + 1, mask.n_nodes)
    expected, *_ = np.linalg.lstsq(dense, samples.ravel(), rcond=None)
    x = report.least_squares(samples)
    assert np.linalg.norm(x - expected) <= 1e-12 * max(1.0, np.linalg.norm(expected))


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 4000), st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
       st.one_of(st.just(1.0), st.floats(0.5, 1.0)))
def test_fat_cantor_membership_matches_interval_loop(n, a, b):
    grid = RadialGrid(n)
    assume(b - a >= 4 * grid.spacing)
    # the construction with the loop over every interval that the
    # searchsorted lookup replaced
    length = b - a
    intervals = [(a, b)]
    for k in range(int(np.ceil(np.log2(grid.n_interior)))):
        removed = length * 4.0 ** (-(k + 1))
        nxt = []
        for lo, hi in intervals:
            mid = 0.5 * (lo + hi)
            nxt.append((lo, mid - 0.5 * removed))
            nxt.append((mid + 0.5 * removed, hi))
        intervals = nxt
    keep = np.zeros(grid.n_interior, dtype=bool)
    for lo, hi in intervals:
        keep |= (grid.nodes >= lo) & (grid.nodes <= hi)
    if not keep.any():
        with pytest.raises(ValueError, match="no grid nodes"):
            fat_cantor_mask(grid, (a, b))
        return
    mask = fat_cantor_mask(grid, (a, b))
    assert mask.intervals == intervals
    assert np.array_equal(mask.node_indices, np.flatnonzero(keep))


def test_fat_cantor_short_interval_rejected():
    grid = RadialGrid(64)
    with pytest.raises(ValueError, match="shorter"):
        fat_cantor_mask(grid, (0.4, 0.42))


def test_modal_source_grid_mismatch_rejected():
    with pytest.raises(ValueError):
        duhamel_modal_source(np.zeros((5, 2)), np.array([1.0, 2.0]), TimeGrid(1.0, 10))


@pytest.mark.parametrize("steps, k", [(299, 1), (299, 6), (40_000, 1), (4000, 6)])
def test_in_place_duhamel_has_the_bits_of_the_whole_array_expression(steps, k):
    grid = TimeGrid(1.0, steps)
    rng = np.random.default_rng(steps + k)
    g = rng.standard_normal((steps + 1, k)) + 1j * rng.standard_normal((steps + 1, k))
    mus = np.linspace(3.0, 2500.0, k)
    x = mus * grid.dt
    big = 134217729.0 * x
    x_hi = big - (big - x)
    j = np.arange(steps + 1, dtype=float)[:, None]
    phase = np.exp(1j * (j * x_hi)) * np.exp(1j * (j * (x - x_hi)))
    pulled = phase.conj() * g
    acc = np.zeros_like(phase)
    np.cumsum(pulled[:-1] + pulled[1:], axis=0, out=acc[1:])
    assert np.array_equal(duhamel_modal_source(g, mus, grid).coeffs,
                          -0.5j * grid.dt * phase * acc)
