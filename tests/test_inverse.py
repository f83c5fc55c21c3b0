import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular, toeplitz
from scipy.signal import fftconvolve

from hardylab.evolution import TimeGrid, duhamel_solve, free_trajectory
from hardylab.evolution import ModeTrajectory
from hardylab.inverse import (VolterraSystem, _fftconvolve, antiderivative_reduce,
                              convolve_source, duhamel_identity_residual,
                              free_evolution_check, reconstruct_f,
                              titchmarsh_support, trapezoid_convolution,
                              volterra_apply, volterra_invert)
import hardylab.inverse as inverse
from hardylab.spectral import RadialGrid, assemble_hardy_operator, solve_spectrum


def make_basis(k=6, lam=3 / 16, n=400):
    grid = RadialGrid(n)
    return solve_spectrum(assemble_hardy_operator(grid, lam, 3), k)


def make_system(rho_fn, drho_fn, steps=1000, horizon=1.0):
    """rho and rho' sampled on the grid, one call each (constants broadcast)."""
    t = TimeGrid(horizon, steps).times
    return VolterraSystem(t, np.zeros_like(t) + rho_fn(t), np.zeros_like(t) + drho_fn(t))


def test_constant_rho_is_identity():
    sys = make_system(lambda t: 1.0, lambda t: 0.0, steps=200)
    rng = np.random.default_rng(0)
    z = rng.standard_normal(201) + 1j * rng.standard_normal(201)
    assert np.abs(volterra_apply(sys, z) - z).max() <= 1e-14


def test_exponential_rho_eigenrelation():
    a = 0.7
    sys = make_system(lambda t: np.exp(a * t), lambda t: a * np.exp(a * t), steps=2000)
    out = volterra_apply(sys, np.ones(2001, dtype=complex))
    expected = np.exp(a * sys.times)
    assert np.abs(out - expected).max() <= 5e-7  # trapezoid O(dt^2)


def test_apply_linearity():
    sys = make_system(lambda t: 1 + np.sin(t), lambda t: np.cos(t), steps=300)
    rng = np.random.default_rng(1)
    z1 = rng.standard_normal(301) + 1j * rng.standard_normal(301)
    z2 = rng.standard_normal(301) + 1j * rng.standard_normal(301)
    lhs = volterra_apply(sys, z1 + z2)
    rhs = volterra_apply(sys, z1) + volterra_apply(sys, z2)
    assert np.abs(lhs - rhs).max() <= 1e-14 * max(np.abs(lhs).max(), 1.0)


def test_roundtrip_random_data():
    sys = make_system(lambda t: 1 + t / 2, lambda t: 0.5, steps=1000)
    rng = np.random.default_rng(2)
    z = rng.standard_normal(1001) + 1j * rng.standard_normal(1001)
    back = volterra_invert(sys, volterra_apply(sys, z))
    assert np.abs(back - z).max() <= 1e-10


def test_invert_constant_rho():
    sys = make_system(lambda t: 2.5, lambda t: 0.0, steps=100)
    g = np.sin(sys.times).astype(complex)
    assert np.abs(volterra_invert(sys, g) - g / 2.5).max() <= 1e-14


def test_invert_recovers_sine():
    sys = make_system(lambda t: 1 + t / 2, lambda t: 0.5, steps=1000)
    z_true = np.sin(sys.times).astype(complex)
    g = volterra_apply(sys, z_true)
    z = volterra_invert(sys, g)
    assert np.abs(z - z_true).max() <= 1e-8


def test_invert_rejects_vanishing_rho0():
    for rho0 in (0.0, 1e-15, -1e-15):
        sys = make_system(lambda t: t + rho0, lambda t: 1.0, steps=100)
        with pytest.raises(ValueError, match="rho"):
            volterra_invert(sys, np.ones(101, dtype=complex))


# grid sizes whose n - 1 Toeplitz unknowns sit at the Newton doubling
# boundaries (2^p - 1, 2^p and 2^p + 1 unknowns), plus any size up to 600
EDGE_SIZES = sorted({2**p + d for p in range(11) for d in (0, 1, 2)} - {1})
grid_sizes = st.one_of(st.sampled_from(EDGE_SIZES), st.integers(2, 600))


@st.composite
def volterra_systems(draw):
    """Random rho(0) in +-[0.5, 3] and rho' samples with |rho'| <= 1 on (0, 1)."""
    n = draw(grid_sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rho0 = draw(st.floats(0.5, 3.0)) * draw(st.sampled_from([-1.0, 1.0]))
    drho = draw(st.floats(0.0, 1.0)) * rng.uniform(-1.0, 1.0, n)
    times = np.linspace(0.0, 1.0, n)
    rho = rho0 + np.concatenate(([0.0], np.cumsum(drho[1:] + drho[:-1]))) * 0.5 * times[1]
    return VolterraSystem(times, rho, drho), rng


def dense_volterra_matrix(sys):
    """The discretized K as a dense lower-triangular matrix, row by row:
    rho(0) z_j + dt [rho'_j z_0 / 2 + sum_{0<m<j} rho'_{j-m} z_m + rho'_0 z_j / 2]."""
    n = len(sys.times)
    mat = sys.dt * np.tril(toeplitz(sys.drho))
    mat[:, 0] *= 0.5
    mat[np.diag_indices(n)] = sys.rho_at_zero + 0.5 * sys.dt * sys.drho[0]
    mat[0, 0] = sys.rho_at_zero
    return mat


def random_rhs(rng, n, k=None):
    shape = (n,) if k is None else (n, k)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@settings(max_examples=60, deadline=None)
@given(volterra_systems())
def test_invert_matches_dense_triangular_solve(case):
    sys, rng = case
    n = len(sys.times)
    mat = dense_volterra_matrix(sys)
    z_probe = random_rhs(rng, n)
    assert np.abs(mat @ z_probe - volterra_apply(sys, z_probe)).max() <= 1e-12 * n
    g = random_rhs(rng, n)
    expected = solve_triangular(mat, g, lower=True)
    assert np.abs(volterra_invert(sys, g) - expected).max() <= 1e-12 * np.abs(expected).max()


@settings(max_examples=30, deadline=None)
@given(volterra_systems(), st.integers(1, 6))
def test_invert_columns_match_single_solves(case, k):
    sys, rng = case
    g = random_rhs(rng, len(sys.times), k)
    z = volterra_invert(sys, g)
    assert z.shape == g.shape
    columns = np.column_stack([volterra_invert(sys, g[:, j]) for j in range(k)])
    assert np.abs(z - columns).max() <= 1e-13 * np.abs(columns).max()


@settings(max_examples=40, deadline=None)
@given(volterra_systems())
def test_invert_apply_roundtrip(case):
    sys, rng = case
    z = random_rhs(rng, len(sys.times))
    assert np.abs(volterra_invert(sys, volterra_apply(sys, z)) - z).max() <= 1e-12 * np.abs(z).max()


@pytest.mark.parametrize("rho0, slope, n", [(0.05, 1.0, 1501), (0.02, 1.0, 2049),
                                             (-0.05, 1.0, 3000), (0.1, -1.0, 2500),
                                             (0.02, -1.0, 1500)])
def test_invert_matches_dense_solve_on_strong_resolvents(rho0, slope, n):
    # rho = rho0 + slope t: the resolvent behaves like exp(-slope t / rho0), up
    # to exp(50) on [0, 1], so the solution spans many orders of magnitude
    t = np.linspace(0.0, 1.0, n)
    sys = VolterraSystem(t, rho0 + slope * t, np.full(n, slope))
    g = random_rhs(np.random.default_rng(n), n)
    parts = solve_triangular(dense_volterra_matrix(sys), np.column_stack([g.real, g.imag]),
                             lower=True)
    expected = parts[:, 0] + 1j * parts[:, 1]
    assert np.abs(volterra_invert(sys, g) - expected).max() <= 1e-12 * np.abs(expected).max()


def test_invert_convolution_count_is_logarithmic(monkeypatch):
    # two convolutions per Newton doubling of the reciprocal and one to apply
    # it; a recursive substitution would make hundreds
    calls = []

    def counted(a, b):
        calls.append(1)
        return _fftconvolve(a, b)

    monkeypatch.setattr(inverse, "_fftconvolve", counted)
    n = 40_001
    sys = make_system(lambda t: 1 + t / 2, lambda t: 0.5, steps=n - 1)
    z = volterra_invert(sys, np.ones(n, dtype=complex))
    assert len(calls) <= 2 * math.ceil(math.log2(n)) + 1
    assert np.abs(volterra_apply(sys, z) - 1.0).max() <= 1e-12


def test_reconstruct_zero_source():
    basis = make_basis(k=3)
    grid = TimeGrid(1.0, 500)
    sys = make_system(lambda t: 1 + t / 2, lambda t: 0.5, steps=500)
    f = np.zeros(3, dtype=complex)
    traj = duhamel_solve(f, sys.rho, basis, grid)
    result = reconstruct_f(traj, sys, basis.eigenvalues, f_true=f)
    assert np.abs(result.f_recovered).max() <= 1e-14


def test_reconstruct_six_random_modes_exact_derivative():
    basis = make_basis(k=6)
    grid = TimeGrid(1.0, 1000)
    sys = make_system(lambda t: 1 + t / 2, lambda t: 0.5, steps=1000)
    rng = np.random.default_rng(3)
    f = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    traj = duhamel_solve(f, sys.rho, basis, grid)
    result = reconstruct_f(traj, sys, basis.eigenvalues, f_true=f)
    assert result.relative_error <= 1e-3
    assert result.diagnostics["factorization_residual"] <= 1e-8


def test_reconstruct_fd_derivative_low_mode():
    # second-order differences of the trajectory in place of the mode equation
    basis = make_basis(k=1)
    grid = TimeGrid(1.0, 1000)
    sys = make_system(lambda t: 1 + t / 2, lambda t: 0.5, steps=1000)
    f = np.array([1.0 - 0.5j])
    c = duhamel_solve(f, sys.rho, basis, grid).coeffs
    dt = sys.dt
    dudt = np.empty_like(c)
    dudt[1:-1] = (c[2:] - c[:-2]) / (2.0 * dt)
    dudt[0] = (-3.0 * c[0] + 4.0 * c[1] - c[2]) / (2.0 * dt)
    dudt[-1] = (3.0 * c[-1] - 4.0 * c[-2] + c[-3]) / (2.0 * dt)
    f_rec = 1j * volterra_invert(sys, dudt)[0]
    assert np.linalg.norm(f_rec - f) / np.linalg.norm(f) <= 1e-3


def test_identity_chain_resolved_mode():
    basis = make_basis(k=1)
    steps = 10_000
    grid = TimeGrid(1.0, steps)
    sys = make_system(lambda t: 1 + t / 2, lambda t: 0.5, steps=steps)
    f = np.array([1.0 + 0.0j])
    traj = duhamel_solve(f, sys.rho, basis, grid)
    result = reconstruct_f(traj, sys, basis.eigenvalues, f_true=f)
    assert result.diagnostics["factorization_residual"] <= 1e-8      # K z = du/dt
    assert duhamel_identity_residual(traj, sys, result.z) <= 1e-6     # u = rho * z
    assert free_evolution_check(result.z, basis.eigenvalues, sys.dt).max() <= 1e-4


def test_free_evolution_check_orders():
    mus = np.array([7.7])
    res = []
    for steps in (2000, 4000):
        t = TimeGrid(1.0, steps).times
        z = np.exp(1j * mus[0] * t)[:, None]
        res.append(free_evolution_check(z, mus, t[1] - t[0])[0])
    assert res[0] / res[1] == pytest.approx(4.0, rel=0.1)


@pytest.mark.parametrize("steps", [1, 2, 3])
def test_free_evolution_check_short_grids(steps):
    # one step leaves no interior residual, two leave one: both integrate to 0
    t = TimeGrid(1.0, steps).times
    dt = t[1] - t[0]
    mus = np.array([2.0, 5.0])
    z = np.exp(1j * np.outer(t**2, mus))
    res = free_evolution_check(z, mus, dt)
    assert res.shape == (2,)
    if steps < 3:
        assert np.all(res == 0.0)
    else:
        r = np.abs((z[2:] - z[:-2]) / (2 * dt) - 1j * mus * z[1:-1])
        assert np.allclose(res, 0.5 * dt * (r[0] + r[1]), rtol=1e-15, atol=0.0)


def test_antiderivative_reduce():
    t = TimeGrid(1.0, 100).times
    zero = ModeTrajectory(t, np.zeros((101, 1), complex))
    assert np.abs(antiderivative_reduce(zero).coeffs).max() == 0.0
    linear = ModeTrajectory(t, t[:, None].astype(complex))
    w = antiderivative_reduce(linear)
    assert np.abs(w.coeffs[:, 0] - t**2 / 2).max() <= 1e-15  # trapezoid exact on linear
    dt = t[1] - t[0]
    recovered = (w.coeffs[2:, 0] - w.coeffs[:-2, 0]) / (2 * dt)
    assert np.abs(recovered - t[1:-1]).max() <= 1e-13


def test_antiderivative_requires_zero_start():
    t = TimeGrid(1.0, 10).times
    bad = ModeTrajectory(t, np.ones((11, 1), complex))
    with pytest.raises(ValueError, match="u\\(0\\)"):
        antiderivative_reduce(bad)


def test_convolve_source_zero():
    basis = make_basis(k=2)
    grid = TimeGrid(1.0, 200)
    v = free_trajectory(np.zeros(2), basis, grid)
    rho = grid.times.copy()
    out = convolve_source(rho, v, basis.eigenvalues)
    assert np.abs(out.y.coeffs).max() == 0.0


def test_convolve_source_closed_form():
    # rho(t) = t, single mode: y(t) = -i f (1 + i mu t - e^{i mu t}) / mu^2
    basis = make_basis(k=1)
    mu = basis.eigenvalues[0]
    grid = TimeGrid(1.0, 4000)
    f = 0.7 - 0.2j
    v = free_trajectory(np.array([-1j * f]), basis, grid)
    out = convolve_source(grid.times.copy(), v, basis.eigenvalues)
    exact = -1j * f * (1 + 1j * mu * grid.times - np.exp(1j * mu * grid.times)) / mu**2
    assert np.abs(out.y.coeffs[:, 0] - exact).max() <= 1e-7
    assert np.abs(out.y.coeffs[0]).max() == 0.0


def test_convolve_source_modal_residual():
    basis = make_basis(k=1)
    grid = TimeGrid(1.0, 1000)
    v = free_trajectory(np.array([-1j * (1.0 + 0j)]), basis, grid)
    out = convolve_source(grid.times.copy(), v, basis.eigenvalues)
    assert out.source_identity_residual <= 1e-5


def test_convolve_source_rejects_nonzero_rho0():
    basis = make_basis(k=1)
    grid = TimeGrid(1.0, 100)
    v = free_trajectory(np.array([1.0 + 0j]), basis, grid)
    with pytest.raises(ValueError, match="rho\\(0\\)"):
        convolve_source(np.ones(101), v, basis.eigenvalues)


def test_reduction_route_matches_duhamel():
    # y = rho * (free flow of -i f) and the Duhamel solution are the same
    # trapezoid sums reindexed, so they agree to rounding
    basis = make_basis(k=3)
    grid = TimeGrid(1.0, 1000)
    rho = grid.times * (1.0 - grid.times / 2)
    f = np.array([1.0, -0.5j, 0.25 + 0.25j])
    u = duhamel_solve(f, rho, basis, grid)
    v = free_trajectory(-1j * f, basis, grid)
    y = convolve_source(rho, v, basis.eigenvalues)
    assert np.abs(y.y.coeffs - u.coeffs).max() <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 255, 256, 257, 1000, 4097, 10_001, 40_001])
@pytest.mark.parametrize("kinds", ["rr", "rc", "cc"])
def test_fftconvolve_bit_identical_to_scipy(n, kinds):
    rng = np.random.default_rng(n)
    a, b = rng.standard_normal(n), rng.standard_normal(n)
    if kinds[0] == "c":
        a = a + 1j * rng.standard_normal(n)
    if kinds[1] == "c":
        b = b + 1j * rng.standard_normal(n)
    assert np.array_equal(_fftconvolve(a, b), fftconvolve(a, b))


@pytest.mark.parametrize("m, h, k", [(2, 1, 1), (300, 256, 3), (511, 512, 6), (1023, 768, 1)])
def test_fftconvolve_axis0_broadcast_bit_identical_to_scipy(m, h, k):
    rng = np.random.default_rng(m + h + k)
    col = rng.standard_normal((m, 1))
    b = rng.standard_normal((h, k)) + 1j * rng.standard_normal((h, k))
    assert np.array_equal(_fftconvolve(col, b), fftconvolve(col, b, axes=0))
    assert np.array_equal(_fftconvolve(col, b.real), fftconvolve(col, b.real, axes=0))


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.integers(2, 3000), st.sampled_from([256, 257, 512])), st.integers(1, 6),
       st.sampled_from(["rr", "rc", "cr", "cc"]), st.integers(0, 2**31))
def test_trapezoid_convolution_columns_match_single_calls(n, k, kinds, seed):
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal(n), rng.standard_normal((n, k))
    if kinds[0] == "c":
        a = a + 1j * rng.standard_normal(n)
    if kinds[1] == "c":
        b = b + 1j * rng.standard_normal((n, k))
    dt = 1.0 / n
    columns = np.column_stack([trapezoid_convolution(a, b[:, j], dt) for j in range(k)])
    assert np.array_equal(trapezoid_convolution(a, b, dt), columns)


def test_trapezoid_convolution_against_quadrature():
    t = TimeGrid(1.0, 800).times
    dt = t[1] - t[0]
    a = np.sin(3 * t)
    b = np.exp(-t)
    conv = trapezoid_convolution(a, b, dt)
    # oracle: dense trapezoid of the convolution integral at a few points
    for j in (100, 400, 799):
        s = t[: j + 1]
        integrand = np.interp(t[j] - s, t, a) * np.interp(s, t, b)
        oracle = dt * (integrand.sum() - 0.5 * (integrand[0] + integrand[-1]))
        assert conv[j] == pytest.approx(oracle, abs=1e-12)


def test_titchmarsh_support_additivity():
    # quadratic-onset bumps: the sampled support matches the analytic one to
    # a node, which the declared 1e-12 relative cutoff resolves (infinitely
    # flat onsets would push the numerically visible start several nodes in)
    grid = TimeGrid(2.0, 2000)
    t = grid.times

    def bump(start, width):
        x = np.zeros_like(t)
        inside = (t > start) & (t < start + width)
        s = (t[inside] - start) / width
        x[inside] = (s * (1 - s)) ** 2
        return x

    a = bump(0.2, 0.15)
    b = bump(0.3, 0.2)
    rep = titchmarsh_support(a, b, grid.dt)
    assert abs(rep.start_a - 0.2) <= 1.5 * grid.dt
    assert abs(rep.start_b - 0.3) <= 1.5 * grid.dt
    assert rep.additivity_gap <= 2 * grid.dt

    rep2 = titchmarsh_support(bump(0.1, 0.1), bump(0.4, 0.1), grid.dt)
    assert abs(rep2.start_convolution - 0.5) <= 2.5 * grid.dt


def test_titchmarsh_zero_input():
    grid = TimeGrid(1.0, 100)
    a = np.ones(101)
    rep = titchmarsh_support(a, np.zeros(101), grid.dt)
    assert rep.start_b is None and rep.additivity_gap is None
