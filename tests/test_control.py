import ast
import inspect

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from hardylab.control import (Gramian, _eta_matrix, _eta_matrix_trapezoid, defect_curve,
                              gramian, hum_solve, verify_control)
from hardylab.evolution import ModeState, TimeGrid, fat_cantor_mask, interval_mask, propagate
from hardylab.spectral import RadialGrid, assemble_hardy_operator, solve_spectrum


def make_basis(n=400, lam=3 / 16, k=8):
    grid = RadialGrid(n)
    return solve_spectrum(assemble_hardy_operator(grid, lam, 3), k)


@pytest.fixture(scope="module")
def basis():
    return make_basis()


@pytest.fixture(scope="module")
def gram(basis):
    return gramian(basis, interval_mask(basis.grid, 0.3, 0.6), 1.0)


def random_states(k, seed=0):
    rng = np.random.default_rng(seed)
    u0 = ModeState(rng.standard_normal(k) + 1j * rng.standard_normal(k))
    ud = ModeState(rng.standard_normal(k) + 1j * rng.standard_normal(k))
    return u0, ud


def node_interval_mask(basis, i, j):
    # interval around nodes min(i, j)..max(i, j), so the mask has at least one node
    h = basis.grid.spacing
    lo, hi = sorted((i, j))
    return interval_mask(basis.grid, basis.grid.nodes[lo] - h / 2, basis.grid.nodes[hi] + h / 2)


def test_single_mode_gramian_value(basis):
    b1 = make_basis(k=1)
    mask = interval_mask(b1.grid, 0.3, 0.6)
    g = gramian(b1, mask, 1.0)
    phi = b1.eigenvectors[mask.node_indices, 0]
    expected = 1.0 * np.sum(mask.weights * phi**2)
    assert g.matrix[0, 0] == pytest.approx(expected, rel=1e-14)


def test_full_mask_gramian_reduces_to_horizon_identity(basis):
    # Parseval: the full-domain mass matrix is the identity, so the Hadamard
    # structure G = M . eta collapses to eta(0, T) I = T I
    horizon = 0.7
    mask = interval_mask(basis.grid, 0.0, 1.0)
    g = gramian(basis, mask, horizon)
    assert np.abs(g.mass_masked - np.eye(8)).max() <= 1e-10
    assert np.abs(g.matrix - horizon * np.eye(8)).max() <= 1e-10


def test_gramian_hermitian_psd_positive(gram):
    m = gram.matrix
    assert np.abs(m - m.conj().T).max() <= 1e-14
    eigs = np.linalg.eigvalsh(m)
    assert eigs[0] > 0  # strictly positive for an open-interval mask


@settings(max_examples=40, deadline=None)
@given(st.floats(-1.0, 0.24), st.integers(1, 12), st.integers(0, 199), st.integers(0, 199),
       st.floats(0.25, 2.0))
def test_gramian_hermitian_psd_random_masks(lam, k, i, j, horizon):
    basis = make_basis(n=200, lam=lam, k=k)
    mask = node_interval_mask(basis, i, j)
    assert mask.n_nodes == abs(i - j) + 1
    m = gramian(basis, mask, horizon).matrix
    assert np.abs(m - m.conj().T).max() <= 1e-14
    eigs = np.linalg.eigvalsh(m)
    assert eigs[0] >= -1e-14 * max(eigs[-1], 1.0)


def test_gramian_empty_mask_rejected(basis):
    mask = interval_mask(basis.grid, 0.3, 0.6)
    mask.node_indices = np.array([], dtype=int)
    mask.weights = np.array([])
    with pytest.raises(ValueError, match="empty"):
        gramian(basis, mask, 1.0)


def test_hum_zero_gap(gram, basis):
    u0 = ModeState(np.ones(8, dtype=complex))
    ud = propagate(u0, basis, 1.0)
    res = hum_solve(gram, u0, ud, 1e-4)
    assert np.abs(res.multiplier).max() <= 1e-12
    assert res.defect_predicted <= 1e-12


def test_hum_large_penalty_limit(gram):
    u0, ud = random_states(8)
    res = hum_solve(gram, u0, ud, 1e9)
    d = np.linalg.norm(res.target_gap)
    assert res.defect_predicted == pytest.approx(d, rel=1e-8)
    assert np.abs(res.multiplier).max() <= 2 * d / 1e9


def test_hum_defect_bound(gram):
    u0, ud = random_states(8, seed=4)
    eps = 1e-3
    res = hum_solve(gram, u0, ud, eps)
    smin = gram.eigenvalues[0]
    assert res.defect_predicted <= eps / (eps + smin) * np.linalg.norm(res.target_gap) + 1e-12


def test_hum_linearity_in_gap(gram, basis):
    u0, ud = random_states(8, seed=5)
    res1 = hum_solve(gram, u0, ud, 1e-2)
    doubled = ModeState(2 * ud.coeffs - np.exp(1j * basis.eigenvalues) * u0.coeffs)
    res2 = hum_solve(gram, u0, doubled, 1e-2)
    assert np.abs(res2.multiplier - 2 * res1.multiplier).max() <= 1e-10
    assert res2.defect_predicted == pytest.approx(2 * res1.defect_predicted, rel=1e-12)


def cholesky_oracle(gram, u0, ud, eps):
    """q, defect and cost of (G + eps I) q = d by a Cholesky solve."""
    d = ud.coeffs - np.exp(1j * gram.mode_eigenvalues * gram.horizon) * u0.coeffs
    q = cho_solve(cho_factor(gram.matrix + eps * np.eye(len(d))), d)
    cost = np.sqrt(max(np.vdot(q, gram.matrix @ q).real, 0.0))
    return q, np.linalg.norm(eps * q), cost


@settings(max_examples=40, deadline=None)
@given(st.floats(-1.0, 0.24), st.integers(1, 12), st.booleans(), st.integers(0, 199),
       st.integers(0, 199), st.floats(0.25, 2.0), st.integers(0, 2**32 - 1))
def test_hum_and_defect_curve_match_cholesky_oracle(lam, k, cantor, i, j, horizon, seed):
    basis = make_basis(n=200, lam=lam, k=k)
    if cantor:
        # around nodes lo..hi, at least five of them: the base interval spans
        # the 4 spacings fat_cantor_mask needs
        lo = min(i, j, 195)
        hi = max(i, j, lo + 4)
        h = basis.grid.spacing
        mask = fat_cantor_mask(basis.grid, (basis.grid.nodes[lo] - h / 2,
                                            basis.grid.nodes[hi] + h / 2))
    else:
        mask = node_interval_mask(basis, i, j)
    gram = gramian(basis, mask, horizon)
    u0, ud = random_states(k, seed)
    eps_list = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
    rows = defect_curve(gram, u0, ud, eps_list)
    for eps, row in zip(eps_list, rows):
        q, defect, cost = cholesky_oracle(gram, u0, ud, eps)
        res = hum_solve(gram, u0, ud, eps)
        assert np.linalg.norm(res.multiplier - q) <= 1e-12 * np.linalg.norm(q)
        for value in (row["defect"], res.defect_predicted):
            assert value == pytest.approx(defect, rel=1e-12)
        for value in (row["cost"], res.cost):
            assert value == pytest.approx(cost, rel=1e-12)
        assert row["sigma_min"] == gram.eigenvalues[0]


def test_hum_multiplier_within_one_rounding_unit_of_exact_solve(gram):
    # q = V w alone is off by 2.4e-16 to 5.6e-16 here (V is orthonormal only
    # to a few ulps), a Cholesky solve by 1.0e-16 to 3.3e-16; the refined q
    # stays within np.finfo(float).eps of a 40-digit solve
    worst = 0.0
    for seed in range(6):
        u0, ud = random_states(8, seed)
        for eps in (1e-1, 1e-3, 1e-5):
            res = hum_solve(gram, u0, ud, eps)
            with mpmath.workdps(40):
                a = mpmath.matrix([[mpmath.mpc(complex(gram.matrix[i, j])) + (eps if i == j else 0)
                                    for j in range(8)] for i in range(8)])
                exact = mpmath.lu_solve(a, mpmath.matrix([mpmath.mpc(complex(x))
                                                          for x in res.target_gap]))
            exact = np.array([complex(x) for x in exact])
            worst = max(worst, np.linalg.norm(res.multiplier - exact) / np.linalg.norm(exact))
    assert worst <= np.finfo(float).eps


def test_hum_rejects_gramian_below_minus_eps(gram):
    # a hand-made Gramian with lambda_min = -2 eps: G + eps I is indefinite
    eps = 1e-3
    shift = gram.eigenvalues[0] + 2 * eps
    bad = Gramian(gram.matrix - shift * np.eye(8), gram.mass_masked, gram.mode_eigenvalues,
                  gram.horizon, gram.phi_masked)
    assert bad.eigenvalues[0] == pytest.approx(-2 * eps, rel=1e-9)
    u0, ud = random_states(8)
    with pytest.raises(RuntimeError, match="not positive definite: assembly fault"):
        hum_solve(bad, u0, ud, eps)
    with pytest.raises(RuntimeError, match="not positive definite: assembly fault"):
        defect_curve(bad, u0, ud, (1e-1, 1e-2, eps))
    # a penalty above -lambda_min still solves
    assert hum_solve(bad, u0, ud, 3 * eps).defect_predicted > 0


def test_hum_reads_the_one_eigendecomposition(gram, monkeypatch):
    u0, ud = random_states(8, seed=6)

    def refuse(*args, **kwargs):
        raise AssertionError("Gramian decomposed again")

    for name in ("eigh", "eigvalsh", "cholesky", "solve"):
        monkeypatch.setattr(np.linalg, name, refuse)
    defect_curve(gram, u0, ud, (1e-1, 1e-3))
    hum_solve(gram, u0, ud, 1e-3)


def test_hum_samples_the_control_on_the_mask_nodes(basis, gram):
    # h(t, x) = i sum_l q_l e^{i mu_l (t - T)} phi_l(x), phi from the Gramian's own block
    u0, ud = random_states(8, seed=7)
    times = np.linspace(0.0, 1.0, 5)
    res = hum_solve(gram, u0, ud, 1e-3, sample_times=times)
    phi = basis.eigenvectors[interval_mask(basis.grid, 0.3, 0.6).node_indices]
    phases = np.exp(1j * np.outer(times - 1.0, basis.eigenvalues))
    expected = 1j * np.einsum("l,tl,xl->tx", res.multiplier, phases, phi)
    assert np.abs(res.control_samples - expected).max() <= 1e-12 * np.abs(expected).max()


def test_hum_rejects_nonpositive_penalty(gram):
    u0, ud = random_states(8)
    with pytest.raises(ValueError):
        hum_solve(gram, u0, ud, 0.0)


def test_forward_simulation_matches_predicted_defect(gram):
    u0, ud = random_states(8, seed=6)
    res = hum_solve(gram, u0, ud, 1e-3)
    fwd = verify_control(res, gram, n_steps=100_000)
    assert abs(fwd - res.defect_predicted) <= 1e-6


def test_forward_error_second_order(gram):
    u0, ud = random_states(8, seed=7)
    res = hum_solve(gram, u0, ud, 1e-2)
    e1 = abs(verify_control(res, gram, n_steps=4000) - res.defect_predicted)
    e2 = abs(verify_control(res, gram, n_steps=8000) - res.defect_predicted)
    assert e1 / e2 == pytest.approx(4.0, rel=0.35)


def _time_domain_source(gram, q, times):
    # oracle: the mask-projected modal source g_k(t) = i (Mw E(t) q)_k of the control
    phases = np.exp(1j * np.outer(gram.mode_eigenvalues, times - gram.horizon))
    return (1j * (gram.mass_masked @ (phases * q[:, None]))).T   # (nt, k)


def _time_domain_verify(result, gram, u0, n_steps):
    # oracle: forward simulation of the controlled flow by trapezoid Duhamel
    mus = gram.mode_eigenvalues
    t_end = gram.horizon
    s = np.linspace(0.0, t_end, n_steps + 1)
    w = TimeGrid(t_end, n_steps).trapezoid_weights()
    g = _time_domain_source(gram, result.multiplier, s)
    integral = ((np.exp(1j * np.outer(mus, t_end - s)) * g.T) * w).sum(axis=1)
    u_t = np.exp(1j * mus * t_end) * u0.coeffs - 1j * integral
    ud = result.target_gap + np.exp(1j * mus * t_end) * u0.coeffs
    return float(np.linalg.norm(u_t - ud))


@settings(max_examples=40, deadline=None)
@given(st.floats(-1.0, 0.24), st.integers(1, 16), st.integers(0, 199), st.integers(0, 199),
       st.floats(0.25, 2.0),
       st.sampled_from([1, 4094, 4095, 4096, 8195]),
       st.integers(0, 2**32 - 1))
def test_verify_control_matches_time_domain_simulation(lam, k, i, j, horizon, n_steps, seed):
    # the sampled Gramian reorders the same trapezoid sum as the forward
    # simulation, including the free flow that cancels in u(T) - u_d
    basis = make_basis(n=200, lam=lam, k=k)
    gram = gramian(basis, node_interval_mask(basis, i, j), horizon)
    u0, ud = random_states(k, seed=seed)
    res = hum_solve(gram, u0, ud, 1e-3)
    expected = _time_domain_verify(res, gram, u0, n_steps)
    tol = 1e-12 * max(1.0, np.linalg.norm(res.target_gap))
    assert abs(verify_control(res, gram, n_steps=n_steps) - expected) <= tol


def _eta_block_sum(mus, horizon, n_steps, block=4096):
    # oracle: the trapezoid sum node by node, one (P w) @ P^H product per
    # block of time nodes, the block sums added pairwise
    times = np.linspace(0.0, horizon, n_steps + 1)
    weights = TimeGrid(horizon, n_steps).trapezoid_weights()
    blocks = []
    for start in range(0, n_steps + 1, block):
        phases = np.exp(1j * np.outer(mus, times[start:start + block]))
        blocks.append((phases * weights[start:start + block]) @ phases.conj().T)
    while len(blocks) > 1:
        pairs = [a + b for a, b in zip(blocks[0::2], blocks[1::2])]
        blocks = pairs + blocks[2 * len(pairs):]
    return blocks[0]


def _eta_geometric_mp(mus, horizon, n_steps):
    # oracle: (dt/2)(1 + z)(1 - z^n)/(1 - z), z = e^{i theta dt}, at 40 digits
    # from the exact differences of the double eigenvalues
    with mpmath.workdps(40):
        dt = mpmath.mpf(horizon) / n_steps
        out = np.empty((len(mus), len(mus)), dtype=complex)
        for k, mu_k in enumerate(mus):
            for l, mu_l in enumerate(mus):
                theta = mpmath.mpf(mu_k) - mpmath.mpf(mu_l)
                if theta == 0:
                    out[k, l] = float(horizon)
                    continue
                z = mpmath.expj(theta * dt)
                out[k, l] = complex(dt / 2 * (1 + z) * (1 - z ** n_steps) / (1 - z))
    return out


@settings(max_examples=40, deadline=None)
@given(st.floats(-1.0, 0.24), st.integers(1, 16), st.floats(0.25, 2.0),
       st.sampled_from([1, 2, 4094, 4095, 4096, 8195, 100003]))
def test_sampled_eta_matches_block_sum(lam, k, horizon, n_steps):
    mus = make_basis(n=200, lam=lam, k=k).eigenvalues
    oracle = _eta_block_sum(mus, horizon, n_steps)
    # the oracle's phases e^{i mu t} round at eps mu t, up to 0.35 eps mu_max T
    # in the entries against a 40-digit sum; both forms carry that rounding
    # when few steps leave the entries undamped by 1/theta
    rel = 1e-14 + 2 * np.finfo(float).eps * mus.max() * horizon
    err = np.abs(_eta_matrix_trapezoid(mus, horizon, n_steps) - oracle).max()
    assert err <= rel * np.abs(oracle).max()


@pytest.mark.parametrize("k, n_steps", [(8, 200_000), (16, 800_000)])
def test_sampled_eta_matches_extended_precision_sum(k, n_steps):
    # the lab-default and the long time-stepping sizes
    mus = make_basis(n=800, lam=0.0, k=k).eigenvalues
    ref = _eta_geometric_mp(mus, 1.0, n_steps)
    err = np.abs(_eta_matrix_trapezoid(mus, 1.0, n_steps) - ref).max()
    assert err <= 1e-15 * np.abs(ref).max()


@pytest.mark.parametrize("n_steps", [1, 4095, 200_000])
def test_sampled_eta_near_degenerate_pair(n_steps):
    mus = np.array([2.0, 2.0 + 1e-13, 7.5])
    assert 0 < mus[1] - mus[0] < 2e-13
    eta = _eta_matrix_trapezoid(mus, 1.3, n_steps)
    oracle = _eta_block_sum(mus, 1.3, n_steps)
    assert np.all(np.isfinite(eta.view(float)))
    assert np.abs(eta - oracle).max() <= 1e-14 * np.abs(oracle).max()


@pytest.mark.parametrize("n_steps", [1, 3, 200_000])
def test_sampled_eta_diagonal_is_horizon(basis, n_steps):
    eta = _eta_matrix_trapezoid(basis.eigenvalues, 0.7, n_steps)
    assert np.all(np.diag(eta) == 0.7)


def test_sampled_eta_does_not_use_closed_form():
    # the check must stay independent of the Gramian's closed form of eta
    tree = ast.parse(inspect.getsource(_eta_matrix_trapezoid))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert "_eta_matrix" not in names


@pytest.mark.parametrize("n_steps", [0, -1])
def test_verify_control_rejects_nonpositive_steps(gram, n_steps):
    u0, ud = random_states(8)
    res = hum_solve(gram, u0, ud, 1e-3)
    with pytest.raises(ValueError, match="n_steps"):
        verify_control(res, gram, n_steps=n_steps)


def test_sampled_eta_converges_at_second_order(basis):
    exact = _eta_matrix(basis.eigenvalues, 1.0)
    e1 = np.abs(_eta_matrix_trapezoid(basis.eigenvalues, 1.0, 2000) - exact).max()
    e2 = np.abs(_eta_matrix_trapezoid(basis.eigenvalues, 1.0, 4000) - exact).max()
    assert e1 / e2 == pytest.approx(4.0, rel=0.05)


def test_defect_curve_monotonicity(gram):
    u0, ud = random_states(8, seed=8)
    rows = defect_curve(gram, u0, ud, (1e-1, 1e-2, 1e-3, 1e-4, 1e-5))
    defects = [r["defect"] for r in rows]
    costs = [r["cost"] for r in rows]
    assert all(a > b for a, b in zip(defects, defects[1:]))
    assert all(b >= a for a, b in zip(costs, costs[1:]))
    assert costs[-1] > costs[0]


def test_defect_curve_single_mode_scalar_formula():
    b1 = make_basis(k=1)
    mask = interval_mask(b1.grid, 0.3, 0.6)
    g = gramian(b1, mask, 1.0)
    u0, ud = random_states(1, seed=9)
    eps = 1e-3
    res = hum_solve(g, u0, ud, eps)
    d = abs(res.target_gap[0])
    expected = eps * d / (eps + g.matrix[0, 0].real)
    assert res.defect_predicted == pytest.approx(expected, rel=1e-12)


def test_defect_curve_rejects_nondecreasing(gram):
    u0, ud = random_states(8)
    with pytest.raises(ValueError, match="decreasing"):
        defect_curve(gram, u0, ud, (1e-3, 1e-2))


def test_mask_monotonicity(basis):
    small = gramian(basis, interval_mask(basis.grid, 0.3, 0.6), 1.0)
    large = gramian(basis, interval_mask(basis.grid, 0.25, 0.65), 1.0)
    assert large.eigenvalues[0] >= small.eigenvalues[0] - 1e-12
