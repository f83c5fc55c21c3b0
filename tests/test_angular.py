import numpy as np
import pytest

from hardylab.angular import (AngularProblem, angular_spectrum, beta_coefficients,
                              blowup_profile_check, gamma_exponent,
                              separated_residual)


@pytest.fixture(scope="module")
def prob0():
    return AngularProblem(0.0, 256)


@pytest.fixture(scope="module")
def basis0(prob0):
    return angular_spectrum(prob0, 8)


def test_problem_validation():
    with pytest.raises(ValueError, match="subcritical"):
        AngularProblem(0.25, 128)
    with pytest.raises(ValueError, match="64"):
        AngularProblem(0.1, 32)


def test_zero_coupling_spectrum_doubled_squares(basis0):
    mus = basis0.eigenvalues
    assert np.allclose(mus[::2], mus[1::2], rtol=1e-12)
    expected = np.repeat(np.arange(1, 5) ** 2, 2)
    assert np.abs(mus - expected).max() / expected.max() <= 5e-3
    assert basis0.multiplicity_pairs == [(0, 1), (2, 3), (4, 5), (6, 7)]


@pytest.mark.parametrize("lam, n_ang, k_count", [(0.0, 256, 8), (0.1, 512, 8),
                                                  (3 / 16, 128, 5), (0.24, 512, 7),
                                                  (-1.0, 64, 1)])
def test_spectrum_matches_inline_construction(lam, n_ang, k_count):
    # the arc eigensolve and sign rule as written before they moved to spectral
    from scipy.linalg import eigh_tridiagonal

    prob = AngularProblem(lam, n_ang)
    n_arc = int(np.ceil(k_count / 2))
    h2 = prob.spacing**2
    diag = 2.0 / h2 - lam / np.sin(prob.angles) ** 2
    off = np.full(n_ang - 1, -1.0 / h2)
    vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, n_arc - 1))
    vecs = vecs / np.sqrt(prob.spacing)
    for k in range(n_arc):
        col = vecs[:, k]
        idx = np.flatnonzero(np.abs(col) > 1e-12 * np.abs(col).max())
        if len(idx) and col[idx[0]] < 0:
            vecs[:, k] = -col
    eigenvectors = np.zeros((2 * n_ang, k_count))
    pairs = []
    for j in range(k_count):
        arc = j % 2
        eigenvectors[arc * n_ang : (arc + 1) * n_ang, j] = vecs[:, j // 2]
        if arc == 1:
            pairs.append((j - 1, j))
    basis = angular_spectrum(prob, k_count)
    assert np.array_equal(basis.eigenvalues, np.repeat(vals, 2)[:k_count])
    assert np.array_equal(basis.eigenvectors, eigenvectors)
    assert basis.multiplicity_pairs == pairs


def test_arc_orthonormality(basis0, prob0):
    gram = prob0.spacing * basis0.eigenvectors.T @ basis0.eigenvectors
    assert np.abs(gram - np.eye(basis0.count)).max() <= 1e-10


def test_eigenvalues_nonincreasing_in_coupling():
    values = []
    for lam in (0.0, 0.1, 0.1875, 0.24):
        basis = angular_spectrum(AngularProblem(lam, 128), 4)
        values.append(basis.eigenvalues)
    for a, b in zip(values, values[1:]):
        assert np.all(b <= a + 1e-12)


def test_singular_coupling_converges():
    # eigenfunction ~ alpha^(3/4) at the poles: reduced order ~ 2*nu = 1/2,
    # so assert monotone convergence rather than a second-order rate
    mus = [angular_spectrum(AngularProblem(3 / 16, n), 1).eigenvalues[0]
           for n in (128, 256, 512)]
    gaps = np.abs(np.diff(mus))
    assert gaps[1] < gaps[0]


def test_gamma_exponent_formula():
    assert gamma_exponent(0.0, 2) == 0.0
    assert gamma_exponent(0.0, 7) == 0.0
    assert gamma_exponent(1.0, 2) == pytest.approx(1.0, abs=1e-15)
    assert gamma_exponent(2.0, 3) == pytest.approx(1.0, abs=1e-15)
    for mu, n in ((0.3, 2), (5.7, 3), (11.0, 6)):
        g = gamma_exponent(mu, n)
        assert g * (g + n - 2) == pytest.approx(mu, abs=1e-12)


def test_gamma_exponent_rejects_negative_radicand():
    with pytest.raises(ValueError, match="radicand"):
        gamma_exponent(-5.0, 2)


def test_beta_for_linear_harmonic(prob0):
    # w(x, y) = y, psi = sin(alpha)/sqrt(pi), gamma = 1: beta = sqrt(pi)
    alphas = prob0.circle_angles()
    psi = np.sin(alphas) / np.sqrt(np.pi)
    for radius in (0.1, 0.2, 0.5):
        w = radius * np.sin(alphas)
        beta = beta_coefficients(w, psi, 1.0, radius, prob0.spacing)
        assert beta[0] == pytest.approx(np.sqrt(np.pi), abs=1e-8)


def test_beta_orthogonal_input_vanishes(prob0, basis0):
    alphas = prob0.circle_angles()
    w = np.cos(alphas)  # orthogonal to both arc-sine ground modes
    beta = beta_coefficients(w, basis0.eigenvectors[:, :2], 1.0, 0.3, prob0.spacing)
    assert np.abs(beta).max() <= 1e-10


def test_beta_radius_invariance_for_homogeneous_input(prob0, basis0):
    psi = basis0.eigenvectors[:, 0]
    gamma = gamma_exponent(basis0.eigenvalues[0], 2)
    betas = []
    for radius in (0.1, 0.2):
        w = radius**gamma * psi
        betas.append(beta_coefficients(w, psi, gamma, radius, prob0.spacing)[0])
    assert abs(betas[0] - betas[1]) <= 1e-8


def test_blowup_single_term_exact(prob0, basis0):
    study = blowup_profile_check([1.0], [1.0], basis0.eigenvectors[:, [0]], prob0.spacing)
    assert study.fitted_exponent is None
    assert np.all(study.discrepancies == 0.0)


def test_blowup_two_scale_decay_exponent(prob0, basis0):
    # gamma_1 = 1, gamma_2 = 2 at lam = 0: decay exponent 1 within 10%
    study = blowup_profile_check([1.0, 0.5], [1.0, 2.0],
                                 basis0.eigenvectors[:, [0, 2]], prob0.spacing)
    assert study.fitted_exponent == pytest.approx(study.expected_exponent,
                                                  rel=0.1)


def test_blowup_dominant_term_has_smaller_exponent(prob0, basis0):
    # swapping the coefficients does not change which profile dominates
    study = blowup_profile_check([0.5, 1.0], [1.0, 2.0],
                                 basis0.eigenvectors[:, [0, 2]], prob0.spacing)
    assert study.discrepancies[-1] < study.discrepancies[0]
    assert study.expected_exponent == pytest.approx(1.0)


def test_separated_residual_harmonic():
    # w = r sin(alpha) = y is discrete-harmonic to solver precision; the
    # noise scales like eps * ||A|| / r^2, so pin the grid size
    prob = AngularProblem(0.0, 128)
    basis = angular_spectrum(prob, 2)
    assert separated_residual(prob, basis, 0) <= 1e-10


def test_separated_residual_singular_second_order():
    prob = AngularProblem(3 / 16, 256)
    basis = angular_spectrum(prob, 2)
    r1 = separated_residual(prob, basis, 0, n_radial=41)
    r2 = separated_residual(prob, basis, 0, n_radial=81)
    assert r2 <= r1 / 2.5  # radial FD is second order


def test_separated_residual_gamma_sensitivity(prob0, basis0):
    base = separated_residual(prob0, basis0, 0)
    gamma = gamma_exponent(basis0.eigenvalues[0], 2)
    perturbed = separated_residual(prob0, basis0, 0, gamma_override=gamma + 1e-3)
    assert perturbed >= 1e3 * max(base, 1e-13)
