"""Approximate internal control by the penalized duality (Gramian) method.

The control acts through the indicator of the observation set; in the
spectral basis the reachable increment of a multiplier vector q is G q with

    G_jl = Mw_jl * eta(mu_j - mu_l, T),    eta(d, T) = (e^(i d T) - 1)/(i d),

where Mw is the mask-restricted mass matrix of the eigenfunctions.  The
penalized problem (G + eps I) q = d has the closed-form terminal defect
eps (G + eps I)^{-1} d; the control cost is q^H G q exactly.  Both are read
from the one eigendecomposition G = V diag(lam) V^H: with dh = V^H d and
w = dh / (lam + eps), q = V w, the defect is eps ||w|| and the squared cost
is sum lam |w|^2, for any number of penalties.

verify_control checks the defect without the closed form of eta: the
trapezoid rule for the controlled Duhamel integral, reordered, gives
u(T) - u_d = (Mw o eta_dt) q - d with eta_dt the trapezoid value of eta (the
sampled Gramian); the free flow of u_0 cancels.  Each entry of eta_dt is a
finite geometric series, summed in closed form whatever the number of steps.
"""

from dataclasses import dataclass, field

import numpy as np

from .evolution import ModeState, ObservationMask
from .spectral import SpectralBasis


def _eta_matrix(mus: np.ndarray, horizon: float) -> np.ndarray:
    d = np.subtract.outer(mus, mus)
    small = np.abs(d) * horizon < 1e-8
    safe = np.where(small, 1.0, d)
    eta = (np.exp(1j * d * horizon) - 1.0) / (1j * safe)
    # second-order Taylor keeps the Hermitian structure through d -> 0
    taylor = horizon * (1.0 + 0.5j * d * horizon)
    return np.where(small, taylor, eta)


def _eta_matrix_trapezoid(mus: np.ndarray, horizon: float, n_steps: int) -> np.ndarray:
    """Trapezoid value of _eta_matrix on n_steps uniform steps of (0, T).

    Entry (k, l) is the geometric sum of w_s z^s, z = e^{i theta dt}, theta =
    mu_k - mu_l: (dt/2)(1 + z)(1 - z^n)/(1 - z) = dt cot(x) sin(y) e^{iy} with
    x = theta dt/2 and y = theta T/2 (from T, not as n x), a form that never
    takes the cancelling difference 1 - z; where x = 0 the sum is T."""
    dt = horizon / n_steps
    theta = np.subtract.outer(mus, mus)
    x, y = 0.5 * theta * dt, 0.5 * theta * horizon
    zero = x == 0
    eta = dt * np.sin(y) / np.tan(np.where(zero, 1.0, x)) * np.exp(1j * y)
    eta[zero] = horizon
    return eta


@dataclass
class Gramian:
    """Hermitian PSD control Gramian over (0, T) x mask at fixed truncation,
    with the block phi_masked (mask nodes, modes) of eigenfunctions it was
    built from.  The eigendecomposition matrix = V diag(eigenvalues) V^H
    (ascending) is computed once, here; hum_solve and defect_curve read it.
    """

    matrix: np.ndarray
    mass_masked: np.ndarray
    mode_eigenvalues: np.ndarray
    horizon: float
    phi_masked: np.ndarray
    eigenvalues: np.ndarray = field(init=False)
    eigenvectors: np.ndarray = field(init=False)

    def __post_init__(self):
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(self.matrix)


def gramian(basis: SpectralBasis, mask: ObservationMask, horizon: float) -> Gramian:
    if mask.n_nodes == 0:
        raise ValueError("empty observation mask")
    phi = basis.eigenvectors[mask.node_indices, :]
    mass = (phi * mask.weights[:, None]).T @ phi
    mass = 0.5 * (mass + mass.T)
    g = mass * _eta_matrix(basis.eigenvalues, horizon)
    return Gramian(g, mass, basis.eigenvalues, horizon, phi)


@dataclass
class ControlResult:
    multiplier: np.ndarray
    eps: float
    defect_predicted: float
    cost: float
    target_gap: np.ndarray        # d = u_d - free flow of u_0 at T
    control_samples: np.ndarray | None = None


def _penalized(gram: Gramian, u0: ModeState, ud: ModeState, eps: np.ndarray):
    """The target gap d = u_d - e^{i mu T} u_0 and, for each penalty in eps,
    the coefficients w = (lam + eps)^{-1} V^H d of q in the Gramian's
    eigenbasis (one column per penalty), the defect eps ||w|| and the cost
    sqrt(sum lam |w|^2)."""
    shifted = gram.eigenvalues[:, None] + eps
    if np.any(shifted[0] <= 0):
        raise RuntimeError("Gramian + eps I not positive definite: assembly fault")
    d = ud.coeffs - np.exp(1j * gram.mode_eigenvalues * gram.horizon) * u0.coeffs
    w = (gram.eigenvectors.conj().T @ d)[:, None] / shifted
    power = np.abs(w) ** 2
    defect = eps * np.sqrt(power.sum(axis=0))
    cost = np.sqrt(np.maximum(gram.eigenvalues @ power, 0.0))
    return d, w, defect, cost


def hum_solve(gram: Gramian, u0: ModeState, ud: ModeState, eps: float,
              sample_times: np.ndarray | None = None) -> ControlResult:
    """Solve (G + eps I) q = d and report the closed-form defect and cost.

    q is V w from the Gramian's eigendecomposition, refined once against G.
    The control is h(t, x) = i * sum_l q_l e^{i mu_l (t - T)} phi_l(x) on the
    mask nodes; pass `sample_times` to store its samples there.
    """
    if eps <= 0:
        raise ValueError("penalty eps must be positive")
    d, w, defect, cost = _penalized(gram, u0, ud, np.array([eps]))
    v = gram.eigenvectors
    q = v @ w[:, 0]
    # one refinement step against G itself: V is orthonormal only to a few
    # ulps, which would leave q several times less accurate than a Cholesky solve
    q = q + v @ ((v.conj().T @ (d - gram.matrix @ q - eps * q)) / (gram.eigenvalues + eps))
    result = ControlResult(q, eps, float(defect[0]), float(cost[0]), d)
    if sample_times is not None:
        phases = np.exp(1j * np.outer(sample_times - gram.horizon, gram.mode_eigenvalues))
        result.control_samples = 1j * (phases * q) @ gram.phi_masked.T
    return result


def verify_control(result: ControlResult, gram: Gramian, n_steps: int = 200_000) -> float:
    """Terminal defect ||u(T) - u_d|| of the controlled flow under the
    n_steps trapezoid rule, as ||(Mw o eta_dt) q - d||; it agrees with the
    predicted defect up to the quadrature error of eta_dt."""
    if n_steps < 1:
        raise ValueError(f"verify_control needs n_steps >= 1, got {n_steps}")
    eta_dt = _eta_matrix_trapezoid(gram.mode_eigenvalues, gram.horizon, n_steps)
    return float(np.linalg.norm((gram.mass_masked * eta_dt) @ result.multiplier
                                - result.target_gap))


def defect_curve(gram: Gramian, u0: ModeState, ud: ModeState, eps_list) -> list[dict]:
    """Rows (eps, defect, cost, sigma_min) for a decreasing penalty sweep.

    Every row's sigma_min is lambda_min(G), not a singular value: G = O^H O up
    to conjugation for the observation map O of initial coefficients onto
    L^2((0, T) x mask), so it is the square of O's smallest singular value.
    The key is kept because artifacts and reports use it."""
    eps_list = list(eps_list)
    if any(e <= 0 for e in eps_list):
        raise ValueError("penalties must be positive")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("penalty sweep must be strictly decreasing")
    _, _, defects, costs = _penalized(gram, u0, ud, np.array(eps_list, dtype=float))
    smin = float(gram.eigenvalues[0])
    return [{"eps": eps, "defect": float(defect), "cost": float(cost), "sigma_min": smin}
            for eps, defect, cost in zip(eps_list, defects, costs)]
