"""Approximate internal control by the penalized duality (Gramian) method.

The control acts through the indicator of the observation set; in the
spectral basis the reachable increment of a multiplier vector q is G q with

    G_jl = Mw_jl * eta(mu_j - mu_l, T),    eta(d, T) = (e^(i d T) - 1)/(i d),

where Mw is the mask-restricted mass matrix of the eigenfunctions.  The
penalized problem (G + eps I) q = d has the closed-form terminal defect
eps (G + eps I)^{-1} d, which the forward Duhamel simulation must reproduce
up to its quadrature error; the control cost is q^H G q exactly.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .evolution import (ModeState, ObservationMask, TimeGrid, duhamel_modal_source,
                        trapezoid_weights)
from .spectral import SpectralBasis


def _eta_matrix(mus: np.ndarray, horizon: float) -> np.ndarray:
    d = np.subtract.outer(mus, mus)
    small = np.abs(d) * horizon < 1e-8
    safe = np.where(small, 1.0, d)
    eta = (np.exp(1j * d * horizon) - 1.0) / (1j * safe)
    # second-order Taylor keeps the Hermitian structure through d -> 0
    taylor = horizon * (1.0 + 0.5j * d * horizon)
    return np.where(small, taylor, eta)


@dataclass
class Gramian:
    """Hermitian PSD control Gramian over (0, T) x mask at fixed truncation."""

    matrix: np.ndarray
    mass_masked: np.ndarray
    mode_eigenvalues: np.ndarray
    horizon: float
    mask: ObservationMask

    def sigma_min(self) -> float:
        """lambda_min(G), the smallest eigenvalue of the Gramian.

        Not a singular value: G = O^H O up to conjugation for the observation
        map O of initial coefficients onto L^2((0, T) x mask), so this is the
        square of O's smallest singular value.  The name is kept because
        artifacts and reports use the key `sigma_min`.
        """
        return float(np.linalg.eigvalsh(self.matrix)[0])


def gramian(basis: SpectralBasis, mask: ObservationMask, horizon: float) -> Gramian:
    if mask.n_nodes == 0:
        raise ValueError("empty observation mask")
    phi = basis.eigenvectors[mask.node_indices, :]
    mass = (phi * mask.weights[:, None]).T @ phi
    mass = 0.5 * (mass + mass.T)
    g = mass * _eta_matrix(basis.eigenvalues, horizon)
    return Gramian(g, mass, basis.eigenvalues.copy(), horizon, mask)


@dataclass
class ControlResult:
    multiplier: np.ndarray
    eps: float
    defect_predicted: float
    cost: float
    target_gap: np.ndarray        # d = u_d - free flow of u_0 at T
    control_samples: np.ndarray | None = None


def hum_solve(gram: Gramian, u0: ModeState, ud: ModeState, eps: float,
              sample_times: np.ndarray | None = None,
              basis: SpectralBasis | None = None) -> ControlResult:
    """Solve (G + eps I) q = d and report the closed-form defect and cost.

    The control is h(t, x) = i * sum_l q_l e^{i mu_l (t - T)} phi_l(x) on the
    mask; pass `sample_times` (and the basis) to store physical samples.
    """
    if eps <= 0:
        raise ValueError("penalty eps must be positive")
    mus = gram.mode_eigenvalues
    d = ud.coeffs - np.exp(1j * mus * gram.horizon) * u0.coeffs
    k = len(mus)
    try:
        factor = cho_factor(gram.matrix + eps * np.eye(k))
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("Gramian + eps I not positive definite: assembly fault") from exc
    q = cho_solve(factor, d)
    defect = float(np.linalg.norm(eps * q))
    cost_sq = np.vdot(q, gram.matrix @ q).real
    result = ControlResult(q, eps, defect, float(np.sqrt(max(cost_sq, 0.0))), d)
    if sample_times is not None:
        if basis is None:
            raise ValueError("basis required to sample the control in space")
        phases = np.exp(1j * np.outer(sample_times - gram.horizon, mus))
        phi = basis.eigenvectors[gram.mask.node_indices, :]
        result.control_samples = 1j * (phases * q) @ phi.T
    return result


def control_modal_source(gram: Gramian, q: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Mask-projected modal source g_k(t) = i (Mw E(t) q)_k of the control."""
    phases = np.exp(1j * np.outer(gram.mode_eigenvalues, times - gram.horizon))
    return (1j * (gram.mass_masked @ (phases * q[:, None]))).T   # (nt, k)


def verify_control(result: ControlResult, gram: Gramian, u0: ModeState,
                   n_steps: int = 200_000) -> float:
    """Forward-simulate the controlled flow by trapezoid Duhamel and return
    the terminal defect ||u(T) - u_d||; agreement with the predicted defect
    is limited only by the time quadrature."""
    mus = gram.mode_eigenvalues
    t_end = gram.horizon
    s = np.linspace(0.0, t_end, n_steps + 1)
    w = trapezoid_weights(n_steps + 1, t_end / n_steps)
    g = control_modal_source(gram, result.multiplier, s)       # (nt, k)
    integral = ((np.exp(1j * np.outer(mus, t_end - s)) * g.T) * w).sum(axis=1)
    u_t = np.exp(1j * mus * t_end) * u0.coeffs - 1j * integral
    ud = result.target_gap + np.exp(1j * mus * t_end) * u0.coeffs
    return float(np.linalg.norm(u_t - ud))


def verify_control_trajectory(result: ControlResult, gram: Gramian, u0: ModeState,
                              grid: TimeGrid) -> np.ndarray:
    """Full controlled trajectory on a grid (free flow plus sourced response)."""
    g = control_modal_source(gram, result.multiplier, grid.times)
    sourced = duhamel_modal_source(g, gram.mode_eigenvalues, grid)
    free = np.exp(1j * np.outer(grid.times, gram.mode_eigenvalues)) * u0.coeffs
    return free + sourced.coeffs


def defect_curve(gram: Gramian, u0: ModeState, ud: ModeState, eps_list) -> list[dict]:
    """Rows (eps, defect, cost, sigma_min) for a decreasing penalty sweep;
    every row's sigma_min is the same lambda_min(G) (see Gramian.sigma_min)."""
    eps_list = list(eps_list)
    if any(e <= 0 for e in eps_list):
        raise ValueError("penalties must be positive")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("penalty sweep must be strictly decreasing")
    smin = gram.sigma_min()
    rows = []
    for eps in eps_list:
        res = hum_solve(gram, u0, ud, eps)
        rows.append({
            "eps": eps,
            "defect": res.defect_predicted,
            "cost": res.cost,
            "sigma_min": smin,
        })
    return rows
