"""Schrodinger-to-elliptic transform and unique-continuation surrogates.

Integrating a trajectory against the flatness kernel,

    w(t, x) = integral_0^T K(t, tau) u(tau, x) dtau,

turns each Schrodinger mode into a profile W_k(t) obeying W_k'' = mu_k W_k
on (-1, 1) up to the kernel's truncation defect.  All checks live in mode
space, where the radial basis diagonalizes the operator exactly; trapezoid
quadrature is spectrally accurate because the integrands vanish to all
orders at tau = 0, T.  The transform sums the kernel a block of t rows at a
time and contracts each block at once, so its memory does not grow with the
number of t nodes.

The observation and unique-continuation maps are held as the Khatri-Rao
factors of evolution.khatri_rao_core, never as (samples, modes) matrices:
their singular values, and the certificate's reconstruction, come from a
core of at most k^2 rows.  The certificate works on the observation map
alone: the kernel and the transform are built and checked by their own CLI
stages, not again here.
"""

from dataclasses import dataclass

import numpy as np

from .errors import IllPosedTruncationError
from .evolution import (ModeTrajectory, ObservationMask, TimeGrid,
                        free_trajectory, khatri_rao_core, numerical_rank,
                        observability_matrix, observe)
from .flatness import FlatnessKernel, GevreyBump
from .spectral import SpectralBasis

SIGMA_MIN_FLOOR = 1e-12


@dataclass
class EllipticProfile:
    """Per-mode profiles W_k(t) of the transformed solution."""

    t_nodes: np.ndarray
    values: np.ndarray            # (k_modes, len(t_nodes)) complex
    mode_eigenvalues: np.ndarray

    @property
    def k_modes(self) -> int:
        return self.values.shape[0]


def transform(trajectory: ModeTrajectory, kernel: FlatnessKernel,
              mode_eigenvalues: np.ndarray) -> EllipticProfile:
    """W_k(t_i) = sum_j w_j K(t_i, tau_j) c_k(tau_j), trapezoid in tau.

    The kernel is streamed in row blocks, so the dense (t, tau) array is
    never held at once.
    """
    if trajectory.grid.steps + 1 != len(kernel.tau_nodes) or not np.allclose(
        trajectory.grid.times, kernel.tau_nodes, rtol=0.0, atol=1e-12
    ):
        raise ValueError("trajectory and kernel do not share the tau grid")
    w = trajectory.grid.trapezoid_weights()
    values = np.empty((len(kernel.t_nodes), trajectory.coeffs.shape[1]), dtype=complex)
    for start, stop in kernel.row_blocks():
        values[start:stop] = (kernel.sub_grid(slice(start, stop)) * w) @ trajectory.coeffs
    return EllipticProfile(kernel.t_nodes.copy(), values.T, np.asarray(mode_eigenvalues))


def elliptic_residual(profile: EllipticProfile) -> tuple[float, np.ndarray]:
    """max_k ||W_k'' - mu_k W_k||_sup / (1 + mu_k ||W_k||_sup), 3-point interior FD."""
    t = profile.t_nodes
    dt = t[1] - t[0]
    if not np.allclose(np.diff(t), dt, rtol=1e-12, atol=1e-14):
        raise ValueError("profile t-grid is not uniform")
    v = profile.values
    second = (v[:, 2:] - 2.0 * v[:, 1:-1] + v[:, :-2]) / dt**2
    defect = np.abs(second - profile.mode_eigenvalues[:, None] * v[:, 1:-1]).max(axis=1)
    scale = 1.0 + profile.mode_eigenvalues * np.abs(v).max(axis=1)
    per_mode = defect / scale
    return float(per_mode.max()), per_mode


def moment_trace(bump: GevreyBump, trajectory: ModeTrajectory) -> np.ndarray:
    """Weighted trace integral_0^T psi(tau) u(tau, .) dtau in mode coefficients.

    For a source-free trajectory this equals m(mu_k) c_k(0) with
    m(mu) = integral psi e^(i mu tau); it also coincides, sum for sum, with
    the transform evaluated at t = -1 where the kernel reduces to psi.
    """
    grid = trajectory.grid
    return (grid.trapezoid_weights() * bump(grid.times)) @ trajectory.coeffs


@dataclass
class CylinderWindow:
    """Observation window (subset of (-1,1)) x (spatial mask)."""

    mask: ObservationMask
    t_nodes: np.ndarray

    def __post_init__(self):
        if len(self.t_nodes) == 0 or self.mask.n_nodes == 0:
            raise ValueError("empty cylinder window")


@dataclass
class UcpReport:
    singular_values: np.ndarray
    rank: int
    condition: float


def ucp_probe(basis: SpectralBasis, window: CylinderWindow) -> UcpReport:
    """Injectivity margin of (A_k, B_k) -> sum_k (A_k e^(s_k t) + B_k e^(-s_k t)) phi_k
    restricted to the window, s_k = sqrt(mu_k).

    Columns are pre-scaled by e^(-s_k) so both exponential families peak at
    one on t in [-1, 1]; scaling changes singular values by known positive
    factors and leaves the rank statement intact.  Column 2k + (0 | 1) is
    (grow | decay)[:, k] (x) phi_k, so the map is factored by
    khatri_rao_core and never formed.
    """
    mus = basis.eigenvalues
    if np.any(mus <= 0):
        raise ValueError("ucp probe requires strictly positive eigenvalues")
    t = np.asarray(window.t_nodes, dtype=float)
    n_samples = len(t) * window.mask.n_nodes
    if 2 * basis.k_modes > n_samples:
        raise ValueError("window has fewer samples than unknowns")
    s = np.sqrt(mus)
    grow = np.exp(np.outer(t - 1.0, s))      # e^(s(t-1)) <= 1
    decay = np.exp(-np.outer(t + 1.0, s))    # e^(-s(t+1)) <= 1
    phi = basis.eigenvectors[window.mask.node_indices, :]
    exps = np.stack([grow, decay], axis=-1).reshape(len(t), 2 * basis.k_modes)
    *_, core = khatri_rao_core(exps, phi, np.repeat(np.arange(basis.k_modes), 2))
    sv = np.linalg.svd(core, compute_uv=False)
    # a single time node leaves the core k rows: the other k singular
    # values of the map are exact zeros
    sv = np.pad(sv, (0, 2 * basis.k_modes - len(sv)))
    with np.errstate(divide="ignore"):
        condition = float(sv[0] / sv[-1])
    return UcpReport(sv, numerical_rank(sv, (n_samples, 2 * basis.k_modes)), condition)


@dataclass
class UniquenessCertificate:
    eta: float
    sigma_min: float
    bound: float
    c0_norm: float
    reconstruction_error: float


def uniqueness_pipeline(c0: np.ndarray, basis: SpectralBasis, mask: ObservationMask,
                        obs_grid: TimeGrid) -> UniquenessCertificate:
    """Quantitative vanishing certificate: observation energy eta on the mask
    bounds the initial state by eta / sigma_min, where sigma_min is the
    smallest singular value of the observation map (computed from its
    Khatri-Rao core).  The initial state is recovered by least squares
    through the same factors.

    Refuses (IllPosedTruncationError) when sigma_min drops below 1e-12.
    """
    c0 = np.asarray(c0, dtype=complex)
    samples = observe(free_trajectory(c0, basis, obs_grid), mask, basis)
    weighted = np.sqrt(np.outer(obs_grid.trapezoid_weights(), mask.weights)) * samples
    eta = float(np.linalg.norm(weighted))
    report = observability_matrix(basis, mask, obs_grid)
    sigma_min = float(report.singular_values[-1])
    if sigma_min < SIGMA_MIN_FLOOR:
        raise IllPosedTruncationError(
            f"sigma_min {sigma_min:.3e} below {SIGMA_MIN_FLOOR}: refusing certificate"
        )
    return UniquenessCertificate(
        eta=eta,
        sigma_min=sigma_min,
        bound=eta / sigma_min,
        c0_norm=float(np.linalg.norm(c0)),
        reconstruction_error=float(np.linalg.norm(report.least_squares(weighted) - c0)),
    )
