"""Radial discretization of L = -Laplacian - lambda/|x|^2 on the unit ball.

After the substitution v = r^((n-1)/2) u the radial eigenproblem becomes a
one-dimensional Dirichlet problem on (0, 1),

    -v'' - lam_red / r^2 v = mu v,      lam_red = lambda - (n-1)(n-3)/4,

whose exact eigenvalues are squared Bessel zeros j_{nu,k}^2 with
nu = sqrt(lambda_star(n) - lambda).  A uniform grid with implicit zero
ghost values at r = 0 and r = 1 keeps the singular potential off the
origin; second-order convergence holds for lambda = 0 and degrades
gracefully (order ~ 2*nu) for singular couplings.
"""

from dataclasses import dataclass, field

import numpy as np

from .bessel import bessel_zeros
from .errors import SupercriticalCouplingError
from .lapack import eigh_tridiagonal

EIGEN_RESIDUAL_TOL = 1e-10  # relative to ||A||, per eigenpair


def critical_constant(n: int) -> float:
    """Critical Hardy coupling (n-2)^2/4; n = 2 has no Hardy inequality."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"dimension must be a positive integer, got {n}")
    if n == 2:
        raise ValueError("n = 2 excluded: the critical constant degenerates")
    return (n - 2) ** 2 / 4.0


def bessel_order(lam: float, n: int) -> float:
    """Order nu = sqrt(lambda_star(n) - lambda) of the radial Bessel oracle."""
    lam_star = critical_constant(n)
    if lam >= lam_star:
        raise SupercriticalCouplingError(lam, lam_star, n)
    return float(np.sqrt(lam_star - lam))


def reduced_coupling(lam: float, n: int) -> float:
    """Effective 1-D inverse-square coupling after the radial reduction."""
    return lam - (n - 1) * (n - 3) / 4.0


@dataclass
class RadialGrid:
    """Uniform interior grid r_j = j*h on (0, 1), h = 1/(n_interior + 1).

    Dirichlet values at r = 0 and r = 1 are implicit zeros; quadrature is
    the trapezoid rule, which reduces to weight h at every interior node.
    """

    n_interior: int
    spacing: float = field(init=False)
    nodes: np.ndarray = field(init=False)
    weights: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.n_interior < 1:
            raise ValueError("n_interior must be positive")
        self.spacing = 1.0 / (self.n_interior + 1)
        self.nodes = self.spacing * np.arange(1, self.n_interior + 1)
        self.weights = np.full(self.n_interior, self.spacing)


def tridiagonal_apply(diagonal: np.ndarray, offdiagonal: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Product of the symmetric tridiagonal matrix (diagonal, offdiagonal) with
    each vector along the last axis of v."""
    out = diagonal * v
    out[..., :-1] += offdiagonal * v[..., 1:]
    out[..., 1:] += offdiagonal * v[..., :-1]
    return out


def tridiagonal_norm(diagonal: np.ndarray, offdiagonal: np.ndarray) -> float:
    """Infinity norm of the symmetric tridiagonal matrix (diagonal, offdiagonal)."""
    pad = np.concatenate(([0.0], np.abs(offdiagonal), [0.0]))
    return float(np.max(np.abs(diagonal) + pad[:-1] + pad[1:]))


def dirichlet_eigenpairs(diagonal: np.ndarray, offdiagonal: np.ndarray, spacing: float,
                         count: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest `count` eigenpairs of a three-point Dirichlet discretization.

    The eigenvectors are orthonormal under the spacing-weighted quadrature,
    and the first component above 1e-12 * max|v| of each is positive.  Every
    pair must have residual ||A v - mu v|| <= EIGEN_RESIDUAL_TOL ||A|| ||v||.
    """
    vals, vecs = eigh_tridiagonal(diagonal, offdiagonal, select_range=(0, count - 1))
    # Euclidean-orthonormal -> orthonormal under the spacing-weighted quadrature
    vecs = vecs / np.sqrt(spacing)
    size = np.abs(vecs)
    significant = size > 1e-12 * size.max(axis=0)
    first = vecs[np.argmax(significant, axis=0), np.arange(count)]
    vecs[:, significant.any(axis=0) & (first < 0)] *= -1.0
    residual = np.linalg.norm(tridiagonal_apply(diagonal, offdiagonal, vecs.T)
                              - vals[:, None] * vecs.T, axis=1)
    (bad,) = np.nonzero(residual > EIGEN_RESIDUAL_TOL * tridiagonal_norm(diagonal, offdiagonal)
                        * np.linalg.norm(vecs, axis=0))
    if len(bad):
        raise RuntimeError(f"eigenpair {bad[0]} residual {residual[bad[0]]:.3e} exceeds tolerance")
    return vals, vecs


@dataclass
class HardyDiscretization:
    """Symmetric tridiagonal matrix of -d^2/dr^2 - lam_red/r^2, Dirichlet ends."""

    grid: RadialGrid
    diagonal: np.ndarray
    offdiagonal: np.ndarray
    bessel_order: float


def assemble_hardy_operator(grid: RadialGrid, lam: float, n: int = 3) -> HardyDiscretization:
    """Three-point discretization of the reduced radial operator."""
    if grid.n_interior < 8:
        raise ValueError("grid too small: need at least 8 interior nodes")
    nu = bessel_order(lam, n)  # validates subcriticality
    lam_red = reduced_coupling(lam, n)
    h = grid.spacing
    diag = 2.0 / h**2 - lam_red / grid.nodes**2
    off = np.full(grid.n_interior - 1, -1.0 / h**2)
    return HardyDiscretization(grid, diag, off, nu)


@dataclass
class SpectralBasis:
    """Ascending eigenvalues with quadrature-orthonormal eigenvectors.

    Sign convention: the first component above 1e-12 * max|v| is positive.
    """

    grid: RadialGrid
    eigenvalues: np.ndarray      # (k_modes,)
    eigenvectors: np.ndarray     # (n_interior, k_modes)
    bessel_order: float

    @property
    def k_modes(self) -> int:
        return len(self.eigenvalues)


def solve_spectrum(op: HardyDiscretization, k_modes: int) -> SpectralBasis:
    """Lowest k_modes eigenpairs of the tridiagonal discretization."""
    n = op.grid.n_interior
    if k_modes < 1:
        raise ValueError(f"count must be >= 1: k_modes = {k_modes}")
    if k_modes > n:
        raise ValueError(f"k_modes = {k_modes} exceeds matrix size {n}")
    vals, vecs = dirichlet_eigenpairs(op.diagonal, op.offdiagonal, op.grid.spacing, k_modes)
    return SpectralBasis(op.grid, vals, vecs, op.bessel_order)


def hardy_rayleigh(grid: RadialGrid, v: np.ndarray) -> float | np.ndarray:
    """Discrete Hardy quotient sum((dv/h)^2 h) / sum((v/r)^2 h), v Dirichlet-padded,
    of each vector along the last axis of v: a float for one vector, else an
    array of v.shape[:-1]."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != grid.nodes.shape:
        raise ValueError("vector does not match the grid")
    den = np.sum((v / grid.nodes) ** 2, axis=-1) * grid.spacing
    if np.any(den == 0.0):
        raise ValueError("degenerate input: zero vector")
    ends = np.zeros((*v.shape[:-1], 1))
    padded = np.concatenate((ends, v, ends), axis=-1)
    num = np.sum((np.diff(padded, axis=-1) / grid.spacing) ** 2, axis=-1) * grid.spacing
    ratio = num / den
    return float(ratio) if v.ndim == 1 else ratio


def hardy_pencil_infimum(grid: RadialGrid) -> float:
    """Infimum of the Hardy quotient over the grid: smallest generalized
    eigenvalue of (stiffness, diag(1/r^2)), computed from the congruent
    symmetric tridiagonal diag(r) A diag(r)."""
    h = grid.spacing
    r = grid.nodes
    diag = 2.0 * r**2 / h**2
    off = -(r[:-1] * r[1:]) / h**2
    vals = eigh_tridiagonal(diag, off, select_range=(0, 0), eigvals_only=True)
    return float(vals[0])


def bessel_oracle_table(basis: SpectralBasis) -> np.ndarray:
    """Rows (k, mu_k, j_{nu,k}^2, rel_err) comparing FD eigenvalues to the oracle."""
    oracle = bessel_zeros(basis.bessel_order, basis.k_modes) ** 2
    mu = basis.eigenvalues
    rel = np.abs(mu - oracle) / oracle
    return np.column_stack([np.arange(1, basis.k_modes + 1), mu, oracle, rel])
