"""Angular spectrum on the circle with the singular weight lam / sin^2(alpha).

The line singularity of a cylindrical inverse-square potential meets the
unit circle at the two poles alpha = 0, pi, so the operator
-d^2/dalpha^2 - lam/sin^2(alpha) splits over the two open arcs.  Each arc
gets a Dirichlet-type (Friedrichs) condition at the singular endpoints and
a three-point discretization; the circle spectrum is the arc spectrum with
every eigenvalue doubled.  Blow-up exponents gamma solve
gamma (gamma + N - 2) = mu.
"""

from dataclasses import dataclass, field

import numpy as np

from .spectral import dirichlet_eigenpairs, tridiagonal_apply

ANGULAR_CRITICAL = 0.25  # critical coupling of the arc problem


@dataclass
class AngularProblem:
    """Arc grid on (0, pi) and the symmetric tridiagonal matrix of the arc
    operator, with the singular potential sampled at the nodes."""

    lam: float
    n_ang: int
    dimension_N: int = 2
    spacing: float = field(init=False)
    angles: np.ndarray = field(init=False)
    diagonal: np.ndarray = field(init=False)
    offdiagonal: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.lam >= ANGULAR_CRITICAL:
            raise ValueError(
                f"coupling {self.lam} not subcritical for the arc problem "
                f"(requires lam < {ANGULAR_CRITICAL})"
            )
        if self.n_ang < 64:
            raise ValueError("need at least 64 interior arc nodes")
        self.spacing = np.pi / (self.n_ang + 1)
        self.angles = self.spacing * np.arange(1, self.n_ang + 1)
        h2 = self.spacing**2
        self.diagonal = 2.0 / h2 - self.lam / np.sin(self.angles) ** 2
        self.offdiagonal = np.full(self.n_ang - 1, -1.0 / h2)

    def circle_angles(self) -> np.ndarray:
        """Union grid of both arcs (the poles are implicit Dirichlet zeros)."""
        return np.concatenate([self.angles, np.pi + self.angles])


@dataclass
class AngularBasis:
    """Sorted circle eigenvalues; each arc value appears with multiplicity 2.

    Eigenvector columns are sampled on the union grid of both arcs and are
    orthonormal under the arc-length quadrature (weight = spacing).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray      # (2 * n_ang, count)
    multiplicity_pairs: list[tuple[int, int]]

    @property
    def count(self) -> int:
        return len(self.eigenvalues)


def angular_spectrum(prob: AngularProblem, k_count: int) -> AngularBasis:
    """Lowest k_count circle eigenpairs (arc spectrum, doubled).

    Column j lives on arc j % 2: 0 for (0, pi), 1 for (pi, 2 pi).
    """
    n_arc = int(np.ceil(k_count / 2))
    vals, vecs = dirichlet_eigenpairs(prob.diagonal, prob.offdiagonal, prob.spacing, n_arc)
    n = prob.n_ang
    eigenvalues = np.repeat(vals, 2)[:k_count]
    eigenvectors = np.zeros((2 * n, k_count))
    eigenvectors[:n, 0::2] = vecs
    eigenvectors[n:, 1::2] = vecs[:, : k_count // 2]
    pairs = [(j - 1, j) for j in range(1, k_count, 2)]
    return AngularBasis(eigenvalues, eigenvectors, pairs)


def gamma_exponent(mu: float, dimension_N: int) -> float:
    """gamma = -(N-2)/2 + sqrt(((N-2)/2)^2 + mu); inverts gamma(gamma+N-2) = mu."""
    half = (dimension_N - 2) / 2.0
    radicand = half**2 + mu
    if radicand < 0:
        raise ValueError(f"negative radicand {radicand}: no real exponent")
    return float(-half + np.sqrt(radicand))


def beta_coefficients(w_on_circle: np.ndarray, psi_columns: np.ndarray,
                      gamma: float, radius: float, spacing: float) -> np.ndarray:
    """beta_i = R^-gamma * integral over the circle of w(R theta) psi_i(theta).

    `w_on_circle` holds samples at radius R on the union grid; quadrature is
    the arc-length trapezoid (the integrands vanish at the poles).
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    psi_columns = np.atleast_2d(psi_columns.T).T
    return radius ** (-gamma) * spacing * (w_on_circle @ psi_columns)


@dataclass
class BlowupStudy:
    radii: np.ndarray
    discrepancies: np.ndarray
    fitted_exponent: float | None     # None: a single term, or no discrepancy to fit
    expected_exponent: float | None


def blowup_profile_check(coeffs, gammas, psi_columns: np.ndarray, spacing: float) -> BlowupStudy:
    """Scaling limit of a separated combination w = sum_j a_j r^(gamma_j) psi_j.

    Measures || r^-gamma_1 w(r .) - rho^gamma_1 a_1 psi_1 || over the unit
    ball in polar quadrature for shrinking r; for a two-scale input the
    discrepancy decays like r^(gamma_2 - gamma_1) and the fitted slope is
    returned alongside the table.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    gammas = np.asarray(gammas, dtype=float)
    order = np.argsort(gammas)
    coeffs, gammas = coeffs[order], gammas[order]
    psi_columns = psi_columns[:, order]
    radii = 2.0 ** -np.arange(1, 7)   # the ball shrinks by halves
    n_rho = 64
    rho = np.arange(1, n_rho + 1) / n_rho
    w_rho = rho / n_rho  # midpoint-free radial quadrature weight rho * drho
    discrepancies = np.empty(len(radii))
    for i, r in enumerate(radii):
        # r^-gamma_1 w(r rho theta) - a_1 rho^gamma_1 psi_1: only j >= 2 survive
        resid = np.zeros((n_rho, psi_columns.shape[0]))
        for j in range(1, len(coeffs)):
            scale = coeffs[j] * r ** (gammas[j] - gammas[0])
            resid += scale * np.outer(rho ** gammas[j], psi_columns[:, j])
        discrepancies[i] = np.sqrt(np.sum(resid**2 * w_rho[:, None]) * spacing)
    if len(coeffs) < 2 or np.all(discrepancies == 0.0):
        return BlowupStudy(radii, discrepancies, None, None)
    slope = np.polyfit(np.log(radii), np.log(discrepancies), 1)[0]
    return BlowupStudy(radii, discrepancies, float(slope), float(gammas[1] - gammas[0]))


def separated_residual(prob: AngularProblem, basis: AngularBasis, k: int, n_radial: int = 61,
                       gamma_override: float | None = None) -> float:
    """Max residual of -Laplacian w - (lam/x_n^2) w for w = r^gamma psi_k on the
    annulus 0.2 < r < 0.8, radial derivatives by central differences and the
    angular part by the discrete arc operator."""
    mu = basis.eigenvalues[k]
    gamma = gamma_exponent(mu, prob.dimension_N) if gamma_override is None else gamma_override
    psi = basis.eigenvectors[:, k]
    n = prob.n_ang
    a_psi = np.concatenate([
        tridiagonal_apply(prob.diagonal, prob.offdiagonal, psi[:n]),
        tridiagonal_apply(prob.diagonal, prob.offdiagonal, psi[n:]),
    ])
    r = np.linspace(0.2, 0.8, n_radial)
    hr = r[1] - r[0]
    rg = r**gamma
    w_rr = (rg[2:] - 2.0 * rg[1:-1] + rg[:-2]) / hr**2
    w_r = (rg[2:] - rg[:-2]) / (2.0 * hr)
    rin = r[1:-1]
    radial_part = -(w_rr + w_r / rin)                      # (n_radial - 2,)
    angular_part = rin ** (gamma - 2.0)
    resid = np.abs(np.outer(radial_part, psi) + np.outer(angular_part, a_psi))
    return float(resid.max())
