"""Separated-solution residual of the angular spectrum, an oracle the angular
tests run: no stage reads it."""

import numpy as np

from hardylab.angular import CIRCLE_DIMENSION, AngularBasis, AngularProblem, gamma_exponent
from hardylab.spectral import tridiagonal_apply


def separated_residual(prob: AngularProblem, basis: AngularBasis, k: int, n_radial: int = 61,
                       gamma_override: float | None = None) -> float:
    """Max residual of -Laplacian w - (lam/x_n^2) w for w = r^gamma psi_k on the
    annulus 0.2 < r < 0.8, radial derivatives by central differences and the
    angular part by the discrete arc operator."""
    mu = basis.eigenvalues[k]
    gamma = gamma_exponent(mu, CIRCLE_DIMENSION) if gamma_override is None else gamma_override
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
