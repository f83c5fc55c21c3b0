"""Positive zeros of the Bessel function J_nu: the radial spectrum oracle.

The eigenvalues of the discretized radial operator are compared against the
squared zeros j_{nu,k}^2.  They come from the eigenvalue method of Y. Ikebe,
Y. Kikuchi and I. Fujishiro, Computing zeros and orders of Bessel functions,
J. Comput. Appl. Math. 38 (1991): at a zero x of J_nu the recurrence

    J_{nu+k-1}(x) + J_{nu+k+1}(x) = (2 (nu + k) / x) J_{nu+k}(x),   k = 1, 2, ...

makes (sqrt(nu + k) J_{nu+k}(x))_k an eigenvector, of eigenvalue 2/x, of the
symmetric tridiagonal matrix with zero diagonal and off-diagonal
1/sqrt((nu + k)(nu + k + 1)).  No Bessel function is evaluated.
"""

import math

import numpy as np
from scipy.linalg import eigh_tridiagonal


def bessel_zeros(nu: float, count: int) -> np.ndarray:
    """First `count` positive zeros of J_nu, ascending, for finite nu >= 0.

    2/x for the top `count` eigenvalues of the recurrence matrix cut to N
    rows.  The eigenvector of the last zero x decays past order x through a
    layer about x^(1/3) wide, so N = R + 8 R^(1/3) + 10 (rounded up), where
    R = (count + nu/2) pi bounds x from above.  Against mpmath, for nu in
    [0, 10] and counts up to 800, the truncation error fell below rounding
    from about 6 x^(1/3) rows past x.  Bisection runs to relative accuracy
    (`tol` = tiny), which a zero diagonal allows (J. Demmel and W. Kahan,
    SIAM J. Sci. Stat. Comput. 11, 1990); at the default absolute tolerance
    the last of 800 zeros is off by 1e-13.
    """
    if not 0.0 <= nu < math.inf:
        raise ValueError(f"order must be finite and non-negative: {nu}")
    if count < 1:
        raise ValueError("count must be >= 1")
    reach = (count + 0.5 * nu) * math.pi
    rows = math.ceil(reach + 8.0 * reach ** (1 / 3)) + 10
    k = nu + np.arange(1, rows)
    top = eigh_tridiagonal(np.zeros(rows), 1.0 / np.sqrt(k * (k + 1)), eigvals_only=True,
                           select="i", select_range=(rows - count, rows - 1),
                           tol=np.finfo(float).tiny)
    return 2.0 / top[::-1]
