"""Positive zeros of the Bessel function J_nu: the radial spectrum oracle.

The eigenvalues of the discretized radial operator are compared against the
squared zeros j_{nu,k}^2.  J_nu and its derivative come from scipy.special
(`jv`, `jvp`, which wrap the AMOS routines of D. E. Amos, ACM TOMS
Algorithm 644, 1986); this module only brackets, bisects and polishes the
zeros, for orders 0 <= nu <= MAX_ZERO_ORDER and zeros below ZERO_SEARCH_MAX.
"""

import math

import numpy as np
from scipy.special import jv, jvp

# bessel_zeros scans (0, ZERO_SEARCH_MAX] in steps of _SCAN_STEP
ZERO_SEARCH_MAX = 60.0
_SCAN_STEP = 0.05
# zero_count_bound, which sizes the spectrum oracle, is verified for nu in [0, 3]
MAX_ZERO_ORDER = 3.0


def _zero_bound(nu: float, k: int) -> float:
    """(k + max(nu, 1/2)/2 - 1/4) pi, an upper bound of j_{nu,k}, equal to it at nu = 1/2.

    For nu >= 1/2, Sturm comparison puts consecutive zeros of sqrt(x) J_nu(x)
    more than pi apart while McMahon's expansion approaches
    (k + nu/2 - 1/4) pi from below, so j_{nu,k} lies below that value; zeros
    increase with nu, so j_{nu,k} <= j_{1/2,k} = k pi for nu < 1/2.
    """
    return (k + 0.5 * max(nu, 0.5) - 0.25) * math.pi


def zero_count_bound(nu: float) -> int:
    """How many zeros of J_nu the scan of bessel_zeros surely finds below ZERO_SEARCH_MAX.

    Closed form, no Bessel evaluation: the largest k whose _zero_bound lies
    within reach.  The last scan point can fall one step short of
    ZERO_SEARCH_MAX.
    """
    reach = ZERO_SEARCH_MAX - _SCAN_STEP
    return int(math.floor(reach / math.pi + 0.25 - 0.5 * max(nu, 0.5)))


def bessel_zeros(nu: float, count: int) -> np.ndarray:
    """First `count` positive zeros of J_nu, ascending, for nu in [0, MAX_ZERO_ORDER].

    Sign-change bracketing on a uniform scan that stops one step past
    _zero_bound(nu, count), or at ZERO_SEARCH_MAX if that comes first; ten
    bisections of every bracket at once, then three Newton steps.  Raises if the
    requested zeros do not all lie below ZERO_SEARCH_MAX.
    """
    if not 0.0 <= nu <= MAX_ZERO_ORDER:
        raise ValueError(f"order out of supported range [0, {MAX_ZERO_ORDER:g}]: {nu}")
    if count < 1:
        raise ValueError("count must be >= 1")
    n_scan = min(int(_zero_bound(nu, count) / _SCAN_STEP) + 2,
                 round(ZERO_SEARCH_MAX / _SCAN_STEP))
    x = _SCAN_STEP * np.arange(1, n_scan + 1)
    f = jv(nu, x)
    # a bracket starting on an exact zero bisects down onto that zero
    (starts,) = np.nonzero((f[:-1] == 0.0) | (f[:-1] * f[1:] < 0.0))
    if len(starts) < count:
        raise ValueError(
            f"only {len(starts)} zeros of J_{nu} below {x[-1]:.4g}, {count} requested"
        )
    starts = starts[:count]
    lo, hi, flo = x[starts], x[starts + 1], f[starts]
    # brackets of width 0.05 / 2^10 < 5e-5: from the midpoint Newton takes an
    # error e to about e^2 / (2 j), below rounding in two steps; the third
    # only rounds
    for _ in range(10):
        mid = 0.5 * (lo + hi)
        fm = jv(nu, mid)
        left = flo * fm <= 0.0
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
        flo = np.where(left, flo, fm)
    root = 0.5 * (lo + hi)
    # zeros of J_nu are simple for x > 0, so jvp does not vanish there
    for _ in range(3):
        root = root - jv(nu, root) / jvp(nu, root)
    return root
