"""Bessel functions J_nu of real order: evaluation and zero finding.

Self-contained analytic oracle for the radial spectra: the eigenvalues of
the discretized radial operator are compared against squared Bessel zeros.
Evaluation uses the ascending power series for small argument and Miller's
backward recurrence with the normalization series

    (x/2)^mu = sum_k (mu + 2k) Gamma(mu + k)/k! * J_{mu+2k}(x)

for larger argument.  Intended range: 0 < nu <= 2 (internally a bit wider
for derivative recurrences), 0 < x <= 60.
"""

import math

import numpy as np

# power series is used below this argument; Miller recurrence above
_SERIES_X_MAX = 9.0
MAX_ORDER = 4.0
# bessel_zeros scans (0, ZERO_SEARCH_MAX] in steps of _SCAN_STEP, and its
# Newton polish evaluates J_{nu+1}, which lowers the order cap by one
ZERO_SEARCH_MAX = 60.0
MAX_ZERO_ORDER = MAX_ORDER - 1.0
_SCAN_STEP = 0.05


def _bessel_series(nu: float, x: float) -> float:
    # ascending series; safe from catastrophic cancellation for x <= ~12
    half = 0.5 * x
    term = half**nu / math.gamma(nu + 1.0)
    acc = term
    for m in range(1, 300):
        term *= -(half * half) / (m * (nu + m))
        acc += term
        if abs(term) < 1e-18 * (abs(acc) + 1e-300):
            return acc
    raise RuntimeError("Bessel power series did not converge")


def _bessel_miller(nu: float, x: float) -> float:
    # split nu = mu + n0 with mu in (0, 1], or mu = 0 for integer-zero order
    n0 = 0
    mu = nu
    while mu > 1.0:
        mu -= 1.0
        n0 += 1
    m_start = int(x + 15.0 * math.sqrt(x) + 40)
    if m_start % 2:
        m_start += 1
    fkp1 = 0.0
    fk = 1e-30
    f = np.zeros(m_start + 1)
    f[m_start] = fk
    for k in range(m_start, 0, -1):
        fkm1 = (2.0 * (mu + k) / x) * fk - fkp1
        fkp1, fk = fk, fkm1
        f[k - 1] = fk
        if abs(fk) > 1e250:
            f[k - 1 :] *= 1e-250
            fk *= 1e-250
            fkp1 *= 1e-250
    if mu == 0.0:
        # Neumann normalization: J_0 + 2 sum_k J_{2k} = 1
        s = f[0] + 2.0 * f[2 : m_start + 1 : 2].sum()
        return f[n0] / s
    # normalization sum over even orders:
    # (x/2)^mu = sum_k (mu + 2k) Gamma(mu + k)/k! J_{mu+2k}
    s = 0.0
    g = math.gamma(mu)  # Gamma(mu + k)/k! at k = 0
    for k in range(0, m_start // 2 + 1):
        s += (mu + 2 * k) * g * f[2 * k]
        g *= (mu + k) / (k + 1.0)
    return f[n0] * (0.5 * x) ** mu / s


def bessel_j(nu: float, x: float) -> float:
    """Evaluate J_nu(x) for real order nu in [0, 4] and 0 < x <= 60."""
    if not 0.0 <= nu <= MAX_ORDER:
        raise ValueError(f"order out of supported range [0, {MAX_ORDER:g}]: {nu}")
    if not 0.0 < x <= 60.0:
        raise ValueError(f"argument out of supported range (0, 60]: {x}")
    if x <= _SERIES_X_MAX:
        return _bessel_series(nu, x)
    return _bessel_miller(nu, x)


def bessel_j_derivative(nu: float, x: float) -> float:
    """dJ_nu/dx via J_{nu-1} - (nu/x) J_nu, with J_{nu-1} from the recurrence."""
    jnu = bessel_j(nu, x)
    jnup1 = bessel_j(nu + 1.0, x)
    jnum1 = (2.0 * nu / x) * jnu - jnup1
    return jnum1 - (nu / x) * jnu


def zero_count_bound(nu: float) -> int:
    """How many zeros of J_nu the scan of bessel_zeros surely finds below ZERO_SEARCH_MAX.

    Closed form, no Bessel evaluation.  For nu >= 1/2, Sturm comparison puts
    consecutive zeros of sqrt(x) J_nu(x) more than pi apart while McMahon's
    expansion approaches (k + nu/2 - 1/4) pi from below, so j_{nu,k} lies
    below that value; zeros increase with nu, so j_{nu,k} <= j_{1/2,k} = k pi
    for nu < 1/2.  The last scan point can fall one step short of ZERO_SEARCH_MAX.
    """
    reach = ZERO_SEARCH_MAX - _SCAN_STEP
    return int(math.floor(reach / math.pi + 0.25 - 0.5 * max(nu, 0.5)))


def bessel_zeros(nu: float, count: int) -> np.ndarray:
    """First `count` positive zeros of J_nu, ascending.

    Sign-change bracketing on a uniform scan, bisection to near machine
    width, then a Newton polish.  Raises if the requested zeros do not all
    lie below ZERO_SEARCH_MAX.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    zeros = []
    step = _SCAN_STEP
    x_prev = _SCAN_STEP
    f_prev = bessel_j(nu, x_prev)
    x = x_prev
    while len(zeros) < count:
        x = x_prev + step
        if x > ZERO_SEARCH_MAX:
            raise ValueError(
                f"only {len(zeros)} zeros of J_{nu} below {ZERO_SEARCH_MAX}, "
                f"{count} requested"
            )
        f = bessel_j(nu, x)
        if f_prev == 0.0:
            zeros.append(x_prev)
        elif f_prev * f < 0.0:
            lo, hi = x_prev, x
            flo = f_prev
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                fm = bessel_j(nu, mid)
                if flo * fm <= 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            root = 0.5 * (lo + hi)
            for _ in range(2):
                d = bessel_j_derivative(nu, root)
                if d != 0.0:
                    root -= bessel_j(nu, root) / d
            zeros.append(root)
        x_prev, f_prev = x, f
    return np.array(zeros)
