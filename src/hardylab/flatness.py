"""Smooth boundary-control kernel built from a Gevrey bump by a power series.

The kernel solves i dK/dtau - d^2K/dt^2 = 0 on [-1,1] x [0,T] with
K(-1, tau) = psi(tau) and K(., 0) = K(., T) = 0, via the even flat ansatz

    K(t, tau) = sum_{k=0}^{K_trunc} i^k psi^(k)(tau) (t+1)^(2k) / (2k)!.

Truncation leaves the single telescoping defect
i^(K+1) psi^(K+1)(tau) (t+1)^(2K) / (2K)!, which doubles as an exact
residual oracle.  psi is the normalized bump

    psi(tau) = exp(c_T - (tau (T - tau))^-sigma),   c_T = (4/T^2)^sigma,

whose derivatives are produced by trapezoid Cauchy integrals on circles of
radius min(tau, T-tau)/2; the product tau(T-tau) keeps a positive real part
there, so the principal branch is safe for non-integer sigma.

The kernel is kept in this rank-(K+1) separable form: the t nodes, the tau
nodes and the derivative table psi^(k)(tau_j).  Dense values are summed on
demand, a block of t rows at a time, by one accumulator, so every consumer
sees the same bits without holding the whole (t, tau) array.
"""

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .evolution import trapezoid_weights

MAX_TRUNCATION = 40
MIN_CONTOUR_RADIUS = 1e-3
# dense kernel values are produced this many t nodes at a time (about 1 MB
# of complex values at 1025 tau nodes)
ROW_BLOCK = 64


@dataclass
class GevreyBump:
    """Compactly supported bump on (0, T), normalized to peak value 1."""

    horizon: float
    sigma: float
    c_norm: float

    def __call__(self, tau):
        tau = np.asarray(tau, dtype=float)
        out = np.zeros_like(tau)
        inside = (tau > 0.0) & (tau < self.horizon)
        w = tau[inside] * (self.horizon - tau[inside])
        # w^-sigma may overflow right at the support edge; exp then
        # underflows to the correct 0
        with np.errstate(over="ignore"):
            out[inside] = np.exp(self.c_norm - w ** (-self.sigma))
        return out if out.ndim else float(out)

    def eval_complex(self, z: np.ndarray) -> np.ndarray:
        # no support cutoff: used only on contours strictly inside (0, T)
        w = z * (self.horizon - z)
        return np.exp(self.c_norm - w ** (-self.sigma))


def gevrey_bump(horizon: float, sigma: float = 2.0) -> GevreyBump:
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if sigma < 1:
        raise ValueError("sigma must be >= 1")
    c = (4.0 / horizon**2) ** sigma
    return GevreyBump(horizon, sigma, c)


def cauchy_derivatives(bump: GevreyBump, tau: float, k_max: int) -> np.ndarray:
    """psi^(k)(tau) for k = 0..k_max from one contour of trapezoid averages."""
    return derivative_table(bump, np.array([tau]), k_max)[0]


def guard_band(bump: GevreyBump, taus: np.ndarray) -> np.ndarray:
    """Mask of the interior taus whose contour radius min(tau, T-tau)/2 is
    below MIN_CONTOUR_RADIUS; derivative_table leaves their rows zero.

    Raises ValueError unless the bump (and hence every derivative reachable
    in float64) has underflowed to zero at each of them.
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    t_end = bump.horizon
    r = 0.5 * np.minimum(taus, t_end - taus)
    tight = (taus > 0.0) & (taus < t_end) & (r < MIN_CONTOUR_RADIUS)
    if np.any(tight):
        with np.errstate(over="ignore"):
            expo = bump.c_norm - (taus[tight] * (t_end - taus[tight])) ** (-bump.sigma)
        if np.any(expo > -1000.0):
            raise ValueError("tau too close to the support endpoints (radius < 1e-3)")
    return tight


def derivative_table(bump: GevreyBump, taus: np.ndarray, k_max: int) -> np.ndarray:
    """Derivative rows psi^(k)(tau_j); endpoints and exterior points are 0.

    Interior points need radius r = min(tau, T-tau)/2 >= 1e-3.  The contour
    has max(256, 4*(k_max+1)) nodes, which keeps aliasing out of the top
    orders.  Accuracy: at T = 1 and k_max <= 25 the rows reach the rounding
    floor of the contour sum, 1e-8 |exact| + 1e-13 peak k!/r^k, only for tau
    in [0.066, 0.934].  Within about 0.065 of either support end the 256-node
    sum is not converged (absolute errors up to 2e-3 at tau = 0.064, against
    values below 1e-17) until both sides underflow to exact zeros; the
    kernel multiplies those rows by factors <= 4^k/(2k)!.
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    t_end = bump.horizon
    m = max(256, 4 * (k_max + 1))
    interior = (taus > 0.0) & (taus < t_end) & ~guard_band(bump, taus)
    r = 0.5 * np.minimum(taus, t_end - taus)
    table = np.zeros((len(taus), k_max + 1))
    if not np.any(interior):
        return table
    theta = 2.0 * np.pi * np.arange(m) / m
    ks = np.arange(k_max + 1)
    z = taus[interior, None] + r[interior, None] * np.exp(1j * theta)[None, :]
    vals = bump.eval_complex(z)                       # (n_int, m)
    basis = np.exp(-1j * np.outer(theta, ks))         # (m, k_max+1)
    avg = (vals @ basis) / m
    fact = np.cumprod(np.concatenate(([1.0], np.arange(1.0, k_max + 1))))
    table[interior] = avg.real * fact[None, :] / r[interior, None] ** ks[None, :]
    return table


def bump_derivatives_exact(bump: GevreyBump, tau, k_max: int) -> np.ndarray:
    """Independent oracle: psi^(k) = R_k(1/tau, 1/(T-tau)) * psi with the
    polynomial recurrence R_{k+1} = R_k' + R_k * E', run in exact rational
    arithmetic.  Requires integer sigma; tau may be a Fraction for exactness.
    """
    sigma = bump.sigma
    if sigma != int(sigma):
        raise ValueError("exact recurrence requires integer sigma")
    sigma = int(sigma)
    t_end = Fraction(bump.horizon)
    tau = Fraction(tau)
    if not 0 < tau < t_end:
        raise ValueError("tau must be interior to (0, T)")

    # monomials u^a w^b with u = 1/tau, w = 1/(T-tau):
    # d/dtau u = -u^2, d/dtau w = w^2
    def differentiate(poly):
        out = {}
        for (a, b), c in poly.items():
            if a:
                key = (a + 1, b)
                out[key] = out.get(key, Fraction(0)) - a * c
            if b:
                key = (a, b + 1)
                out[key] = out.get(key, Fraction(0)) + b * c
        return out

    def add_product(poly, other, acc):
        for (a1, b1), c1 in poly.items():
            for (a2, b2), c2 in other.items():
                key = (a1 + a2, b1 + b2)
                acc[key] = acc.get(key, Fraction(0)) + c1 * c2
        return acc

    log_deriv = {
        (sigma + 1, sigma): Fraction(sigma),
        (sigma, sigma + 1): Fraction(-sigma),
    }
    u = 1 / tau
    w = 1 / (t_end - tau)
    psi_val = float(np.exp(bump.c_norm - float((tau * (t_end - tau)) ** -sigma)))
    poly = {(0, 0): Fraction(1)}
    out = np.empty(k_max + 1)
    out[0] = psi_val
    for k in range(1, k_max + 1):
        poly = add_product(poly, log_deriv, differentiate(poly))
        value = sum(c * u**a * w**b for (a, b), c in poly.items())
        out[k] = float(value) * psi_val
    return out


def _even_power_factors(t, k_trunc: int) -> np.ndarray:
    """(t+1)^(2k)/(2k)! for k = 0..k_trunc by ratio accumulation."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    fac = np.empty((k_trunc + 1, len(t)))
    fac[0] = 1.0
    base = (t + 1.0) ** 2
    for k in range(1, k_trunc + 1):
        fac[k] = fac[k - 1] * base / ((2 * k - 1) * (2 * k))
    return fac


def _series(coef: np.ndarray, table: np.ndarray) -> np.ndarray:
    """sum_k outer(coef[k], table[:, k]), accumulated in k order.

    Every kernel-shaped series is summed here, so dense values from any
    caller and any row block are bit-identical.  With a real table each
    complex term adds its real and imaginary products to the matching part
    of the sum, so a part whose coefficients are all zero (every other
    order, as the coefficients carry the powers of i) is skipped: adding
    exact zeros leaves the sum unchanged.  Which orders have a nonzero part
    is decided once per call, one any() over each part's rows.  The parts
    are summed in separate contiguous real arrays, each term formed in one
    reused buffer.
    """
    shape = (coef.shape[1], table.shape[0])
    real, imag, term = np.zeros(shape), np.zeros(shape), np.empty(shape)
    columns = np.ascontiguousarray(table.T)
    parts = [(acc, c, c.any(axis=1)) for acc, c in ((real, coef.real), (imag, coef.imag))]
    for k in range(coef.shape[0]):
        for acc, c, nonzero in parts:
            if nonzero[k]:
                acc += np.multiply(c[k, :, None], columns[k], out=term)
    out = np.empty(shape, dtype=complex)
    out.real = real
    out.imag = imag
    return out


def _evaluate(t, table: np.ndarray, k_trunc: int) -> np.ndarray:
    """K(t_i, tau_j) for the t values and the derivative rows of `table`."""
    powers = 1j ** np.arange(k_trunc + 1)
    values = _series(powers[:, None] * _even_power_factors(t, k_trunc), table)
    if not np.all(np.isfinite(values.view(float))):
        raise FloatingPointError("non-finite kernel term: truncation misuse")
    return values


@dataclass
class FlatnessKernel:
    """The kernel in separable form: t nodes, tau nodes and the derivative
    table.  Values are produced on demand, in row blocks or on a sub-grid."""

    bump: GevreyBump
    k_trunc: int
    t_nodes: np.ndarray
    tau_nodes: np.ndarray
    deriv_table: np.ndarray     # (len(tau_nodes), k_trunc + 2)

    def sub_grid(self, t_index=slice(None), tau_index=slice(None)) -> np.ndarray:
        """Kernel values on t_nodes[t_index] x tau_nodes[tau_index].  The
        series is summed entry by entry, so each value has the bits of the
        same entry of `values`."""
        return _evaluate(self.t_nodes[t_index], self.deriv_table[tau_index], self.k_trunc)

    def row_blocks(self) -> list[tuple[int, int]]:
        """(start, stop) of consecutive ROW_BLOCK-row slices of the t grid."""
        n = len(self.t_nodes)
        return [(start, min(start + ROW_BLOCK, n)) for start in range(0, n, ROW_BLOCK)]

    @functools.cached_property
    def values(self) -> np.ndarray:
        """The dense (len(t_nodes), len(tau_nodes)) kernel; for small grids."""
        return self.sub_grid()

    def tau_weights(self) -> np.ndarray:
        return trapezoid_weights(len(self.tau_nodes), self.tau_nodes[1] - self.tau_nodes[0])


def build_kernel(bump: GevreyBump, t_nodes: np.ndarray, tau_nodes: np.ndarray,
                 k_trunc: int) -> FlatnessKernel:
    """Separable kernel on a (t, tau) grid; only the derivative table is computed.

    The table is computed one order past the truncation so the residual and
    the tau-derivative of the series are available exactly.
    """
    if k_trunc > MAX_TRUNCATION:
        raise ValueError(f"k_trunc {k_trunc} exceeds cap {MAX_TRUNCATION}")
    t_nodes = np.asarray(t_nodes, dtype=float)
    tau_nodes = np.asarray(tau_nodes, dtype=float)
    table = derivative_table(bump, tau_nodes, k_trunc + 1)
    return FlatnessKernel(bump, k_trunc, t_nodes, tau_nodes, table)


@dataclass
class KernelResidualReport:
    max_residual: float
    max_kernel: float
    max_tail: float
    tail_match_error: float


def kernel_residual(kernel: FlatnessKernel) -> KernelResidualReport:
    """Residual of i dK/dtau - d^2K/dt^2 on the evaluation grid.

    The tau derivative reuses the Cauchy table shifted by one order; the t
    derivative differentiates the even series exactly.  Their mismatch
    against the one-term telescoping tail is floating-point noise, reported
    as tail_match_error.  The series are summed one row block at a time and
    only their maxima are kept.
    """
    kt = kernel.k_trunc
    table = kernel.deriv_table
    powers = 1j ** np.arange(kt + 2)
    peaks = []
    for start, stop in kernel.row_blocks():
        fac = _even_power_factors(kernel.t_nodes[start:stop], kt)
        dtau_series = _series(powers[: kt + 1, None] * fac, table[:, 1:])
        dtt_series = _series(powers[1 : kt + 1, None] * fac[:kt], table[:, 1:])
        tail = _series(powers[kt + 1] * fac[kt:], table[:, kt + 1 :])
        residual = 1j * dtau_series - dtt_series
        peaks.append([np.abs(residual).max(), np.abs(kernel.sub_grid(slice(start, stop))).max(),
                      np.abs(tail).max(), np.abs(residual - tail).max()])
    max_residual, max_kernel, max_tail, tail_match = np.max(peaks, axis=0)
    return KernelResidualReport(
        max_residual=float(max_residual),
        max_kernel=float(max_kernel),
        max_tail=float(max_tail),
        tail_match_error=float(tail_match),
    )


def control_trace(kernel: FlatnessKernel) -> np.ndarray:
    """Boundary control v(tau) = K(1, tau) implied by the construction."""
    return _evaluate(1.0, kernel.deriv_table, kernel.k_trunc)[0]
