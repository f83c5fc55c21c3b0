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
demand, a block of t rows at a time, by one evaluator, so every consumer
sees the same bits without holding the whole (t, tau) array.
"""

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

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

    The bits of a column depend on how many orders are requested, through
    the column blocking of the contour product.  On 1025 tau nodes at T = 1
    and one BLAS thread, the columns a k_max table shares with the k_max = 33
    one are equal to them at k_max = 23, 27 and 31-34, and differ in their
    last bits at 20-22, 24-26, 28-30 and 35-41.  So a table shared by several
    truncations is built at an order fixed by the configuration alone.
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
    fac = np.ones((k_trunc + 1, len(t)))
    base = (t + 1.0) ** 2
    for k in range(1, k_trunc + 1):
        fac[k] = fac[k - 1] * base / ((2 * k - 1) * (2 * k))
    return fac


def _evaluate(t, table: np.ndarray, k_trunc: int) -> np.ndarray:
    """sum_{k=0}^{k_trunc} i^k (t_i+1)^(2k)/(2k)! table[j, k], summed in k order.

    Every kernel-shaped series is summed here, so dense values from any
    caller and any row block are bit-identical.  The table is real, so i^k
    sends even orders to the real part and odd orders to the imaginary
    part, each with the sign of k mod 4, folded into the factor rows.  Each
    part is one einsum contraction over its orders.  einsum's default loop
    (optimize=False, no BLAS) adds fac[k, i] * column[k, :] into output row
    i in ascending k, one multiply and one add per term with no fused
    multiply-add, so each entry gets the products and sums of the plain
    loop over orders, which the tests keep as the oracle.  An empty sum
    (k_trunc = -1) is zero.
    """
    fac = _even_power_factors(t, k_trunc)
    fac[2::4] *= -1.0
    fac[3::4] *= -1.0
    columns = np.ascontiguousarray(table[:, : k_trunc + 1].T)
    values = np.empty((fac.shape[1], table.shape[0]), dtype=complex)
    values.real = np.einsum("ki,kj->ij", fac[0::2], columns[0::2])
    values.imag = np.einsum("ki,kj->ij", fac[1::2], columns[1::2])
    if not np.all(np.isfinite(values)):
        raise FloatingPointError("non-finite kernel term: truncation misuse")
    return values


@dataclass
class FlatnessKernel:
    """The kernel in separable form: t nodes, tau nodes and the derivative
    table.  Values are produced on demand, in row blocks or on a sub-grid.

    The table has at least k_trunc + 2 columns (orders 0..k_trunc + 1); each
    consumer reads only the orders it needs, so one table can serve kernels
    of several truncations."""

    bump: GevreyBump
    k_trunc: int
    t_nodes: np.ndarray
    tau_nodes: np.ndarray
    deriv_table: np.ndarray     # (len(tau_nodes), >= k_trunc + 2)

    def sub_grid(self, t_index=slice(None), tau_index=slice(None)) -> np.ndarray:
        """Kernel values on t_nodes[t_index] x tau_nodes[tau_index].  The
        series is summed entry by entry, so each value has the bits of the
        same entry of `values`."""
        return _evaluate(self.t_nodes[t_index], self.deriv_table[tau_index], self.k_trunc)

    def row_blocks(self) -> list[tuple[int, int]]:
        """(start, stop) of consecutive ROW_BLOCK-row slices of the t grid.

        A one-row remainder joins the block before it: numpy contracts a
        single row with a matrix-vector kernel, which sums in another order
        than the matrix product of the other blocks."""
        n = len(self.t_nodes)
        starts = list(range(0, n, ROW_BLOCK))
        if len(starts) > 1 and n - starts[-1] == 1:
            starts.pop()
        return list(zip(starts, [*starts[1:], n]))

    @functools.cached_property
    def values(self) -> np.ndarray:
        """The dense (len(t_nodes), len(tau_nodes)) kernel; for small grids."""
        return self.sub_grid()


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
    derivative differentiates the even series exactly.  Both derivative
    series are built from E, the tau-derivative series truncated one order
    early, and the last tau term: dK/dtau = E + last and d^2K/dt^2 = i E.
    They share every product but the last, so the residual is the one-term
    telescoping tail i * last up to the rounding of one cancellation, and
    tail_match_error measures that rounding, not an independent PDE
    residual.  The series are summed one row block at a time and only their
    maxima are kept.
    """
    kt = kernel.k_trunc
    table = kernel.deriv_table
    peaks = []
    for start, stop in kernel.row_blocks():
        t = kernel.t_nodes[start:stop]
        e_series = _evaluate(t, table[:, 1:], kt - 1)
        last = 1j**kt * np.multiply.outer(_even_power_factors(t, kt)[kt], table[:, kt + 1])
        dtau, dtt, tail = e_series + last, 1j * e_series, 1j * last
        residual = 1j * dtau - dtt
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
