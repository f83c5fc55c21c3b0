"""Smooth boundary-control kernel built from a Gevrey bump by a power series.

The kernel solves i dK/dtau - d^2K/dt^2 = 0 on [-1,1] x [0,T] with
K(-1, tau) = psi(tau) and K(., 0) = K(., T) = 0, via the even flat ansatz

    K(t, tau) = sum_{k=0}^{K_trunc} i^k psi^(k)(tau) (t+1)^(2k) / (2k)!.

Truncation leaves the single telescoping defect
i^(K+1) psi^(K+1)(tau) (t+1)^(2K) / (2K)!, which doubles as an exact
residual oracle.  psi is one normalized bump at every horizon,

    psi(tau) = psi_1(tau / T),   psi_1(s) = exp(C_NORM - (s (1 - s))^-2),

the Gevrey bump of exponent sigma = 2 on horizons in HORIZON_RANGE, whose
derivatives psi^(k) = T^-k psi_1^(k)(tau / T) are produced by trapezoid
Cauchy integrals on circles of radius min(tau, T-tau)/2.  Their contours are
sampled in row_blocks, as are kernel values.

The kernel is kept in this rank-(K+1) separable form: the t nodes, the tau
nodes and the derivative table psi^(k)(tau_j).  Dense values are summed on
demand, in row_blocks of t rows, by one evaluator from operands built
once per kernel, so every consumer sees the same bits without holding the
whole (t, tau) array.
"""

import functools
import sys
from dataclasses import dataclass

import numpy as np

MAX_TRUNCATION = 40
MIN_CONTOUR_RADIUS = 1e-3   # in units of the horizon
C_NORM = 16.0               # 4^sigma = (s (1 - s))^-sigma at s = 1/2, where psi_1 = 1
# sums over a grid run this many rows at a time: contour samples and dense
# kernel values (about 1 MB of complex values at 1025 tau nodes)
ROW_BLOCK = 64
CONTOUR_NODES = 256         # derivative_table's: 4 per order or more keep out aliasing
# derivative_table's orders, one product with the contour samples per range: a column's
# bits depend on its product's width (the BLAS column blocking), so fixed ranges give each
# entry one value whatever truncation reads it.  Width 34 keeps the default run's pinned bits
ORDER_SPLITS = (slice(0, 34), slice(34, MAX_TRUNCATION + 2))
# horizons with finite derivative tables.  In units of T every contour is the one
# at T = 1, and T enters only through r^k.  Below the floor the least radius drawn,
# MIN_CONTOUR_RADIUS * T, to the top order MAX_TRUNCATION + 1 underflows and its row
# divides 0 / 0; above it no entry passes 1e287 (T^-41 times 7e85).  No ceiling.
HORIZON_RANGE = ((sys.float_info.min * sys.float_info.epsilon) ** (1 / (MAX_TRUNCATION + 1))
                 / MIN_CONTOUR_RADIUS, sys.float_info.max)


@dataclass
class GevreyBump:
    """Compactly supported bump psi_1(tau / T) on (0, T), normalized to peak value 1."""

    horizon: float

    def __call__(self, tau):
        s = np.asarray(tau, dtype=float) / self.horizon
        out = np.zeros_like(s)
        inside = (s > 0.0) & (s < 1.0)
        w = s[inside] * (1.0 - s[inside])
        # w^-2 may overflow at the support edge; exp then underflows to the correct 0
        with np.errstate(over="ignore"):
            out[inside] = np.exp(C_NORM - w ** -2.0)
        return out if out.ndim else float(out)

    def eval_complex(self, z: np.ndarray) -> np.ndarray:
        # no support cutoff: used only on contours strictly inside (0, T).  s = z / T as
        # a product by 1 / T: exact at powers of two, a tenth of a complex division's cost.
        # (1 - s) s in this order at every size: numpy swaps the operands of s * (1 - s)
        # from 256 KiB on, and the order changes complex bits
        s = z * (1.0 / self.horizon)
        w = 1.0 - s
        w *= s
        return np.exp(C_NORM - w ** -2.0)


def gevrey_bump(horizon: float) -> GevreyBump:
    if not HORIZON_RANGE[0] <= horizon <= HORIZON_RANGE[1]:
        raise ValueError(f"horizon {horizon!r} outside the bump's range {HORIZON_RANGE}")
    return GevreyBump(horizon)


def row_blocks(n: int) -> list[tuple[int, int]]:
    """(start, stop) of consecutive ROW_BLOCK-row slices of n rows.

    A one-row remainder joins the block before it: numpy contracts a
    single row with a matrix-vector kernel, which sums in another order
    than the matrix product of the other blocks.  derivative_table's
    contour product relies on this too."""
    starts = list(range(0, n, ROW_BLOCK))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, [*starts[1:], n]))


def contour_radii(bump: GevreyBump, taus: np.ndarray) -> np.ndarray:
    """Radii min(tau, T-tau)/2 of derivative_table's contours, drawn where at
    least MIN_CONTOUR_RADIUS * T; the other rows are zero.  Within (0, T) those
    rows hold s = tau/T or 1 - s below 2e-3, where psi_1 <= exp(16 - 2.5e5) and
    every derivative the table holds lies below the least subnormal."""
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    return 0.5 * np.minimum(taus, bump.horizon - taus)


def derivative_table(bump: GevreyBump, taus: np.ndarray) -> np.ndarray:
    """Derivative rows psi^(k)(tau_j) of the orders 0..MAX_TRUNCATION + 1, zero
    where contour_radii draws no contour; a kernel reads the prefix it needs.

    Accuracy, measured at T = 1 (every horizon has the same contours in units
    of T): the orders up to 25 reach the rounding floor of the contour sum,
    1e-8 |exact| + 1e-13 peak k!/r^k, only for tau/T in [0.066, 0.934].
    Within about 0.065 T of either support end the CONTOUR_NODES-node sum is
    not converged (absolute errors up to 2e-3 at tau = 0.064, against values
    below 1e-17) until both sides underflow to exact zeros; the kernel
    multiplies those rows by factors <= 4^k/(2k)!.

    The contour is taken one row_blocks block of interior rows at a time:
    each block is sampled, averaged against the Fourier basis in one product
    per range of ORDER_SPLITS and written into its table rows before the
    next, so besides the table the call holds the radii, the interior row
    index and one block's arrays.  The table has the bits of those products
    over all interior rows: the tests pin this at horizons 0.7 to 1000 and
    last blocks of 2 to 65 rows, on one BLAS thread and on the default count.
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    r = contour_radii(bump, taus)
    rows = np.flatnonzero(r >= MIN_CONTOUR_RADIUS * bump.horizon)
    theta = 2.0 * np.pi * np.arange(CONTOUR_NODES) / CONTOUR_NODES
    ks = np.arange(MAX_TRUNCATION + 2)
    circle = np.exp(1j * theta)
    bases = [np.exp(-1j * np.outer(theta, ks[orders])) for orders in ORDER_SPLITS]
    fact = np.cumprod(np.maximum(ks, 1.0))   # k!
    table = np.zeros((len(taus), len(ks)))
    for start, stop in row_blocks(len(rows)):
        block = rows[start:stop]
        radii = r[block, None]
        samples = bump.eval_complex(taus[block, None] + radii * circle)
        for orders, basis in zip(ORDER_SPLITS, bases):
            avg = (samples @ basis) / CONTOUR_NODES
            # r^k overflows from r = DBL_MAX^(1/k) on, and its entries divide to exact zeros
            with np.errstate(over="ignore"):
                table[block, orders] = avg.real * fact[orders] / radii ** ks[orders]
        del samples   # before the next block's are drawn
    return table


def _even_power_factors(t, k_trunc: int) -> np.ndarray:
    """(t+1)^(2k)/(2k)! for k = 0..k_trunc by ratio accumulation."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    fac = np.ones((k_trunc + 1, len(t)))
    base = (t + 1.0) ** 2
    for k in range(1, k_trunc + 1):
        fac[k] = fac[k - 1] * base / ((2 * k - 1) * (2 * k))
    return fac


def _evaluate(fac: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """sum_k i^k fac[k, i] columns[k, j], summed in k order, from factor rows
    fac[k, i] = (t_i+1)^(2k)/(2k)! (_even_power_factors) and table columns
    columns[k, j] = table[j, k] of the same orders.

    Every kernel-shaped series is summed here, so dense values from any
    caller and any row block are bit-identical.  The table is real, so i^k
    sends even orders to the real part and odd orders to the imaginary
    part, each with the sign of k mod 4, folded into a copy of the factor
    rows.  Each part is one einsum contraction over its orders, on
    contiguous operands.  einsum's default loop (optimize=False, no BLAS)
    adds fac[k, i] * column[k, :] into output row i in ascending k, one
    multiply and one add per term with no fused multiply-add, so each entry
    gets the products and sums of the plain loop over orders, which the
    tests keep as the oracle.  An empty sum (no orders) is zero.
    """
    fac, columns = np.array(fac), np.ascontiguousarray(columns)
    fac[2::4] *= -1.0
    fac[3::4] *= -1.0
    values = np.empty((fac.shape[1], columns.shape[1]), dtype=complex)
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
    of several truncations.  The evaluator's operands on the whole grid are
    built once, on first use, and later edits of the table do not reach them."""

    bump: GevreyBump
    k_trunc: int
    t_nodes: np.ndarray
    tau_nodes: np.ndarray
    deriv_table: np.ndarray     # (len(tau_nodes), >= k_trunc + 2)

    def sub_grid(self, t_index=slice(None), tau_index=slice(None)) -> np.ndarray:
        """Kernel values on t_nodes[t_index] x tau_nodes[tau_index].  The
        series is summed entry by entry, so each value has the bits of the
        same entry of `values`."""
        fac, columns = self._series_operands
        return _evaluate(fac[:, t_index], columns[: self.k_trunc + 1, tau_index])

    @functools.cached_property
    def _series_operands(self) -> tuple[np.ndarray, np.ndarray]:
        """Factor rows (orders 0..k_trunc, all t) and table columns (0..k_trunc + 1)."""
        return (_even_power_factors(self.t_nodes, self.k_trunc),
                np.ascontiguousarray(self.deriv_table[:, : self.k_trunc + 2].T))

    @functools.cached_property
    def values(self) -> np.ndarray:
        """The dense (len(t_nodes), len(tau_nodes)) kernel; for small grids."""
        return self.sub_grid()


def build_kernel(bump: GevreyBump, t_nodes: np.ndarray, tau_nodes: np.ndarray,
                 k_trunc: int) -> FlatnessKernel:
    """Separable kernel on a (t, tau) grid; only the derivative table is computed.

    The kernel reads orders 0..k_trunc + 1 of the table: one past the
    truncation, so the residual and the tau-derivative of the series are
    available exactly.
    """
    if k_trunc > MAX_TRUNCATION:
        raise ValueError(f"k_trunc {k_trunc} exceeds cap {MAX_TRUNCATION}")
    t_nodes = np.asarray(t_nodes, dtype=float)
    tau_nodes = np.asarray(tau_nodes, dtype=float)
    return FlatnessKernel(bump, k_trunc, t_nodes, tau_nodes, derivative_table(bump, tau_nodes))


@dataclass
class KernelResidualReport:
    max_residual: float
    max_kernel: float
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
    fac, columns = kernel._series_operands
    peaks = []   # per row block, in the report's field order
    for start, stop in row_blocks(len(kernel.t_nodes)):
        # dtau = E + last, dtt = i E, tail = i last (products by i are exact);
        # the residual's peak is read before its gap to the tail is formed in place
        e_series = _evaluate(fac[:kt, start:stop], columns[1 : kt + 1])
        last = 1j**kt * np.multiply.outer(fac[kt, start:stop], columns[kt + 1])
        residual = 1j * (e_series + last)
        residual -= np.multiply(e_series, 1j, out=e_series)
        last *= 1j
        peaks.append([np.abs(residual).max(), np.abs(kernel.sub_grid(slice(start, stop))).max(),
                      np.abs(np.subtract(residual, last, out=residual)).max()])
    return KernelResidualReport(*map(float, np.max(peaks, axis=0)))


def control_trace(kernel: FlatnessKernel) -> np.ndarray:
    """Boundary control v(tau) = K(1, tau) implied by the construction."""
    return _evaluate(_even_power_factors(1.0, kernel.k_trunc),
                     kernel._series_operands[1][: kernel.k_trunc + 1])[0]
