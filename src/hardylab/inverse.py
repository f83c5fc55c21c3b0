"""Source recovery through a second-kind Volterra operator.

With a separable source f(x) rho(t) and zero initial state, the time
derivative of each mode factors through the causal operator

    (K z)(t) = rho(0) z(t) + integral_0^t rho'(t - s) z(s) ds,

which is lower triangular and Toeplitz (after its first column) on the grid.
Whenever rho(0) != 0 its inverse is read from the power-series reciprocal of
that Toeplitz column, built by Newton doubling (two FFT convolutions per
doubling) and applied by one more convolution, O(n log n) in all.  The
recovered z is a free evolution with z(0) = -i f, so f = i z(0).  When
rho(0) = 0 the direct route is rejected; the antiderivative reduction and
the causal convolution y = rho * v provide the alternate route, and the
Titchmarsh support check confirms that convolution starts add.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .evolution import ModeTrajectory, TimeGrid, cumulative_trapezoid

RHO_ZERO_TOL = 1e-14
SUPPORT_REL_THRESHOLD = 1e-12


@dataclass
class VolterraSystem:
    """rho, rho' sampled on a time grid (derivative from its closed form);
    the samples must not change once `reciprocal` has been read."""

    grid: TimeGrid
    rho: np.ndarray
    drho: np.ndarray

    @property
    def rho_at_zero(self) -> float:
        return float(self.rho[0])

    @functools.cached_property
    def reciprocal(self) -> np.ndarray:
        """1/col mod z^(n-1), col = [rho(0) + dt rho'(0)/2, dt rho'(1), ..., dt rho'(n-2)]:
        the first column of the inverse of the operator's Toeplitz part.

        Newton doubling: x = 1/col mod z^m gives col x = 1 + z^m r mod z^(2m) and
        x - z^m (x r) = 1/col mod z^(2m).  Only x[:len(r)] enters the kept terms
        of x r; the rest would add large unused products to the last doubling,
        and FFT rounding, relative to the largest term, would reach the kept ones.
        """
        col = self.grid.dt * self.drho[:-1]
        col[0] = self.rho_at_zero + 0.5 * col[0]
        x = np.array([1.0 / col[0]])
        while len(x) < len(col):
            m, head = len(x), col[: 2 * len(x)]
            r = _fftconvolve(head, x)[m : len(head)]
            x = np.concatenate((x, -_fftconvolve(x[: len(r)], r)[: len(r)]))
        x.setflags(write=False)
        return x


@functools.cache
def _next_fast_len(n: int, real: bool) -> int:
    """Least m >= n with no prime factor above 5 (real) or 11 (complex), as
    scipy.fft.next_fast_len: the least 2^j b over the odd such b below the
    power of two >= n."""
    best = 1 << (n - 1).bit_length()
    odd = [1]
    for p in (3, 5) if real else (3, 5, 7, 11):
        grown = []
        for b in odd:
            while b < best:
                grown.append(b)
                b *= p
        odd = grown
    for b in odd:
        best = min(best, b << (-(-n // b) - 1).bit_length())
    return best


def _spectrum(x: np.ndarray, size: int) -> np.ndarray:
    """Complex FFT of x along axis 0, zero-padded to size; a real x takes the
    real FFT and the conjugate mirror of its upper half, as scipy.fft does."""
    if np.iscomplexobj(x):
        return np.fft.fft(x, size, axis=0)
    out = np.empty((size, *x.shape[1:]), dtype=complex)
    half = size // 2 + 1
    np.fft.rfft(x, size, axis=0, out=out[:half])
    np.conjugate(out[size - half : 0 : -1], out=out[half:])
    return out


def _fftconvolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of a and b along axis 0, other axes broadcast.

    The same transforms as scipy.signal.fftconvolve (real FFTs for real
    inputs, padded to the next fast length), from numpy.fft, so the bits match.
    Where it can, a transform writes into an array already allocated: at the
    lengths of long time grids (80,190 for 40,001 samples) a fresh output
    costs about what numpy's complex FFT loses to scipy's.
    """
    if len(a) == 1 or len(b) == 1:
        return a * b
    n = len(a) + len(b) - 1
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        size = _next_fast_len(n, False)
        product = _spectrum(a, size) * _spectrum(b, size)
        full = np.fft.ifft(product, axis=0, out=product)
    else:
        size = _next_fast_len(n, True)
        full = np.fft.irfft(np.fft.rfft(a, size, axis=0) * np.fft.rfft(b, size, axis=0),
                            size, axis=0)
    return full[:n]


def trapezoid_convolution(a: np.ndarray, b: np.ndarray, dt: float) -> np.ndarray:
    """(a * b)(t_j) = dt [ a_j b_0/2 + sum_{0<m<j} a_{j-m} b_m + a_0 b_j/2 ].

    a has shape (n,); b has shape (n,) or (n, k), each column convolved
    with a.
    """
    n = len(a)
    if len(b) != n:
        raise ValueError("convolution inputs must share the grid")
    if np.ndim(b) == 2:
        a = a[:, None]
    full = _fftconvolve(a, b)[:n]
    out = dt * (full - 0.5 * a * b[0] - 0.5 * a[0] * b)
    out[0] = 0.0
    return out


def volterra_apply(sys: VolterraSystem, z: np.ndarray) -> np.ndarray:
    """K z = rho(0) z + trapezoid convolution of rho' with z, z of shape (n,) or (n, k)."""
    z = np.asarray(z)
    return sys.rho_at_zero * z + trapezoid_convolution(sys.drho, z, sys.grid.dt)


def volterra_invert(sys: VolterraSystem, g: np.ndarray) -> np.ndarray:
    """Solve the lower-triangular discretization of K z = g.

    g has shape (n,) or (n, k); each column is an independent right-hand
    side.  Row 0 gives z_0 = g_0 / rho(0); the remaining unknowns satisfy a
    lower-triangular Toeplitz system with diagonal rho(0) + dt rho'(0)/2 and
    subdiagonals dt rho'(d), solved for all columns by one FFT convolution
    with its inverse's first column, sys.reciprocal (built once per system).
    """
    if abs(sys.rho_at_zero) <= RHO_ZERO_TOL:
        raise ValueError("rho(0) = 0: second-kind inversion unavailable on this route")
    g = np.asarray(g, dtype=complex)
    n = len(g)
    if n != sys.grid.steps + 1:
        raise ValueError("data does not match the system grid")
    rhs = g.reshape(n, -1)
    z0 = rhs[0] / sys.rho_at_zero
    b = rhs[1:] - 0.5 * sys.grid.dt * np.outer(sys.drho[1:], z0)
    return np.vstack((z0, _fftconvolve(sys.reciprocal[:, None], b)[: n - 1])).reshape(g.shape)


@dataclass
class ReconstructionResult:
    f_recovered: np.ndarray
    z: np.ndarray                 # (n_times, k_modes)
    relative_error: float | None  # None for a zero source
    factorization_residual: float  # max |K z - du/dt|


def reconstruct_f(trajectory: ModeTrajectory, sys: VolterraSystem, mus: np.ndarray,
                  f_true: np.ndarray) -> ReconstructionResult:
    """Recover the spatial source modes: z = K^{-1}(du/dt), f = i z(0).

    du/dt comes from the exact mode equation c' = i mu c - i f rho with the
    true source modes, which isolates the Volterra-inversion error from
    differentiation noise.  volterra_invert refuses rho(0) = 0.
    """
    if trajectory.grid != sys.grid:
        raise ValueError("trajectory and Volterra system grids differ")
    mus = np.asarray(mus, dtype=float)
    f_true = np.asarray(f_true, dtype=complex)
    dt_u = 1j * mus[None, :] * trajectory.coeffs - 1j * np.outer(sys.rho, f_true)
    z = volterra_invert(sys, dt_u)
    f_rec = 1j * z[0, :]
    scale = np.linalg.norm(f_true)
    rel = float(np.linalg.norm(f_rec - f_true) / scale) if scale else None
    # identity K z = du/dt is structural after the triangular solve
    residual = float(np.abs(volterra_apply(sys, z) - dt_u).max())
    return ReconstructionResult(f_rec, z, rel, residual)


def duhamel_identity_residual(trajectory: ModeTrajectory, sys: VolterraSystem,
                              z: np.ndarray) -> float:
    """Max mismatch of u(t) = integral_0^t rho(s) z(t-s, .) ds per mode."""
    conv = trapezoid_convolution(sys.rho, z, sys.grid.dt)
    return float(np.abs(conv - trajectory.coeffs).max())


def free_evolution_check(z: np.ndarray, mus: np.ndarray, dt: float) -> np.ndarray:
    """Integrated residual of z' = i mu z per mode, centered differences."""
    mus = np.asarray(mus, dtype=float)
    zdot = (z[2:] - z[:-2]) / (2.0 * dt)
    resid = np.abs(zdot - 1j * mus[None, :] * z[1:-1])
    return 0.5 * dt * (resid[1:] + resid[:-1]).sum(axis=0)


def antiderivative_reduce(trajectory: ModeTrajectory) -> ModeTrajectory:
    """Cumulative trapezoid w(t) = integral_0^t u(s) ds per mode.

    The reduced trajectory solves the same problem with temporal factor
    P(t) = integral_0^t rho, and P(0) = 0 opens the vanishing-at-zero route.
    """
    c = trajectory.coeffs
    if np.abs(c[0]).max() > 1e-12 * max(np.abs(c).max(), 1e-300):
        raise ValueError("antiderivative reduction expects u(0) = 0")
    return ModeTrajectory(trajectory.grid, cumulative_trapezoid(c, trajectory.grid.dt))


@dataclass
class ConvolutionSourceResult:
    y: ModeTrajectory
    source_identity_residual: float


def convolve_source(rho: np.ndarray, v: ModeTrajectory, mus: np.ndarray) -> ConvolutionSourceResult:
    """y = rho * v for a free flow v with v(0) = -i f, requiring rho(0) = 0.

    Returns the residual of i y' + mu y - f rho (centered differences),
    which certifies that y solves the sourced problem with y(0) = 0.
    """
    rho = np.asarray(rho, dtype=float)
    if abs(rho[0]) > RHO_ZERO_TOL * max(np.abs(rho).max(), 1e-300):
        raise ValueError("convolution route requires rho(0) = 0")
    dt = v.grid.dt
    mus = np.asarray(mus, dtype=float)
    f_modes = 1j * v.coeffs[0, :]
    y = trapezoid_convolution(rho, v.coeffs, dt)
    ydot = (y[2:] - y[:-2]) / (2.0 * dt)
    resid = np.abs(
        1j * ydot + mus[None, :] * y[1:-1] - np.outer(rho[1:-1], f_modes)
    )
    return ConvolutionSourceResult(ModeTrajectory(v.grid, y), float(resid.max()))


@dataclass
class SupportReport:
    start_a: float | None
    start_b: float | None
    start_convolution: float | None
    additivity_gap: float | None


def titchmarsh_support(a: np.ndarray, b: np.ndarray, dt: float) -> SupportReport:
    """Earliest support points of a, b and a*b; their mismatch
    |start(a*b) - start(a) - start(b)| is returned (None on zero input)."""

    def first_alive(x: np.ndarray) -> int | None:
        m = np.abs(x).max()
        if m == 0.0:
            return None
        idx = np.flatnonzero(np.abs(x) > SUPPORT_REL_THRESHOLD * m)
        return int(idx[0]) if len(idx) else None

    starts = [first_alive(x) for x in (a, b, _fftconvolve(a, b) * dt)]
    ia, ib, ic = starts
    gap = None if None in starts else abs((ic - ia - ib) * dt)
    return SupportReport(*(None if i is None else i * dt for i in starts), gap)
