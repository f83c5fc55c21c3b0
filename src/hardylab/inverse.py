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
from scipy import fft as sp_fft

from .evolution import ModeTrajectory, cumulative_trapezoid

RHO_ZERO_TOL = 1e-14
SUPPORT_REL_THRESHOLD = 1e-12


@dataclass
class VolterraSystem:
    """Time grid plus rho, rho' samples (derivative from its closed form);
    the samples must not change once `reciprocal` has been read."""

    times: np.ndarray
    rho: np.ndarray
    drho: np.ndarray

    @property
    def rho_at_zero(self) -> float:
        return float(self.rho[0])

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @functools.cached_property
    def reciprocal(self) -> np.ndarray:
        """1/col mod z^(n-1), col = [rho(0) + dt rho'(0)/2, dt rho'(1), ..., dt rho'(n-2)]:
        the first column of the inverse of the operator's Toeplitz part.

        Newton doubling: x = 1/col mod z^m gives col x = 1 + z^m r mod z^(2m) and
        x - z^m (x r) = 1/col mod z^(2m).  Only x[:len(r)] enters the kept terms
        of x r; the rest would add large unused products to the last doubling,
        and FFT rounding, relative to the largest term, would reach the kept ones.
        """
        col = self.dt * self.drho[:-1]
        col[0] = self.rho_at_zero + 0.5 * col[0]
        x = np.array([1.0 / col[0]])
        while len(x) < len(col):
            m, head = len(x), col[: 2 * len(x)]
            r = _fftconvolve(head, x)[m : len(head)]
            x = np.concatenate((x, -_fftconvolve(x[: len(r)], r)[: len(r)]))
        x.setflags(write=False)
        return x


def _fftconvolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of a and b along axis 0, other axes broadcast.

    The same transforms as scipy.signal.fftconvolve (real FFTs for real
    inputs, padded to the next fast length), without importing scipy.signal.
    """
    if len(a) == 1 or len(b) == 1:
        return a * b
    n = len(a) + len(b) - 1
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        size = sp_fft.next_fast_len(n, False)
        full = sp_fft.ifft(sp_fft.fft(a, size, axis=0) * sp_fft.fft(b, size, axis=0), axis=0)
    else:
        size = sp_fft.next_fast_len(n, True)
        full = sp_fft.irfft(sp_fft.rfft(a, size, axis=0) * sp_fft.rfft(b, size, axis=0),
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
    return sys.rho_at_zero * z + trapezoid_convolution(sys.drho, z, sys.dt)


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
    if n != len(sys.times):
        raise ValueError("data does not match the system grid")
    rhs = g.reshape(n, -1)
    z0 = rhs[0] / sys.rho_at_zero
    b = rhs[1:] - 0.5 * sys.dt * np.outer(sys.drho[1:], z0)
    return np.vstack((z0, _fftconvolve(sys.reciprocal[:, None], b)[: n - 1])).reshape(g.shape)


@dataclass
class ReconstructionResult:
    f_recovered: np.ndarray
    z: np.ndarray                 # (n_times, k_modes)
    relative_error: float | None  # None for a zero source
    diagnostics: dict


def reconstruct_f(trajectory: ModeTrajectory, sys: VolterraSystem, mus: np.ndarray,
                  f_true: np.ndarray) -> ReconstructionResult:
    """Recover the spatial source modes: z = K^{-1}(du/dt), f = i z(0).

    du/dt comes from the exact mode equation c' = i mu c - i f rho with the
    true source modes, which isolates the Volterra-inversion error from
    differentiation noise.
    """
    if abs(sys.rho_at_zero) <= RHO_ZERO_TOL:
        raise ValueError("rho(0) = 0: reconstruction requires the nonvanishing route")
    if len(trajectory.times) != len(sys.times) or not np.allclose(
        trajectory.times, sys.times, rtol=0.0, atol=1e-12
    ):
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
    return ReconstructionResult(f_rec, z, rel, {"factorization_residual": residual})


def duhamel_identity_residual(trajectory: ModeTrajectory, sys: VolterraSystem,
                              z: np.ndarray) -> float:
    """Max mismatch of u(t) = integral_0^t rho(s) z(t-s, .) ds per mode."""
    conv = trapezoid_convolution(sys.rho, z, sys.dt)
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
    dt = trajectory.times[1] - trajectory.times[0]
    return ModeTrajectory(trajectory.times.copy(), cumulative_trapezoid(c, dt))


@dataclass
class ConvolutionSourceResult:
    y: ModeTrajectory
    source_identity_residual: float
    f_modes: np.ndarray


def convolve_source(rho: np.ndarray, v: ModeTrajectory, mus: np.ndarray) -> ConvolutionSourceResult:
    """y = rho * v for a free flow v with v(0) = -i f, requiring rho(0) = 0.

    Returns the residual of i y' + mu y - f rho (centered differences),
    which certifies that y solves the sourced problem with y(0) = 0.
    """
    rho = np.asarray(rho, dtype=float)
    if abs(rho[0]) > RHO_ZERO_TOL * max(np.abs(rho).max(), 1e-300):
        raise ValueError("convolution route requires rho(0) = 0")
    dt = v.times[1] - v.times[0]
    mus = np.asarray(mus, dtype=float)
    f_modes = 1j * v.coeffs[0, :]
    y = trapezoid_convolution(rho, v.coeffs, dt)
    ydot = (y[2:] - y[:-2]) / (2.0 * dt)
    resid = np.abs(
        1j * ydot + mus[None, :] * y[1:-1] - np.outer(rho[1:-1], f_modes)
    )
    return ConvolutionSourceResult(
        ModeTrajectory(v.times.copy(), y), float(resid.max()), f_modes
    )


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

    ia, ib = first_alive(a), first_alive(b)
    conv = _fftconvolve(a, b) * dt
    ic = first_alive(conv)
    if ia is None or ib is None:
        return SupportReport(
            None if ia is None else ia * dt,
            None if ib is None else ib * dt,
            None if ic is None else ic * dt,
            None,
        )
    gap = abs((ic - ia - ib) * dt) if ic is not None else None
    return SupportReport(ia * dt, ib * dt, None if ic is None else ic * dt, gap)
