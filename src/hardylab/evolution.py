"""Time evolution in the spectral basis and observation on subdomains.

The source-free flow is diagonal: c_k(t) = exp(i mu_k t) c_k(0).  Sourced
problems are integrated by Duhamel's formula with trapezoid quadrature,

    c_k(t) = -i integral_0^t exp(i mu_k (t-s)) g_k(s) ds,

evaluated in closed form: the phase exp(i mu_k t) is pulled out of the
integral and the rest is one cumulative trapezoid sum, so the cost is linear
in the number of steps and every row is the composite trapezoid value.

Observation maps on (0, T) x mask have Khatri-Rao columns: column k is
a[:, k] (x) b[:, k], a time factor times a space factor.  They are never
built.  With the thin QRs a = qa ra and b = qb rb the map is
(qa (x) qb) C, where the core C[(i, j), k] = ra[i, k] rb[j, k] has at most
k^2 rows; the Kronecker factor has orthonormal columns, so singular values
and least-squares solutions come from C.
"""

from dataclasses import dataclass, field

import numpy as np

from .spectral import RadialGrid, SpectralBasis


def cumulative_trapezoid(values: np.ndarray, dt: float) -> np.ndarray:
    """Running trapezoid integral along axis 0, starting from 0 at the first node."""
    out = np.zeros_like(values)
    out[1:] = 0.5 * dt * np.cumsum(values[1:] + values[:-1], axis=0)
    return out


@dataclass
class TimeGrid:
    """Uniform grid t_j = j*T/steps, j = 0..steps; grids compare equal by
    (horizon, steps), which fix the samples."""

    horizon: float
    steps: int
    times: np.ndarray = field(init=False, compare=False)
    dt: float = field(init=False, compare=False)

    def __post_init__(self):
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.steps < 1:
            raise ValueError("need at least one step")
        self.dt = self.horizon / self.steps
        self.times = self.dt * np.arange(self.steps + 1)

    def trapezoid_weights(self) -> np.ndarray:
        """Composite trapezoid weights on the steps + 1 nodes."""
        w = np.full(self.steps + 1, self.dt)
        w[0] = w[-1] = 0.5 * self.dt
        return w


@dataclass
class ModeState:
    """Spectral coefficients of a solution at one time instant."""

    coeffs: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


@dataclass
class ModeTrajectory:
    """Coefficients on a time grid; row j is the state at grid.times[j]."""

    grid: TimeGrid
    coeffs: np.ndarray  # (grid.steps + 1, k_modes)


def propagate(state: ModeState, basis: SpectralBasis, t: float) -> ModeState:
    """Apply the exact phases exp(i mu_k t)."""
    phases = np.exp(1j * basis.eigenvalues * t)
    return ModeState(state.coeffs * phases)


def duhamel_modal_source(g: np.ndarray, mus: np.ndarray, grid: TimeGrid) -> ModeTrajectory:
    """Zero-initial-state response to a per-mode source g_k(t_j).

    g has shape (steps+1, k).  With the step phase P = exp(i mu dt), row j is
    the composite trapezoid value -i P^j sum_{i<j} h/2 (e_i + e_{i+1}),
    e_i = P^-i g_i, taken as one cumulative sum; the phases have unit
    modulus, so no factor overflows however long the grid.  The products and
    the sum are formed in buffers already held, so at most three (steps+1, k)
    complex arrays are live besides g.
    """
    if g.shape[0] != grid.steps + 1:
        raise ValueError("source samples do not match the time grid")
    # P^j = exp(i j x), x = mu dt, with x split so that j * x_hi is exact:
    # every phase then carries the same rounded frequency, whereas rounding
    # each mu t_j on its own costs ~1e-11 relative accuracy for smooth
    # sources at mu ~ 2500
    x = np.asarray(mus, dtype=float) * grid.dt
    big = 134217729.0 * x             # 2^27 + 1: x_hi keeps 26 bits
    x_hi = big - (big - x)
    j = np.arange(grid.steps + 1, dtype=float)[:, None]
    phase = 1j * (j * x_hi)
    np.exp(phase, out=phase)
    low = 1j * (j * (x - x_hi))
    phase *= np.exp(low, out=low)
    del low
    pulled = phase.conj()
    pulled *= g
    acc = np.zeros_like(phase)
    np.add(pulled[:-1], pulled[1:], out=acc[1:])
    np.cumsum(acc[1:], axis=0, out=acc[1:])
    np.multiply(-0.5j * grid.dt, phase, out=phase)
    phase *= acc
    return ModeTrajectory(grid, phase)


def duhamel_solve(f_modes: np.ndarray, rho: np.ndarray, basis: SpectralBasis,
                  grid: TimeGrid) -> ModeTrajectory:
    """Trajectory of the problem with u(0) = 0 and the separable source
    f(x) rho(t): spatial modes f_modes, amplitude rho sampled on grid."""
    g = np.outer(rho, f_modes)
    return duhamel_modal_source(g, basis.eigenvalues, grid)


def free_trajectory(c0: np.ndarray, basis: SpectralBasis, grid: TimeGrid) -> ModeTrajectory:
    """Source-free flow of an initial state sampled on the grid."""
    phases = np.exp(1j * np.outer(grid.times, basis.eigenvalues))
    return ModeTrajectory(grid, phases * np.asarray(c0, dtype=complex))


@dataclass
class ObservationMask:
    """Observation subset of (0, 1): interval or fat-Cantor node selection."""

    node_indices: np.ndarray
    weights: np.ndarray
    intervals: list[tuple[float, float]]
    analytic_measure: float
    depth: int | None = None

    @property
    def n_nodes(self) -> int:
        return len(self.node_indices)

    def realized_measure(self) -> float:
        return float(self.weights.sum())


def interval_mask(grid: RadialGrid, a: float, b: float) -> ObservationMask:
    """Open-interval observation set (a, b) restricted to grid nodes."""
    if not (0.0 <= a < b <= 1.0):
        raise ValueError(f"invalid interval ({a}, {b})")
    idx = np.flatnonzero((grid.nodes > a) & (grid.nodes < b))
    if len(idx) == 0:
        raise ValueError("interval contains no grid nodes")
    return ObservationMask(
        node_indices=idx,
        weights=grid.weights[idx],
        intervals=[(a, b)],
        analytic_measure=b - a,
    )


def fat_cantor_mask(grid: RadialGrid, base_interval: tuple[float, float]) -> ObservationMask:
    """Positive-measure nowhere-dense mask by the middle-removal construction.

    Stage k removes an open middle piece of length L * 4^-(k+1) from each of
    the 2^k current intervals (L = base length); the depth is
    ceil(log2 n_interior).  On the unit interval the removed total telescopes
    to sum_k 2^k 4^-(k+1) = 1/2, so the limiting measure is 1/2 and the
    depth-d construction keeps 1/2 + 2^-(d+1).
    """
    a, b = base_interval
    if not (0.0 <= a < b <= 1.0):
        raise ValueError(f"invalid base interval ({a}, {b})")
    length = b - a
    if length < 4 * grid.spacing:
        raise ValueError("base interval shorter than 4 grid spacings")
    depth = int(np.ceil(np.log2(grid.n_interior)))
    # endpoints level by level: each (lo, hi) is replaced, in order, by
    # (lo, mid - removed/2) and (mid + removed/2, hi)
    lo, hi = np.array([a]), np.array([b])
    for k in range(depth):
        half = 0.5 * (length * 4.0 ** (-(k + 1)))
        mid = 0.5 * (lo + hi)
        lo = np.column_stack((lo, mid + half)).ravel()
        hi = np.column_stack((mid - half, hi)).ravel()
    # the intervals are sorted and disjoint: a node can only lie in the
    # last one starting at or before it
    last = np.searchsorted(lo, grid.nodes, side="right") - 1
    idx = np.flatnonzero((last >= 0) & (grid.nodes <= hi[last]))
    if len(idx) == 0:
        raise ValueError("fat-Cantor mask contains no grid nodes")
    analytic = length * (0.5 + 2.0 ** (-(depth + 1)))
    return ObservationMask(
        node_indices=idx,
        weights=grid.weights[idx],
        intervals=list(zip(lo.tolist(), hi.tolist())),
        analytic_measure=analytic,
        depth=depth,
    )


def observe(trajectory: ModeTrajectory, mask: ObservationMask, basis: SpectralBasis) -> np.ndarray:
    """Physical-space samples u(t_j, r_m) on the masked nodes, (times, nodes)."""
    if mask.n_nodes == 0:
        raise ValueError("empty observation mask")
    phi = basis.eigenvectors[mask.node_indices, :]  # (n_mask, k)
    return trajectory.coeffs @ phi.T


def numerical_rank(singular_values: np.ndarray, shape: tuple[int, ...]) -> int:
    """Rank of a matrix of this shape from its descending singular values:
    the count above s_max * max(shape) * eps, numpy's matrix_rank rule."""
    tol = singular_values[0] * max(shape) * np.finfo(singular_values.dtype).eps
    return int(np.count_nonzero(singular_values > tol))


def khatri_rao_core(a: np.ndarray, b: np.ndarray, cols: np.ndarray | None = None):
    """Orthonormal factors and core of the map whose column c is
    a[:, c] (x) b[:, cols[c]] (time-major rows; cols defaults to the identity).

    Returns (qa, qb, core) with the map equal to (qa (x) qb) @ core, where
    a = qa ra and b = qb rb are thin QRs and core[(i, j), c] = ra[i, c] rb[j, cols[c]].
    The Kronecker factor has orthonormal columns, so the map and the core,
    of at most min(rows(a), cols(a)) * min(rows(b), cols(b)) rows, share
    their singular values.
    """
    qa, ra = np.linalg.qr(a)
    qb, rb = np.linalg.qr(b)
    if cols is not None:
        rb = rb[:, cols]
    core = (ra[:, None, :] * rb[None, :, :]).reshape(-1, a.shape[1])
    return qa, qb, core


@dataclass
class ObservabilityReport:
    """Singular values and rank of the weighted observation map, with the
    factors (qa, qb, core) of khatri_rao_core that represent it."""

    singular_values: np.ndarray
    rank: int
    qa: np.ndarray
    qb: np.ndarray
    core: np.ndarray

    def least_squares(self, weighted_samples: np.ndarray) -> np.ndarray:
        """Least-squares coefficients of the (times, nodes) weighted samples.

        The residual splits into a part in the range of qa (x) qb, which the
        projected samples qa^H Y conj(qb) carry, and an orthogonal part that
        no coefficients reach.  Singular values are cut, as for the rank, at
        s_max * max(shape) * eps of the full map's shape.
        """
        projected = self.qa.conj().T @ weighted_samples @ self.qb.conj()
        shape = (self.qa.shape[0] * self.qb.shape[0], self.core.shape[1])
        x, *_ = np.linalg.lstsq(self.core, projected.ravel(),
                                rcond=max(shape) * np.finfo(float).eps)
        return x


def observability_matrix(basis: SpectralBasis, mask: ObservationMask, grid: TimeGrid) -> ObservabilityReport:
    """Map from initial coefficients to space-time samples on (0,T) x mask.

    Rows carry sqrt(time weight * node weight) so singular values mimic the
    continuous L^2((0,T) x omega) observation norm; the smallest one is the
    truncation-level injectivity margin.  Column k is a[:, k] (x) b[:, k]
    with a = sqrt(w_t) e^(i mu_k t) and b = sqrt(w_x) phi_k; the map is
    factored by khatri_rao_core and never formed.
    """
    n_rows = (grid.steps + 1) * mask.n_nodes
    if basis.k_modes > n_rows:
        raise ValueError("fewer samples than modes: observation map cannot be injective")
    a = np.sqrt(grid.trapezoid_weights())[:, None] * np.exp(1j * np.outer(grid.times, basis.eigenvalues))
    b = np.sqrt(mask.weights)[:, None] * basis.eigenvectors[mask.node_indices, :]
    # |a| is sqrt(w_t) > 0 everywhere, so a column vanishes only with b's
    if not np.all(np.abs(b).max(axis=0) > 0):
        raise ValueError("degenerate all-zero column: basis/mask inconsistency")
    qa, qb, core = khatri_rao_core(a, b)
    s = np.linalg.svd(core, compute_uv=False)
    return ObservabilityReport(s, numerical_rank(s, (n_rows, basis.k_modes)), qa, qb, core)
