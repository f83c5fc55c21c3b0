import contextlib
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab.cli import LabConfig, validate_config
from hardylab.evolution import TimeGrid
from hardylab.flatness import (C_NORM, HORIZON_RANGE, MAX_TRUNCATION, MIN_CONTOUR_RADIUS,
                               ROW_BLOCK, _evaluate, _even_power_factors, build_kernel,
                               contour_radii, control_trace, derivative_table, gevrey_bump,
                               kernel_residual, row_blocks)
from hardylab.lapack import one_blas_thread

from flatness_oracle import bump_derivatives_exact, derivative_factors_exact, log_bump


def test_bump_normalization_and_closed_form():
    bump = gevrey_bump(1.0)
    assert bump(0.5) == pytest.approx(1.0, abs=1e-15)
    assert bump(0.25) == pytest.approx(math.exp(16.0 - 256.0 / 9.0), rel=1e-14)
    assert bump(0.0) == 0.0 and bump(1.0) == 0.0 and bump(-0.3) == 0.0 and bump(1.7) == 0.0
    # one shape at every horizon: psi_T(tau) = psi_1(tau / T)
    taus = np.linspace(-0.25, 1.25, 97)
    for horizon in (2.0**-16, 0.5, 4.0, 2.0**1000):
        assert np.array_equal(gevrey_bump(horizon)(horizon * taus), bump(taus))


def test_bump_validation():
    low, high = HORIZON_RANGE
    assert gevrey_bump(low).horizon == low and gevrey_bump(high).horizon == high
    for horizon in (0.0, math.nextafter(low, 0.0), math.nextafter(high, math.inf),
                    1e-200, math.nan):
        with pytest.raises(ValueError, match="bump's range"):
            gevrey_bump(horizon)


def test_cauchy_zeroth_derivative_matches_direct():
    bump = gevrey_bump(1.0)
    for tau in (0.2, 0.5, 0.77):
        table = derivative_table(bump, np.array([tau]))[0]
        assert table[0] == pytest.approx(bump(tau), abs=1e-12)


def test_cauchy_first_derivative_vanishes_at_center():
    bump = gevrey_bump(1.0)
    table = derivative_table(bump, np.array([0.5]))[0]
    scale = abs(derivative_table(bump, np.array([0.4]))[0, 1])
    assert abs(table[1]) <= 1e-12 * max(scale, 1.0)


def test_guard_band_marks_the_rows_derivative_table_zeroes():
    s = [-0.5, 0.0, 5e-4, 1.9e-3, 2e-3, 0.5, 1.0 - 1e-3, 1.0, 1.5]
    least = math.log(sys.float_info.min * sys.float_info.epsilon)
    for horizon in (HORIZON_RANGE[0], 1.0, 3.0, 100.0, 1e300):
        bump = gevrey_bump(horizon)
        taus = horizon * np.array(s)
        r = contour_radii(bump, taus)
        drawn = r >= MIN_CONTOUR_RADIUS * horizon
        assert drawn.tolist() == [False, False, False, False, True, True, False, False, False]
        band = (r > 0.0) & ~drawn
        assert band.tolist() == [False, False, True, True, False, False, True, False, False]
        assert np.all(derivative_table(bump, taus)[~drawn] == 0.0)
        # the band's rows are zeros, not lost values: there every |psi^(k)| = |R_k| psi
        # lies below the least subnormal, compared in exact logs
        for tau in (Fraction(horizon) * Fraction(x) for x, inside in zip(s, band) if inside):
            log_psi = log_bump(bump, tau)
            for r_k in derivative_factors_exact(bump, tau, 8):
                assert math.log(abs(r_k.numerator)) - math.log(r_k.denominator) + log_psi < least


def test_cauchy_underflowed_edge_band_is_zero():
    # at T = 1 the bump underflows to exact zero well inside the guard band,
    # so fine kernel grids get zero rows there instead of a rejection
    bump = gevrey_bump(1.0)
    table = derivative_table(bump, np.array([1e-3]))[0]
    assert np.all(table == 0.0)
    assert bump(1e-3) == 0.0


@pytest.mark.parametrize("horizon", [2.0, 1024.0, 0.5, 4.0])
def test_derivative_table_scales_with_the_horizon(horizon):
    # psi_T^(k)(T s) = T^-k psi_1^(k)(s): at a power-of-two horizon the contours,
    # their samples and their sums are those at T = 1 scaled exactly, so the
    # table is the horizon-1 table times T^-k wherever neither is subnormal
    s = np.linspace(0.0, 1.0, 1025)
    with one_blas_thread():
        table1 = derivative_table(gevrey_bump(1.0), s)
        table = derivative_table(gevrey_bump(horizon), horizon * s)
    expected = table1 * horizon ** -np.arange(MAX_TRUNCATION + 2.0)
    differ = table != expected
    if horizon in (2.0, 1024.0):
        assert not differ.any()
    tiny = sys.float_info.min
    assert np.all((np.abs(table[differ]) < tiny) | (np.abs(expected[differ]) < tiny))


def test_cauchy_matches_exact_recurrence_low_order():
    bump = gevrey_bump(1.0)
    cau = derivative_table(bump, np.array([0.3]))[0]
    exact = bump_derivatives_exact(bump, Fraction(3, 10), 3)
    assert abs(cau[3] - exact[3]) <= 1e-8 * abs(exact[3])


def cauchy_noise_floor(bump, tau, k_max):
    # rounding of O(max |psi| on the contour) samples, amplified by k!/r^k
    r = 0.5 * min(tau, bump.horizon - tau)
    theta = 2 * np.pi * np.arange(512) / 512
    peak = np.abs(bump.eval_complex(tau + r * np.exp(1j * theta))).max()
    ks = np.arange(k_max + 1)
    fact = np.cumprod(np.concatenate(([1.0], np.arange(1.0, k_max + 1))))
    return 1e-13 * peak * fact / r**ks


@pytest.mark.parametrize("tau", [Fraction(1, 10), Fraction(3, 10), Fraction(1, 2),
                                 Fraction(7, 10), Fraction(9, 10)])
def test_cauchy_matches_exact_recurrence_high_order(tau):
    # 1e-8 relative agreement wherever the value is representable; entries
    # that are exactly zero (odd orders at T/2) or below the float64 contour
    # noise (psi(0.1) ~ 1e-47) are compared against that floor instead
    bump = gevrey_bump(1.0)
    k_max = 25
    cau = derivative_table(bump, np.array([float(tau)]))[0]
    exact = bump_derivatives_exact(bump, tau, k_max)
    floor = cauchy_noise_floor(bump, float(tau), k_max)
    for k in range(k_max + 1):
        assert abs(cau[k] - exact[k]) <= 1e-8 * abs(exact[k]) + floor[k]


def test_kernel_boundary_values():
    bump = gevrey_bump(1.0)
    taus = np.linspace(0.0, 1.0, 65)
    kernel = build_kernel(bump, np.linspace(-1, 1, 33), taus, 12)
    # K(-1, tau) = psi(tau): only the k = 0 term survives
    assert np.abs(kernel.values[0] - bump(taus)).max() <= 1e-12
    # K(t, 0) = K(t, T) = 0 by compact support
    assert np.abs(kernel.values[:, 0]).max() == 0.0
    assert np.abs(kernel.values[:, -1]).max() == 0.0


def test_kernel_flat_time_datum_at_left_edge():
    # only even powers of (t+1): dK/dt(-1, tau) = 0, so K grows quadratically
    bump = gevrey_bump(1.0)
    taus = np.linspace(0.0, 1.0, 33)
    kernel = build_kernel(bump, np.array([-1.0, -1.0 + 1e-6]), taus, 12)
    diff = np.abs(kernel.values[1] - kernel.values[0]).max()
    assert diff <= 1e-10 * max(np.abs(kernel.values).max(), 1.0)


def test_kernel_truncation_zero_gives_bump_trace():
    bump = gevrey_bump(1.0)
    taus = np.linspace(0.0, 1.0, 33)
    kernel = build_kernel(bump, np.linspace(-1, 1, 9), taus, 0)
    trace = control_trace(kernel)
    assert np.abs(trace - bump(taus)).max() <= 1e-12


def test_kernel_truncation_cap():
    bump = gevrey_bump(1.0)
    with pytest.raises(ValueError, match="cap"):
        build_kernel(bump, np.array([0.0]), np.array([0.0, 0.5, 1.0]), 41)


def test_truncation_difference_bounded_by_tail():
    bump = gevrey_bump(1.0)
    taus = np.linspace(0.0, 1.0, 257)
    k24 = build_kernel(bump, np.array([1.0]), taus, 24)
    k28 = build_kernel(bump, np.array([1.0]), taus, 28)
    mid = len(taus) // 2
    diff = abs(k24.values[0, mid] - k28.values[0, mid])
    sup_25 = np.abs(k28.deriv_table[:, 25]).max()
    bound = sup_25 * 2.0**50 / math.factorial(50)
    assert diff <= bound


def test_residual_matches_telescoping_tail():
    bump = gevrey_bump(1.0)
    taus = np.linspace(0.0, 1.0, 257)
    kernel = build_kernel(bump, np.linspace(-1, 1, 65), taus, 24)
    report = kernel_residual(kernel)
    assert report.tail_match_error <= 1e-8 * max(report.max_residual, 1.0)


def test_residual_drops_with_truncation_order():
    bump = gevrey_bump(1.0)
    taus = np.linspace(0.0, 1.0, 257)
    t_nodes = np.linspace(-1, 1, 33)
    r24 = kernel_residual(build_kernel(bump, t_nodes, taus, 24)).max_residual
    r28 = kernel_residual(build_kernel(bump, t_nodes, taus, 28)).max_residual
    assert r24 / r28 >= 10.0


def test_control_trace_endpoints_zero_and_finite():
    bump = gevrey_bump(1.0)
    taus = np.linspace(0.0, 1.0, 129)
    kernel = build_kernel(bump, np.linspace(-1, 1, 17), taus, 24)
    trace = control_trace(kernel)
    assert trace[0] == 0.0 and trace[-1] == 0.0
    assert np.isfinite(np.abs(trace)).all()
    assert np.abs(trace).max() > 0


@settings(max_examples=40, deadline=None)
@given(st.integers(100, 900), st.integers(0, 25),
       st.sampled_from([1.0, 2.0**-10, 0.5, 3.0, 1000.0]))
def test_derivative_table_matches_exact_recurrence(milli_tau, k_max, horizon):
    # random tau/T on the span of the fixed-tau test, with its tolerance; within
    # about 0.065 T of the support ends the contour sum misses even that floor
    # (its values there are below 1e-17 and never reach the kernel's scale)
    bump = gevrey_bump(horizon)
    tau = Fraction(horizon) * Fraction(milli_tau, 1000)
    # the orders 0..k_max a truncation reads
    table = derivative_table(bump, np.array([float(tau)]))[0, : k_max + 1]
    exact = bump_derivatives_exact(bump, tau, k_max)
    floor = cauchy_noise_floor(bump, float(tau), k_max)
    assert np.all(np.abs(table - exact) <= 1e-8 * np.abs(exact) + floor)


@pytest.mark.parametrize("tau", [Fraction(1, 10), Fraction(3, 10), Fraction(1, 2),
                                 Fraction(9, 10)])
def test_cauchy_matches_exact_recurrence_at_the_shared_order(tau):
    # every order of the one table the kernel and transform stages read
    bump = gevrey_bump(1.0)
    k_max = MAX_TRUNCATION + 1
    table = derivative_table(bump, np.array([float(tau)]))[0]
    exact = bump_derivatives_exact(bump, tau, k_max)
    floor = cauchy_noise_floor(bump, float(tau), k_max)
    assert np.all(np.abs(table - exact) <= 1e-8 * np.abs(exact) + floor)


# Oracles: dense assembly and residual loops over the whole (t, tau) grid.

def dense_kernel_oracle(kernel):
    fac = _even_power_factors(kernel.t_nodes, kernel.k_trunc)
    powers = 1j ** np.arange(kernel.k_trunc + 1)
    values = np.zeros((len(kernel.t_nodes), len(kernel.tau_nodes)), dtype=complex)
    for k in range(kernel.k_trunc + 1):
        values += np.outer(powers[k] * fac[k], kernel.deriv_table[:, k])
    return values


def residual_oracle(kernel):
    kt = kernel.k_trunc
    table = kernel.deriv_table
    fac = _even_power_factors(kernel.t_nodes, kt)
    powers = 1j ** np.arange(kt + 2)
    values = dense_kernel_oracle(kernel)
    nt, ntau = values.shape
    dtau_series = np.zeros((nt, ntau), dtype=complex)
    for k in range(kt + 1):
        dtau_series += np.outer(powers[k] * fac[k], table[:, k + 1])
    dtt_series = np.zeros((nt, ntau), dtype=complex)
    for k in range(1, kt + 1):
        dtt_series += np.outer(powers[k] * fac[k - 1], table[:, k])
    residual = 1j * dtau_series - dtt_series
    tail = np.outer(powers[kt + 1] * fac[kt], table[:, kt + 1])
    return (float(np.abs(residual).max()), float(np.abs(values).max()),
            float(np.abs(residual - tail).max()))


# t grids by id: the row-block edges on [-1, 1], and one off-grid span that
# does not end at t = 1
_T_GRIDS = {str(nt): np.linspace(-1, 1, nt)
            for nt in (1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 201, 2 * ROW_BLOCK + 1)}
_T_GRIDS["off-grid"] = np.linspace(-0.95, 0.9, ROW_BLOCK + 7)


@pytest.mark.parametrize("t_nodes", _T_GRIDS.values(), ids=_T_GRIDS.keys())
def test_kernel_rows_bit_identical_to_dense_assembly(t_nodes):
    # the last term of each truncation covers every residue of K mod 4
    bump = gevrey_bump(1.0)
    taus = np.linspace(0.0, 1.0, 257)
    for k_trunc in (0, 1, 2, 3, 24, 40):
        kernel = build_kernel(bump, t_nodes, taus, k_trunc)
        oracle = dense_kernel_oracle(kernel)
        assert np.array_equal(kernel.values, oracle)
        bounds = row_blocks(len(t_nodes))
        assert [start for start, _ in bounds[1:]] == [stop for _, stop in bounds[:-1]]
        assert bounds[0][0] == 0 and bounds[-1][1] == len(t_nodes)
        assert all(stop - start > 1 for start, stop in bounds) or len(t_nodes) == 1
        blocks = [kernel.sub_grid(slice(start, stop)) for start, stop in bounds]
        assert np.array_equal(np.concatenate(blocks), oracle)
        report = kernel_residual(kernel)
        assert (report.max_residual, report.max_kernel,
                report.tail_match_error) == residual_oracle(kernel)


def broadcast_series_oracle(t, table, k_trunc):
    """The evaluator's former loop: each term a broadcast product of the signed
    factor row with the table column, summed in k order into the two parts."""
    fac = _even_power_factors(t, k_trunc)
    shape = (fac.shape[1], table.shape[0])
    parts, term = np.zeros((2, *shape)), np.empty(shape)
    columns = np.ascontiguousarray(table[:, : k_trunc + 1].T)
    for k in range(k_trunc + 1):
        sign = -1.0 if k % 4 >= 2 else 1.0
        parts[k % 2] += np.multiply(sign * fac[k, :, None], columns[k], out=term)
    values = np.empty(shape, dtype=complex)
    values.real, values.imag = parts
    return values


def evaluate(t, table, k_trunc):
    """The evaluator on t and the table's orders 0..k_trunc, its operands built as given."""
    return _evaluate(_even_power_factors(t, k_trunc), table[:, : k_trunc + 1].T)


def assert_same_bits(got, oracle):
    assert np.array_equal(got, oracle)
    assert np.array_equal(np.signbit(got.view(float)), np.signbit(oracle.view(float)))


# The evaluator's einsum must add each term's product into the running sum
# in ascending k, as the loop does.  A platform whose einsum fuses the
# multiply and the add (FMA), or sums a long k axis in SIMD partial sums,
# fails these tests; that is a change of bits, not a tolerance to widen.

def test_evaluate_bit_identical_to_broadcast_loop():
    # the table's zero rows near the tau ends give signed zeros in every part;
    # narrow tau selections leave einsum few or no output columns, where it
    # could choose the order axis as its inner loop; t = 1.0 is the
    # control_trace row, and the truncations cover every residue of k_trunc
    # mod 4 up to the cap
    table = derivative_table(gevrey_bump(1.0), np.linspace(0.0, 1.0, 257))
    assert np.any(table == 0.0)
    t_grids = [1.0, *(np.linspace(-1, 1, nt) for nt in (1, ROW_BLOCK - 1, ROW_BLOCK,
                                                        ROW_BLOCK + 1, 201))]
    for rows in (table, table[[5]], table[[0, -1]], table[:3]):
        for t in t_grids:
            for k_trunc in range(-1, MAX_TRUNCATION + 1):
                assert_same_bits(evaluate(t, rows, k_trunc),
                                 broadcast_series_oracle(t, rows, k_trunc))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2 * ROW_BLOCK + 1), st.integers(1, 40), st.integers(-1, MAX_TRUNCATION),
       st.integers(0, 2**32 - 1))
def test_evaluate_bit_identical_to_broadcast_loop_on_random_tables(nt, ntau, k_trunc, seed):
    # entries of both signs spread over 1e-20..1e4, some exact zeros, at
    # random t in [-1, 1]
    rng = np.random.default_rng(seed)
    table = rng.choice([-1.0, 0.0, 1.0], size=(ntau, k_trunc + 1), p=[0.45, 0.1, 0.45])
    table *= 10.0 ** rng.uniform(-20.0, 4.0, size=table.shape)
    t = rng.uniform(-1.0, 1.0, size=nt)
    assert_same_bits(evaluate(t, table, k_trunc), broadcast_series_oracle(t, table, k_trunc))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_table_raises_from_every_evaluation(bad):
    bump = gevrey_bump(1.0)
    kernel = build_kernel(bump, np.linspace(-1, 1, 9), np.linspace(0.0, 1.0, 33), 6)
    kernel.deriv_table[16, 3] = bad
    with pytest.raises(FloatingPointError, match="non-finite"):
        evaluate(kernel.t_nodes, kernel.deriv_table, kernel.k_trunc)
    with pytest.raises(FloatingPointError, match="non-finite"):
        kernel.sub_grid(slice(2, 5))
    with pytest.raises(FloatingPointError, match="non-finite"):
        kernel_residual(kernel)


@pytest.mark.parametrize("t_index, tau_index", [
    (slice(None), [0, -1]),
    (slice(0, 1), slice(None)),
    (slice(None, None, 4), slice(None, None, 8)),
    ([3, 0, 200], [256, 1, 128]),
])
def test_kernel_sub_grid_bit_identical_to_values(t_index, tau_index):
    bump = gevrey_bump(1.0)
    kernel = build_kernel(bump, np.linspace(-1, 1, 201), np.linspace(0.0, 1.0, 257), 24)
    expected = kernel.values[t_index][:, tau_index]
    assert np.array_equal(kernel.sub_grid(t_index, tau_index), expected)


def test_control_trace_off_grid_matches_on_grid():
    bump = gevrey_bump(1.0)
    taus = np.linspace(0.0, 1.0, 129)
    on_grid = build_kernel(bump, np.linspace(-1, 1, 17), taus, 24)
    off_grid = build_kernel(bump, np.linspace(-1, 0.9, 17), taus, 24)
    assert on_grid.t_nodes[-1] == 1.0 and 1.0 not in off_grid.t_nodes
    assert np.array_equal(control_trace(on_grid), on_grid.values[-1])
    assert np.array_equal(control_trace(off_grid), control_trace(on_grid))


# Contour samples: derivative_table evaluates the bump in the tau row blocks of
# row_blocks, of up to ROW_BLOCK + 1 rows.  numpy computes z * (T - z) as
# (T - z) z for arrays of 256 KiB and more (it swaps the operands to reuse the
# temporary) and as z (T - z) below, and the two complex products differ in
# last bits, so eval_complex fixes the order and these tests pin it against
# the whole-array formula.  Each block is then contracted with the Fourier
# basis in one product per range of orders; the table is pinned against the
# products over all interior rows, on one BLAS thread and on the process's
# default count, so a BLAS whose bits for a row depend on the product's row
# count fails here.

def contour(bump, taus):
    """The interior rows, radii, angles and contour nodes that derivative_table
    samples on taus."""
    m = 256
    r = 0.5 * np.minimum(taus, bump.horizon - taus)
    interior = r >= MIN_CONTOUR_RADIUS * bump.horizon
    theta = 2.0 * np.pi * np.arange(m) / m
    z = taus[interior, None] + r[interior, None] * np.exp(1j * theta)[None, :]
    return interior, r, theta, z


def whole_array_samples(bump, z):
    s = z / bump.horizon
    return np.exp(C_NORM - np.multiply(1.0 - s, s) ** -2.0)


@pytest.mark.parametrize("block", [1, 59, ROW_BLOCK, ROW_BLOCK + 1])
def test_blocked_contour_samples_equal_the_whole_array_formula(block):
    lab = validate_config(LabConfig(), "kernel")
    z = contour(lab.bump(), lab.tau_grid.times)[-1]
    assert z.nbytes >= 256 * 1024 > z[:59].nbytes
    blocked = np.concatenate([lab.bump().eval_complex(z[start:start + block])
                              for start in range(0, len(z), block)])
    assert np.array_equal(blocked, whole_array_samples(lab.bump(), z))


# tau steps with 66-69 interior rows (last blocks of 2-5 rows), 129-131 (a
# one-row remainder joined to the block before it, then 2 and 3 rows), the
# default 1024 steps (1019 rows) and 4097 steps (4080 rows)
@pytest.mark.parametrize("blas", [one_blas_thread, contextlib.nullcontext],
                         ids=["one_blas_thread", "default_blas_threads"])
@pytest.mark.parametrize("k_max", [5, 25, 33, 41])
@pytest.mark.parametrize("tau_steps", [67, 68, 69, 70, 130, 131, 132, 1024, 4097])
@pytest.mark.parametrize("horizon", [0.7, 1.0, 3.0, 1000.0])
def test_default_table_equals_the_whole_array_formula(horizon, tau_steps, k_max, blas):
    # the orders 0..k_max a truncation reads have the bits of the products over all
    # interior rows that hold them, whatever order it reads up to: orders 0..33 come
    # from one product of width 34 and orders 34..41 from one of width 8
    bump, taus = gevrey_bump(horizon), TimeGrid(horizon, tau_steps).times
    interior, r, theta, z = contour(bump, taus)
    ranges = [ks for ks in (np.arange(34), np.arange(34, MAX_TRUNCATION + 2)) if ks[0] <= k_max]
    ks = np.concatenate(ranges)
    fact = np.cumprod(np.concatenate(([1.0], np.arange(1.0, len(ks)))))
    expected = np.zeros((len(taus), len(ks)))
    with blas():
        avg = np.hstack([whole_array_samples(bump, z) @ np.exp(-1j * np.outer(theta, orders))
                         for orders in ranges]) / len(theta)
        table = derivative_table(bump, taus)
    expected[interior] = avg.real * fact[None, :] / r[interior, None] ** ks[None, :]
    assert table.shape == (len(taus), MAX_TRUNCATION + 2)
    assert np.array_equal(table[:, : k_max + 1], expected[:, : k_max + 1])
