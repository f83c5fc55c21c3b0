import mpmath
import numpy as np
import pytest
from scipy.special import jv, jvp

from hardylab import bessel
from hardylab.bessel import (_SCAN_STEP, ZERO_SEARCH_MAX, _zero_bound, bessel_zeros,
                             zero_count_bound)


def sixty_bisection_zeros(nu, count):
    """The finder before its scan stopped at the bound: J_nu on the whole scan
    to ZERO_SEARCH_MAX, 60 bisections of every bracket, two Newton steps."""
    x = _SCAN_STEP * np.arange(1, round(ZERO_SEARCH_MAX / _SCAN_STEP) + 1)
    f = jv(nu, x)
    (starts,) = np.nonzero((f[:-1] == 0.0) | (f[:-1] * f[1:] < 0.0))
    starts = starts[:count]
    lo, hi, flo = x[starts], x[starts + 1], f[starts]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fm = jv(nu, mid)
        left = flo * fm <= 0.0
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
        flo = np.where(left, flo, fm)
    root = 0.5 * (lo + hi)
    for _ in range(2):
        root = root - jv(nu, root) / jvp(nu, root)
    return root


def test_half_order_zeros_are_multiples_of_pi():
    zeros = bessel_zeros(0.5, 3)
    assert np.allclose(zeros, [np.pi, 2 * np.pi, 3 * np.pi], atol=1e-12)


def test_first_zero_of_j0():
    (z,) = bessel_zeros(0.0, 1)
    assert z == pytest.approx(2.404825557695773, abs=1e-11)


@pytest.mark.parametrize("nu", [0.0, 0.25, 0.5, 1.0, 2.0])
def test_zero_residuals_below_tolerance(nu):
    zeros = bessel_zeros(nu, 4)
    assert np.all(np.abs(jv(nu, zeros)) <= 1e-12)
    assert np.all(np.diff(zeros) > 0)


@pytest.mark.parametrize("nu", [0.0, 0.25, 0.5, 0.675, 1.0, 1.7, 2.3, 3.0])
def test_zeros_match_mpmath(nu):
    count = zero_count_bound(nu)
    with mpmath.workdps(20):
        ref = np.array([float(mpmath.besseljzero(mpmath.mpf(nu), k))
                        for k in range(1, count + 1)])
    np.testing.assert_allclose(bessel_zeros(nu, count), ref, rtol=1e-13, atol=0)


def test_count_exceeding_bracketing_range_rejected():
    with pytest.raises(ValueError, match="zeros"):
        bessel_zeros(0.5, 25)  # 25th zero = 25 pi > 60


def test_domain_validation():
    for nu in (-0.5, -1e-12, 3.0 + 1e-12, 3.5, 5.0, float("nan")):
        with pytest.raises(ValueError, match="order"):
            bessel_zeros(nu, 1)
    with pytest.raises(ValueError, match="count"):
        bessel_zeros(0.5, 0)


@pytest.mark.parametrize("nu", [0.0, 0.3, 0.5, 0.675, 1.7, 2.7, 3.0])
def test_zero_count_bound_is_found_and_tight(nu):
    k = zero_count_bound(nu)
    assert len(bessel_zeros(nu, k)) == k
    # sign changes of scipy's J_nu below 60: the bound misses at most one
    x = np.arange(0.01, 60.0, 0.005)
    true_count = int(np.count_nonzero(np.diff(np.sign(jv(nu, x)))))
    assert true_count - 1 <= k <= true_count


@pytest.mark.parametrize("nu", [0.0, 0.2, 0.4, 0.5, 0.6, 0.675, 1.0, 1.5, 2.0, 2.5, 3.0])
def test_scan_bound_holds_for_every_count_it_serves(nu):
    # bessel_zeros scans one step past _zero_bound(nu, count); for counts
    # above zero_count_bound the bound passes ZERO_SEARCH_MAX and the scan is whole
    with mpmath.workdps(30):
        for k in range(1, zero_count_bound(nu) + 1):
            zero = mpmath.besseljzero(mpmath.mpf(nu), k)
            bound = (k + max(mpmath.mpf(nu), 0.5) / 2 - mpmath.mpf(0.25)) * mpmath.pi
            if nu == 0.5:
                assert abs(zero - bound) <= mpmath.mpf(10) ** -25
            else:
                assert zero < bound
            assert _zero_bound(nu, k) == pytest.approx(float(bound), rel=1e-15)


@pytest.mark.parametrize("nu", [0.0, 0.25, 0.5, 0.675, 1.0, 1.7, 2.3, 3.0])
def test_zeros_agree_with_sixty_bisection_finder(nu):
    for count in range(1, zero_count_bound(nu) + 1):
        old = sixty_bisection_zeros(nu, count)
        new = bessel_zeros(nu, count)
        assert len(new) == count
        assert np.all(np.abs(new - old) <= 2 * np.spacing(old)), count


@pytest.mark.parametrize("nu, count", [(0.0, 1), (0.5, 3), (0.5, 18), (1.7, 8), (3.0, 17)])
def test_scan_stops_one_step_past_the_bound(monkeypatch, nu, count):
    sizes = []

    def counting_jv(order, x):
        sizes.append(np.size(x))
        return jv(order, x)

    monkeypatch.setattr(bessel, "jv", counting_jv)
    zeros = bessel_zeros(nu, count)
    reach = _zero_bound(nu, count)
    assert len(zeros) == count
    # the first call is the scan: it covers the bound and one more step, no more
    assert max(sizes) == sizes[0]
    assert reach + _SCAN_STEP <= sizes[0] * _SCAN_STEP * (1 + 1e-12)
    assert sizes[0] <= reach / _SCAN_STEP + 2
