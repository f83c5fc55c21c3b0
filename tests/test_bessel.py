import mpmath
import numpy as np
import pytest
from scipy.special import jv

from hardylab.bessel import bessel_zeros, zero_count_bound


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
