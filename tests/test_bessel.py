import numpy as np
import pytest
from scipy.special import jv

from hardylab.bessel import bessel_j, bessel_j_derivative, bessel_zeros, zero_count_bound


def test_half_order_closed_form():
    # J_{1/2}(x) = sqrt(2/(pi x)) sin x
    x = 1.0
    assert bessel_j(0.5, x) == pytest.approx(np.sqrt(2 / (np.pi * x)) * np.sin(x), abs=1e-14)


def test_half_order_zeros_are_multiples_of_pi():
    zeros = bessel_zeros(0.5, 3)
    assert np.allclose(zeros, [np.pi, 2 * np.pi, 3 * np.pi], atol=1e-12)


def test_first_zero_of_j0():
    (z,) = bessel_zeros(0.0, 1)
    assert z == pytest.approx(2.404825557695773, abs=1e-11)


@pytest.mark.parametrize("nu", [0.0, 0.25, 0.5, 1.0, 2.0])
def test_zero_residuals_below_tolerance(nu):
    zeros = bessel_zeros(nu, 4)
    assert all(abs(bessel_j(nu, z)) <= 1e-12 for z in zeros)
    assert np.all(np.diff(zeros) > 0)


def test_matches_scipy_over_range():
    xs = np.linspace(0.2, 59.5, 113)
    for nu in (0.0, 0.25, 0.5, 1.0, 1.75, 2.0):
        mine = np.array([bessel_j(nu, x) for x in xs])
        ref = jv(nu, xs)
        assert np.abs(mine - ref).max() < 1e-12


def test_derivative_matches_scipy():
    from scipy.special import jvp

    for nu, x in [(0.25, 3.0), (0.5, 10.0), (1.0, 25.0)]:
        assert bessel_j_derivative(nu, x) == pytest.approx(jvp(nu, x), abs=1e-11)


def test_count_exceeding_bracketing_range_rejected():
    with pytest.raises(ValueError, match="zeros"):
        bessel_zeros(0.5, 25)  # 25th zero = 25 pi > 60


def test_domain_validation():
    with pytest.raises(ValueError):
        bessel_j(-0.5, 1.0)
    with pytest.raises(ValueError):
        bessel_j(5.0, 1.0)
    with pytest.raises(ValueError):
        bessel_j(0.5, 0.0)
    with pytest.raises(ValueError):
        bessel_j(0.5, 61.0)


@pytest.mark.parametrize("nu", [0.0, 0.3, 0.5, 0.675, 1.7, 2.7, 3.0])
def test_zero_count_bound_is_found_and_tight(nu):
    k = zero_count_bound(nu)
    assert len(bessel_zeros(nu, k)) == k
    # sign changes of scipy's J_nu below 60: the bound misses at most one
    x = np.arange(0.01, 60.0, 0.005)
    true_count = int(np.count_nonzero(np.diff(np.sign(jv(nu, x)))))
    assert true_count - 1 <= k <= true_count
