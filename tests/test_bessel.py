import mpmath
import numpy as np
import pytest
from scipy.special import jv, jvp

from hardylab.bessel import bessel_zeros


def mpmath_zeros(nu, ks):
    with mpmath.workdps(25):
        return np.array([float(mpmath.besseljzero(mpmath.mpf(nu), k)) for k in ks])


def sixty_bisection_zeros(nu, count):
    """An independent finder on scipy's J_nu: sign changes on a 0.05 scan of
    (0, 60], 60 bisections of every bracket, two Newton steps."""
    x = 0.05 * np.arange(1, 1201)
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


@pytest.mark.parametrize("nu", [0.0, 0.01, 0.25, 0.5, 0.675, 1.0, 1.7, 2.3, 3.0])
def test_zeros_match_mpmath(nu):
    # every count up to 20: the row rule sizes the matrix from the count
    ref = mpmath_zeros(nu, range(1, 21))
    for count in range(1, 21):
        np.testing.assert_allclose(bessel_zeros(nu, count), ref[:count], rtol=1e-13, atol=0)


@pytest.mark.parametrize("nu", [0.0, 0.01, 0.2, 0.4, 0.5, 0.6, 0.675, 1.0, 1.5, 2.0, 2.5, 3.0,
                                10.0])
def test_row_rule_reach_bounds_the_last_zero(nu):
    # j_{nu,k} < (k + nu/2) pi: below k pi = j_{1/2,k} for nu < 1/2, below
    # (k + nu/2 - 1/4) pi for nu >= 1/2 (McMahon, Sturm comparison)
    with mpmath.workdps(25):
        for k in [*range(1, 21), 100, 800]:
            assert mpmath.besseljzero(mpmath.mpf(nu), k) < (k + mpmath.mpf(nu) / 2) * mpmath.pi


@pytest.mark.parametrize("nu", [0.0, 0.25, 0.5, 0.675, 1.0, 1.7, 2.3, 3.0])
def test_zeros_agree_with_sixty_bisection_finder(nu):
    reference = sixty_bisection_zeros(nu, 100)   # the 17 to 19 zeros below 60
    for count in range(1, len(reference) + 1):
        zeros, ref = bessel_zeros(nu, count), reference[:count]
        assert len(zeros) == count
        assert np.all(np.abs(zeros - ref) <= 2 * np.spacing(ref)), count


@pytest.mark.parametrize("nu", [0.01, 0.5])
def test_last_of_800_zeros_matches_mpmath(nu):
    # ceil((count + nu/2) pi) + 40 rows left 1.9e-10 here at (0.01, 400) and 4.5e-9
    # at (0.5, 800); an absolute bisection tolerance leaves 1e-13
    zeros = bessel_zeros(nu, 800)
    assert len(zeros) == 800 and np.all(np.diff(zeros) > 0)
    np.testing.assert_allclose(zeros[[399, 799]], mpmath_zeros(nu, [400, 800]),
                               rtol=1e-14, atol=0)


def test_domain_validation():
    for nu in (-0.5, -1e-12, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="order"):
            bessel_zeros(nu, 1)
    with pytest.raises(ValueError, match="count"):
        bessel_zeros(0.5, 0)
