import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab import lapack

TINY = np.finfo(float).tiny


def both(d, e, select_range, eigvals_only, tol):
    """This module's result and scipy.linalg.eigh_tridiagonal's, as tuples."""
    ours = lapack.eigh_tridiagonal(d, e, select_range=select_range,
                                   eigvals_only=eigvals_only, tol=tol)
    ref = scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=select_range,
                                        eigvals_only=eigvals_only, tol=tol)
    return ((ours,), (ref,)) if eigvals_only else (ours, ref)


def assert_same_arrays(ours, ref):
    for a, b in zip(ours, ref, strict=True):
        assert a.dtype == b.dtype and a.strides == b.strides
        assert np.array_equal(a, b)


def bessel_recurrence(nu, count):
    """The matrix and index range bessel_zeros solves for `count` zeros of J_nu."""
    reach = (count + 0.5 * nu) * np.pi
    rows = int(np.ceil(reach + 8.0 * reach ** (1 / 3))) + 10
    k = nu + np.arange(1, rows)
    return np.zeros(rows), 1.0 / np.sqrt(k * (k + 1)), (rows - count, rows - 1)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 400), seed=st.integers(0, 2**32 - 1), picks=st.tuples(
    st.floats(0, 1, exclude_max=True), st.floats(0, 1, exclude_max=True)),
    split=st.sampled_from([0.0, 0.1]), eigvals_only=st.booleans(),
    tol=st.sampled_from([0.0, TINY]))
def test_bit_identical_to_scipy(n, seed, picks, split, eigvals_only, tol):
    # split > 0 zeros some off-diagonal entries, so the matrix falls into
    # blocks and the vectors come back from dstein in block order
    rng = np.random.default_rng(seed)
    d = rng.standard_normal(n)
    e = rng.standard_normal(n - 1) * (rng.random(n - 1) >= split)
    lo, hi = sorted(int(p * n) for p in picks)
    assert_same_arrays(*both(d, e, (lo, hi), eigvals_only, tol))


@pytest.mark.parametrize("nu", [0.01, 0.5])
def test_bit_identical_to_scipy_on_800_bessel_zeros(nu):
    d, e, select_range = bessel_recurrence(nu, 800)
    assert_same_arrays(*both(d, e, select_range, True, TINY))


def test_one_by_one_matrix():
    w, v = lapack.eigh_tridiagonal([2.5], [], select_range=(0, 0))
    assert w.tolist() == [2.5] and v.tolist() == [[1.0]]


@pytest.mark.parametrize("d, e, select_range, match", [
    ([1.0, np.nan, 2.0], [1.0, 1.0], (0, 0), "infs or NaNs"),
    ([1.0, 2.0, 3.0], [np.inf, 1.0], (0, 0), "infs or NaNs"),
    ([1.0, 2.0, 3.0], [1.0], (0, 0), "one more element"),
    ([1.0, 2.0], [1.0, 1.0], (0, 0), "one more element"),
    ([[1.0, 2.0]], [1.0], (0, 0), "1-D"),
    ([1.0, 2.0, 3.0], [1.0, 1.0], (0, 3), "out of bounds"),
    ([1.0, 2.0, 3.0], [1.0, 1.0], (-1, 0), "out of bounds"),
    ([1.0, 2.0, 3.0], [1.0, 1.0], (2, 1), "out of bounds"),
])
def test_invalid_input_raises_value_error(d, e, select_range, match):
    with pytest.raises(ValueError, match=match):
        lapack.eigh_tridiagonal(d, e, select_range=select_range)


@pytest.mark.parametrize("d, e, select_range", [
    ([1.0, 2.0j], [1.0], (0, 0)),
    ([1.0, 2.0], [1.0 + 0j], (0, 0)),
    ([1.0, 2.0], [1.0], (0.0, 1.0)),
])
def test_complex_input_or_non_integer_range_raises_type_error(d, e, select_range):
    with pytest.raises(TypeError):
        lapack.eigh_tridiagonal(d, e, select_range=select_range)


@pytest.mark.parametrize("eigvals_only", [True, False])
def test_nonzero_info_raises_lin_alg_error(eigvals_only):
    # Gershgorin bounds that overflow: dstebz returns INFO = 4, as it does under scipy
    d, e = np.full(20, 1e308), np.full(19, 1e308)
    with pytest.raises(np.linalg.LinAlgError, match="dstebz .* info=4"):
        lapack.eigh_tridiagonal(d, e, select_range=(0, 4), eigvals_only=eigvals_only)
    with pytest.raises(np.linalg.LinAlgError):
        scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(0, 4),
                                      eigvals_only=eigvals_only)


FALLBACK = """
import ctypes, json, sys
import numpy as np

def unreachable(*args, **kwargs):
    raise OSError("no shared library")

ctypes.CDLL = unreachable
from hardylab import lapack

cases = json.loads(sys.argv[1])
out = {}
with lapack.one_blas_thread() as blas:
    for i, (d, e, select_range, eigvals_only, tol) in enumerate(cases):
        r = lapack.eigh_tridiagonal(np.array(d), np.array(e), select_range=select_range,
                                    eigvals_only=eigvals_only, tol=tol)
        for j, a in enumerate((r,) if eigvals_only else r):
            out[f"{i}.{j}"] = a
np.savez(sys.argv[2], **out)
print(json.dumps([lapack.LIBRARY, blas]))
"""


def test_fallback_to_scipy_returns_the_same_arrays(tmp_path):
    rng = np.random.default_rng(7)
    d, e = rng.standard_normal(300), rng.standard_normal(299)
    bd, be, bessel_range = bessel_recurrence(0.5, 16)
    cases = [(d.tolist(), e.tolist(), (3, 40), False, 0.0),
             (d.tolist(), e.tolist(), (0, 299), True, TINY),
             (bd.tolist(), be.tolist(), bessel_range, True, TINY)]
    src = str(Path(lapack.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", FALLBACK, json.dumps(cases),
                           str(tmp_path / "out.npz")], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src})
    # without ctypes no OpenBLAS is reached, and the pinning still runs its body
    library, blas = json.loads(proc.stdout)
    assert library == f"scipy.linalg {scipy.__version__}" and blas == []
    assert lapack.LIBRARY != library   # this process reached numpy's LAPACK
    fallback = np.load(tmp_path / "out.npz")
    for i, (cd, ce, select_range, eigvals_only, tol) in enumerate(cases):
        r = lapack.eigh_tridiagonal(np.array(cd), np.array(ce), select_range=select_range,
                                    eigvals_only=eigvals_only, tol=tol)
        for j, a in enumerate((r,) if eigvals_only else r):
            assert np.array_equal(fallback[f"{i}.{j}"], a)


def test_pins_the_openblas_that_runs_the_eigensolves():
    if lapack._scipy_eigh_tridiagonal is not None:
        pytest.skip("numpy's LAPACK is not reachable")
    (getter, _), = lapack._BLAS.values()
    before = getter()
    with lapack.one_blas_thread() as blas:
        assert blas == [lapack.LIBRARY] and getter() == 1
    assert getter() == before
