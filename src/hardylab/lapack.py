"""Selected eigenpairs of a real symmetric tridiagonal matrix, by index.

Bisection (LAPACK dstebz) and, for the vectors, inverse iteration (dstein):
the sequence scipy.linalg.eigh_tridiagonal runs for select="i", with its
input checks, so the results are the same arrays.  The routines come from
the LAPACK that numpy's own linalg extension links (the ILP64 scipy-openblas
of the numpy wheels), reached through that extension's handle, whose dlsym
also searches the libraries it links.  Where they cannot be reached (on
Windows, whose GetProcAddress searches no dependent DLL, and with numpy
built on Accelerate) this module runs scipy.linalg.eigh_tridiagonal itself.

LIBRARY names what computes the eigenpairs: the file name of the LAPACK
library, or "scipy.linalg <version>" where scipy does.
"""

import ctypes
import operator
import os
from pathlib import Path

import numpy as np

_INT = ctypes.POINTER(ctypes.c_int64)
_DOUBLE = ctypes.POINTER(ctypes.c_double)
_ARRAY = ctypes.c_void_p   # the address of a contiguous float64 or int64 array


class _DlInfo(ctypes.Structure):
    _fields_ = [("dli_fname", ctypes.c_char_p), ("dli_fbase", ctypes.c_void_p),
                ("dli_sname", ctypes.c_char_p), ("dli_saddr", ctypes.c_void_p)]


def _numpy_lapack():
    """(dstebz, dstein, library file name) from the LAPACK numpy links;
    OSError or AttributeError where they cannot be reached."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    stebz, stein = lib.scipy_dstebz_64_, lib.scipy_dstein_64_
    # RANGE, ORDER, N, VL, VU, IL, IU, ABSTOL, D, E, M, NSPLIT, W, IBLOCK,
    # ISPLIT, WORK, IWORK, INFO, then the lengths of the two characters
    stebz.argtypes = [ctypes.c_char_p, ctypes.c_char_p, _INT, _DOUBLE, _DOUBLE, _INT, _INT,
                      _DOUBLE, *[_ARRAY] * 2, _INT, _INT, *[_ARRAY] * 5, _INT,
                      ctypes.c_size_t, ctypes.c_size_t]
    # N, D, E, M, W, IBLOCK, ISPLIT, Z, LDZ, WORK, IWORK, IFAIL, INFO
    stein.argtypes = [_INT, *[_ARRAY] * 2, _INT, *[_ARRAY] * 4, _INT, *[_ARRAY] * 3, _INT]
    stebz.restype = stein.restype = None
    info = _DlInfo()
    dladdr = ctypes.CDLL(None).dladdr
    dladdr.argtypes, dladdr.restype = [ctypes.c_void_p, ctypes.POINTER(_DlInfo)], ctypes.c_int
    if not dladdr(ctypes.cast(stebz, ctypes.c_void_p), ctypes.byref(info)):
        raise OSError("dladdr names no library for scipy_dstebz_64_")
    return stebz, stein, Path(os.fsdecode(info.dli_fname)).name


try:
    _STEBZ, _STEIN, LIBRARY = _numpy_lapack()
    _scipy_eigh_tridiagonal = None
except (OSError, AttributeError):
    import scipy
    from scipy.linalg import eigh_tridiagonal as _scipy_eigh_tridiagonal
    LIBRARY = f"scipy.linalg {scipy.__version__}"


def _check_info(info: ctypes.c_int64, routine: str) -> None:
    if info.value:
        raise np.linalg.LinAlgError(f"{routine} (eigh_tridiagonal) failed: "
                                    f"LAPACK info={info.value}")


def eigh_tridiagonal(d, e, *, select_range: tuple[int, int], eigvals_only: bool = False,
                     tol: float = 0.0):
    """Eigenvalues w[lo..hi] (ascending, 0-based indices select_range = (lo, hi))
    of the symmetric tridiagonal matrix with diagonal d and off-diagonal e, and
    unless eigvals_only the Euclidean-normalized eigenvectors as the columns of
    v; returns w or (w, v).  Each eigenvalue is bisected to an interval of
    width tol, or of eps |T|_1 for tol <= 0.

    ValueError for a d or e that is not 1-D and finite, an e not one shorter
    than d, or a select_range outside 0 <= lo <= hi < len(d); TypeError for
    a complex d or e, or a select_range of non-integers; np.linalg.LinAlgError
    (also a ValueError) for a nonzero LAPACK info.
    """
    if _scipy_eigh_tridiagonal is not None:
        return _scipy_eigh_tridiagonal(d, e, eigvals_only=eigvals_only, select="i",
                                       select_range=select_range, tol=tol)
    if np.iscomplexobj(d) or np.iscomplexobj(e):
        raise TypeError("only real arrays are supported")
    d = np.ascontiguousarray(d, dtype=np.float64)
    e = np.ascontiguousarray(e, dtype=np.float64)
    if d.ndim != 1 or e.ndim != 1:
        raise ValueError("expected a 1-D array")
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ValueError("array must not contain infs or NaNs")
    n = d.size
    if e.size != n - 1:
        raise ValueError(f"d ({n}) must have one more element than e ({e.size})")
    lo, hi = map(operator.index, select_range)
    if not 0 <= lo <= hi < n:
        raise ValueError(f"select_range {select_range} out of bounds for {n} eigenvalues")
    # every array passed by address stays referenced until the call returns;
    # work holds dstebz's 4n and dstein's 5n doubles, iwork dstebz's 3n
    # integers and then dstein's n followed by its IFAIL (m <= n)
    m, nsplit, info = ctypes.c_int64(), ctypes.c_int64(), ctypes.c_int64()
    w, work = np.empty(n), np.empty(5 * n)
    iblock, isplit, iwork = (np.empty(k * n, dtype=np.int64) for k in (1, 1, 3))
    _STEBZ(b"I", b"E" if eigvals_only else b"B", ctypes.byref(ctypes.c_int64(n)),
           ctypes.byref(ctypes.c_double(0.0)), ctypes.byref(ctypes.c_double(1.0)),
           ctypes.byref(ctypes.c_int64(lo + 1)), ctypes.byref(ctypes.c_int64(hi + 1)),
           ctypes.byref(ctypes.c_double(float(tol))), d.ctypes.data, e.ctypes.data,
           ctypes.byref(m), ctypes.byref(nsplit), w.ctypes.data, iblock.ctypes.data,
           isplit.ctypes.data, work.ctypes.data, iwork.ctypes.data, ctypes.byref(info), 1, 1)
    _check_info(info, "dstebz")
    w = w[:m.value]
    if eigvals_only:
        return w
    v = np.empty((n, m.value), order="F")
    _STEIN(ctypes.byref(ctypes.c_int64(n)), d.ctypes.data, e.ctypes.data, ctypes.byref(m),
           w.ctypes.data, iblock.ctypes.data, isplit.ctypes.data, v.ctypes.data,
           ctypes.byref(ctypes.c_int64(n)), work.ctypes.data, iwork.ctypes.data,
           iwork[n:].ctypes.data, ctypes.byref(info))
    _check_info(info, "dstein")
    order = np.argsort(w)
    return w[order], v[:, order]
