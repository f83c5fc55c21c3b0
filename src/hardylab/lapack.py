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
library, or "scipy.linalg <version>" where scipy does.  one_blas_thread()
pins to one thread the OpenBLAS reached through the same handle and, where
scipy runs the eigensolves, also the one scipy's LAPACK extension reaches.
"""

import contextlib
import ctypes
import operator
import os
from pathlib import Path

import numpy as np

_INT = ctypes.POINTER(ctypes.c_int64)
_DOUBLE = ctypes.POINTER(ctypes.c_double)
_ARRAY = ctypes.c_void_p   # the address of a contiguous float64 or int64 array

# the (getter, setter) thread-count symbol pairs of the OpenBLAS that numpy's
# wheels ship, of scipy's and of a system OpenBLAS
_THREAD_SYMBOLS = [(f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
                   for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", "")]


class _DlInfo(ctypes.Structure):
    _fields_ = [("dli_fname", ctypes.c_char_p), ("dli_fbase", ctypes.c_void_p),
                ("dli_sname", ctypes.c_char_p), ("dli_saddr", ctypes.c_void_p)]


def _file_name(function) -> str:
    """The file name of the library that defines a ctypes function."""
    info, dladdr = _DlInfo(), ctypes.CDLL(None).dladdr
    dladdr.argtypes, dladdr.restype = [ctypes.c_void_p, ctypes.POINTER(_DlInfo)], ctypes.c_int
    if not dladdr(ctypes.cast(function, ctypes.c_void_p), ctypes.byref(info)):
        raise OSError(f"dladdr names no library for {function.__name__}")
    return Path(os.fsdecode(info.dli_fname)).name


def _numpy_lapack(lib: ctypes.CDLL):
    """(dstebz, dstein, library file name) from the LAPACK that numpy's handle
    lib reaches; OSError or AttributeError where they cannot be reached."""
    stebz, stein = lib.scipy_dstebz_64_, lib.scipy_dstein_64_
    # RANGE, ORDER, N, VL, VU, IL, IU, ABSTOL, D, E, M, NSPLIT, W, IBLOCK,
    # ISPLIT, WORK, IWORK, INFO, then the lengths of the two characters
    stebz.argtypes = [ctypes.c_char_p, ctypes.c_char_p, _INT, _DOUBLE, _DOUBLE, _INT, _INT,
                      _DOUBLE, *[_ARRAY] * 2, _INT, _INT, *[_ARRAY] * 5, _INT,
                      ctypes.c_size_t, ctypes.c_size_t]
    # N, D, E, M, W, IBLOCK, ISPLIT, Z, LDZ, WORK, IWORK, IFAIL, INFO
    stein.argtypes = [_INT, *[_ARRAY] * 2, _INT, *[_ARRAY] * 4, _INT, *[_ARRAY] * 3, _INT]
    stebz.restype = stein.restype = None
    return stebz, stein, _file_name(stebz)


def _openblas(lib: ctypes.CDLL) -> dict:
    """{file name: (thread-count getter, setter)} of the OpenBLAS lib reaches, if any."""
    for get_name, set_name in _THREAD_SYMBOLS:
        if hasattr(lib, get_name) and hasattr(lib, set_name):
            getter, setter = getattr(lib, get_name), getattr(lib, set_name)
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter.argtypes, setter.restype = [ctypes.c_int], None
            return {_file_name(getter): (getter, setter)}
    return {}


_BLAS = {}   # the thread controls of each OpenBLAS the handles below reach, by file name
try:
    _lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    _BLAS.update(_openblas(_lib))
    _STEBZ, _STEIN, LIBRARY = _numpy_lapack(_lib)
    _scipy_eigh_tridiagonal = None
except (OSError, AttributeError):
    import scipy
    from scipy.linalg import _flapack
    from scipy.linalg import eigh_tridiagonal as _scipy_eigh_tridiagonal
    LIBRARY = f"scipy.linalg {scipy.__version__}"
    with contextlib.suppress(OSError):
        _BLAS.update(_openblas(ctypes.CDLL(_flapack.__file__)))


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with the OpenBLAS this module computes with on one thread;
    yield their file names, and restore the previous counts on exit.  More
    threads only busy-wait on a second core for the lab's small products, and
    their split reductions change last bits with the core count."""
    previous = [getter() for getter, _ in _BLAS.values()]
    try:
        for _, setter in _BLAS.values():
            setter(1)
        yield list(_BLAS)
    finally:
        for (_, setter), count in zip(_BLAS.values(), previous):
            setter(count)


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
