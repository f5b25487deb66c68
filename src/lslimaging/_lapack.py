"""The five LAPACK routines the package calls and its BLAS thread limit, on numpy's own library.
They are what numpy.linalg lacks: the operator's n-sized tridiagonal solve (gtsv), Sturm count
(stebz) and spectrum (stevd, eigenvalues only), and the TSVD's blocked QR pair (geqrt, gemqrt);
numpy's eigh solves the dense symmetric eigenproblems, M in rom.lanczos and T in rom.lsl_fields.

numpy's wheels link one OpenBLAS, LAPACK included, into numpy.linalg._umath_linalg,
and every matmul and numpy.linalg call runs on it; binding the routines there keeps
one BLAS and one thread pool in the process, and scipy is never imported. The names
are ILP64, scipy_<name>_64_ (numpy >= 2) or <name>_64_ (numpy 1.2x): every integer
is an int64 passed by reference, and each CHARACTER argument adds a hidden size_t
length at the end. A library without them raises ImportError naming the symbol and
the file, with no other route; a nonzero INFO raises numpy.linalg.LinAlgError.
one_blas_thread holds the library to one thread: on the pipeline's 2001 x m steps, m <= 160,
a second one saves no wall time, spins a core after each call, and changes the roundoff.
"""
from __future__ import annotations

import contextlib
import ctypes
import threading

import numpy as np
import numpy.linalg._umath_linalg

# name: (arguments, INFO included, all by pointer; how many are CHARACTER)
_ROUTINES = {"dgtsv": (8, 0), "dstebz": (18, 2), "dstevd": (11, 1), "dgeqrt": (9, 0), "dgemqrt": (14, 2)}


def _symbol(lib: ctypes.CDLL, path: str, *symbols: str):
    """The first of `symbols` that lib exports; ImportError naming them all and path if none."""
    fn = next((getattr(lib, s) for s in symbols if hasattr(lib, s)), None)
    if fn is None:
        raise ImportError(f"symbol {' or '.join(symbols)} not found in {path}")
    return fn


def _bind(path: str, *names: str):
    """The LAPACK routines `names` of the library at path, as ctypes functions."""
    lib = ctypes.CDLL(path)
    routines = []
    for name in names:
        fn = _symbol(lib, path, f"scipy_{name}_64_", f"{name}_64_")
        args, chars = _ROUTINES[name]
        fn.argtypes, fn.restype = [ctypes.c_void_p] * args + [ctypes.c_size_t] * chars, None
        routines.append(fn)
    return routines


_GTSV, _STEBZ, _STEVD, _GEQRT, _GEMQRT = _bind(numpy.linalg._umath_linalg.__file__, *_ROUTINES)
_F64, _I64 = np.dtype(np.float64), np.dtype(np.int64)
_ONE = ctypes.byref(ctypes.c_int64(1))  # LAPACK only reads it


class _OneThread(contextlib.ContextDecorator):
    """OpenBLAS on one thread inside: a with-block, or a decorated function. get() and set(n)
    are OpenBLAS's thread count in the library at path, one count for the whole process, so
    entries from all Python threads share one depth under a lock: the outermost entry saves
    the count and sets 1, and the outermost exit, by return or raise, restores it."""

    def __init__(self, path: str):
        lib = ctypes.CDLL(path)
        self.get, self.set = (_symbol(lib, path, f"scipy_openblas_{op}_num_threads64_", f"openblas_{op}_num_threads64_")
                              for op in ("get", "set"))
        self.set.argtypes = [ctypes.c_int]
        self._lock, self._depth, self._saved = threading.Lock(), 0, 1

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                self._saved = self.get()
                self.set(1)
            self._depth += 1

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                self.set(self._saved)


one_blas_thread = _OneThread(numpy.linalg._umath_linalg.__file__)


def _int(value: int):
    return ctypes.byref(ctypes.c_int64(value))


def _buffer(a: np.ndarray):
    # a pointer that keeps a alive, at a third of a.ctypes' cost; from_buffer raises TypeError
    # unless a.T is writable and C-contiguous, that is, unless a is writable and column-major
    return ctypes.byref(ctypes.c_char.from_buffer(a.T))


def _ptr(a: np.ndarray, dtype=_F64):
    """A pointer to a's data, which must hold `dtype` in column-major order; it keeps a alive."""
    if a.dtype != dtype or not a.flags.f_contiguous:
        raise ValueError(f"LAPACK needs a column-major {dtype} array, got {a.dtype} with strides {a.strides}")
    # from_buffer refuses an empty array, but numpy allocates it a byte: a valid pointer LAPACK never reads
    return _buffer(a) if a.flags.writeable and a.size else a.ctypes.data_as(ctypes.c_void_p)


def _check(name: str, info: ctypes.c_int64) -> None:
    if info.value != 0:
        raise np.linalg.LinAlgError(f"{name} failed (LAPACK info={info.value})")


def dgtsv(dl: np.ndarray, d: np.ndarray, du: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system with sub-, main and superdiagonals dl, d, du for the
    n values b. All four are overwritten, b with the solution, which is returned; the
    checks are inlined for the forward sweep, and _buffer requires writable arrays."""
    n = d.size
    if not (d.shape == b.shape == (n,) and dl.shape == du.shape == (n - 1,)
            and dl.dtype == d.dtype == du.dtype == b.dtype == _F64):
        raise ValueError(f"gtsv needs n-1, n, n-1 and n float64 values, got {dl.shape} {d.shape} {du.shape}")
    size, info = _int(n), ctypes.c_int64()
    _GTSV(size, _ONE, _buffer(dl), _buffer(d), _buffer(du), _buffer(b), size, ctypes.byref(info))
    _check("gtsv", info)
    return b


def dstebz(d: np.ndarray, e: np.ndarray, vl: float, vu: float) -> int:
    """The number of eigenvalues in (vl, vu] of the symmetric tridiagonal matrix with diagonal d
    and off-diagonal e: stebz's count by bisection, at absolute tolerance 0."""
    n = d.size
    if e.shape != (n - 1,):
        raise ValueError(f"stebz needs n-1 off-diagonal values, got {e.shape} for n = {n}")
    count, nsplit, info = ctypes.c_int64(), ctypes.c_int64(), ctypes.c_int64()
    ints = np.empty((n, 5), dtype=_I64, order="F")  # IBLOCK, ISPLIT and the 3n of IWORK
    vl, vu, tol = (ctypes.byref(ctypes.c_double(x)) for x in (vl, vu, 0.0))
    _STEBZ(b"V", b"E", _int(n), vl, vu, _ONE, _ONE, tol, _ptr(d), _ptr(e), ctypes.byref(count),
           ctypes.byref(nsplit), _ptr(np.empty(n)), _ptr(ints[:, 0], _I64), _ptr(ints[:, 1], _I64),
           _ptr(np.empty(4 * n)), _ptr(ints[:, 2:], _I64), ctypes.byref(info), 1, 1)
    _check("stebz", info)
    return count.value


def dstevd(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The eigenvalues (ascending) of the symmetric tridiagonal matrix with diagonal d and
    off-diagonal e: stevd without eigenvectors."""
    n = d.size
    if e.shape != (n - 1,):
        raise ValueError(f"stevd needs n-1 off-diagonal values, got {e.shape} for n = {n}")
    w, e, info = np.array(d, dtype=float), np.array(e, dtype=float), ctypes.c_int64()  # stevd destroys e
    _STEVD(b"N", _int(n), _ptr(w), _ptr(e), _ptr(np.empty(1)), _ONE, _ptr(np.empty(1)), _ONE,
           _ptr(np.empty(1, dtype=_I64), _I64), _ONE, ctypes.byref(info), 1)
    _check("stevd", info)
    return w


def dgeqrt(a: np.ndarray, nb: int) -> np.ndarray:
    """Blocked Householder QR a = Q R of the column-major M x N matrix a, in place: R in its
    upper triangle, the unit lower trapezoidal reflectors V below. Q is the product of one
    block reflector I - V_j T_j V_j^T per block j of nb columns, and the returned
    nb x min(M, N) array holds the upper triangular T_j side by side."""
    m, n = a.shape
    T, info = np.empty((nb, min(m, n)), order="F"), ctypes.c_int64()
    _GEQRT(_int(m), _int(n), _int(nb), _ptr(a), _int(m), _ptr(T), _int(nb), _ptr(np.empty(nb * n)),
           ctypes.byref(info))
    _check("geqrt", info)
    return T


def dgemqrt(V: np.ndarray, T: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Overwrite the vector c with Q c, Q being the factor of dgeqrt's (V, T); returns c."""
    (m, cols), (nb, k) = V.shape, T.shape
    if c.shape != (m,) or cols < k:
        raise ValueError(f"gemqrt: reflectors {V.shape} and T {T.shape} do not fit a vector {c.shape}")
    info = ctypes.c_int64()
    _GEMQRT(b"L", b"N", _int(m), _ONE, _int(k), _int(nb), _ptr(V), _int(m), _ptr(T), _int(nb), _ptr(c), _int(m),
            _ptr(np.empty(nb)), ctypes.byref(info), 1, 1)
    _check("gemqrt", info)
    return c
