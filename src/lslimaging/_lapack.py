"""The five LAPACK routines the package calls and its BLAS thread limit, on numpy's own library.
They are what numpy.linalg lacks: the operator's n-sized tridiagonal solve (gtsv), Sturm count
(stebz) and spectrum (stevd, eigenvalues only), and the TSVD's blocked QR pair (geqrt, gemqrt);
numpy's eigh solves the dense symmetric eigenproblems, M in rom.lanczos and T in rom.lsl_fields.

numpy's wheels link one OpenBLAS, LAPACK included, into numpy.linalg._umath_linalg,
and every matmul and numpy.linalg call runs on it; binding the routines there keeps
one BLAS and one thread pool in the process, and scipy is never imported. The names
are ILP64, scipy_<name>_64_ (numpy >= 2) or <name>_64_ (numpy 1.2x); a library without
them raises ImportError naming the symbol and the file, with no other route.

_ROUTINES states each routine's arguments before INFO once, a letter per kind, all by
reference: C a CHARACTER, I an INTEGER (int64), D a DOUBLE PRECISION, R a float64 array
LAPACK only reads, W a float64 array it writes, Z an int64 array it writes. _bind derives
the argtypes from them; _call marshals every call by them, appends INFO and a hidden size_t
length per CHARACTER, and raises numpy.linalg.LinAlgError on a nonzero INFO. An array must
be column-major and of its kind's dtype (ValueError) and writable wherever LAPACK writes it
(TypeError): only an R array, as the kept Born factors, may be read-only; an empty array
passes numpy's own pointer.
one_blas_thread holds the library to one thread where BLAS runs, on rom.lanczos, rom.lsl_fields, imaging._factor
and imaging._solve: on 2001 x m steps, m <= 160, a second one saves no wall time, spins a core, changes the roundoff.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import threading

import numpy as np
import numpy.linalg._umath_linalg

# each routine's arguments before INFO, a letter per kind (see the module docstring)
_ROUTINES = {"dgtsv": "IIWWWWI", "dstebz": "CCIDDIIDRRZZWZZWZ", "dstevd": "CIWWWIWIZI",
             "dgeqrt": "IIIWIWIW", "dgemqrt": "CCIIIIRIRIWIW"}
_F64, _I64 = np.dtype(np.float64), np.dtype(np.int64)
_ADDRESS, _INT, _from_buffer = ctypes.POINTER(ctypes.c_byte), ctypes.POINTER(ctypes.c_int64), ctypes.c_byte.from_buffer


def _array(dtype: np.dtype, written: bool):
    """The array rule of a kind: column-major `dtype`, and writable if LAPACK writes it."""
    def address(a: np.ndarray):
        if a.dtype != dtype or not a.flags.f_contiguous:
            raise ValueError(f"LAPACK needs a column-major {dtype} array, got {a.dtype} with strides {a.strides}")
        if a.size and (written or a.flags.writeable):
            return _from_buffer(a.T)  # keeps a alive, at a third of a.ctypes' cost; TypeError unless writable
        # numpy allocates an empty array a byte: a valid pointer LAPACK never reads
        return a.ctypes.data_as(_ADDRESS)
    return address


# kind: (argtype, what makes an argument of it); LAPACK only reads an INTEGER, so one c_int64 serves a value
_KINDS = {"C": (ctypes.c_char_p, bytes), "I": (_INT, functools.lru_cache(256)(ctypes.c_int64)),
          "D": (ctypes.POINTER(ctypes.c_double), ctypes.c_double), "R": (_ADDRESS, _array(_F64, False)),
          "W": (_ADDRESS, _array(_F64, True)), "Z": (_ADDRESS, _array(_I64, True))}


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
        fn, kinds = _symbol(lib, path, f"scipy_{name}_64_", f"{name}_64_"), _ROUTINES[name]
        argtypes, fn.makers = zip(*(_KINDS[kind] for kind in kinds))
        fn.argtypes = [*argtypes, _INT] + [ctypes.c_size_t] * kinds.count("C")  # INFO, then the hidden lengths
        fn.restype, fn.label, fn.lengths = None, name[1:], (1,) * kinds.count("C")
        routines.append(fn)
    return routines


_GTSV, _STEBZ, _STEVD, _GEQRT, _GEMQRT = _bind(numpy.linalg._umath_linalg.__file__, *_ROUTINES)


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


def _call(routine, *args) -> None:
    """Call a bound routine on its arguments before INFO; LinAlgError on a nonzero INFO."""
    info = ctypes.c_int64()
    routine(*[make(arg) for make, arg in zip(routine.makers, args)], info, *routine.lengths)
    if info.value:
        raise np.linalg.LinAlgError(f"{routine.label} failed (LAPACK info={info.value})")


def dgtsv(dl: np.ndarray, d: np.ndarray, du: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system with sub-, main and superdiagonals dl, d, du for the
    n values b. All four are overwritten, b with the solution, which is returned, so all
    four must be writable; the shape checks are inlined for the forward sweep."""
    n = d.size
    if not (d.shape == b.shape == (n,) and dl.shape == du.shape == (n - 1,)):
        raise ValueError(f"gtsv needs n-1, n, n-1 and n float64 values, got {dl.shape} {d.shape} {du.shape}")
    _call(_GTSV, n, 1, dl, d, du, b, n)
    return b


def dstebz(d: np.ndarray, e: np.ndarray, vl: float, vu: float) -> int:
    """The number of eigenvalues in (vl, vu] of the symmetric tridiagonal matrix with diagonal d
    and off-diagonal e: stebz's count by bisection, at absolute tolerance 0."""
    n = d.size
    if e.shape != (n - 1,):
        raise ValueError(f"stebz needs n-1 off-diagonal values, got {e.shape} for n = {n}")
    counts, ints = np.empty(2, dtype=_I64), np.empty((n, 5), dtype=_I64, order="F")  # M, NSPLIT; IBLOCK, ISPLIT, IWORK
    _call(_STEBZ, b"V", b"E", n, vl, vu, 1, 1, 0.0, d, e, counts[:1], counts[1:], np.empty(n),
          ints[:, 0], ints[:, 1], np.empty(4 * n), ints[:, 2:])
    return int(counts[0])


def dstevd(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The eigenvalues (ascending) of the symmetric tridiagonal matrix with diagonal d and
    off-diagonal e: stevd without eigenvectors."""
    n = d.size
    if e.shape != (n - 1,):
        raise ValueError(f"stevd needs n-1 off-diagonal values, got {e.shape} for n = {n}")
    w, e = np.array(d, dtype=float), np.array(e, dtype=float)  # stevd destroys e
    _call(_STEVD, b"N", n, w, e, np.empty(1), 1, np.empty(1), 1, np.empty(1, dtype=_I64), 1)
    return w


def dgeqrt(a: np.ndarray, nb: int) -> np.ndarray:
    """Blocked Householder QR a = Q R of the column-major M x N matrix a, in place: R in its
    upper triangle, the unit lower trapezoidal reflectors V below. Q is the product of one
    block reflector I - V_j T_j V_j^T per block j of nb columns, and the returned
    nb x min(M, N) array holds the upper triangular T_j side by side."""
    m, n = a.shape
    T = np.empty((nb, min(m, n)), order="F")
    _call(_GEQRT, m, n, nb, a, m, T, nb, np.empty(nb * n))
    return T


def dgemqrt(V: np.ndarray, T: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Overwrite the vector c with Q c, Q being the factor of dgeqrt's (V, T); returns c."""
    (m, cols), (nb, k) = V.shape, T.shape
    if c.shape != (m,) or cols < k:
        raise ValueError(f"gemqrt: reflectors {V.shape} and T {T.shape} do not fit a vector {c.shape}")
    _call(_GEMQRT, b"L", b"N", m, 1, k, nb, V, m, T, nb, c, m, np.empty(nb))
    return c
