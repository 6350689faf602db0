"""Every LAPACK call of tvbospec, and the thread policy of both OpenBLAS pools.

LAPACK policy: ``?syevd``, ``?potrf`` and ``?trtrs`` are called through
``ctypes`` on scipy's bundled OpenBLAS (``scipy.libs/libscipy_openblas*.so``,
symbols ``scipy_dsyevd_``, ``scipy_dpotrf_``, ``scipy_dtrtrs_``), the
library that scipy's own f2py handles call, on the same thread pool.
``ctypes.CDLL`` loads it here before any scipy extension module does; the
extension modules imported later link the same copy.  Arguments,
workspace sizes and layouts are those of ``scipy.linalg.lapack``'s
handles as scipy's ``eigh``, ``cholesky`` and ``solve_triangular`` call
them, so the bits are theirs:

- ``?syevd`` works on a Fortran-ordered copy of ``a``, the upper or lower
  triangle (``lower`` = 1) as f2py passes it, and takes
  ``lwork``/``liwork`` from the routine's own ``lwork = -1`` query, as
  ``_compute_lwork`` does, in a workspace made for the call and freed
  after it (650 KB for a 200 x 200 problem with vectors);
- ``?potrf`` factors ``a`` in place when it is a writeable Fortran-ordered
  float64 square array and in a Fortran copy otherwise (f2py's
  ``overwrite_a=1``), so a caller that builds its Gram matrix in Fortran
  order holds a single n x n array; it then zeroes the other triangle
  (f2py's ``clean=1``), a column at a time so that no index arrays are
  built;
- ``?trtrs`` solves in place when ``b`` is a writeable Fortran-ordered
  float64 array (1-D or one-column C-ordered ones are) and in a Fortran
  copy otherwise (f2py's ``overwrite_b=1``); a non-Fortran ``u`` is copied.

No finite check is made (callers validate).  A positive ``info`` raises
``np.linalg.LinAlgError``, a negative one ``ValueError``.  Each call
passes its own scalar arguments and workspace; only the prototypes, with
their ``argtypes``, are made once.

Where scipy bundles no such library (a distribution build), each routine's
address is looked up once in ``scipy.linalg.cython_lapack.__pyx_capi__``
instead; the call path is the same, and only that install imports
``scipy.linalg``.  Elsewhere ``import tvbospec`` loads numpy and the
top-level ``scipy`` package only; ``kernels`` imports ``scipy.special``
in the branches that need Bessel or gamma functions.  The module holds
scipy's library handle (``scipy_openblas()``, None in that case).

numpy and scipy wheels each bundle an OpenBLAS with its own thread pool,
and an idle pool's workers busy-wait for a while after each call (about
0.1 s: OpenBLAS's 2^28-cycle ``THREAD_TIMEOUT``).  All of tvbospec's
LAPACK calls go to scipy's library, so numpy's is left with matmul, gemv
and short dot products, which OpenBLAS splits across threads by output
element: their bits do not depend on the thread count.  Running them on
one thread keeps numpy's spinning workers from taking the cores that
scipy's pool needs.

scipy's pool runs at one thread too, except for the calls whose bits
depend on its size.  The size it started with is recorded when this
module loads (``_POOL_SIZE``), and ``pin_scipy_openblas`` then sets it to
one thread and stops its workers.  A call runs at the recorded size only
from the order given in ``_THREAD_DEPENDENT_FROM`` on: ``?syevd`` (either
``jobz``) from 145, ``?potrf`` from 128, ``?trtrs`` at no order (a
200 x 1600 right-hand side included).  Below those orders the bits at one
thread and at two are the same; they were measured with OpenBLAS 0.3.30
(``DYNAMIC_ARCH``, SkylakeX kernels) on n = 2..259 Gram matrices of the
rbf, periodic and cosine-sum classes, and ``tests/test_blas.py`` checks
them on the installed library.  Such a call raises the pool to the
recorded size, sets it back to one thread and stops its workers with the
library's ``blas_thread_shutdown_`` (skipped where the library does not
export it), so no worker busy-waits between calls; the next threaded call
starts the pool again.  This assumes that no other Python thread uses
scipy's pool at the same moment: a call on another thread could run at
the raised size, or lose its worker to the stop.  Without the bundled
library, or when the pool started at one thread, every call goes straight
through.
"""

from __future__ import annotations

import ctypes
import functools
from pathlib import Path

import numpy as np
import scipy

_F8 = np.dtype(np.float64)
_INT = ctypes.POINTER(ctypes.c_int)
_PTR, _CHAR = ctypes.c_void_p, ctypes.c_char_p

# Prototypes in the LAPACK argument order; arrays are passed by address.
_SIGNATURES = {
    # jobz, uplo, n, a, lda, w, work, lwork, iwork, liwork, info
    "dsyevd": (_CHAR, _CHAR, _INT, _PTR, _INT, _PTR, _PTR, _INT, _PTR, _INT,
               _INT),
    # uplo, n, a, lda, info
    "dpotrf": (_CHAR, _INT, _PTR, _INT, _INT),
    # uplo, trans, diag, n, nrhs, a, lda, b, ldb, info
    "dtrtrs": (_CHAR, _CHAR, _CHAR, _INT, _INT, _PTR, _INT, _PTR, _INT, _INT),
}


def _bundled_openblas(package, pattern: str) -> ctypes.CDLL | None:
    """The OpenBLAS in the ``<package>.libs`` folder of a wheel install,
    or None when there is none."""
    folder = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
    libs = sorted(folder.glob(pattern))
    return ctypes.CDLL(str(libs[0])) if libs else None


@functools.cache
def numpy_openblas() -> ctypes.CDLL | None:
    """numpy's bundled ``scipy_openblas64_`` library, or None when numpy
    was built against another BLAS."""
    return _bundled_openblas(np, "libscipy_openblas64_*.so")


@functools.cache
def scipy_openblas() -> ctypes.CDLL | None:
    """scipy's bundled ``scipy_openblas`` library, or None when scipy was
    built against another BLAS."""
    return _bundled_openblas(scipy, "libscipy_openblas*.so")


def _capsule_address(capsule) -> int:
    """The function pointer a cython ``__pyx_capi__`` capsule holds."""
    api = ctypes.pythonapi
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", api))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object,
                                    ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))
    return get_pointer(capsule, get_name(capsule))


def _lapack() -> tuple:
    """ctypes handles of ?syevd, ?potrf and ?trtrs: the symbols of
    scipy's bundled OpenBLAS, else cython_lapack's exported pointers."""
    lib = scipy_openblas()
    try:
        addresses = [ctypes.cast(getattr(lib, f"scipy_{name}_"), _PTR).value
                     for name in _SIGNATURES]
    except AttributeError:  # no bundled library, or not these symbols
        from scipy.linalg import cython_lapack
        addresses = [_capsule_address(cython_lapack.__pyx_capi__[name])
                     for name in _SIGNATURES]
    return tuple(ctypes.CFUNCTYPE(None, *argtypes)(address)
                 for argtypes, address in zip(_SIGNATURES.values(), addresses))


_SYEVD, _POTRF, _TRTRS = _lapack()


def _started_pool_size() -> int:
    """The size of scipy's bundled pool as the library started it; 1
    without the library."""
    try:
        return scipy_openblas().scipy_openblas_get_num_threads()
    except AttributeError:  # no bundled library, or not this symbol
        return 1


_POOL_SIZE = _started_pool_size()
_SHUTDOWN = getattr(scipy_openblas(), "blas_thread_shutdown_", None)

# The smallest order from which a routine's bits depend on the size of
# scipy's pool (None: from no order); see the module docstring.
_THREAD_DEPENDENT_FROM = {"syevd": 145, "potrf": 128, "trtrs": None}


def pool_threads(routine: str, order: int) -> int:
    """The number of scipy threads ``routine`` of order ``order`` runs on."""
    start = _THREAD_DEPENDENT_FROM[routine]
    return _POOL_SIZE if start is not None and order >= start else 1


def _sleep_pool() -> None:
    """Set scipy's pool to one thread and stop its workers."""
    scipy_openblas().scipy_openblas_set_num_threads(1)
    if _SHUTDOWN is not None:
        _SHUTDOWN()


def _call(routine: str, order: int, *args) -> None:
    """Call ``routine`` with ``args`` at ``pool_threads(routine, order)``
    scipy threads, leaving the pool at one thread with no worker.  The
    handles are read at call time, so that tests can replace them."""
    handle = {"syevd": _SYEVD, "potrf": _POTRF, "trtrs": _TRTRS}[routine]
    threads = pool_threads(routine, order)
    if threads == 1:
        handle(*args)
        return
    scipy_openblas().scipy_openblas_set_num_threads(threads)
    try:
        handle(*args)
    finally:
        _sleep_pool()


_BUFFER = ctypes.c_char * 0


def _address(x: np.ndarray) -> int:
    """Address of the first element of writeable Fortran-contiguous ``x``."""
    return ctypes.addressof(_BUFFER.from_buffer(x.T))


def _in_place(x: np.ndarray) -> bool:
    """Whether LAPACK can take ``x`` as it is: writeable, Fortran-contiguous
    float64 (numpy's ``farray`` flag is false for 1-D arrays)."""
    flags = x.flags
    return x.dtype == _F8 and flags.f_contiguous and flags.writeable


def _fortran_copy(a) -> np.ndarray:
    """A Fortran-ordered float64 copy of square ``a`` (f2py's copy)."""
    c = np.array(a, dtype=np.float64, order="F")
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError("expected a square matrix")
    return c


# The LinAlgError message for info = {0} > 0 ({1} = info - 1), per routine.
_FAILURES = {"syevd": "?syevd did not converge (info = {0})",
             "potrf": "{0}-th leading minor is not positive definite",
             "trtrs": "singular factor: zero at diagonal {1}"}


def _check(routine: str, info: int) -> None:
    if info > 0:
        raise np.linalg.LinAlgError(_FAILURES[routine].format(info, info - 1))
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of ?{routine}")


@functools.cache
def _syevd_lwork(n: int, vectors: bool) -> tuple[int, int]:
    """``lwork`` and ``liwork`` from ?syevd's workspace query for an n x n
    problem (the query reads no matrix)."""
    work, iwork, dummy = ctypes.c_double(), ctypes.c_int(), ctypes.c_double()
    info = ctypes.c_int()
    _call("syevd", n, b"V" if vectors else b"N", b"L", ctypes.c_int(n),
          ctypes.addressof(dummy), ctypes.c_int(max(1, n)),
          ctypes.addressof(dummy), ctypes.addressof(work), ctypes.c_int(-1),
          ctypes.addressof(iwork), ctypes.c_int(-1), info)
    _check("syevd", info.value)
    return int(work.value), int(iwork.value)


def eigh_descending(a: np.ndarray, vectors: bool = True):
    """Descending eigenvalues of symmetric ``a``; their vectors or None."""
    v = _fortran_copy(a)
    n = v.shape[0]
    w = np.empty(n)
    lwork, liwork = _syevd_lwork(n, vectors)
    work, iwork = np.empty(lwork), np.empty(liwork, dtype=np.intc)
    info = ctypes.c_int()
    _call("syevd", n, b"V" if vectors else b"N", b"L", ctypes.c_int(n),
          _address(v), ctypes.c_int(max(1, n)), _address(w), _address(work),
          ctypes.c_int(lwork), _address(iwork), ctypes.c_int(liwork), info)
    _check("syevd", info.value)
    return w[::-1], (v[:, ::-1] if vectors else None)


def _potrf(a: np.ndarray, uplo: bytes) -> np.ndarray:
    square = a.ndim == 2 and a.shape[0] == a.shape[1]
    c = a if square and _in_place(a) else _fortran_copy(a)
    n, info = ctypes.c_int(c.shape[0]), ctypes.c_int()
    _call("potrf", n.value, uplo, n, _address(c), n, info)
    # f2py's clean=1: zero the other triangle, a column at a time
    for j in range(c.shape[0]):
        if uplo == b"L":
            c[:j, j] = 0.0
        else:
            c[j + 1:, j] = 0.0
    _check("potrf", info.value)
    return c


def cholesky_lower(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of ``a``, zero above the diagonal; overwrites
    and returns ``a`` when it is a writeable Fortran-ordered float64
    array."""
    return _potrf(a, b"L")


def cholesky_upper(a: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor u of ``a`` (u^T u = a), zero below the
    diagonal; overwrites and returns ``a`` when it is a writeable
    Fortran-ordered float64 array."""
    return _potrf(a, b"U")


def _trtrs(u: np.ndarray, b: np.ndarray, trans: bytes) -> np.ndarray:
    if not _in_place(u):
        u = np.array(u, dtype=np.float64, order="F")
    if not _in_place(b):
        b = np.array(b, dtype=np.float64, order="F")
    lda, n = u.shape
    info = ctypes.c_int()
    _call("trtrs", n, b"U", trans, b"N", ctypes.c_int(n),
          ctypes.c_int(b.shape[1] if b.ndim == 2 else 1), _address(u),
          ctypes.c_int(lda), _address(b), ctypes.c_int(b.shape[0]), info)
    _check("trtrs", info.value)
    return b


def solve_transposed(u: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with u^T x = b, u upper triangular; may overwrite ``b``."""
    return _trtrs(u, b, b"T")


def solve_upper(u: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with u x = b, u upper triangular; may overwrite ``b``."""
    return _trtrs(u, b, b"N")


def pin_numpy_openblas() -> None:
    """Set numpy's bundled OpenBLAS to one thread; no-op without it."""
    lib = numpy_openblas()
    if lib is not None:
        lib.scipy_openblas_set_num_threads64_(1)


def pin_scipy_openblas() -> None:
    """Set scipy's bundled OpenBLAS to one thread and stop its workers;
    no-op without it or when it started at one thread."""
    if _POOL_SIZE > 1:
        _sleep_pool()
