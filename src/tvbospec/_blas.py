"""Every LAPACK call of tvbospec, and the thread policy of both OpenBLAS pools.

LAPACK policy: the routines of ``_SIGNATURES`` (``?syevd``'s workspace
query and the stages of ``?syevd``, then ``?potrf`` and ``?trtrs``) are
called through ``ctypes`` on scipy's bundled OpenBLAS
(``scipy.libs/libscipy_openblas*.so``, symbols ``scipy_dsytrd_`` and so
on), the library that scipy's own f2py handles call, on the same thread
pool.  ``ctypes.CDLL`` loads it here before any scipy extension module
does; the extension modules imported later link the same copy.  Each
CHARACTER argument is followed, after the last argument, by its length as
a hidden ``size_t``, as gfortran passes it: ``?ormtr`` concatenates
``SIDE // TRANS`` for ``ILAENV``, which reads those lengths, and would
read whatever the stack holds without them.  Arguments, workspace sizes
and layouts are those of ``scipy.linalg.lapack``'s handles as scipy's
``eigh``, ``cholesky`` and ``solve_triangular`` call them, so the bits are
theirs:

- an eigensolve is ``?syevd`` (``uplo`` = "L", as f2py's ``lower`` = 1
  passes it) run stage by stage, as the reference driver runs them
  (LAPACK Users' Guide, Anderson et al.; ``?stedc`` is the divide and
  conquer of Gu and Eisenstat, SIMAX 1995), on a Fortran-ordered copy of
  ``a``: the quick returns for n = 0 and n = 1; ``?lansy``'s max-abs norm
  of the triangle, ``?lascl`` scaling by sigma when it lies outside
  [sqrt(safmin / eps), 1 / sqrt(safmin / eps)], and the eigenvalues
  multiplied by 1 / sigma after (``?scal``'s one rounded product each);
  ``?sytrd`` to tridiagonal form; then ``?sterf`` for eigenvalues only,
  or ``?stedc`` (``compz`` = "I"), ``?ormtr`` transforming its vectors
  back and ``?lacpy`` copying them over ``a``.  The stages share one
  workspace at ``?syevd``'s offsets (``inde``, ``indtau``, ``indwrk``,
  ``indwk2``), sized by ``?syevd``'s own ``lwork = -1`` query as
  ``_compute_lwork`` sizes it, made for the call and freed after it
  (650 KB for a 200 x 200 problem with vectors).  The info is
  ``?sterf``'s or ``?stedc``'s, reported as ``?syevd``'s, and ``?syevd``
  ignores ``?sytrd``'s and ``?ormtr``'s too.  Called one by one, each on as
  many threads as the one-shot call, the stages give its bits;
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
instead; the call path is the same (cython's functions take no hidden
lengths and ignore them), and only that install imports ``scipy.linalg``.
Elsewhere ``import tvbospec`` loads numpy and the top-level ``scipy``
package only; ``kernels`` imports ``scipy.special`` in the branches that
need Bessel or gamma functions.  The module holds scipy's library handle
(``scipy_openblas()``, None in that case).

numpy and scipy wheels each bundle an OpenBLAS with its own thread pool,
and an idle pool's workers busy-wait for a while after each call before
they sleep (about 0.1 s: OpenBLAS's default ``THREAD_TIMEOUT`` of 2^28
cycles).  All of tvbospec's LAPACK calls go to scipy's library, so
numpy's is left with matmul, gemv and short dot products, which OpenBLAS
splits across threads by output element: their bits do not depend on the
thread count.  Running them on one thread keeps numpy's spinning workers
from taking the cores that scipy's pool needs.

scipy's pool runs at one thread too, except for the calls whose bits
depend on its size.  The size it started with is recorded when this
module loads (``_POOL_SIZE``), and ``pin_scipy_openblas`` then sets it to
one thread and stops its workers.  Each routine runs at the recorded size
from its order in ``_THREAD_DEPENDENT_FROM`` on:

    ?sytrd                                           145
    ?ormtr                                           193
    ?potrf                                           128
    ?lansy, ?lascl, ?sterf, ?stedc, ?lacpy, ?trtrs,
    ?syevd's workspace query                         260

The orders were measured with OpenBLAS 0.3.30 (``DYNAMIC_ARCH``,
SkylakeX kernels) over the range 1..259 on the leading blocks of regret
Gram matrices of the rbf, sinc-squared, periodic and cosine-sum classes:
the stages of ``?syevd`` at seeds 1-3, as built and scaled to max-abs
1e-150 and 1e150, each stage alone at the pool size against all of them
on one thread.  ``?sytrd``'s bits depend on the pool size from order 145
on, for either ``jobz``, and ``?ormtr``'s from 193; those of ``?stedc``,
``?sterf`` and the other stages at no measured order, nor those of
``?trtrs`` (a 200 x 1600 right-hand side included).  A routine that
showed no dependence runs at the pool size from 260, the first order
past the measured range (``_UNMEASURED_FROM``): nothing measured it
there, so no entry reads "never".  ``tests/test_blas.py`` checks on the
installed library that each routine, at every order below its entry,
gives the bits that the pool's size gives.

``?sytrd`` runs at the pool size from 145 only because its bits do.
Splitting it further, into ``?latrd``'s panels and ``?syr2k``'s trailing
updates, so that only the part whose bits depend on the pool size runs on
it, is the follow-up; it is not done here.

scipy's idle workers park themselves: when this module loads, it sets
``OPENBLAS_THREAD_TIMEOUT`` to 4 in ``os.environ``, has the library re-read
its variables (its exported ``openblas_read_env``) and puts the variable
back as it found it, absent or the caller's own text.  4 is OpenBLAS's
floor, 2^4 cycles: a worker with no job sleeps at once on a condition
variable, which the next threaded call signals.  ``blas_thread_init``
reads the timeout when it starts the workers, so ``pin_scipy_openblas``
stops the ones the library started at load, and the next threaded call
starts them with it.  A threaded call raises the pool to the recorded
size and sets it back to one thread; its worker sleeps until the next
one, and none spins between the stages of an eigensolve.  With the
default timeout a worker spun through each threaded call's serial steps
as well as after it: in one regret pass (2-vCPU Xeon VM) the threaded
``?sytrd`` calls took 3.6 s CPU for 1.9 s wall even with the workers
stopped after each call, and with the timeout at 4 they take 2.1 s CPU
for the same wall and give the same bits (``BENCH_thread_timeout.json``).
A library that does not export ``openblas_read_env`` keeps its default
timeout, and its workers spin after each threaded call before they sleep.
This assumes that no other Python thread uses scipy's
pool at the same moment: a call on another thread could run at the
raised size.  Without the bundled library, or when the pool started at
one thread, every call goes straight through.

Forked processes each run their own copy of the pool, at the same size.
Two of them in threaded calls at once put twice the pool's threads on the
cores, and each caller spins while it waits for a worker that is not
running.  ``share_pool`` gives a process a lock that its siblings share,
held through each threaded call, so that at most one of them runs one at a
time while the others go on with their one-thread work or sleep on the
lock.  In the regret experiment's pool of two workers (default config,
2-vCPU Xeon VM, medians of ten runs) parent and workers took 11.9 s CPU
and 6.1 s wall without the lock and 9.7 s CPU and 5.2 s wall with it,
against 9.0 s CPU and 8.7 s wall in one process, with the same bits
(``BENCH_process_replications.json``, ``cost``).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
from pathlib import Path

import numpy as np
import scipy

_F8 = np.dtype(np.float64)
_INT = ctypes.POINTER(ctypes.c_int)
_DOUBLE = ctypes.POINTER(ctypes.c_double)
_PTR, _CHAR = ctypes.c_void_p, ctypes.c_char_p
# gfortran passes each CHARACTER argument's length as a hidden size_t after
# the last argument; a C routine ignores what it does not declare.
_LENGTH = ctypes.c_size_t

# Prototypes in the LAPACK argument order, the return type first; arrays
# are passed by address.
_SIGNATURES = {
    # jobz, uplo, n, a, lda, w, work, lwork, iwork, liwork, info
    "dsyevd": (None, _CHAR, _CHAR, _INT, _PTR, _INT, _PTR, _PTR, _INT, _PTR,
               _INT, _INT),
    # norm, uplo, n, a, lda, work -> the norm
    "dlansy": (ctypes.c_double, _CHAR, _CHAR, _INT, _PTR, _INT, _PTR),
    # type, kl, ku, cfrom, cto, m, n, a, lda, info
    "dlascl": (None, _CHAR, _INT, _INT, _DOUBLE, _DOUBLE, _INT, _INT, _PTR,
               _INT, _INT),
    # uplo, n, a, lda, d, e, tau, work, lwork, info
    "dsytrd": (None, _CHAR, _INT, _PTR, _INT, _PTR, _PTR, _PTR, _PTR, _INT,
               _INT),
    # n, d, e, info
    "dsterf": (None, _INT, _PTR, _PTR, _INT),
    # compz, n, d, e, z, ldz, work, lwork, iwork, liwork, info
    "dstedc": (None, _CHAR, _INT, _PTR, _PTR, _PTR, _INT, _PTR, _INT, _PTR,
               _INT, _INT),
    # side, uplo, trans, m, n, a, lda, tau, c, ldc, work, lwork, info
    "dormtr": (None, _CHAR, _CHAR, _CHAR, _INT, _INT, _PTR, _INT, _PTR, _PTR,
               _INT, _PTR, _INT, _INT),
    # uplo, m, n, a, lda, b, ldb
    "dlacpy": (None, _CHAR, _INT, _INT, _PTR, _INT, _PTR, _INT),
    # uplo, n, a, lda, info
    "dpotrf": (None, _CHAR, _INT, _PTR, _INT, _INT),
    # uplo, trans, diag, n, nrhs, a, lda, b, ldb, info
    "dtrtrs": (None, _CHAR, _CHAR, _CHAR, _INT, _INT, _PTR, _INT, _PTR, _INT,
               _INT),
}
# The hidden lengths each routine takes: one per CHARACTER argument, all 1.
_LENGTHS = {name[1:]: (1,) * signature.count(_CHAR)
            for name, signature in _SIGNATURES.items()}


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


def _lapack() -> dict:
    """ctypes handles of the routines in ``_SIGNATURES``, keyed by name
    without the type letter: the symbols of scipy's bundled OpenBLAS, else
    cython_lapack's exported pointers."""
    lib = scipy_openblas()
    try:
        addresses = [ctypes.cast(getattr(lib, f"scipy_{name}_"), _PTR).value
                     for name in _SIGNATURES]
    except AttributeError:  # no bundled library, or not these symbols
        from scipy.linalg import cython_lapack
        addresses = [_capsule_address(cython_lapack.__pyx_capi__[name])
                     for name in _SIGNATURES]
    return {name[1:]: ctypes.CFUNCTYPE(
                *signature, *(_LENGTH,) * len(_LENGTHS[name[1:]]))(address)
            for (name, signature), address in zip(_SIGNATURES.items(),
                                                  addresses)}


_HANDLES = _lapack()


def _started_pool_size() -> int:
    """The size of scipy's bundled pool as the library started it; 1
    without the library."""
    try:
        return scipy_openblas().scipy_openblas_get_num_threads()
    except AttributeError:  # no bundled library, or not this symbol
        return 1


_POOL_SIZE = _started_pool_size()
_SHUTDOWN = getattr(scipy_openblas(), "blas_thread_shutdown_", None)
_READ_ENV = getattr(scipy_openblas(), "openblas_read_env", None)

# OpenBLAS's floor for the 2-log of the cycles an idle worker spins for
# before it sleeps (its default is 28).
_THREAD_TIMEOUT = "4"


def _set_thread_timeout() -> None:
    """Have scipy's library read ``OPENBLAS_THREAD_TIMEOUT`` =
    ``_THREAD_TIMEOUT``, leaving ``os.environ`` as it was; the workers
    started after this use it."""
    found = os.environ.get("OPENBLAS_THREAD_TIMEOUT")
    os.environ["OPENBLAS_THREAD_TIMEOUT"] = _THREAD_TIMEOUT
    try:
        _READ_ENV()
    finally:
        if found is None:
            del os.environ["OPENBLAS_THREAD_TIMEOUT"]
        else:
            os.environ["OPENBLAS_THREAD_TIMEOUT"] = found


if _READ_ENV is not None:
    _set_thread_timeout()

# The first order past the measured range, 1..259.  A routine whose bits
# did not depend on the pool size at any measured order runs at the pool
# size from here on, since no measurement covers it.
_UNMEASURED_FROM = 260

# The order from which each routine runs at the size of scipy's pool: the
# smallest measured order at which its bits depend on that size, else
# _UNMEASURED_FROM; see the module docstring.
_THREAD_DEPENDENT_FROM = {
    "syevd": _UNMEASURED_FROM,  # the workspace query only
    "lansy": _UNMEASURED_FROM,
    "lascl": _UNMEASURED_FROM,
    "sytrd": 145,
    "sterf": _UNMEASURED_FROM,
    "stedc": _UNMEASURED_FROM,
    "ormtr": 193,
    "lacpy": _UNMEASURED_FROM,
    "potrf": 128,
    "trtrs": _UNMEASURED_FROM,
}


def pool_threads(routine: str, order: int) -> int:
    """The number of scipy threads ``routine`` of order ``order`` runs on."""
    return _POOL_SIZE if order >= _THREAD_DEPENDENT_FROM[routine] else 1


def _sleep_pool() -> None:
    """Set scipy's pool to one thread; its workers sleep by themselves."""
    scipy_openblas().scipy_openblas_set_num_threads(1)


# Held through every threaded call.  It does nothing until ``share_pool``
# replaces it with a lock that other processes hold too.
_POOL_LOCK = contextlib.nullcontext()


def share_pool(lock) -> None:
    """Hold ``lock``, a lock shared with other processes, through each of
    this process's threaded calls, so that at most one of those processes
    runs a threaded call at a time (see the module docstring)."""
    global _POOL_LOCK
    _POOL_LOCK = lock


def _call(routine: str, order: int, *args):
    """Call ``routine`` with ``args`` and its hidden CHARACTER lengths at
    ``pool_threads(routine, order)`` scipy threads, leaving the pool at one
    thread with no worker running; return what it returns.  The handles
    are read at call time, so that tests can replace them."""
    handle = _HANDLES[routine]
    args += _LENGTHS[routine]
    threads = pool_threads(routine, order)
    if threads == 1:
        return handle(*args)
    with _POOL_LOCK:
        scipy_openblas().scipy_openblas_set_num_threads(threads)
        try:
            return handle(*args)
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


# ?syevd's scaling range [RMIN, RMAX]: the square roots of SAFMIN / EPS
# and its inverse, with DLAMCH's safe minimum (2^-1022) and precision
# (2^-52); all four are powers of two, so these are exact.
_SMLNUM = np.finfo(np.float64).tiny / np.finfo(np.float64).eps
_RMIN, _RMAX = math.sqrt(_SMLNUM), math.sqrt(1.0 / _SMLNUM)


def eigh_descending(a: np.ndarray, vectors: bool = True):
    """Descending eigenvalues of symmetric ``a``; their vectors or None.

    ?syevd (``uplo`` = "L") run stage by stage, each stage through
    ``_call`` at its own pool size, with the driver's quick returns,
    scaling, workspace offsets and info code."""
    v = _fortran_copy(a)
    n = v.shape[0]
    w = np.empty(n)
    if n <= 1:  # ?syevd's quick returns
        w[:] = v.diagonal()
        if vectors:
            v[:] = 1.0
        return w, (v if vectors else None)
    lwork, liwork = _syevd_lwork(n, vectors)
    work, iwork = np.empty(lwork), np.empty(liwork, dtype=np.intc)
    order, info = ctypes.c_int(n), ctypes.c_int()
    a_ptr, w_ptr, e_ptr = _address(v), _address(w), _address(work)
    # WORK(INDE), WORK(INDTAU), WORK(INDWRK), WORK(INDWK2) of ?syevd
    tau_ptr, wrk_ptr = e_ptr + 8 * n, e_ptr + 16 * n
    wk2_ptr = wrk_ptr + 8 * n * n
    norm = _call("lansy", n, b"M", b"L", order, a_ptr, order, e_ptr)
    sigma = (_RMIN / norm if 0.0 < norm < _RMIN else
             _RMAX / norm if norm > _RMAX else None)
    if sigma is not None:
        zero = ctypes.c_int(0)
        _call("lascl", n, b"L", zero, zero, ctypes.c_double(1.0),
              ctypes.c_double(sigma), order, order, a_ptr, order, info)
    stage_info = ctypes.c_int()  # ?syevd ignores ?sytrd's and ?ormtr's
    _call("sytrd", n, b"L", order, a_ptr, order, w_ptr, e_ptr, tau_ptr,
          wrk_ptr, ctypes.c_int(lwork - 2 * n), stage_info)
    if not vectors:
        _call("sterf", n, order, w_ptr, e_ptr, info)
    else:
        llwrk2 = ctypes.c_int(lwork - 2 * n - n * n)
        _call("stedc", n, b"I", order, w_ptr, e_ptr, wrk_ptr, order, wk2_ptr,
              llwrk2, _address(iwork), ctypes.c_int(liwork), info)
        _call("ormtr", n, b"L", b"L", b"N", order, order, a_ptr, order,
              tau_ptr, wrk_ptr, order, wk2_ptr, llwrk2, stage_info)
        _call("lacpy", n, b"A", order, order, wrk_ptr, order, a_ptr, order)
    if sigma is not None:
        w *= 1.0 / sigma  # ?scal: one rounded product per eigenvalue
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
    """Set scipy's bundled OpenBLAS to one thread and stop its workers, so
    that the next threaded call starts them with ``_THREAD_TIMEOUT``;
    no-op without it or when it started at one thread."""
    if _POOL_SIZE > 1:
        scipy_openblas().scipy_openblas_set_num_threads(1)
        if _SHUTDOWN is not None:
            _SHUTDOWN()
