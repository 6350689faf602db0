"""Every LAPACK call of tvbospec; numpy's bundled OpenBLAS kept at one thread.

LAPACK policy: ``?syevd``, ``?potrf`` and ``?trtrs`` are called through
cached float64 ``get_lapack_funcs`` handles with the arguments and layout
of scipy's ``eigh``, ``cholesky`` and ``solve_triangular``: the same bits,
without their finite checks (callers validate) and copies.  A positive
``info`` raises ``np.linalg.LinAlgError``, a negative one ``ValueError``.

numpy and scipy wheels each bundle an OpenBLAS with its own thread pool,
and an idle pool's workers busy-wait for a while after each call.  All of
tvbospec's LAPACK calls go through ``scipy.linalg``, so numpy's library is
left with matmul, gemv and short dot products, which OpenBLAS splits across
threads by output element: their bits do not depend on the thread count.
Running them on one thread keeps numpy's spinning workers from taking the
cores that scipy's pool needs.  scipy's pool keeps its default size, which
the artifact bytes still depend on.
"""

from __future__ import annotations

import ctypes
import functools
from pathlib import Path

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.linalg.lapack import _compute_lwork

_SYEVD, _SYEVD_LWORK, _POTRF, _TRTRS = get_lapack_funcs(
    ("syevd", "syevd_lwork", "potrf", "trtrs"), dtype=np.float64)

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
def _syevd(n: int, vectors: bool):
    """``?syevd`` and its keyword arguments for an n x n problem."""
    lwork, liwork = _compute_lwork(_SYEVD_LWORK, n=n, lower=True,
                                   compute_v=int(vectors))
    return _SYEVD, {"compute_v": int(vectors), "lower": 1, "lwork": lwork,
                    "liwork": liwork}


def eigh_descending(a: np.ndarray, vectors: bool = True):
    """Descending eigenvalues of symmetric ``a``; their vectors or None."""
    drv, kwargs = _syevd(a.shape[0], vectors)
    w, v, info = drv(a, **kwargs)
    _check("syevd", info)
    return w[::-1], (v[:, ::-1] if vectors else None)


def cholesky_lower(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of ``a``, zero above the diagonal."""
    c, info = _POTRF(a, lower=1, clean=1)
    _check("potrf", info)
    return c


def cholesky_upper(a: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor u of ``a`` (u^T u = a), zero below the
    diagonal."""
    c, info = _POTRF(a, lower=0, clean=1)
    _check("potrf", info)
    return c


def solve_transposed(u: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with u^T x = b, u upper triangular; may overwrite ``b``."""
    x, info = _TRTRS(u, b, lower=0, trans=1, overwrite_b=1)
    _check("trtrs", info)
    return x


def solve_upper(u: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with u x = b, u upper triangular; may overwrite ``b``."""
    x, info = _TRTRS(u, b, lower=0, trans=0, overwrite_b=1)
    _check("trtrs", info)
    return x


def numpy_openblas() -> ctypes.CDLL | None:
    """numpy's bundled ``scipy_openblas64_`` library, or None when numpy
    was built against another BLAS."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs")
                  .glob("libscipy_openblas64_*.so"))
    return ctypes.CDLL(str(libs[0])) if libs else None


def pin_numpy_openblas() -> None:
    """Set numpy's bundled OpenBLAS to one thread; no-op without it."""
    lib = numpy_openblas()
    if lib is not None:
        lib.scipy_openblas_set_num_threads64_(1)
