"""Keep numpy's bundled OpenBLAS at one thread.

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
from pathlib import Path

import numpy as np


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
