"""Spectral analysis toolkit for time-varying Bayesian optimization.

Submodules:

- ``kernels``   stationary correlation functions, their spectral densities
                and the four-class support taxonomy
- ``spectral``  kernel matrices, their eigenvalues (one descending
                matrix-scale ``Spectrum``) and spectrum approximations
                (sampled densities, product lattices)
- ``gp``        exact GP posteriors, prior path sampling, the Mercer
                (Nystrom) expansion the lower bound uses
- ``tvbo``      the GP-UCB simulation loop and regret traces
- ``bounds``    mutual information and the cumulative-regret bounds
- ``expcli``    reproducible experiment runner (CSV + SVG artifacts)
"""

# numpy imports numpy.random on first use; every experiment draws from it,
# so it loads with the package instead of inside the first run.
import numpy.random  # noqa: F401

from . import _blas, bounds, errors, gp, kernels, spectral, tvbo
from .kernels import (
    ClassTag,
    KernelClass,
    SpatialKernel,
    TemporalKernel,
    classify,
    spectral_density,
)
from .spectral import Spectrum, TimeGrid, eig_sym

_blas.pin_numpy_openblas()
_blas.pin_scipy_openblas()

# glibc's malloc gives each block above its mmap threshold (128 KiB at
# start) a fresh mapping, whose pages fault in on every first touch, and
# raises the threshold to the size of each such block freed (mallopt(3)).
# Freeing one untouched 8 MiB block here lets a run's Gram matrices and
# eigenvector arrays reuse heap pages instead.
numpy.empty(1 << 20)

__version__ = "0.1.0"
