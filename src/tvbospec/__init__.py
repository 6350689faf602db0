"""Spectral analysis toolkit for time-varying Bayesian optimization.

Submodules:

- ``kernels``   stationary correlation functions, their spectral densities
                and the four-class support taxonomy
- ``spectral``  kernel matrices, exact eigendecomposition and spectrum
                approximations (sampled densities, product lattices)
- ``gp``        exact GP posteriors, prior path sampling, the Mercer
                (Nystrom) expansion the lower bound uses
- ``tvbo``      the GP-UCB simulation loop and regret traces
- ``bounds``    mutual information and the cumulative-regret bounds
- ``expcli``    reproducible experiment runner (CSV + SVG artifacts)
"""

from . import _blas, bounds, errors, gp, kernels, spectral, tvbo
from .kernels import (
    ClassTag,
    KernelClass,
    SpatialKernel,
    TemporalKernel,
    classify,
    spectral_density,
)
from .spectral import Scale, Spectrum, TimeGrid, eig_sym

_blas.pin_numpy_openblas()

__version__ = "0.1.0"
