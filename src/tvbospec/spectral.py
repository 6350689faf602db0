"""Kernel matrices, their exact eigenvalues and spectrum approximations.

A ``Spectrum`` holds the eigenvalues of an n x n kernel matrix, in
descending order; the operator eigenvalues lam_i / n are formed where a
formula needs them.  Temporal kernel matrices on a uniform time grid are
symmetric Toeplitz.  Two spectra have cheap approximations: sampled
spectral densities for continuous-support temporal kernels, and the
largest pairwise products of factor spectra for spatio-temporal product
kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._blas import eigh_descending
from .errors import ConvergenceFailure, WrongClass
from .kernels import (
    SpatialKernel,
    TemporalKernel,
    classify,
    eval_temporal,
    spectral_density,
)

__all__ = [
    "Spectrum",
    "TimeGrid",
    "SymMatrix",
    "POSITIVE_EIGENVALUE_REL_THRESHOLD",
    "build_temporal_matrix",
    "cross_covariance",
    "build_spatiotemporal_matrix",
    "eig_sym",
    "approx_temporal_spectrum",
    "approx_product_spectrum",
    "count_in_interval",
    "positive_mask",
    "positive_count",
]

# Relative cutoff under which an eigenvalue counts as numerically zero.
POSITIVE_EIGENVALUE_REL_THRESHOLD = 1e-8


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Dense symmetric matrix with validated symmetry and finite entries."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("matrix must be square")
        if v.shape[0] == 0:
            raise ValueError("matrix needs at least one row")
        if not np.all(np.isfinite(v)):
            raise ValueError("matrix entries must be finite")
        scale = max(1.0, float(np.max(np.abs(v))))
        if np.max(np.abs(v - v.T)) > 1e-12 * scale:
            raise ValueError("matrix must be symmetric to 1e-12 relative")

    @property
    def order(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues of an n x n kernel matrix, in descending order."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if np.any(np.diff(v) > 1e-12 * max(1.0, float(np.max(np.abs(v), initial=0.0)))):
            raise ValueError("eigenvalues must be nonincreasing")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling times t_i = i * delta, i = 0..n-1."""

    n: int
    delta: float

    def __post_init__(self):
        if (isinstance(self.n, bool)
                or not isinstance(self.n, (int, np.integer))):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not 0 < self.delta < math.inf:
            raise ValueError("delta must be positive and finite")
        # Callers sample at up to n * delta.
        try:
            last = float(self.n) * self.delta
        except OverflowError:  # n beyond float range
            last = math.inf
        if last == math.inf:
            raise ValueError("delta times n must be finite")

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n) * self.delta


def build_temporal_matrix(kernel: TemporalKernel, grid: TimeGrid) -> SymMatrix:
    """Symmetric Toeplitz matrix with entries k(delta * |i - j|)."""
    first_row = eval_temporal(kernel, grid.times)
    i = np.arange(grid.n)
    return SymMatrix(first_row[np.abs(i[:, None] - i)])


def cross_covariance(spatial: SpatialKernel, temporal: TemporalKernel,
                     xs1, ts1, xs2, ts2) -> np.ndarray:
    """Product-kernel covariances k_S(x1_i, x2_j) * k_T(|t1_i - t2_j|)."""
    ks = spatial.pairwise(xs1, xs2)
    kt = eval_temporal(temporal, np.abs(ts1[:, None] - ts2[None, :]))
    return ks * kt


def build_spatiotemporal_matrix(spatial: SpatialKernel,
                                temporal: TemporalKernel,
                                xs, ts) -> SymMatrix:
    """Product kernel matrix k_S(x_i, x_j) * k_T(|t_i - t_j|).

    ``xs`` is an (n, d) array of spatial points in the unit cube, ``ts`` the
    matching times.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ts = np.asarray(ts, dtype=float)
    if xs.shape[0] != len(ts):
        raise ValueError("one spatial point per time stamp")
    if np.any(xs < -1e-12) or np.any(xs > 1 + 1e-12):
        raise ValueError("spatial points must lie in the unit cube")
    return SymMatrix(cross_covariance(spatial, temporal, xs, ts, xs, ts))


def eig_sym(m: SymMatrix) -> Spectrum:
    """Exact symmetric eigenvalues, descending.

    Backed by LAPACK's deterministic tridiagonalization solvers; raises
    ConvergenceFailure if the iteration fails on pathological input.
    """
    try:
        vals, _ = eigh_descending(m.values, vectors=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    return Spectrum(vals)


@dataclass(frozen=True, eq=False)
class SampledDensitySpectrum:
    """Spectral-density sampling of a temporal kernel matrix spectrum.

    ``frequencies`` and ``raw_values`` hold the unsorted sequence
    (1/delta) S((i - n/2)/(n delta)), i = 0..n-1, used by the figure
    scripts; ``spectrum`` is the same multiset sorted descending.
    """

    spectrum: Spectrum
    frequencies: np.ndarray
    raw_values: np.ndarray


def approx_temporal_spectrum(kernel: TemporalKernel,
                             grid: TimeGrid) -> SampledDensitySpectrum:
    """Spectrum approximation for continuous-support temporal kernels.

    The eigenvalues of the n x n Toeplitz matrix approach the samples of
    S(.)/delta on the centered frequency grid (i - n/2)/(n delta); the
    approximation sharpens as n grows and is exact in the limit.
    """
    if classify(kernel).support_discrete:
        raise WrongClass(
            "the sampled-density approximation applies to broadband and "
            "band-limited kernels; for discrete support use spectral_lines, "
            "or eig_sym on the kernel matrix")
    n, delta = grid.n, grid.delta
    freqs = (np.arange(n) - n / 2.0) / (n * delta)
    raw = spectral_density(kernel, freqs) / delta
    spectrum = Spectrum(np.sort(raw)[::-1])
    return SampledDensitySpectrum(spectrum, freqs, raw)


@dataclass(frozen=True, eq=False)
class ProductSpectrum:
    """Largest pairwise products of a spatial and a temporal spectrum.

    ``pairs`` records the 1-based factor indices (i_l, j_l) of each product,
    in descending product order.
    """

    spectrum: Spectrum
    pairs: tuple[tuple[int, int], ...]

    @property
    def distinct_spatial_indices(self) -> int:
        return len({i for i, _ in self.pairs})


def approx_product_spectrum(spatial: Spectrum, temporal: Spectrum,
                            n: int) -> ProductSpectrum:
    """The n largest products (1/n) lam_i(K_S) lam_j(K_T), with provenance.

    Negative inputs are clipped to zero.  Products are ordered by
    (descending product, i, j), so equal products keep their factor indices
    in lexicographic order.  Both spectra are nonincreasing, so the product
    at (i, j) comes after the (i+1)(j+1) - 1 others in its leading block;
    only the pairs with (i+1)(j+1) <= n, about n ln n of them, are formed
    and sorted.
    """
    a = np.maximum(spatial.values, 0.0)
    b = np.maximum(temporal.values, 0.0)
    if len(a) == 0 or len(b) == 0 or n <= 0:
        return ProductSpectrum(Spectrum(np.zeros(0)), ())
    per_row = np.minimum(n // np.arange(1, len(a) + 1), len(b))
    i = np.repeat(np.arange(len(a)), per_row)
    j = np.arange(len(i)) - np.repeat(np.cumsum(per_row) - per_row, per_row)
    products = a[i] * b[j]
    order = np.lexsort((j, i, -products))[:n]
    i, j = i[order], j[order]
    pairs = tuple(zip((i + 1).tolist(), (j + 1).tolist()))
    return ProductSpectrum(Spectrum(products[order] / n), pairs)


def count_in_interval(spectrum: Spectrum, a: float, b: float) -> int:
    """Number of eigenvalues lam with a <= lam <= b."""
    if a > b:
        raise ValueError("need a <= b")
    v = spectrum.values
    return int(np.count_nonzero((v >= a) & (v <= b)))


def positive_mask(values: np.ndarray) -> np.ndarray:
    """Which of the descending eigenvalues ``values`` are positive: those
    above POSITIVE_EIGENVALUE_REL_THRESHOLD * lam_max, none when
    lam_max <= 0.

    Numerically tiny eigenvalues of rank-deficient kernel matrices are not
    exact zeros; this is the package-wide notion of 'positive eigenvalue'.
    """
    if len(values) == 0 or values[0] <= 0:
        return np.zeros(len(values), dtype=bool)
    return values > POSITIVE_EIGENVALUE_REL_THRESHOLD * values[0]


def positive_count(spectrum: Spectrum) -> int:
    """Number of positive eigenvalues (see ``positive_mask``)."""
    return int(np.count_nonzero(positive_mask(spectrum.values)))
