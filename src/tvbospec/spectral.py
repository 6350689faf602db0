"""Kernel matrices, exact eigendecomposition and spectrum approximations.

Temporal kernel matrices on a uniform time grid are symmetric Toeplitz;
their spectra admit cheap approximations depending on the kernel class:
sampled spectral densities for continuous-support kernels, explicit
weight formulas for low-rank kernels, and the largest pairwise products
of factor spectra for spatio-temporal product kernels.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh, toeplitz

from .errors import ConvergenceFailure, WrongClass
from .kernels import (
    SpatialKernel,
    TemporalFamily,
    TemporalKernel,
    classify,
    eval_temporal,
    spectral_density,
)

__all__ = [
    "Scale",
    "Spectrum",
    "TimeGrid",
    "SymMatrix",
    "POSITIVE_EIGENVALUE_REL_THRESHOLD",
    "build_temporal_matrix",
    "cross_covariance",
    "build_spatiotemporal_matrix",
    "eig_sym",
    "circulant_embedding",
    "circulant_spectrum",
    "approx_temporal_spectrum",
    "approx_lowrank_spectrum",
    "approx_product_spectrum",
    "count_in_interval",
    "positive_count",
]

# Relative cutoff under which an eigenvalue counts as numerically zero.
POSITIVE_EIGENVALUE_REL_THRESHOLD = 1e-8


class Scale(str, enum.Enum):
    MATRIX = "matrix"      # eigenvalues of the n x n kernel matrix
    OPERATOR = "operator"  # matrix eigenvalues divided by n


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Dense symmetric matrix with validated symmetry and finite entries."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("matrix must be square")
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
    """Eigenvalues in descending order, optionally with eigenvectors.

    Eigenvector columns (when present) are orthonormal and aligned with the
    eigenvalues.  ``scale`` records whether the values are raw kernel-matrix
    eigenvalues or the operator normalization (divided by the matrix order).
    """

    values: np.ndarray
    vectors: np.ndarray | None = None
    scale: Scale = Scale.MATRIX

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if np.any(np.diff(v) > 1e-12 * max(1.0, float(np.max(np.abs(v), initial=0.0)))):
            raise ValueError("eigenvalues must be nonincreasing")
        if self.vectors is not None:
            q = np.asarray(self.vectors, dtype=float)
            object.__setattr__(self, "vectors", q)
            if q.shape[1] != len(v):
                raise ValueError("one eigenvector column per eigenvalue")

    def __len__(self) -> int:
        return len(self.values)

    def to_operator(self, n: int) -> "Spectrum":
        if self.scale is Scale.OPERATOR:
            return self
        return Spectrum(self.values / n, self.vectors, Scale.OPERATOR)

    def to_matrix(self, n: int) -> "Spectrum":
        if self.scale is Scale.MATRIX:
            return self
        return Spectrum(self.values * n, self.vectors, Scale.MATRIX)

    def clipped(self) -> "Spectrum":
        """Copy with negative (floating-point noise) eigenvalues set to 0."""
        return Spectrum(np.maximum(self.values, 0.0), self.vectors, self.scale)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling times t_i = i * delta, i = 0..n-1."""

    n: int
    delta: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not self.delta > 0:
            raise ValueError("delta must be positive")

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n) * self.delta


def build_temporal_matrix(kernel: TemporalKernel, grid: TimeGrid) -> SymMatrix:
    """Symmetric Toeplitz matrix with entries k(delta * |i - j|)."""
    first_row = eval_temporal(kernel, grid.times)
    return SymMatrix(toeplitz(first_row))


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


def _eigh(a: np.ndarray, vectors: bool = True):
    """Eigenvalues of the symmetric ``a`` in ascending order, and with
    ``vectors`` the matching eigenvector columns.

    The package's one eigensolver call: LAPACK ``?syevd`` (the routine
    ``np.linalg.eigh`` calls, with the same bits) run by scipy, so that
    every LAPACK call shares scipy's OpenBLAS thread pool.
    """
    return eigh(a, driver="evd", eigvals_only=not vectors)


def eig_sym(m: SymMatrix, want_vectors: bool = False) -> Spectrum:
    """Exact symmetric eigendecomposition, eigenvalues descending.

    Backed by LAPACK's deterministic tridiagonalization solvers; raises
    ConvergenceFailure if the iteration fails on pathological input.
    """
    try:
        if want_vectors:
            vals, vecs = _eigh(m.values)
        else:
            vals = _eigh(m.values, vectors=False)
            vecs = None
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    if vecs is not None:
        vecs = vecs[:, order]
    return Spectrum(vals, vecs, Scale.MATRIX)


def circulant_embedding(kernel: TemporalKernel, grid: TimeGrid) -> np.ndarray:
    """First row of the circulant embedding of the Toeplitz kernel matrix.

    c_0 = k(0) and c_j = k(delta j) + k(delta (n - j)) for 1 <= j <= n-1,
    which makes the row palindromic: c_j = c_{n-j}.
    """
    if grid.n < 2:
        raise ValueError("circulant embedding needs n >= 2")
    row = eval_temporal(kernel, grid.times)
    c = row.copy()
    c[1:] = row[1:] + eval_temporal(kernel, (grid.n - np.arange(1, grid.n)) * grid.delta)
    return c


def circulant_spectrum(first_row: np.ndarray) -> Spectrum:
    """Eigenvalues of the symmetric circulant with the given first row.

    They are the discrete Fourier transform of the row; the imaginary part
    vanishes for palindromic rows.
    """
    vals = np.fft.fft(np.asarray(first_row, dtype=float)).real
    return Spectrum(np.sort(vals)[::-1], None, Scale.MATRIX)


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
            "band-limited kernels; use approx_lowrank_spectrum instead")
    n, delta = grid.n, grid.delta
    freqs = (np.arange(n) - n / 2.0) / (n * delta)
    raw = spectral_density(kernel, freqs) / delta
    spectrum = Spectrum(np.sort(raw)[::-1], None, Scale.MATRIX)
    return SampledDensitySpectrum(spectrum, freqs, raw)


def approx_lowrank_spectrum(kernel: TemporalKernel, n: int) -> Spectrum:
    """Spectrum approximation for a low-rank (cosine-sum) kernel.

    The n x n kernel matrix has approximate eigenvalues n*c0 (total weight
    of the zero-frequency lines) and a pair n*c_j/2 per cosine line, all
    other eigenvalues 0 - at most 2L+1 nonzeros in total.
    """
    if kernel.family is not TemporalFamily.COSINE_SUM:
        raise WrongClass("need a low-rank kernel")
    cosines = np.array([w for f, w in kernel.lines if f != 0.0])
    pairs = np.repeat(0.5 * n * cosines, 2)[:n - 1]
    vals = np.zeros(n)
    vals[0] = n * sum(w for f, w in kernel.lines if f == 0.0)
    vals[1:1 + len(pairs)] = pairs
    return Spectrum(np.sort(vals)[::-1], None, Scale.MATRIX)


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

    Negative inputs are clipped to zero.  The products are generated
    lazily with a max-heap over the index lattice, so only O(n) of the
    n^2 candidates are ever materialized.
    """
    a = np.maximum(spatial.values, 0.0)
    b = np.maximum(temporal.values, 0.0)
    if len(a) == 0 or len(b) == 0 or n <= 0:
        return ProductSpectrum(Spectrum(np.zeros(0), None, Scale.MATRIX), ())
    out = np.empty(min(n, len(a) * len(b)))
    pairs = []
    heap = [(-a[0] * b[0], 0, 0)]
    seen = {(0, 0)}
    k = 0
    while heap and k < n:
        neg, i, j = heapq.heappop(heap)
        out[k] = -neg
        pairs.append((i + 1, j + 1))
        k += 1
        if i + 1 < len(a) and (i + 1, j) not in seen:
            heapq.heappush(heap, (-a[i + 1] * b[j], i + 1, j))
            seen.add((i + 1, j))
        if j + 1 < len(b) and (i, j + 1) not in seen:
            heapq.heappush(heap, (-a[i] * b[j + 1], i, j + 1))
            seen.add((i, j + 1))
    out = out[:k] / n
    return ProductSpectrum(Spectrum(out, None, Scale.MATRIX), tuple(pairs))


def count_in_interval(spectrum: Spectrum, a: float, b: float) -> int:
    """Number of eigenvalues lam with a <= lam <= b."""
    if a > b:
        raise ValueError("need a <= b")
    v = spectrum.values
    return int(np.count_nonzero((v >= a) & (v <= b)))


def positive_count(spectrum: Spectrum) -> int:
    """Number of eigenvalues above POSITIVE_EIGENVALUE_REL_THRESHOLD * lam_max.

    Numerically tiny eigenvalues of rank-deficient kernel matrices are not
    exact zeros; this is the package-wide notion of 'positive eigenvalue'.
    """
    v = spectrum.values
    if len(v) == 0 or v[0] <= 0:
        return 0
    return int(np.count_nonzero(v > POSITIVE_EIGENVALUE_REL_THRESHOLD * v[0]))
