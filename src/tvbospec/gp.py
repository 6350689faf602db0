"""Exact GP posterior inference and spectral (Mercer) approximations.

The spatio-temporal prior is GP(0, k_S * k_T) with unit prior variance.
Conditioning uses a Cholesky factorization of the noisy Gram matrix with
incremental rank-one extension, so a sequential optimization loop pays
O(n^2) per added observation instead of O(n^3).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky, solve_triangular

from .errors import CapExceeded, MissingEigenvectors, SingularSystem
from .kernels import SpatialKernel, TemporalKernel, eval_temporal
from .spectral import (
    POSITIVE_EIGENVALUE_REL_THRESHOLD,
    Scale,
    Spectrum,
    TimeGrid,
    cross_covariance,
)

__all__ = [
    "Dataset",
    "GPPosterior",
    "sample_prior_path",
    "mercer_posterior",
    "nystrom_expansion",
    "NOISELESS_JITTER",
    "conditioning_noise",
    "DEFAULT_SAMPLING_CAP",
]

# Observation noise used in place of an exact zero when conditioning.
NOISELESS_JITTER = 1e-8

# Largest spatial-grid-size * time-grid-size product sample_prior_path accepts.
DEFAULT_SAMPLING_CAP = 1_000_000

# Diagonal jitter on each Kronecker factor of a prior draw.
_PRIOR_JITTER = 1e-10


def conditioning_noise(noise: float) -> float:
    """``noise``, or NOISELESS_JITTER in place of an exact zero."""
    return noise if noise > 0 else NOISELESS_JITTER


def _jittered_cholesky(gram: np.ndarray, jitter: float) -> np.ndarray:
    """Lower Cholesky factor of ``gram`` + jitter * I (``gram`` is updated)."""
    gram[np.diag_indices_from(gram)] += jitter
    try:
        return cholesky(gram, lower=True)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc


@dataclass(frozen=True, eq=False)
class Dataset:
    """Ordered observations (x_i, t_i, y_i) on a uniform time grid.

    Times must be strictly increasing with a constant step; spatial points
    live in the unit cube.  ``noise`` is the observational noise variance.
    """

    xs: np.ndarray
    ts: np.ndarray
    ys: np.ndarray
    noise: float = 0.0

    def __post_init__(self):
        xs = np.atleast_2d(np.asarray(self.xs, dtype=float))
        ts = np.asarray(self.ts, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if len(ts) == 0:
            xs = xs.reshape(0, max(1, xs.shape[1]))
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "ys", ys)
        if not (xs.shape[0] == len(ts) == len(ys)):
            raise ValueError("xs, ts and ys must have matching lengths")
        if self.noise < 0:
            raise ValueError("noise variance must be nonnegative")
        if len(ts) >= 2:
            steps = np.diff(ts)
            if np.any(steps <= 0):
                raise ValueError("times must be strictly increasing")
            if np.max(np.abs(steps - steps[0])) > 1e-9 * max(1.0, abs(steps[0])):
                raise ValueError("times must advance with a constant step")
        if xs.size and (np.any(xs < -1e-12) or np.any(xs > 1 + 1e-12)):
            raise ValueError("spatial points must lie in the unit cube")

    def __len__(self) -> int:
        return len(self.ts)


class GPPosterior:
    """Posterior of a product-kernel GP conditioned on a Dataset.

    Immutable once built; ``extended`` returns a new posterior with one more
    observation, reusing the existing Cholesky factor.
    """

    def __init__(self, spatial: SpatialKernel, temporal: TemporalKernel,
                 data: Dataset, _factor=None):
        self.spatial = spatial
        self.temporal = temporal
        self.data = data
        self._noise = conditioning_noise(data.noise)
        if _factor is not None:
            self._chol, self._alpha = _factor
        elif len(data) > 0:
            gram = cross_covariance(spatial, temporal, data.xs, data.ts,
                                    data.xs, data.ts)
            self._chol = _jittered_cholesky(gram, self._noise)
            self._alpha = solve_triangular(self._chol, data.ys, lower=True)
        else:
            self._chol = np.zeros((0, 0))
            self._alpha = np.zeros(0)

    def predict(self, xs_q, ts_q):
        """Posterior means and full covariance matrix at the queries."""
        xs_q = np.atleast_2d(np.asarray(xs_q, dtype=float))
        ts_q = np.atleast_1d(np.asarray(ts_q, dtype=float))
        k_qq = cross_covariance(self.spatial, self.temporal, xs_q, ts_q,
                                xs_q, ts_q)
        if len(self.data) == 0:
            return np.zeros(len(ts_q)), k_qq
        k_dq = cross_covariance(self.spatial, self.temporal, self.data.xs,
                                self.data.ts, xs_q, ts_q)
        a = solve_triangular(self._chol, k_dq, lower=True)
        mean = a.T @ self._alpha
        cov = k_qq - a.T @ a
        cov = 0.5 * (cov + cov.T)
        return mean, cov

    def mean_var(self, k_dq):
        """Posterior means and (clipped) marginal variances at q queries.

        ``k_dq`` is the (n, q) block of prior covariances between the n
        observations and the queries, as built by ``cross_covariance``.
        Taking the block rather than the query points lets the GP-UCB loop
        assemble it from one cached spatial row per observation.
        """
        if len(self.data) == 0:
            return np.zeros(k_dq.shape[1]), np.ones(k_dq.shape[1])
        a = solve_triangular(self._chol, k_dq, lower=True)
        mean = a.T @ self._alpha
        var = 1.0 - np.sum(a * a, axis=0)
        return mean, np.maximum(var, 0.0)

    def extended(self, x, t, y, k_new) -> "GPPosterior":
        """Posterior with one more observation, via rank-one Cholesky growth;
        ``k_new`` holds its prior covariances with the n observations."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        n = len(self.data)
        new_data = Dataset(
            np.vstack([self.data.xs, x]) if n else x,
            np.append(self.data.ts, t),
            np.append(self.data.ys, y),
            noise=self.data.noise,
        )
        if n == 0:
            return GPPosterior(self.spatial, self.temporal, new_data)
        l_row = solve_triangular(self._chol, k_new, lower=True)
        diag_sq = 1.0 + self._noise - float(l_row @ l_row)
        if diag_sq <= 0:
            raise SingularSystem("appending observation breaks positive "
                                 "definiteness; increase the noise")
        chol = np.zeros((n + 1, n + 1))
        chol[:n, :n] = self._chol
        chol[n, :n] = l_row
        chol[n, n] = np.sqrt(diag_sq)
        alpha = np.append(self._alpha,
                          (y - float(l_row @ self._alpha)) / chol[n, n])
        return GPPosterior(self.spatial, self.temporal, new_data,
                           _factor=(chol, alpha))


@functools.lru_cache(maxsize=1)
def _spatial_factor(spatial: SpatialKernel, grid_bytes: bytes,
                    shape) -> np.ndarray:
    """Read-only jittered Cholesky factor of the spatial Gram matrix on the
    float64 grid held in ``grid_bytes``.

    Every prior draw of an experiment shares one spatial kernel and grid, so
    the last factor is kept: at m grid points it holds m^2 floats (about
    20 MB at 1600 points).
    """
    xs_grid = np.frombuffer(grid_bytes).reshape(shape)
    factor = _jittered_cholesky(spatial.pairwise(xs_grid, xs_grid),
                                _PRIOR_JITTER)
    factor.flags.writeable = False
    return factor


def sample_prior_path(spatial: SpatialKernel, temporal: TemporalKernel,
                      xs_grid, time_grid: TimeGrid, seed) -> np.ndarray:
    """One exact draw of the prior GP on a (space x time) product grid.

    ``xs_grid`` is an (m, d) array of spatial points.  Returns an (m, n)
    matrix of function values.  The product-kernel structure factors the
    grid covariance as a Kronecker product, so the draw costs O(m^3 + n^3)
    instead of O((mn)^3); a 1e-10 jitter on each factor keeps the
    factorizations positive definite.  Grids of more than
    DEFAULT_SAMPLING_CAP points raise CapExceeded.  Reproducible per seed.
    The spatial factor of the last (spatial kernel, grid) is reused.
    """
    xs_grid = np.atleast_2d(np.asarray(xs_grid, dtype=float))
    m, n = xs_grid.shape[0], time_grid.n
    if m * n > DEFAULT_SAMPLING_CAP:
        raise CapExceeded(f"grid of {m} x {n} = {m * n} points exceeds the "
                          f"cap of {DEFAULT_SAMPLING_CAP}")
    ls = _spatial_factor(spatial, xs_grid.tobytes(), xs_grid.shape)
    ts = time_grid.times
    kt = eval_temporal(temporal, np.abs(ts[:, None] - ts[None, :]))
    lt = _jittered_cholesky(kt, _PRIOR_JITTER)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((m, n))
    return ls @ z @ lt.T


def nystrom_expansion(vals, vecs, ys, k_queries):
    """Truncated Mercer expansion from an n x n kernel-matrix eigensystem.

    ``vals`` are the matrix eigenvalues in descending order and ``vecs`` the
    matching eigenvector columns Phi; only the positive eigenpairs (above
    POSITIVE_EIGENVALUE_REL_THRESHOLD * lam_max) are kept.  The operator
    eigenvalues are lam_bar_i = lam_i / n and the eigenfunctions take the
    values sqrt(n) Phi_ji at the samples.  Returns ``(lam_bar, inner, phi_q)``:
    the kept operator eigenvalues, the sample inner products
    sum_j phi_i(z_j) ys_j, and for each covariance vector k_q in
    ``k_queries`` the Nystrom extension
    phi_i(q) = (sqrt(n)/lam_i) sum_j Phi_ji k(q, z_j), which reduces to
    sqrt(n) Phi_ji exactly when q is the j-th sample.
    """
    n = len(ys)
    keep = vals > POSITIVE_EIGENVALUE_REL_THRESHOLD * max(vals[0], 0.0)
    lam = vals[keep]
    phi = vecs[:, keep]
    root_n = math.sqrt(n)
    phi_q = [root_n * (phi.T @ k_q) / lam for k_q in k_queries]
    return lam / n, (root_n * phi).T @ ys, phi_q


def mercer_posterior(spectrum: Spectrum, data: Dataset, query,
                     spatial: SpatialKernel, temporal: TemporalKernel):
    """Spectral approximation of the posterior mean and variance at a query.

    Uses operator eigenpairs estimated from the data's kernel matrix
    spectrum (see :func:`nystrom_expansion`).  The mean is
    (1/n) sum_i phi_i(q) sum_j phi_i(z_j) y_j and the variance
    approximation 1 - sum_i lam_bar_i phi_i(q)^2 is clipped to [0, 1].

    ``query`` is an (x, t) pair.  Raises MissingEigenvectors when the
    spectrum has no eigenvectors.
    """
    if spectrum.vectors is None:
        raise MissingEigenvectors("mercer_posterior needs eigenvectors")
    n = len(data)
    if n == 0:
        return 0.0, 1.0
    vals = spectrum.to_matrix(n).values if spectrum.scale is Scale.OPERATOR \
        else spectrum.values
    xq, tq = query
    xq = np.atleast_2d(np.asarray(xq, dtype=float))
    k_q = cross_covariance(spatial, temporal, data.xs, data.ts,
                           xq, np.atleast_1d(float(tq)))[:, 0]
    lam_bar, inner, (phi_q,) = nystrom_expansion(
        vals, spectrum.vectors, data.ys, [k_q])
    mean = float(np.sum(phi_q * inner)) / n
    var = 1.0 - float(np.sum(lam_bar * phi_q ** 2))
    return mean, float(np.clip(var, 0.0, 1.0))
