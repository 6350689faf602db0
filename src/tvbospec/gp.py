"""Exact GP posterior inference, prior sampling and the Mercer expansion.

The spatio-temporal prior is GP(0, k_S * k_T) with unit prior variance.
Conditioning grows a Cholesky factor of the noisy Gram matrix in place by
one row per observation, so a sequential optimization loop pays O(n^2) per
added observation instead of O(n^3).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._blas import cholesky_lower, solve_transposed, solve_upper
from .errors import CapExceeded, SingularSystem
from .kernels import SpatialKernel, TemporalKernel, eval_temporal
from .spectral import TimeGrid, cross_covariance, positive_mask

__all__ = [
    "Dataset",
    "GPPosterior",
    "sample_prior_path",
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

# Rows of the spatial Gram matrix that one pairwise call fills for a prior
# draw: 1.6 MB of work arrays at 1600 grid points.
_GRAM_BLOCK_ROWS = 64


def conditioning_noise(noise: float) -> float:
    """``noise``, or NOISELESS_JITTER in place of an exact zero."""
    return noise if noise > 0 else NOISELESS_JITTER


def _jittered_cholesky(gram: np.ndarray, jitter: float) -> np.ndarray:
    """Lower Cholesky factor of ``gram`` + jitter * I (``gram`` is updated)."""
    gram[np.diag_indices_from(gram)] += jitter
    try:
        return cholesky_lower(gram)
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
        for name, values in (("xs", xs), ("ts", ts), ("ys", ys),
                             ("noise", self.noise)):
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{name} must be finite")
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
    """Posterior of a product-kernel GP conditioned on observations.

    Every observation is conditioned on by ``extended``, in place: the
    constructor builds the Gram matrix of ``data`` once and passes each
    observation its column.  The observations, the lower Cholesky factor L
    of the noisy Gram matrix (stored as L^T) and alpha = L^-1 y live in
    buffers that double when full, so an extension writes one row of L and
    one entry of alpha and copies nothing else.  The covariances passed to
    ``mean_var`` and ``extended`` are LAPACK workspace and may be
    overwritten: a Fortran-ordered float64 array is, any other is copied
    first.
    """

    def __init__(self, spatial: SpatialKernel, temporal: TemporalKernel,
                 data: Dataset):
        self.spatial = spatial
        self.temporal = temporal
        self._data_noise = data.noise
        self._noise = conditioning_noise(data.noise)
        self._n = 0
        n = len(data)
        # Capacity n; _grow reallocates before anything is written past n.
        self._xs = np.zeros_like(data.xs)
        self._ts, self._ys, self._alpha = np.zeros(n), np.zeros(n), np.zeros(n)
        # _chol[:n, :n] holds L^T in its upper triangle: each extension
        # writes the new row of L as a column.
        self._chol = np.zeros((n, n), order="F")
        if n:
            gram = cross_covariance(spatial, temporal, data.xs, data.ts,
                                    data.xs, data.ts)
            for i in range(n):
                self.extended(data.xs[i], data.ts[i], data.ys[i], gram[:i, i])

    @property
    def data(self) -> Dataset:
        """The observations conditioned on, as a (newly validated) Dataset."""
        n = self._n
        return Dataset(self._xs[:n], self._ts[:n], self._ys[:n],
                       noise=self._data_noise)

    def _grow(self) -> None:
        """Double the capacity of every buffer, keeping the n observations."""
        n = self._n
        cap = max(2 * n, 16)

        def bigger(old):
            new = np.zeros((cap,) + old.shape[1:])
            new[:n] = old[:n]
            return new

        self._xs, self._ts, self._ys, self._alpha = map(
            bigger, (self._xs, self._ts, self._ys, self._alpha))
        chol = np.zeros((cap, cap), order="F")
        chol[:n, :n] = self._chol[:n, :n]
        self._chol = chol

    def _solve(self, b: np.ndarray) -> np.ndarray:
        """L^-1 b against the n x n factor, solved as (L^T)^T x = b."""
        return solve_transposed(self._chol[:, :self._n], b)

    def predict(self, xs_q, ts_q):
        """Posterior means and full covariance matrix at the queries."""
        xs_q = np.atleast_2d(np.asarray(xs_q, dtype=float))
        ts_q = np.atleast_1d(np.asarray(ts_q, dtype=float))
        k_qq = cross_covariance(self.spatial, self.temporal, xs_q, ts_q,
                                xs_q, ts_q)
        n = self._n
        if n == 0:
            return np.zeros(len(ts_q)), k_qq
        a = self._solve(cross_covariance(self.spatial, self.temporal,
                                         self._xs[:n], self._ts[:n],
                                         xs_q, ts_q))
        mean = a.T @ self._alpha[:n]
        cov = k_qq - a.T @ a
        cov = 0.5 * (cov + cov.T)
        return mean, cov

    def mean_var(self, k_dq):
        """Posterior means and (clipped) marginal variances at q queries.

        ``k_dq`` is the (n, q) block of prior covariances between the n
        observations and the queries, as built by ``cross_covariance``.
        Taking the block rather than the query points lets the GP-UCB loop
        assemble it from one cached spatial row per observation, in a
        Fortran-ordered buffer that the solve and the squares then
        overwrite.  ``k_dq`` may be overwritten (see the class docstring).

        Each column is reduced on its own, so a query's mean and variance
        have the same bits whichever other columns the block holds, given
        at least two: ``?trtrs`` solves a single column by another path.
        (A BLAS ``a.T @ alpha`` would not do: its gemv kernel sums groups
        of four outputs in another order than the rest.)
        """
        n = self._n
        if n == 0:
            return np.zeros(k_dq.shape[1]), np.ones(k_dq.shape[1])
        a = self._solve(k_dq)
        mean = np.einsum("ij,i->j", a, self._alpha[:n])
        var = 1.0 - np.sum(np.multiply(a, a, out=a), axis=0)
        return mean, np.maximum(var, 0.0)

    def mean_weights(self) -> np.ndarray:
        """w = K^-1 y for the noisy Gram matrix K, solved as L^T w = alpha.

        The posterior mean at queries with prior covariances ``k_dq`` is
        k_dq^T w, which costs O(nq) against the O(n^2 q) solve of
        ``mean_var``; the two round differently.
        """
        return self.back_solve(self._alpha[:self._n].copy())

    def back_solve(self, v: np.ndarray) -> np.ndarray:
        """L_m^-T v against the leading m x m block of the factor, m =
        len(v); may overwrite ``v``.

        With v = alpha this is K^-1 y.  With the row l = L_m^-1 k that
        ``extended`` returns for the m observations before it, it is
        K_m^-1 k, whatever was added since: an extension leaves the leading
        block as it was.
        """
        return solve_upper(self._chol[:, :len(v)], v)

    def extended(self, x, t, y, k_new) -> tuple[np.ndarray, float]:
        """Condition on one more observation in place, by rank-one Cholesky
        growth; ``k_new`` holds its prior covariances with the n
        observations and may be overwritten.  Returns the new row of L,
        as l = L_n^-1 k_new and its diagonal entry d.

        Raises ValueError when ``x``, ``t`` or ``y`` is not finite, and
        SingularSystem when the observation breaks positive definiteness,
        leaving the posterior as it was.  The other Dataset rules are not
        re-checked here: ``t`` must follow the last time by the data's step
        and ``x`` lie in the unit cube (reading ``data`` checks them).
        """
        if not (math.isfinite(t) and math.isfinite(y)
                and np.all(np.isfinite(x))):
            raise ValueError("x, t and y must be finite")
        n = self._n
        l_row = self._solve(k_new) if n else np.zeros(0)
        diag_sq = 1.0 + self._noise - float(l_row @ l_row)
        if not diag_sq > 0:
            raise SingularSystem("appending observation breaks positive "
                                 "definiteness; increase the noise")
        if n == len(self._ts):
            self._grow()
        self._xs[n] = np.reshape(x, self._xs.shape[1:])
        self._ts[n] = t
        self._ys[n] = y
        self._n = n + 1
        diag = math.sqrt(diag_sq)
        self._chol[:n, n] = l_row
        self._chol[n, n] = diag
        self._alpha[n] = (y - float(l_row @ self._alpha[:n])) / diag
        return l_row, diag


def _spatial_gram(spatial: SpatialKernel, xs_grid: np.ndarray) -> np.ndarray:
    """Fortran-ordered Gram matrix of ``spatial`` on ``xs_grid``, entry for
    entry ``spatial.pairwise(xs_grid, xs_grid)``.

    It is filled _GRAM_BLOCK_ROWS rows at a time, so the only (m, m) array
    made is the one returned, which ``cholesky_lower`` then factors in
    place.
    """
    m = xs_grid.shape[0]
    gram = np.empty((m, m), order="F")
    for start in range(0, m, _GRAM_BLOCK_ROWS):
        rows = slice(start, start + _GRAM_BLOCK_ROWS)
        gram[rows] = spatial.pairwise(xs_grid[rows], xs_grid)
    return gram


def _seed_key(seed):
    """(entropy, spawn_key, pool_size) of an int or SeedSequence seed with
    an int entropy, the inputs its generator's state is made from; None
    for any other seed, whose draw is never cached."""
    if isinstance(seed, (int, np.integer)) and not isinstance(seed, bool):
        seed = np.random.SeedSequence(int(seed))  # as default_rng does
    if (isinstance(seed, np.random.SeedSequence)
            and isinstance(seed.entropy, int)):
        return seed.entropy, seed.spawn_key, seed.pool_size
    return None


def _half(spatial: SpatialKernel, xs_grid: np.ndarray, seed,
          n: int) -> np.ndarray:
    """Read-only ls @ z of the prior draw on ``xs_grid``: the jittered
    Cholesky factor ls of the spatial Gram matrix times the (m, n) standard
    normals z of ``seed``.  The factor is made in place of the Gram matrix
    and dropped on return."""
    factor = _jittered_cholesky(_spatial_gram(spatial, xs_grid),
                                _PRIOR_JITTER)
    half = factor @ np.random.default_rng(seed).standard_normal(
        (xs_grid.shape[0], n))
    half.flags.writeable = False
    return half


@functools.lru_cache(maxsize=1)
def _spatial_draw(spatial: SpatialKernel, grid_bytes: bytes, shape,
                  seed_key, n: int) -> np.ndarray:
    """``_half`` of the float64 grid held in ``grid_bytes`` and the seed
    keyed by ``seed_key``.

    Every kernel class of an experiment draws with the same seeds, so the
    last product is kept: m n floats (2.56 MB at 1600 points and horizon
    200), and never the m^2-float factor.  The objective is this times
    lt^T, evaluated in the order of ls @ z @ lt^T, so its bits are those of
    the uncached draw.
    """
    entropy, spawn_key, pool_size = seed_key
    seed = np.random.SeedSequence(entropy, spawn_key=spawn_key,
                                  pool_size=pool_size)
    return _half(spatial, np.frombuffer(grid_bytes).reshape(shape), seed, n)


def sample_prior_path(spatial: SpatialKernel, temporal: TemporalKernel,
                      xs_grid, time_grid: TimeGrid, seed) -> np.ndarray:
    """One exact draw of the prior GP on a (space x time) product grid.

    ``xs_grid`` is an (m, d) array of spatial points.  Returns an (m, n)
    matrix of function values.  The product-kernel structure factors the
    grid covariance as a Kronecker product, so the draw costs O(m^3 + n^3)
    instead of O((mn)^3); a 1e-10 jitter on each factor keeps the
    factorizations positive definite.  Grids of more than
    DEFAULT_SAMPLING_CAP points raise CapExceeded, and a non-finite
    ``xs_grid`` ValueError.  Reproducible per seed.
    The spatial half ls @ z of the last draw with an int or SeedSequence
    ``seed`` is kept, and never the spatial factor.
    """
    xs_grid = np.atleast_2d(np.asarray(xs_grid, dtype=float))
    if not np.all(np.isfinite(xs_grid)):
        raise ValueError("xs_grid must be finite")
    m, n = xs_grid.shape[0], time_grid.n
    if m * n > DEFAULT_SAMPLING_CAP:
        raise CapExceeded(f"grid of {m} x {n} = {m * n} points exceeds the "
                          f"cap of {DEFAULT_SAMPLING_CAP}")
    key = _seed_key(seed)
    if key is None:
        half = _half(spatial, xs_grid, seed, n)
    else:
        half = _spatial_draw(spatial, xs_grid.tobytes(), xs_grid.shape, key,
                             n)
    ts = time_grid.times
    kt = eval_temporal(temporal, np.abs(ts[:, None] - ts[None, :]))
    return half @ _jittered_cholesky(kt, _PRIOR_JITTER).T


def nystrom_expansion(vals, vecs, ys, k_queries):
    """Truncated Mercer expansion from an n x n kernel-matrix eigensystem.

    ``vals`` are the matrix eigenvalues in descending order and ``vecs`` the
    matching eigenvector columns Phi; only the positive eigenpairs
    (``spectral.positive_mask``) are kept.  The operator
    eigenvalues are lam_bar_i = lam_i / n and the eigenfunctions take the
    values sqrt(n) Phi_ji at the samples.  Returns ``(lam_bar, inner, phi_q)``:
    the kept operator eigenvalues, the sample inner products
    sum_j phi_i(z_j) ys_j, and for each covariance vector k_q in
    ``k_queries`` the Nystrom extension
    phi_i(q) = (sqrt(n)/lam_i) sum_j Phi_ji k(q, z_j), which reduces to
    sqrt(n) Phi_ji exactly when q is the j-th sample.
    """
    n = len(ys)
    keep = positive_mask(vals)
    lam = vals[keep]
    phi = vecs[:, keep]
    root_n = math.sqrt(n)
    phi_q = [root_n * (phi.T @ k_q) / lam for k_q in k_queries]
    return lam / n, (root_n * phi).T @ ys, phi_q

