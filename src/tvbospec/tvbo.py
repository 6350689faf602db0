"""GP-UCB simulation loop for time-varying objectives on a spatial grid.

One run draws a deterministic objective from the product-kernel prior on a
(grid x horizon) lattice, then sequentially picks the UCB maximizer at each
sampling instant, conditioning on noisy observations.  Regret is measured
against the grid optimum of the noiseless objective at each instant, so
instantaneous regrets are nonnegative by construction.

Every chosen point is a grid point and every query set is the whole grid at
one instant, so the loop computes the spatial row k_S(x_i, grid) once, when
point i is chosen, and at each step scales the cached rows by the temporal
factors k_T(|t_i - t|) of the observations.

On grids of at least _SCREEN_MIN_GRID points the loop screens each step:
it bounds every grid point's UCB from above and solves the exact variance
only where that bound reaches the best exact UCB.  A temporal kernel with a
finite line expansion (the cosine sum) gives the variance itself, up to
rounding, from r x r running sums per grid point; for any other kernel,
once more than _SCREEN_SUBSET observations are in, the variance given a
subset of the observations bounds it, since conditioning on fewer never
lowers it.  The chosen points and standard deviations are those of the full
solve, bit for bit (README, "UCB screening in run_tvbo").
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from ._blas import cholesky_upper, solve_transposed
from .gp import Dataset, GPPosterior, conditioning_noise, sample_prior_path
from .kernels import (
    SpatialKernel,
    TemporalKernel,
    eval_temporal,
    line_features,
)
from .spectral import TimeGrid

__all__ = [
    "TVBOConfig",
    "RegretTrace",
    "beta_schedule",
    "ucb_select",
    "spatial_grid",
    "run_tvbo",
    "run_replications",
]


# The UCB screen; README, "UCB screening in run_tvbo", derives each value.
# _SCREEN_SUBSET observations bound the variance when the temporal kernel
# has no finite line expansion; grids below _SCREEN_MIN_GRID points always
# take the full solve, and so do steps past _SCREEN_MAX_OBS observations,
# where OpenBLAS's ?trtrs blocks the solve and a column's bits start to
# depend on the other columns.  _SCREEN_VAR_MARGIN and _SCREEN_UCB_MARGIN
# cover the rounding of the subset or line variance and of the screening
# mean.
_SCREEN_SUBSET = 32
_SCREEN_MIN_GRID = 256
_SCREEN_MAX_OBS = 384
_SCREEN_VAR_MARGIN = 1e-7
_SCREEN_UCB_MARGIN = 1e-7


def beta_schedule(i: int, confidence: float, dimension: int,
                  lipschitz: float) -> float:
    """Confidence multiplier beta_i = 2d log(L d i^2 / (6 delta)) + 4 log(pi i).

    Nondecreasing in the iteration index; may be negative for tiny i with
    small L*d/delta (callers clip at zero before taking the square root).
    """
    if i < 1:
        raise ValueError("iterations are 1-based")
    if not 0 < confidence < 1:
        raise ValueError("confidence must lie in (0, 1)")
    if lipschitz <= 0 or dimension <= 0:
        raise ValueError("Lipschitz constant and dimension must be positive")
    return (2.0 * dimension
            * math.log(lipschitz * dimension * i * i / (6.0 * confidence))
            + 4.0 * math.log(math.pi * i))


@dataclass(frozen=True)
class TVBOConfig:
    """Configuration of one simulated GP-UCB run."""

    spatial: SpatialKernel
    temporal: TemporalKernel
    delta: float = 0.1
    horizon: int = 200
    confidence: float = 0.1
    lipschitz: float = 10.0
    grid_resolution: int = 25
    noise: float = 0.01
    seed: int = 0

    def __post_init__(self):
        # Messages start with the field name, so callers can report it.
        for name in ("horizon", "grid_resolution", "seed"):
            value = getattr(self, name)
            if (isinstance(value, bool)
                    or not isinstance(value, (int, np.integer))):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("delta", "confidence", "lipschitz", "noise"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.grid_resolution < 2:
            raise ValueError("grid_resolution must be at least 2")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not 0 < self.confidence < 1:
            raise ValueError("confidence must lie in (0, 1)")
        if not self.lipschitz > 0:
            raise ValueError("lipschitz must be positive")
        if not self.delta > 0:
            raise ValueError("delta must be positive")
        if float(self.horizon) * self.delta == math.inf:
            raise ValueError("delta times horizon must be finite")
        if not self.noise >= 0:
            raise ValueError("noise must be nonnegative")


def spatial_grid(config: TVBOConfig) -> np.ndarray:
    """Uniform grid of grid_resolution^d points covering [0, 1]^d."""
    d = config.spatial.dimension
    axes = [np.linspace(0.0, 1.0, config.grid_resolution) for _ in range(d)]
    return np.array(list(itertools.product(*axes)), dtype=float)


def ucb_select(post: GPPosterior, k_dq: np.ndarray,
               beta: float) -> tuple[int, float]:
    """Index of the grid point maximizing mu + sqrt(beta) sigma, and the
    posterior standard deviation sigma at that point.

    ``k_dq`` holds the prior covariances between the posterior's
    observations and every grid point at the next sampling instant, and
    may be overwritten (see ``GPPosterior.mean_var``); ``run_tvbo`` builds
    it from one cached spatial row per observation.  Negative beta is
    clipped to zero (pure exploitation); ties resolve to the lowest grid
    index.
    """
    ucb, sd = _ucb(post, k_dq, math.sqrt(max(beta, 0.0)))
    j = int(np.argmax(ucb))
    return j, float(sd[j])


def _ucb(post: GPPosterior, k_dq: np.ndarray, root_beta: float):
    """mu + root_beta sigma at the queries of ``k_dq``, and sigma."""
    mean, var = post.mean_var(k_dq)
    sd = np.sqrt(var)
    return mean + root_beta * sd, sd


def _columns(ks_rows: np.ndarray, k_t: np.ndarray, cols) -> np.ndarray:
    """The Fortran-ordered (i, len(cols)) block of ``ucb_select`` at the
    grid points ``cols``, entry for entry the same as in the full block."""
    i = len(k_t)
    return np.multiply(ks_rows[:i, cols], k_t,
                       out=np.empty((i, len(cols)), order="F"))


def _subset_variance(k_ss: np.ndarray, k_s: np.ndarray, rows: np.ndarray):
    """Posterior variance at each grid point given only a subset S of the
    observations, unclipped; None when the factor of S fails.

    ``k_ss`` is the noisy Gram matrix of S (overwritten), ``k_s`` the
    temporal factors k_T(t_s - t) of S and ``rows`` their spatial rows.
    Conditioning on fewer observations never lowers the variance, so this
    bounds the full posterior's from above.  Only that bound matters, not
    its last bits, so the (M, q) block is U^-T diag(k_s) ``rows`` by one
    matmul rather than a ``?trtrs`` solve, which is slower at M = 32.
    """
    try:
        factor = cholesky_upper(k_ss)
    except np.linalg.LinAlgError:
        return None
    a = solve_transposed(factor, np.diag(k_s).T) @ rows
    return 1.0 - np.einsum("ij,ij->j", a, a)


class _LineVariance:
    """Posterior variance at every grid point through the temporal kernel's
    line expansion k_T(s - t) = phi(s) . phi(t), unclipped.

    With R the cached spatial rows, A_c = L^-1 diag(phi_c(t_1), ...,
    phi_c(t_n)) R for each of the r features, and G[c, c'] the column sums
    of A_c * A_c', the variance at time t is 1 - phi(t)^T G phi(t): O(r^2 q)
    at q grid points against the O(n^2 q) solve.  ``add`` folds each new
    row of the A_c into G, so the (r, n, q) stack of A_c is never held.
    """

    def __init__(self, features: np.ndarray, q: int):
        self.features = features
        r = features.shape[1]
        self.sums = np.zeros((r, r, q))

    def add(self, post: GPPosterior, ks_rows: np.ndarray, l_row: np.ndarray,
            diag: float) -> None:
        """Fold in observation n, whose row (``l_row``, ``diag``) of L
        ``post.extended`` returned; ``l_row`` is overwritten.

        Row n of A_c is (phi_c(t_n) R[n] - l^T A_c[:n]) / d, and
        l^T A_c[:n] = (phi_c(t_1..n) * K^-1 k_new)^T R[:n] with
        K^-1 k_new = L^-T l, one O(n^2) solve.
        """
        n = len(l_row)
        phi = self.features
        rows = phi[n, :, None] * ks_rows[n]
        if n:
            z = post.back_solve(l_row)
            rows -= (phi[:n] * z[:, None]).T @ ks_rows[:n]
        rows /= diag
        self.sums += rows[:, None] * rows[None]

    def variance(self, i: int) -> np.ndarray:
        """The posterior variance at time t_i, unclipped."""
        phi = self.features[i]
        return 1.0 - np.einsum("c,d,cdq->q", phi, phi, self.sums)


def _ucb_candidates(post: GPPosterior, ks_rows: np.ndarray, k_t: np.ndarray,
                    var_bound: np.ndarray, beta: float):
    """Sorted grid indices that hold every maximizer of ``ucb_select`` on
    the full block, at least two of them; None when more than half the
    grid survives the screen.

    ``ks_rows[:i]`` are the cached spatial rows and ``k_t`` the (i, 1)
    temporal factors of the i observations.  A point survives when its UCB
    bound, from the screening mean k_dq^T K^-1 y and ``var_bound`` (the
    subset or line variance), reaches the best exact UCB of the two points
    with the largest bounds.  Ties with the maximum survive too, so the
    lowest index still wins.
    """
    root_beta = math.sqrt(max(beta, 0.0))
    mean = ks_rows[:len(k_t)].T @ (k_t[:, 0] * post.mean_weights())
    bound = (mean + root_beta * np.sqrt(np.maximum(var_bound, 0.0)
                                        + _SCREEN_VAR_MARGIN)
             + _SCREEN_UCB_MARGIN)
    top = np.sort(np.argpartition(bound, -2)[-2:])
    best = np.max(_ucb(post, _columns(ks_rows, k_t, top), root_beta)[0])
    keep = bound >= best
    if np.count_nonzero(keep) > len(bound) // 2:
        return None
    keep[top] = True
    return np.flatnonzero(keep)


@dataclass(frozen=True, eq=False)
class RegretTrace:
    """Per-iteration record of one TVBO run.

    ``grid`` holds the search grid shared by the algorithm and the oracle;
    ``objective`` the full noiseless objective on (grid x horizon), so bound
    evaluators can reuse the run's draw.  ``posterior_sd`` is the predictive
    standard deviation of the chosen point just before observing it, which
    drives the sequential mutual-information identity.
    """

    config: TVBOConfig
    grid: np.ndarray
    times: np.ndarray
    chosen_idx: np.ndarray
    star_idx: np.ndarray
    instantaneous: np.ndarray
    ys: np.ndarray
    posterior_sd: np.ndarray
    betas: np.ndarray
    objective: np.ndarray

    def __post_init__(self):
        if np.any(self.instantaneous < 0):
            raise ValueError("instantaneous regrets must be nonnegative")

    @property
    def cumulative(self) -> np.ndarray:
        return np.cumsum(self.instantaneous)

    @property
    def total(self) -> float:
        return float(np.sum(self.instantaneous))

    @property
    def chosen_x(self) -> np.ndarray:
        return self.grid[self.chosen_idx]

    @property
    def star_x(self) -> np.ndarray:
        return self.grid[self.star_idx]

    @property
    def objective_at_chosen(self) -> np.ndarray:
        return self.objective[self.chosen_idx, np.arange(len(self.times))]

    @property
    def sequential_information(self) -> np.ndarray:
        """Cumulative I_n = 1/2 sum log(1 + sd_i^2 / noise), exact for GPs."""
        noise = conditioning_noise(self.config.noise)
        return 0.5 * np.cumsum(np.log1p(self.posterior_sd ** 2 / noise))

    def to_csv(self, path):
        """Write the trace as CSV to ``path`` and return ``path``."""
        d = self.grid.shape[1]
        xcols = [f"x_{k + 1}" for k in range(d)]
        header = (["iteration", "t"] + [f"chosen_{c}" for c in xcols]
                  + [f"star_{c}" for c in xcols]
                  + ["r", "R_cumulative"])
        cum = self.cumulative
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            for i in range(len(self.times)):
                cells = [str(i + 1), repr(float(self.times[i]))]
                cells += [repr(float(v)) for v in self.grid[self.chosen_idx[i]]]
                cells += [repr(float(v)) for v in self.grid[self.star_idx[i]]]
                cells += [repr(float(self.instantaneous[i])), repr(float(cum[i]))]
                fh.write(",".join(cells) + "\n")
        return path


def run_tvbo(config: TVBOConfig) -> RegretTrace:
    """Simulate one seeded GP-UCB run and return its regret trace."""
    grid = spatial_grid(config)
    d = config.spatial.dimension
    n = config.horizon
    # Times are t_i = i * delta, i = 1..n; the prior path is drawn on the
    # same lattice (shifted TimeGrid origin only changes labels, not the
    # stationary covariance).
    times = (np.arange(n) + 1) * config.delta
    seed_seq = np.random.SeedSequence(config.seed)
    path_seed, noise_seed = seed_seq.spawn(2)
    objective = sample_prior_path(config.spatial, config.temporal, grid,
                                  TimeGrid(n, config.delta), path_seed)
    noise_rng = np.random.default_rng(noise_seed)

    post = GPPosterior(config.spatial, config.temporal,
                       Dataset(np.zeros((0, d)), [], [], noise=config.noise))
    chosen = np.zeros(n, dtype=int)
    star = np.argmax(objective, axis=0)
    regret = np.zeros(n)
    ys = np.zeros(n)
    sds = np.zeros(n)
    betas = np.zeros(n)
    # ks_rows[i] = k_S(x_i, grid) for the i-th chosen point.
    q = len(grid)
    ks_rows = np.zeros((n, q), order="F")
    # Step i's (i, q) covariance block fills the first i * q entries of one
    # buffer in Fortran order, and mean_var solves and squares it in place.
    block = np.empty(n * q)
    screening = q >= _SCREEN_MIN_GRID
    # A kernel with a finite line expansion screens from step 1 through it,
    # any other from step _SCREEN_SUBSET + 1 through a subset.
    features = line_features(config.temporal, times)
    lines = None if features is None else _LineVariance(features, q)
    first = _SCREEN_SUBSET + 1 if lines is None else 1
    last = min(n - 1, _SCREEN_MAX_OBS)
    noise = conditioning_noise(config.noise)
    for i in range(n):
        t = times[i]
        betas[i] = beta_schedule(i + 1, config.confidence, d, config.lipschitz)
        k_t = eval_temporal(config.temporal, np.abs(times[:i, None] - t))
        cols = None
        if screening and first <= i <= last:
            if lines is not None:
                var_b = lines.variance(i)
            else:
                # S: the observations with the largest |k_T(t_s - t)|.
                s = np.sort(np.argpartition(-np.abs(k_t[:, 0]),
                                            _SCREEN_SUBSET)[:_SCREEN_SUBSET])
                rows = ks_rows[s]
                k_ss = rows[:, chosen[s]] * eval_temporal(
                    config.temporal, np.abs(times[s, None] - times[s]))
                k_ss[np.diag_indices_from(k_ss)] += noise
                var_b = _subset_variance(k_ss, k_t[s, 0], rows)
            if var_b is not None:
                cols = _ucb_candidates(post, ks_rows, k_t, var_b, betas[i])
            screening = cols is not None
        if cols is None:
            j, sds[i] = ucb_select(post, np.multiply(
                ks_rows[:i], k_t,
                out=block[:i * q].reshape((i, q), order="F")), betas[i])
        else:
            j, sds[i] = ucb_select(post, _columns(ks_rows, k_t, cols),
                                   betas[i])
            j = int(cols[j])
        chosen[i] = j
        y = objective[j, i]
        if config.noise > 0:
            y += noise_rng.normal(0.0, math.sqrt(config.noise))
        ys[i] = y
        regret[i] = objective[star[i], i] - objective[j, i]
        ks_rows[i] = config.spatial.pairwise(grid[j], grid)[0]
        l_row, diag = post.extended(grid[j], t, y, ks_rows[:i, j] * k_t[:, 0])
        if screening and lines is not None and i < last:
            lines.add(post, ks_rows, l_row, diag)
    return RegretTrace(config, grid, times, chosen, star, regret, ys, sds,
                       betas, objective)


def run_replications(config: TVBOConfig, seeds):
    """Run seeded replications one after another, in seed order, on the
    calling process.  The regret experiment spreads its (kernel, seed)
    replications over processes by calling this with one seed per worker
    (``expcli.experiments._map_replications``)."""
    return [run_tvbo(replace(config, seed=int(s))) for s in seeds]
