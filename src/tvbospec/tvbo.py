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
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .gp import Dataset, GPPosterior, conditioning_noise, sample_prior_path
from .kernels import SpatialKernel, TemporalKernel, eval_temporal
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
        if self.grid_resolution < 2:
            raise ValueError("grid_resolution must be at least 2")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if not 0 < self.confidence < 1:
            raise ValueError("confidence must lie in (0, 1)")
        if not self.lipschitz > 0:
            raise ValueError("lipschitz must be positive")
        if not self.delta > 0:
            raise ValueError("delta must be positive")
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
    observations and every grid point at the next sampling instant (see
    ``GPPosterior.mean_var``); ``run_tvbo`` builds it from one cached
    spatial row per observation.  Negative beta is clipped to zero (pure
    exploitation); ties resolve to the lowest grid index.
    """
    mean, var = post.mean_var(k_dq)
    sd = np.sqrt(var)
    j = int(np.argmax(mean + math.sqrt(max(beta, 0.0)) * sd))
    return j, float(sd[j])


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
    ks_rows = np.zeros((n, len(grid)))
    for i in range(n):
        t = times[i]
        betas[i] = beta_schedule(i + 1, config.confidence, d, config.lipschitz)
        k_dq = ks_rows[:i] * eval_temporal(config.temporal,
                                           np.abs(times[:i, None] - t))
        j, sds[i] = ucb_select(post, k_dq, betas[i])
        chosen[i] = j
        y = objective[j, i]
        if config.noise > 0:
            y += noise_rng.normal(0.0, math.sqrt(config.noise))
        ys[i] = y
        regret[i] = objective[star[i], i] - objective[j, i]
        ks_rows[i] = config.spatial.pairwise(grid[j], grid)[0]
        post = post.extended(grid[j], t, y, k_dq[:, j])
    return RegretTrace(config, grid, times, chosen, star, regret, ys, sds,
                       betas, objective)


def run_replications(config: TVBOConfig, seeds, jobs: int = 1):
    """Run independent seeded replications, returned in seed order."""
    configs = [replace(config, seed=int(s)) for s in seeds]
    if jobs <= 1:
        return [run_tvbo(c) for c in configs]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(run_tvbo, configs))
