"""GP posterior inference, prior sampling and the Mercer approximation."""

import math

import numpy as np
import pytest
from scipy.linalg import cholesky

from tvbospec.errors import (
    CapExceeded,
    DimensionMismatch,
    MissingEigenvectors,
)
from tvbospec.gp import (
    Dataset,
    GPPosterior,
    mercer_posterior,
    sample_prior_path,
)
from tvbospec.gp import _spatial_factor
from tvbospec.kernels import SpatialKernel, TemporalKernel, eval_temporal
from tvbospec.spectral import (
    SymMatrix,
    TimeGrid,
    build_spatiotemporal_matrix,
    cross_covariance,
    eig_sym,
)


def dense_solve_oracle(spatial, temporal, data, xs_q, ts_q):
    """Posterior via a plain linear solve; shares no code with GPPosterior."""
    xs_q = np.atleast_2d(np.asarray(xs_q, dtype=float))
    ts_q = np.asarray(ts_q, dtype=float)
    n = len(data)
    noise = data.noise if data.noise > 0 else 1e-8

    def kern(x1, t1, x2, t2):
        ks = spatial.pairwise(x1, x2)
        kt = eval_temporal(temporal, np.abs(t1[:, None] - t2[None, :]))
        return ks * kt

    gram = kern(data.xs, data.ts, data.xs, data.ts) + noise * np.eye(n)
    k_dq = kern(data.xs, data.ts, xs_q, ts_q)
    sol = np.linalg.solve(gram, np.column_stack([data.ys[:, None], k_dq]))
    mean = k_dq.T @ sol[:, 0]
    cov = kern(xs_q, ts_q, xs_q, ts_q) - k_dq.T @ sol[:, 1:]
    return mean, cov


def _random_dataset(rng, n, noise=0.01, d=1, delta=0.1):
    xs = rng.uniform(0, 1, (n, d))
    ts = (np.arange(n) + 1) * delta
    ys = rng.standard_normal(n)
    return Dataset(xs, ts, ys, noise=noise)


class TestPosterior:
    def test_prior_recovery(self):
        sp, tp = SpatialKernel.rbf([0.3]), TemporalKernel.rbf(1.0)
        data = Dataset(np.zeros((0, 1)), [], [], noise=0.01)
        mean, cov = GPPosterior(sp, tp, data).predict([[0.2], [0.8]],
                                                      [0.5, 1.5])
        assert np.allclose(mean, 0.0)
        assert np.allclose(np.diag(cov), 1.0)

    def test_noiseless_interpolation(self):
        sp, tp = SpatialKernel.rbf([0.3]), TemporalKernel.rbf(1.0)
        data = Dataset([[0.4]], [0.3], [2.5], noise=0.0)
        mean, cov = GPPosterior(sp, tp, data).predict([[0.4]], [0.3])
        assert mean[0] == pytest.approx(2.5, abs=1e-6)
        assert cov[0, 0] == pytest.approx(0.0, abs=1e-6)

    def test_against_dense_solve_oracle(self, rng):
        sp, tp = SpatialKernel.rbf([0.25]), TemporalKernel.matern(1.5, 0.8)
        data = _random_dataset(rng, 5)
        xs_q = rng.uniform(0, 1, (4, 1))
        ts_q = np.linspace(0.05, 0.65, 4)
        mean, cov = GPPosterior(sp, tp, data).predict(xs_q, ts_q)
        omean, ocov = dense_solve_oracle(sp, tp, data, xs_q, ts_q)
        assert np.allclose(mean, omean, atol=1e-8)
        assert np.allclose(cov, ocov, atol=1e-8)

    def test_posterior_covariance_psd(self, rng):
        sp, tp = SpatialKernel.rbf([0.25]), TemporalKernel.rbf(1.0)
        data = _random_dataset(rng, 12)
        xs_q = rng.uniform(0, 1, (6, 1))
        _, cov = GPPosterior(sp, tp, data).predict(xs_q,
                                                 np.linspace(0.1, 2.0, 6))
        assert np.linalg.eigvalsh(cov)[0] >= -1e-8

    def test_incremental_matches_batch(self, rng):
        sp, tp = SpatialKernel.rbf([0.25]), TemporalKernel.rbf(1.0)
        data = _random_dataset(rng, 8)
        batch = GPPosterior(sp, tp, data)
        inc = GPPosterior(sp, tp, Dataset(np.zeros((0, 1)), [], [],
                                          noise=data.noise))
        for i in range(len(data)):
            k_new = cross_covariance(sp, tp, inc.data.xs, inc.data.ts,
                                     data.xs[i:i + 1], data.ts[i:i + 1])
            inc = inc.extended(data.xs[i], data.ts[i], data.ys[i],
                               k_new[:, 0])
        xs_q = rng.uniform(0, 1, (5, 1))
        ts_q = np.linspace(0.2, 1.0, 5)
        mb, cb = batch.predict(xs_q, ts_q)
        mi, ci = inc.predict(xs_q, ts_q)
        assert np.allclose(mb, mi, atol=1e-10)
        assert np.allclose(cb, ci, atol=1e-10)

    def test_variance_never_increases_with_data(self, rng):
        sp, tp = SpatialKernel.rbf([0.3]), TemporalKernel.rbf(1.0)
        for _ in range(100):
            n = int(rng.integers(1, 10))
            data = _random_dataset(rng, n, noise=float(rng.uniform(0.001, 0.1)))
            post = GPPosterior(sp, tp, data)
            xq = rng.uniform(0, 1, (1, 1))
            tq = np.array([data.ts[-1] + 0.25])
            _, before = post.mean_var(cross_covariance(
                sp, tp, post.data.xs, post.data.ts, xq, tq))
            x_new = rng.uniform(0, 1, (1, 1))
            t_new = data.ts[-1] + 0.1
            k_new = cross_covariance(sp, tp, data.xs, data.ts, x_new,
                                     np.array([t_new]))[:, 0]
            bigger = post.extended(x_new, t_new,
                                   float(rng.standard_normal()), k_new)
            _, after = bigger.mean_var(cross_covariance(
                sp, tp, bigger.data.xs, bigger.data.ts, xq, tq))
            assert after[0] <= before[0] + 1e-8

    def test_empty_dataset_keeps_dimension(self):
        assert Dataset(np.zeros((0, 2)), [], []).xs.shape == (0, 2)
        assert Dataset([], [], []).xs.shape == (0, 1)

    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            Dataset([[0.1], [0.2]], [0.2, 0.1], [0.0, 0.0])
        with pytest.raises(ValueError):
            Dataset([[0.1], [0.2], [0.3]], [0.1, 0.2, 0.4], [0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            Dataset([[1.7]], [0.1], [0.0])


class TestPriorSampling:
    def test_deterministic(self):
        sp, tp = SpatialKernel.rbf([0.3]), TemporalKernel.rbf(1.0)
        grid = np.linspace(0, 1, 7)[:, None]
        a = sample_prior_path(sp, tp, grid, TimeGrid(11, 0.1), seed=42)
        b = sample_prior_path(sp, tp, grid, TimeGrid(11, 0.1), seed=42)
        assert np.array_equal(a, b)
        c = sample_prior_path(sp, tp, grid, TimeGrid(11, 0.1), seed=43)
        assert not np.array_equal(a, c)

    def test_scalar_grid(self):
        sp, tp = SpatialKernel.rbf([0.3]), TemporalKernel.rbf(1.0)
        draw = sample_prior_path(sp, tp, [[0.5]], TimeGrid(1, 0.1), seed=1)
        assert draw.shape == (1, 1) and np.isfinite(draw[0, 0])

    def test_marginal_variance(self):
        # pooled over a 25 x 200 grid and 200 replicate draws, the empirical
        # marginal variance must sit within 3 standard errors of 1
        sp, tp = SpatialKernel.rbf([0.4]), TemporalKernel.rbf(1.0)
        grid = np.linspace(0, 1, 25)[:, None]
        tg = TimeGrid(200, 0.1)
        reps = 200
        draws = np.stack([sample_prior_path(sp, tp, grid, tg, seed=s)
                          for s in range(reps)])
        var = draws.var(axis=0, ddof=1)
        # variance of a sample variance of N(0,1): 2/(reps-1)
        se = math.sqrt(2.0 / (reps - 1))
        assert abs(var.mean() - 1.0) <= 3 * se

    def test_covariance_matches_kernel(self):
        sp, tp = SpatialKernel.rbf([0.4]), TemporalKernel.rbf(1.0)
        pts_x = np.array([[0.1], [0.35], [0.6], [0.95]])
        tg = TimeGrid(4, 0.3)
        reps = 500
        draws = np.stack([np.diag(sample_prior_path(sp, tp, pts_x, tg, seed=s))
                          for s in range(reps)])
        emp = np.cov(draws.T, ddof=1)
        expected = build_spatiotemporal_matrix(sp, tp, pts_x, tg.times).values
        # moment-based standard error for Gaussian covariances
        se = np.sqrt((1 + expected ** 2) / reps)
        assert np.all(np.abs(emp - expected) <= 3 * se)

    def test_row_grid_rejected(self):
        # a (1, m) row is one m-dimensional point, not m points
        sp, tp = SpatialKernel.rbf([0.3]), TemporalKernel.rbf(1.0)
        with pytest.raises(DimensionMismatch):
            sample_prior_path(sp, tp, [[0.1, 0.5, 0.9]], TimeGrid(3, 0.1),
                              seed=0)

    def test_cap(self):
        sp, tp = SpatialKernel.rbf([0.3]), TemporalKernel.rbf(1.0)
        with pytest.raises(CapExceeded):
            sample_prior_path(sp, tp, np.zeros((1001, 1)),
                              TimeGrid(1000, 0.1), seed=0)

    @staticmethod
    def _uncached_path(spatial, temporal, xs_grid, time_grid, seed,
                       jitter=1e-10):
        """Both Kronecker factors built afresh, as a reference."""
        ks = spatial.pairwise(xs_grid, xs_grid)
        ks[np.diag_indices_from(ks)] += jitter
        ts = time_grid.times
        kt = eval_temporal(temporal, np.abs(ts[:, None] - ts[None, :]))
        kt[np.diag_indices_from(kt)] += jitter
        ls = cholesky(ks, lower=True)
        lt = cholesky(kt, lower=True)
        z = np.random.default_rng(seed).standard_normal(
            (len(xs_grid), time_grid.n))
        return ls @ z @ lt.T

    def test_cached_spatial_factor_matches_uncached_draw(self):
        # alternate kernels and grids (one call repeats, a cache hit)
        kernels = [SpatialKernel.rbf([0.3, 0.5]),
                   SpatialKernel.matern(1.5, [0.4, 0.2])]
        axis = np.linspace(0, 1, 6)
        grids = [np.array([(a, b) for a in axis for b in axis]),
                 np.random.default_rng(3).uniform(0, 1, (30, 2))]
        tp, tg = TemporalKernel.periodic(0.5, 0.8), TimeGrid(9, 0.1)
        for seed, (sp, grid) in enumerate(
                [(kernels[0], grids[0]), (kernels[1], grids[0]),
                 (kernels[1], grids[1]), (kernels[0], grids[1]),
                 (kernels[0], grids[1]), (kernels[0], grids[0])]):
            got = sample_prior_path(sp, tp, grid, tg, seed=seed)
            assert np.array_equal(
                got, self._uncached_path(sp, tp, grid, tg, seed))

    def test_cached_spatial_factor_is_read_only(self):
        sp = SpatialKernel.rbf([0.3])
        grid = np.linspace(0, 1, 5)[:, None]
        factor = _spatial_factor(sp, grid.tobytes(), grid.shape)
        assert not factor.flags.writeable
        with pytest.raises(ValueError):
            factor[0, 0] = 0.0


class TestMercerPosterior:
    def _setup(self, rng, temporal, n, noise):
        sp = SpatialKernel.rbf([0.2])
        xs = rng.uniform(0, 1, (n, 1))
        ts = (np.arange(n) + 1) * 0.1
        gram = build_spatiotemporal_matrix(sp, temporal, xs, ts)
        chol = np.linalg.cholesky(gram.values + 1e-10 * np.eye(n))
        fbar = chol @ rng.standard_normal(n)
        ys = fbar + (rng.normal(0, math.sqrt(noise), n) if noise else 0.0)
        data = Dataset(xs, ts, ys, noise=noise)
        spec = eig_sym(gram, want_vectors=True)
        return sp, data, spec

    def test_missing_eigenvectors(self, rng):
        tp = TemporalKernel.rbf(1.0)
        sp, data, spec = self._setup(rng, tp, 10, 0.01)
        without = eig_sym(build_spatiotemporal_matrix(sp, tp, data.xs, data.ts))
        with pytest.raises(MissingEigenvectors):
            mercer_posterior(without, data, (data.xs[0], data.ts[0]), sp, tp)

    def test_empty_data_returns_prior(self):
        sp, tp = SpatialKernel.rbf([0.3]), TemporalKernel.rbf(1.0)
        spec = eig_sym(SymMatrix(np.eye(1)), want_vectors=True)
        data = Dataset(np.zeros((0, 1)), [], [], noise=0.01)
        mean, var = mercer_posterior(spec, data, ([0.5], 0.1), sp, tp)
        assert (mean, var) == (0.0, 1.0)

    def test_mean_at_observed_point(self, rng):
        # noiseless conditioning at large n: the spectral mean reproduces
        # the exact posterior mean at observed points
        tp = TemporalKernel.rbf(1.0)
        sp, data, spec = self._setup(rng, tp, 200, 0.0)
        exact_mean, _ = GPPosterior(sp, tp, data).predict(data.xs[:20],
                                                          data.ts[:20])
        for j in range(20):
            mean, _ = mercer_posterior(spec, data, (data.xs[j], data.ts[j]),
                                       sp, tp)
            assert abs(mean - exact_mean[j]) < 0.05

    def test_variance_in_unit_interval(self, rng):
        tp = TemporalKernel.rbf(1.0)
        sp, data, spec = self._setup(rng, tp, 40, 0.01)
        for j in range(0, 40, 5):
            _, var = mercer_posterior(spec, data, (data.xs[j], data.ts[j]),
                                      sp, tp)
            assert 0.0 <= var <= 1.0

    def test_variance_deviation_shrinks_with_n(self, rng):
        # |spectral variance - exact variance| at the observed points decays
        # as the spectrum estimates improve with n
        tp = TemporalKernel.periodic(period=0.3, lengthscale=0.8)
        devs = []
        for n in (50, 100, 200):
            sp, data, spec = self._setup(rng, tp, n, 0.01)
            _, cov = GPPosterior(sp, tp, data).predict(data.xs, data.ts)
            exact_var = np.diag(cov)
            dev = [abs(mercer_posterior(spec, data, (data.xs[j], data.ts[j]),
                                        sp, tp)[1] - exact_var[j])
                   for j in range(n)]
            devs.append(float(np.mean(dev)))
        assert devs[2] < devs[1] < devs[0], devs

    def test_rbf_variance_consistency_direction(self, rng):
        # same convergence direction for the broadband pair used throughout
        tp = TemporalKernel.rbf(1.0)
        devs = []
        for n in (50, 200):
            sp, data, spec = self._setup(rng, tp, n, 0.01)
            _, cov = GPPosterior(sp, tp, data).predict(data.xs, data.ts)
            exact_var = np.diag(cov)
            dev = [abs(mercer_posterior(spec, data, (data.xs[j], data.ts[j]),
                                        sp, tp)[1] - exact_var[j])
                   for j in range(n)]
            devs.append(float(np.mean(dev)))
        assert devs[1] < devs[0], devs
