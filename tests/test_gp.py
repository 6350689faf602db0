"""GP posterior inference, prior sampling and the Nystrom expansion."""

import gc
import math
import sys
import tracemalloc
import types

import numpy as np
import pytest
from scipy.linalg import cholesky, solve_triangular

from tvbospec import _blas, gp, tvbo
from tvbospec.errors import (
    CapExceeded,
    DimensionMismatch,
    SingularSystem,
)
from tvbospec.gp import (
    Dataset,
    GPPosterior,
    nystrom_expansion,
    sample_prior_path,
)
from tvbospec.kernels import SpatialKernel, TemporalKernel, eval_temporal
from tvbospec.spectral import (
    TimeGrid,
    build_spatiotemporal_matrix,
    cross_covariance,
    eig_sym,
    positive_count,
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


def _grown(sp, tp, data):
    """Posterior on ``data`` grown one observation at a time."""
    post = GPPosterior(sp, tp, Dataset(np.zeros((0, data.xs.shape[1])), [],
                                       [], noise=data.noise))
    for i in range(len(data)):
        k_new = cross_covariance(sp, tp, post.data.xs, post.data.ts,
                                 data.xs[i:i + 1], data.ts[i:i + 1])
        post.extended(data.xs[i], data.ts[i], data.ys[i], k_new[:, 0])
    return post


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

    @pytest.mark.parametrize("d", [1, 2])
    def test_incremental_matches_batch(self, rng, d):
        # the constructor conditions through extended, on the columns of one
        # Gram matrix, so it builds the grown factor bit for bit
        sp, tp = SpatialKernel.rbf([0.25] * d), TemporalKernel.rbf(1.0)
        n = 8
        data = _random_dataset(rng, n, d=d)
        batch = GPPosterior(sp, tp, data)
        inc = _grown(sp, tp, data)
        assert np.array_equal(batch._chol[:n, :n], inc._chol[:n, :n])
        assert np.array_equal(batch._alpha[:n], inc._alpha[:n])
        xs_q = rng.uniform(0, 1, (5, d))
        ts_q = np.linspace(0.2, 1.0, 5)
        for a, b in zip(batch.predict(xs_q, ts_q), inc.predict(xs_q, ts_q)):
            assert np.array_equal(a, b)

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
            post.extended(x_new, t_new, float(rng.standard_normal()), k_new)
            _, after = post.mean_var(cross_covariance(
                sp, tp, post.data.xs, post.data.ts, xq, tq))
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["xs", "ts", "ys", "noise"])
    def test_dataset_rejects_non_finite(self, field, bad):
        # the constructor's Gram matrix is never checked for finite entries
        fields = {"xs": np.array([[0.1], [0.2]]), "ts": np.array([0.1, 0.2]),
                  "ys": np.array([0.0, 1.0]), "noise": 0.01}
        if field == "noise":
            fields["noise"] = bad
        else:
            fields[field][-1] = bad
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            Dataset(**fields)

    @pytest.mark.parametrize("n", [2, 7, 40, 150])
    def test_solves_match_solve_triangular(self, rng, n):
        # the buffer holds L^T in its upper triangle, so ?trtrs gets the
        # arguments solve_triangular passes for L in C order
        sp, tp = SpatialKernel.rbf([0.25]), TemporalKernel.rbf(1.0)
        data = _random_dataset(rng, n)
        post = GPPosterior(sp, tp, data)
        k_dq = cross_covariance(sp, tp, data.xs, data.ts,
                                rng.uniform(0, 1, (300, 1)),
                                np.full(300, data.ts[-1] + 0.1))
        c_lower = np.ascontiguousarray(np.triu(post._chol[:n, :n]).T)
        assert not c_lower.flags.f_contiguous
        for block in (k_dq, k_dq[:, :1]):
            a = np.asfortranarray(solve_triangular(c_lower, block, lower=True))
            mean, var = post.mean_var(np.asfortranarray(block))
            assert np.array_equal(mean, np.einsum("ij,i->j", a,
                                                  post._alpha[:n]))
            assert np.array_equal(
                var, np.maximum(1.0 - np.sum(a * a, axis=0), 0.0))
        assert np.allclose(post._alpha[:n],
                           solve_triangular(c_lower, data.ys, lower=True),
                           rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 7, 40, 150, tvbo._SCREEN_MAX_OBS])
    def test_column_subsets_match_full_block(self, rng, n):
        # The UCB screen of run_tvbo solves only some columns of a step's
        # block, so each column's mean and variance must not depend on
        # which other columns are solved with it: the solve, the mean's
        # reduction and the column sums of squares.  Subsets have at least
        # two columns; ?trtrs solves a single column by another path, and
        # from 385 rows on it blocks the solve so that the bits differ.
        sp, tp = SpatialKernel.rbf([0.25, 0.4]), TemporalKernel.rbf(1.0)
        data = _random_dataset(rng, n, d=2)
        post = GPPosterior(sp, tp, data)
        q = 300
        k_dq = np.asfortranarray(cross_covariance(
            sp, tp, data.xs, data.ts, rng.uniform(0, 1, (q, 2)),
            np.full(q, data.ts[-1] + 0.1)))
        mean, var = post.mean_var(k_dq.copy(order="F"))
        for size in (2, 3, 5, 17):
            subsets = [np.arange(size), np.arange(q - size, q),
                       np.arange(101, 101 + size),
                       np.arange(size) * 13 + 4,
                       np.sort(rng.choice(q, size, replace=False))]
            for cols in subsets:
                got_mean, got_var = post.mean_var(
                    np.asfortranarray(k_dq[:, cols]))
                assert np.array_equal(got_mean, mean[cols]), (size, cols)
                assert np.array_equal(got_var, var[cols]), (size, cols)

    @pytest.mark.parametrize("noise", [0.01, 0.0])
    def test_mean_weights_give_the_posterior_mean(self, rng, noise):
        sp, tp = SpatialKernel.rbf([0.25]), TemporalKernel.rbf(1.0)
        data = _random_dataset(rng, 40, noise=noise)
        post = GPPosterior(sp, tp, data)
        k_dq = cross_covariance(sp, tp, data.xs, data.ts,
                                rng.uniform(0, 1, (50, 1)),
                                np.full(50, data.ts[-1] + 0.1))
        alpha = post._alpha[:40].copy()
        weights = post.mean_weights()
        assert np.array_equal(post._alpha[:40], alpha)
        mean, _ = post.mean_var(np.asfortranarray(k_dq))
        assert np.allclose(k_dq.T @ weights, mean, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("k_new", [10.0, np.nan])
    def test_inconsistent_extension_raises_singular_system(self, k_new):
        sp, tp = SpatialKernel.rbf([0.3]), TemporalKernel.rbf(1.0)
        post = GPPosterior(sp, tp, Dataset([[0.5]], [0.1], [1.0], noise=0.01))
        before = post.predict([[0.4]], [0.2])
        with pytest.raises(SingularSystem, match="positive definiteness"):
            post.extended([0.5], 0.2, 0.0, np.array([k_new]))
        assert len(post.data) == 1
        after = post.predict([[0.4]], [0.2])
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    @pytest.mark.parametrize("x, t, y", [
        ([0.5], 0.2, math.nan), ([0.5], 0.2, math.inf),
        ([0.5], math.nan, 0.0), ([math.nan], 0.2, 0.0)])
    def test_non_finite_extension_raises_value_error(self, x, t, y):
        sp, tp = SpatialKernel.rbf([0.3]), TemporalKernel.rbf(1.0)
        post = GPPosterior(sp, tp, Dataset([[0.5]], [0.1], [1.0], noise=0.01))
        before = post.predict([[0.4]], [0.2])
        with pytest.raises(ValueError, match="must be finite"):
            post.extended(x, t, y, np.array([0.5]))
        assert len(post.data) == 1
        after = post.predict([[0.4]], [0.2])
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    @staticmethod
    def _trtrs_reporting(monkeypatch, info):
        def trtrs(uplo, trans, diag, n, nrhs, a, lda, b, ldb, trtrs_info,
                  *lengths):
            trtrs_info.value = info

        monkeypatch.setitem(_blas._HANDLES, "trtrs", trtrs)

    def test_singular_factor_raises_linalg_error(self, monkeypatch):
        sp, tp = SpatialKernel.rbf([0.3]), TemporalKernel.rbf(1.0)
        post = GPPosterior(sp, tp, Dataset([[0.5]], [0.1], [1.0], noise=0.01))
        self._trtrs_reporting(monkeypatch, 1)
        with pytest.raises(np.linalg.LinAlgError, match="diagonal 0"):
            post.mean_var(np.ones((1, 3)))

    def test_illegal_trtrs_argument_raises_value_error(self, monkeypatch):
        sp, tp = SpatialKernel.rbf([0.3]), TemporalKernel.rbf(1.0)
        post = GPPosterior(sp, tp, Dataset([[0.5]], [0.1], [1.0], noise=0.01))
        self._trtrs_reporting(monkeypatch, -6)
        with pytest.raises(ValueError, match="argument 6"):
            post.extended([0.5], 0.2, 0.0, np.array([0.5]))


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_grid_rejected(self, bad):
        sp, tp = SpatialKernel.rbf([0.3]), TemporalKernel.rbf(1.0)
        with pytest.raises(ValueError, match="xs_grid"):
            sample_prior_path(sp, tp, [[0.1], [bad]], TimeGrid(3, 0.1),
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

    def test_draws_across_kernels_and_grids_match_uncached_draw(self):
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

    @pytest.mark.parametrize("m", [1, 63, 64, 65, 130])
    @pytest.mark.parametrize("spatial", [
        SpatialKernel.rbf([0.3, 0.5]), SpatialKernel.matern(0.5, [0.2, 0.4]),
        SpatialKernel.matern(2.5, [0.3, 0.5])], ids=["rbf", "m12", "m52"])
    def test_gram_filled_by_row_blocks_is_pairwise(self, spatial, m):
        # block edges at 64 rows: entry for entry the one-call Gram
        grid = np.random.default_rng(m).uniform(0, 1, (m, 2))
        gram = gp._spatial_gram(spatial, grid)
        assert gram.flags.f_contiguous and gram.flags.writeable
        assert np.array_equal(gram, spatial.pairwise(grid, grid))

    @staticmethod
    def _draw_args(seed=3, n=9, grid=None, spatial=None):
        axis = np.linspace(0, 1, 5)
        grid = (np.array([(a, b) for a in axis for b in axis])
                if grid is None else grid)
        return (spatial or SpatialKernel.rbf([0.3, 0.5]),
                TemporalKernel.cosine_sum([(0.0, 0.4), (2.3, 0.6)]), grid,
                TimeGrid(n, 0.1), seed)

    @pytest.fixture
    def grams(self, monkeypatch):
        """Count of spatial Gram matrices built, one per factorization,
        from an empty draw cache."""
        count = [0]
        spatial_gram = gp._spatial_gram

        def counted(*args):
            count[0] += 1
            return spatial_gram(*args)

        monkeypatch.setattr(gp, "_spatial_gram", counted)
        gp._spatial_draw.cache_clear()
        yield count
        gp._spatial_draw.cache_clear()

    def test_cached_draw_matches_uncached_draw(self, grams):
        # the spawned seeds run_tvbo passes, each drawn twice (a cache hit)
        for child in np.random.SeedSequence(4).spawn(3):
            args = self._draw_args(seed=child)
            for _ in range(2):
                assert np.array_equal(sample_prior_path(*args),
                                      self._uncached_path(*args))
        assert gp._spatial_draw.cache_info()[:2] == (3, 3)  # hits, misses
        assert grams == [3]

    def test_int_seed_draws_as_its_generator(self, grams):
        # an int seeds default_rng as before, cached or not
        args = self._draw_args(seed=11)
        first = sample_prior_path(*args)
        assert np.array_equal(first, self._uncached_path(*args))
        assert np.array_equal(sample_prior_path(*args), first)
        assert np.array_equal(
            sample_prior_path(*self._draw_args(seed=np.int64(11))), first)
        assert gp._spatial_draw.cache_info()[:2] == (2, 1)
        assert grams == [1]

    def test_cached_draw_is_read_only(self, grams):
        sample_prior_path(*self._draw_args())
        sp, _, grid, tg, seed = self._draw_args()
        draw = gp._spatial_draw(sp, grid.tobytes(), grid.shape,
                                (seed, (), 4), tg.n)
        assert gp._spatial_draw.cache_info().hits == 1
        assert not draw.flags.writeable
        with pytest.raises(ValueError):
            draw[0, 0] = 0.0

    @pytest.mark.parametrize("change", [
        dict(seed=4), dict(seed=np.random.SeedSequence(3).spawn(1)[0]),
        dict(n=10), dict(grid=np.random.default_rng(0).uniform(0, 1, (25, 2))),
        dict(spatial=SpatialKernel.matern(2.5, [0.3, 0.5]))],
        ids=["seed", "spawn_key", "horizon", "grid", "spatial_kernel"])
    def test_any_change_misses_the_cache(self, grams, change):
        sample_prior_path(*self._draw_args())
        args = self._draw_args(**change)
        assert np.array_equal(sample_prior_path(*args),
                              self._uncached_path(*args))
        assert gp._spatial_draw.cache_info()[:2] == (0, 2)
        assert grams == [2]

    def test_generator_seed_is_never_served_from_the_cache(self, grams):
        # the generator's stream is the int seed's, and it is consumed; its
        # draws neither enter the cache nor evict the int seed's half
        first = sample_prior_path(*self._draw_args(seed=3))
        rng = np.random.default_rng(3)
        assert np.array_equal(sample_prior_path(*self._draw_args(seed=rng)),
                              first)
        assert not np.array_equal(
            sample_prior_path(*self._draw_args(seed=rng)), first)
        assert gp._spatial_draw.cache_info()[:2] == (0, 1)
        assert grams == [3]
        assert np.array_equal(sample_prior_path(*self._draw_args(seed=3)),
                              first)
        assert gp._spatial_draw.cache_info()[:2] == (1, 1)
        assert grams == [3]

    @pytest.mark.parametrize("replications, factorizations", [(1, 1), (3, 6)])
    def test_regret_factors_the_spatial_gram_per_draw_made(
            self, grams, tmp_path, replications, factorizations):
        # two kernel classes: with one seed the second class reuses the
        # first's half; with three, each class draws its seeds afresh, one
        # factorization per draw, and no factor is kept between them
        from tvbospec.expcli.experiments import run_regret
        configs = {label: tvbo.TVBOConfig(SpatialKernel.rbf([0.4, 0.4]),
                                          temporal, horizon=8,
                                          grid_resolution=4)
                   for label, temporal in (
                       ("rbf", TemporalKernel.rbf(1.0)),
                       ("periodic", TemporalKernel.periodic(0.5, 0.8)))}
        run_regret(0, tmp_path, configs, replications=replications,
                   bounds=False)
        assert grams == [factorizations]
        assert gp._spatial_draw.cache_info().misses == factorizations
        assert self._square_arrays_reachable(gp, 16) == []

    @staticmethod
    def _square_arrays_reachable(module, m):
        """The (m, m) arrays reachable from ``module``'s globals, without
        entering another module."""
        other = {id(vars(mod)) for mod in list(sys.modules.values())
                 if mod is not None and mod is not module}
        seen, found, todo = set(), [], list(vars(module).values())
        while todo:
            obj = todo.pop()
            if (id(obj) in seen or id(obj) in other
                    or isinstance(obj, types.ModuleType)):
                continue
            seen.add(id(obj))
            if isinstance(obj, np.ndarray):
                if obj.shape == (m, m):
                    found.append(obj)
                if obj.base is not None:
                    todo.append(obj.base)
            else:
                todo.extend(gc.get_referents(obj))
        return found

    @pytest.mark.parametrize("spatial", [
        SpatialKernel.rbf([0.3, 0.5]), SpatialKernel.matern(2.5, [0.3, 0.5])],
        ids=["rbf", "m52"])
    def test_spatial_draw_holds_one_gram(self, grams, spatial):
        # on a 30 x 30 grid, the draw holds the Gram matrix (factored in
        # place), z and the half, plus one row block of pairwise: its
        # result and at most two work arrays; no (m, m) array outlives it
        axis = np.linspace(0, 1, 30)
        grid = np.array([(a, b) for a in axis for b in axis])
        m, n = len(grid), 30
        row_block = 3 * gp._GRAM_BLOCK_ROWS * m * 8
        args = (spatial, grid.tobytes(), grid.shape, gp._seed_key(5), n)
        tracemalloc.start()
        try:
            half = gp._spatial_draw(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (m * m + 2 * m * n) * 8 + row_block
        assert half.shape == (m, n)
        sample_prior_path(spatial, TemporalKernel.rbf(1.0), grid,
                          TimeGrid(n, 0.1), 6)
        assert self._square_arrays_reachable(gp, m) == []


class TestNystromExpansion:
    SPATIAL = SpatialKernel.rbf([0.3])
    LINES = TemporalKernel.cosine_sum([(0.0, 0.2), (0.9, 0.5), (2.2, 0.3)])

    def _eigensystem(self, rng, temporal, n, same_x=False):
        xs = (np.full((n, 1), 0.4) if same_x
              else rng.uniform(0, 1, (n, 1)))
        ts = (np.arange(n) + 1) * 0.1
        gram = build_spatiotemporal_matrix(self.SPATIAL, temporal, xs, ts)
        return gram, _blas.eigh_descending(gram.values), xs, ts

    def test_extension_at_a_sample_is_the_scaled_eigenvector(self, rng):
        gram, (vals, vecs), _, _ = self._eigensystem(
            rng, TemporalKernel.rbf(1.0), 30)
        n = len(vals)
        _, _, phi_q = nystrom_expansion(vals, vecs, np.zeros(n),
                                        gram.values[:, :3].T)
        kept = len(phi_q[0])
        for j in range(3):
            assert np.allclose(phi_q[j], math.sqrt(n) * vecs[j, :kept],
                               rtol=0.0, atol=1e-8)

    def test_keeps_only_positive_eigenpairs(self, rng):
        # a rank-5 kernel matrix keeps five operator eigenvalues lam_i / n,
        # and the inner products are sum_j sqrt(n) Phi_ji y_j
        gram, (vals, vecs), _, _ = self._eigensystem(rng, self.LINES, 40,
                                                     same_x=True)
        ys = rng.standard_normal(40)
        lam_bar, inner, phi_q = nystrom_expansion(vals, vecs, ys, [])
        assert positive_count(eig_sym(gram)) == 5 and phi_q == []
        assert np.array_equal(lam_bar, vals[:5] / 40)
        assert np.allclose(inner, math.sqrt(40) * vecs[:, :5].T @ ys,
                           rtol=0.0, atol=1e-12)

    def test_expansion_reproduces_the_kernel_matrix(self, rng):
        # sum_i lam_bar_i phi_i(z_j) phi_i(z_k) = K_jk on the samples
        gram, (vals, vecs), _, _ = self._eigensystem(
            rng, TemporalKernel.rbf(1.0), 25)
        n = len(vals)
        lam_bar, _, phi = nystrom_expansion(vals, vecs, np.zeros(n),
                                            gram.values)
        phi = np.array(phi)
        assert np.allclose((phi * lam_bar) @ phi.T, gram.values,
                           rtol=0.0, atol=1e-8)

    def test_finite_rank_query_has_no_residual_variance(self, rng):
        # at one spatial point the matrix is the rank-5 line kernel; a new
        # time lies in the span of its features, so the expansion recovers
        # k(q, q) = 1 exactly and the Mercer variance 1 - sum lam phi^2 is 0
        _, (vals, vecs), xs, ts = self._eigensystem(rng, self.LINES, 40,
                                                    same_x=True)
        k_q = cross_covariance(self.SPATIAL, self.LINES, xs, ts,
                               xs[:1], np.array([7.31]))[:, 0]
        lam_bar, _, (phi_q,) = nystrom_expansion(vals, vecs, np.zeros(40),
                                                 [k_q])
        assert float(np.sum(lam_bar * phi_q ** 2)) == pytest.approx(
            1.0, abs=1e-8)
