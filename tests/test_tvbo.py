"""GP-UCB loop: confidence schedule, selection, traces, determinism."""

import dataclasses
import math

import numpy as np
import pytest

from tvbospec import tvbo
from tvbospec.gp import Dataset, GPPosterior, conditioning_noise
from tvbospec.kernels import (
    SpatialKernel,
    TemporalKernel,
    eval_temporal,
    line_features,
)
from tvbospec.spectral import cross_covariance
from tvbospec.tvbo import (
    TVBOConfig,
    beta_schedule,
    run_replications,
    run_tvbo,
    spatial_grid,
    ucb_select,
)


def _config(**kw):
    base = dict(spatial=SpatialKernel.rbf([0.4]),
                temporal=TemporalKernel.rbf(1.0),
                delta=0.1, horizon=30, confidence=0.1, lipschitz=10.0,
                grid_resolution=15, noise=0.01, seed=7)
    base.update(kw)
    return TVBOConfig(**base)


def _k_dq(post, grid, t):
    """Covariances between the observations and the grid at time t."""
    return cross_covariance(post.spatial, post.temporal, post.data.xs,
                            post.data.ts, grid, np.full(len(grid), t))


class TestBetaSchedule:
    def test_reference_value(self):
        # 2 ln(1/0.6) + 4 ln(pi)
        expected = 2 * math.log(1 / 0.6) + 4 * math.log(math.pi)
        assert beta_schedule(1, 0.1, 1, 1.0) == pytest.approx(expected, rel=1e-12)
        assert beta_schedule(1, 0.1, 1, 1.0) == pytest.approx(5.6005, abs=1e-4)

    def test_nondecreasing(self):
        vals = [beta_schedule(i, 0.1, 1, 10.0) for i in range(1, 200)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_degenerate_argument_is_finite(self):
        # tiny L*d/(6 delta) drives the log negative; the value stays finite
        val = beta_schedule(1, 0.9, 1, 0.1)
        assert math.isfinite(val)
        assert val < 4 * math.log(math.pi) + 1e-9

    def test_input_validation(self):
        with pytest.raises(ValueError):
            beta_schedule(0, 0.1, 1, 1.0)
        with pytest.raises(ValueError):
            beta_schedule(1, 1.5, 1, 1.0)


class TestUcbSelect:
    def test_empty_dataset_tie_break(self):
        cfg = _config()
        post = GPPosterior(cfg.spatial, cfg.temporal,
                           Dataset(np.zeros((0, 1)), [], [], noise=0.01))
        grid = spatial_grid(cfg)
        assert ucb_select(post, _k_dq(post, grid, 0.1), 2.0) == (0, 1.0)

    def test_pure_exploitation_is_mean_argmax(self):
        cfg = _config()
        post = GPPosterior(cfg.spatial, cfg.temporal,
                           Dataset([[0.5]], [0.1], [5.0], noise=0.01))
        grid = spatial_grid(cfg)
        k_dq = _k_dq(post, grid, 0.2)
        # mean_var may overwrite its block, so each call gets its own
        mean, var = post.mean_var(k_dq.copy())
        j, sd = ucb_select(post, k_dq, 0.0)
        assert j == int(np.argmax(mean))
        assert sd == math.sqrt(var[j])

    def test_exploitation_near_observed_peak(self):
        cfg = _config(grid_resolution=41)
        post = GPPosterior(cfg.spatial, cfg.temporal,
                           Dataset([[0.5]], [0.1], [5.0], noise=0.01))
        grid = spatial_grid(cfg)
        j, _ = ucb_select(post, _k_dq(post, grid, 0.1), 0.0)
        assert abs(grid[j, 0] - 0.5) <= 1.0 / 40 + 1e-12

    def test_negative_beta_clipped(self):
        cfg = _config()
        post = GPPosterior(cfg.spatial, cfg.temporal,
                           Dataset([[0.5]], [0.1], [5.0], noise=0.01))
        grid = spatial_grid(cfg)
        k_dq = _k_dq(post, grid, 0.2)
        assert ucb_select(post, k_dq.copy(), -3.0) == \
            ucb_select(post, k_dq, 0.0)


class TestRunTvbo:
    def test_single_step(self):
        trace = run_tvbo(_config(horizon=1))
        assert len(trace.times) == 1
        assert trace.instantaneous[0] >= 0.0
        best = trace.objective[:, 0].max()
        assert trace.instantaneous[0] == pytest.approx(
            best - trace.objective[trace.chosen_idx[0], 0])

    def test_deterministic(self, tmp_path):
        a = run_tvbo(_config())
        b = run_tvbo(_config())
        assert np.array_equal(a.instantaneous, b.instantaneous)
        assert np.array_equal(a.chosen_idx, b.chosen_idx)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        a.to_csv(pa)
        b.to_csv(pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_nonnegative_regret(self):
        trace = run_tvbo(_config(horizon=60))
        assert np.all(trace.instantaneous >= 0.0)

    def test_cumulative_is_running_sum(self):
        trace = run_tvbo(_config())
        assert np.allclose(trace.cumulative, np.cumsum(trace.instantaneous))
        assert trace.total == pytest.approx(trace.cumulative[-1])

    def test_seed_changes_trace(self):
        a = run_tvbo(_config(seed=1))
        b = run_tvbo(_config(seed=2))
        assert not np.array_equal(a.objective, b.objective)

    def test_posterior_sd_starts_at_prior(self):
        trace = run_tvbo(_config())
        assert trace.posterior_sd[0] == pytest.approx(1.0, abs=1e-8)

    def test_csv_columns(self, tmp_path):
        trace = run_tvbo(_config(horizon=3))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        header = path.read_text().splitlines()[0].split(",")
        assert header == ["iteration", "t", "chosen_x_1", "star_x_1", "r",
                          "R_cumulative"]

    @pytest.mark.parametrize("spatial,temporal,resolution", [
        (SpatialKernel.rbf([0.4]), TemporalKernel.rbf(1.0), 15),
        (SpatialKernel.rbf([0.4]), TemporalKernel.sinc_squared(2.0), 15),
        (SpatialKernel.rbf([0.4]),
         TemporalKernel.periodic(period=0.5, lengthscale=0.8), 15),
        (SpatialKernel.rbf([0.4]),
         TemporalKernel.cosine_sum([(0.0, 0.4), (1.3, 0.6)]), 15),
        (SpatialKernel.rbf([0.3, 0.5]), TemporalKernel.rbf(1.0), 6),
    ], ids=["rbf", "sinc_squared", "periodic", "cosine_sum", "rbf_d2"])
    def test_cached_rows_match_per_step_covariances(self, spatial, temporal,
                                                    resolution):
        # Reference loop: rebuild the full observation-by-grid covariance
        # block and the chosen point's column with cross_covariance at
        # every step.
        cfg = _config(spatial=spatial, temporal=temporal,
                      grid_resolution=resolution, horizon=30)
        trace = run_tvbo(cfg)
        grid, d = trace.grid, spatial.dimension
        noise_rng = np.random.default_rng(
            np.random.SeedSequence(cfg.seed).spawn(2)[1])
        post = GPPosterior(spatial, temporal,
                           Dataset(np.zeros((0, d)), [], [], noise=cfg.noise))
        chosen, ys, sds, regret = [], [], [], []
        for i, t in enumerate(trace.times):
            beta = beta_schedule(i + 1, cfg.confidence, d, cfg.lipschitz)
            j, sd = ucb_select(post, _k_dq(post, grid, t), beta)
            y = trace.objective[j, i] + noise_rng.normal(
                0.0, math.sqrt(cfg.noise))
            chosen.append(j)
            ys.append(y)
            sds.append(sd)
            regret.append(trace.objective[:, i].max() - trace.objective[j, i])
            k_new = cross_covariance(spatial, temporal, post.data.xs,
                                     post.data.ts, grid[j:j + 1],
                                     np.array([t]))[:, 0]
            post.extended(grid[j], t, y, k_new)
        assert np.array_equal(trace.chosen_idx, chosen)
        assert np.array_equal(trace.ys, ys)
        assert np.array_equal(trace.posterior_sd, sds)
        assert np.array_equal(trace.instantaneous, regret)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            _config(grid_resolution=1)
        with pytest.raises(ValueError):
            _config(horizon=0)
        with pytest.raises(ValueError):
            _config(confidence=1.0)
        with pytest.raises(ValueError):
            _config(lipschitz=0)

    @pytest.mark.parametrize("field, value", [
        ("horizon", True), ("horizon", 10.5), ("grid_resolution", 2.5),
        ("seed", True), ("seed", 1.5), ("seed", -1), ("delta", math.inf),
        ("lipschitz", math.inf), ("confidence", math.nan),
        ("noise", math.inf), ("delta", 1e308)])
    def test_config_rejects_non_integer_and_non_finite(self, field, value):
        # messages start with the field name, for the CLI to report
        with pytest.raises(ValueError, match=f"^{field} "):
            _config(**{field: value})


class TestReplications:
    def test_seed_order_preserved(self):
        cfg = _config(horizon=10)
        traces = run_replications(cfg, [9, 2, 5])
        assert [t.config for t in traces] == \
            [dataclasses.replace(cfg, seed=s) for s in (9, 2, 5)]


# The temporal kernels of the regret experiment, one per class.
CLASSES = {
    "rbf": TemporalKernel.rbf(1.0),
    "sinc_squared": TemporalKernel.sinc_squared(1.0),
    "periodic": TemporalKernel.periodic(period=0.5, lengthscale=0.8),
    "cosine_sum": TemporalKernel.cosine_sum([(0.0, 0.4), (2.3, 0.6)]),
}


# Cosine sums, whose line expansion the screen uses: with a zero frequency
# (the regret experiment's), without one, and with three lines.
LINES = {
    "cosine_sum": CLASSES["cosine_sum"],
    "no_zero_frequency": TemporalKernel.cosine_sum([(0.7, 0.5), (2.3, 0.5)]),
    "three_lines": TemporalKernel.cosine_sum(
        [(0.0, 0.2), (1.1, 0.3), (3.7, 0.5)]),
}

# The variance bound of each screen: the subset route for every class, the
# line route for the cosine sums.
ROUTES = ([("subset", label) for label in sorted(CLASSES)]
          + [("line", label) for label in sorted(LINES)])

SPATIALS = {"rbf": SpatialKernel.rbf([0.4, 0.4]),
            "matern52": SpatialKernel.matern(2.5, [0.3, 0.5])}


class TestUcbScreen:
    SPATIAL = SPATIALS["rbf"]

    @staticmethod
    def _screened_and_full(monkeypatch, cfg):
        """The run screened, the screen's verdict at each step it was
        tried, and the run with the screen off."""
        screened = []
        candidates = tvbo._ucb_candidates

        def recorded(*args):
            cols = candidates(*args)
            screened.append(cols is not None)
            return cols

        monkeypatch.setattr(tvbo, "_ucb_candidates", recorded)
        fast = run_tvbo(cfg)
        verdicts = list(screened)
        monkeypatch.setattr(tvbo, "_SCREEN_MIN_GRID", 10 ** 9)
        full = run_tvbo(cfg)
        assert len(screened) == len(verdicts)  # the second run never screens
        for field in ("chosen_idx", "posterior_sd", "ys"):
            assert np.array_equal(getattr(fast, field),
                                  getattr(full, field)), field
        return verdicts

    @pytest.mark.parametrize("noise", [0.01, 0.0])
    @pytest.mark.parametrize("label", sorted(CLASSES))
    def test_screened_run_matches_full_solve(self, monkeypatch, label,
                                             noise):
        cfg = _config(spatial=self.SPATIAL, temporal=CLASSES[label],
                      grid_resolution=16, horizon=60, noise=noise, seed=3)
        assert 16 ** 2 >= tvbo._SCREEN_MIN_GRID
        assert cfg.horizon > tvbo._SCREEN_SUBSET + 1
        assert any(self._screened_and_full(monkeypatch, cfg))

    @pytest.mark.parametrize("noise", [0.01, 0.0, 1.0])
    @pytest.mark.parametrize("spatial, horizon", [
        ("rbf", 60), ("matern52", 60), ("rbf", tvbo._SCREEN_MAX_OBS + 1)])
    @pytest.mark.parametrize("label", sorted(LINES))
    def test_line_screened_run_matches_full_solve(self, monkeypatch, label,
                                                  spatial, horizon, noise):
        # The line route screens every step from the first observation to
        # the last step or _SCREEN_MAX_OBS observations, whichever is first.
        cfg = _config(spatial=SPATIALS[spatial], temporal=LINES[label],
                      grid_resolution=16, horizon=horizon, noise=noise,
                      seed=4)
        verdicts = self._screened_and_full(monkeypatch, cfg)
        assert verdicts == [True] * min(horizon - 1, tvbo._SCREEN_MAX_OBS)

    def test_line_route_is_a_property_of_the_kernel(self, monkeypatch):
        # A periodic kernel has infinitely many lines: it keeps the subset
        # route, which waits for _SCREEN_SUBSET observations.
        steps = []
        candidates = tvbo._ucb_candidates

        def recorded(post, *args):
            steps.append(len(post.data))
            return candidates(post, *args)

        monkeypatch.setattr(tvbo, "_ucb_candidates", recorded)
        for label in ("periodic", "cosine_sum"):
            steps.clear()
            run_tvbo(_config(spatial=self.SPATIAL, temporal=CLASSES[label],
                             grid_resolution=16, horizon=40, seed=3))
            assert steps[0] == (1 if label == "cosine_sum"
                                else tvbo._SCREEN_SUBSET + 1), label

    def _grown(self, temporal, noise, grid, chosen, times, ys, ks_rows):
        """The posterior and its _LineVariance (None for a kernel without
        a line expansion) after each observation, grown as in run_tvbo."""
        post = GPPosterior(self.SPATIAL, temporal,
                           Dataset(np.zeros((0, 2)), [], [], noise=noise))
        features = line_features(temporal, times)
        lines = (None if features is None
                 else tvbo._LineVariance(features, len(grid)))
        for s, y in enumerate(ys):
            k_new = ks_rows[:s, chosen[s]] * eval_temporal(
                temporal, np.abs(times[:s] - times[s]))
            l_row, diag = post.extended(grid[chosen[s]], times[s], y, k_new)
            if lines is not None:
                lines.add(post, ks_rows, l_row, diag)
            yield post, lines

    def _step(self, rng, temporal, noise, n, grid):
        """A posterior on n observations at random grid points, its
        _LineVariance, and the loop's cached spatial rows and temporal
        factors at the next time."""
        chosen = rng.integers(len(grid), size=n)
        times = (np.arange(n + 1) + 1) * 0.1
        ks_rows = np.asfortranarray(self.SPATIAL.pairwise(grid[chosen], grid))
        *_, (post, lines) = self._grown(temporal, noise, grid, chosen, times,
                                        rng.standard_normal(n), ks_rows)
        k_t = eval_temporal(temporal, np.abs(times[:n, None] - times[n]))
        return post, lines, chosen, times[:n], ks_rows, k_t

    def _subset_variance(self, temporal, noise, subset, chosen, times,
                         ks_rows, k_t):
        """_subset_variance on ``subset``, its inputs built as in run_tvbo."""
        rows = ks_rows[subset]
        k_ss = rows[:, chosen[subset]] * eval_temporal(
            temporal, np.abs(times[subset, None] - times[subset]))
        k_ss[np.diag_indices_from(k_ss)] += conditioning_noise(noise)
        return tvbo._subset_variance(k_ss, k_t[subset, 0], rows)

    @pytest.mark.parametrize("noise", [0.01, 0.0, 1.0])
    @pytest.mark.parametrize("route, label", ROUTES)
    def test_subset_variance_bounds_the_variance(self, route, label, noise):
        rng = np.random.default_rng(5)
        temporal = CLASSES.get(label) or LINES[label]
        grid = rng.uniform(0, 1, (300, 2))
        if route == "line":
            # the line variance against mean_var's at every step
            chosen = rng.integers(len(grid), size=80)
            times = (np.arange(81) + 1) * 0.1
            ks_rows = np.asfortranarray(
                self.SPATIAL.pairwise(grid[chosen], grid))
            for post, lines in self._grown(temporal, noise, grid, chosen,
                                           times, np.zeros(80), ks_rows):
                i = len(post.data)
                k_t = eval_temporal(temporal,
                                    np.abs(times[:i, None] - times[i]))
                _, var = post.mean_var(np.asfortranarray(ks_rows[:i] * k_t))
                assert np.all(lines.variance(i) + tvbo._SCREEN_VAR_MARGIN
                              >= var), i
        else:
            post, _, chosen, times, ks_rows, k_t = self._step(
                rng, temporal, noise, 80, grid)
            _, var = post.mean_var(np.asfortranarray(ks_rows * k_t))
            # with all 80 observations the two variances differ by
            # rounding only
            for size in (1, 5, tvbo._SCREEN_SUBSET, 79, 80):
                subset = np.sort(rng.choice(80, size, replace=False))
                var_s = self._subset_variance(temporal, noise, subset,
                                              chosen, times, ks_rows, k_t)
                assert np.all(np.maximum(var_s, 0.0)
                              + tvbo._SCREEN_VAR_MARGIN >= var), (label, size)

    @pytest.mark.parametrize("noise", [0.01, 0.0, 1.0])
    @pytest.mark.parametrize("route, label, subset_size", [
        *(("subset", label, size) for label in sorted(CLASSES)
          for size in (tvbo._SCREEN_SUBSET, 60)),
        *(("line", label, None) for label in sorted(LINES))])
    def test_every_maximizer_survives(self, route, label, subset_size,
                                      noise):
        # Every grid point appears twice, so the full solve's maximum is
        # reached at least twice, in bitwise ties.  Conditioned on all 60
        # observations, the bounds exceed the UCBs by the margins alone.
        rng = np.random.default_rng(6)
        temporal = CLASSES.get(label) or LINES[label]
        half = rng.uniform(0, 1, (150, 2))
        grid = np.vstack([half, half])
        post, lines, chosen, times, ks_rows, k_t = self._step(
            rng, temporal, noise, 60, grid)
        beta = beta_schedule(61, 0.1, 2, 10.0)
        mean, var = post.mean_var(np.asfortranarray(ks_rows * k_t))
        ucb = mean + math.sqrt(beta) * np.sqrt(var)
        ties = np.flatnonzero(ucb == ucb.max())
        assert len(ties) >= 2
        if route == "line":
            var_b = lines.variance(60)
        else:
            subset = np.arange(60 - subset_size, 60)
            var_b = self._subset_variance(temporal, noise, subset, chosen,
                                          times, ks_rows, k_t)
        cols = tvbo._ucb_candidates(post, ks_rows, k_t, var_b, beta)
        assert cols is not None
        assert set(ties) <= set(cols)
        j, sd = ucb_select(post, np.asfortranarray(ks_rows[:, cols] * k_t),
                           beta)
        assert (cols[j], sd) == ucb_select(
            post, np.asfortranarray(ks_rows * k_t), beta)
