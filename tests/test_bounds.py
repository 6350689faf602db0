"""Mutual information, the regret bounds and the scaling diagnostics."""

import inspect
import math

import numpy as np
import pytest

import tvbospec.bounds as bounds_module
import tvbospec.spectral as spectral_module
from tvbospec._blas import eigh_descending
from tvbospec.expcli.experiments import (
    FIG5_DEFAULTS,
    REGRET_DEFAULTS,
    REGRET_KERNELS,
)
from tvbospec.gp import (
    Dataset,
    GPPosterior,
    conditioning_noise,
    nystrom_expansion,
)
from tvbospec.bounds import (
    bound_report,
    c1_constant,
    lower_bound,
    mutual_info_exact,
    mutual_info_spectral,
    scaling_diagnostic,
    truncated_gaussian_mean,
    upper_bound,
    upper_bound_curve,
)
from tvbospec.kernels import (
    SpatialKernel,
    TemporalKernel,
    eval_temporal,
    kernel_from_dict,
)
from tvbospec.spectral import (
    Spectrum,
    SymMatrix,
    approx_product_spectrum,
    build_spatiotemporal_matrix,
    count_in_interval,
    cross_covariance,
    eig_sym,
)
from tvbospec.tvbo import TVBOConfig, RegretTrace, run_replications, run_tvbo


def _spatiotemporal(rng, spatial, temporal, n, delta=0.1):
    xs = rng.uniform(0, 1, (n, spatial.dimension))
    ts = (np.arange(n) + 1) * delta
    return build_spatiotemporal_matrix(spatial, temporal, xs, ts), xs, ts


def _lower_bound_of(trace):
    """``lower_bound`` of a run, given the run's kernel matrix."""
    cfg = trace.config
    gram = build_spatiotemporal_matrix(cfg.spatial, cfg.temporal,
                                       trace.chosen_x, trace.times)
    return lower_bound(cfg.spatial, cfg.temporal, trace, gram)


def _mercer_posterior(pairs, data, query, spatial, temporal):
    """Oracle for the lower bound's mu_hat: the spectral approximation of
    the posterior mean and variance at a query.

    ``pairs`` are the descending eigenvalues and eigenvector columns of the
    data's kernel matrix, as ``eigh_descending`` returns them (see
    ``nystrom_expansion``).  The mean is
    (1/n) sum_i phi_i(q) sum_j phi_i(z_j) y_j and the variance
    approximation 1 - sum_i lam_bar_i phi_i(q)^2 is clipped to [0, 1].
    ``query`` is an (x, t) pair.
    """
    vals, vecs = pairs
    n = len(data)
    if n == 0:
        return 0.0, 1.0
    xq, tq = query
    xq = np.atleast_2d(np.asarray(xq, dtype=float))
    k_q = cross_covariance(spatial, temporal, data.xs, data.ts,
                           xq, np.atleast_1d(float(tq)))[:, 0]
    lam_bar, inner, (phi_q,) = nystrom_expansion(vals, vecs, data.ys, [k_q])
    mean = float(np.sum(phi_q * inner)) / n
    var = 1.0 - float(np.sum(lam_bar * phi_q ** 2))
    return mean, float(np.clip(var, 0.0, 1.0))


class TestMutualInformation:
    def test_scalar_case(self):
        assert mutual_info_exact([[1.0]], 1.0) == pytest.approx(0.5 * math.log(2))

    def test_zero_matrix(self):
        assert mutual_info_exact(np.zeros((4, 4)), 0.5) == 0.0

    def test_logdet_oracle(self, rng):
        # 1/2 log det(I + K/noise) via an independent slogdet call
        sp, tp = SpatialKernel.rbf([0.3]), TemporalKernel.rbf(1.0)
        m, _, _ = _spatiotemporal(rng, sp, tp, 20)
        noise = 0.05
        _, logdet = np.linalg.slogdet(np.eye(20) + m.values / noise)
        assert mutual_info_exact(m, noise) == pytest.approx(0.5 * logdet, abs=1e-8)

    def test_monotone_under_growth(self, rng):
        sp, tp = SpatialKernel.rbf([0.3]), TemporalKernel.matern(1.5, 0.9)
        for _ in range(50):
            n = int(rng.integers(3, 25))
            m, _, _ = _spatiotemporal(rng, sp, tp, n)
            k = int(rng.integers(1, n))
            sub = SymMatrix(m.values[:k, :k])
            assert mutual_info_exact(sub, 0.01) <= mutual_info_exact(m, 0.01) + 1e-12

    def test_spectral_scalar_agrees(self):
        spec = Spectrum(np.array([1.0]))
        assert mutual_info_spectral(spec, 1, 1.0) == pytest.approx(0.5 * math.log(2))

    def test_spectral_zero(self):
        spec = Spectrum(np.zeros(5))
        assert mutual_info_spectral(spec, 5, 0.3) == 0.0

    def test_spectral_takes_the_matrix_spectrum(self):
        # lam_bar = max(lam, 0) / n is formed inside, so negative matrix
        # eigenvalues add nothing and the bits are those of the formula
        values = np.array([7.5, 3.25, 0.1, -1e-13, -0.4])
        n, noise = len(values), 0.01
        want = float(0.5 * np.sum(np.log1p(
            n * (np.maximum(values, 0.0) / n) / noise)))
        assert mutual_info_spectral(Spectrum(values), n, noise) == want
        assert mutual_info_spectral(Spectrum(values), n, noise) == \
            mutual_info_spectral(Spectrum(values[:3]), n, noise)

    def test_spectral_agrees_with_exact_for_the_same_matrix(self):
        # on the n x n matrix's own spectrum, 1/2 sum log(1 + n lam_bar /
        # noise) is 1/2 sum log(1 + lam / noise), the exact information
        # (a generator of its own leaves the session rng's draws as they were)
        sp, tp = SpatialKernel.rbf([0.3]), TemporalKernel.rbf(1.0)
        m, _, _ = _spatiotemporal(np.random.default_rng(3), sp, tp, 30)
        spec = eig_sym(m)
        assert mutual_info_spectral(spec, 30, 0.05) == pytest.approx(
            mutual_info_exact(spec, 0.05), rel=1e-12)

    def test_product_estimate_converges_for_discrete_kernels(self, rng):
        # Cor.-style product estimate of the operator spectrum: its mutual
        # information approaches the exact value as n grows for the
        # discrete-support classes (the broadband classes accumulate one
        # approximation error per eigenvalue and their relative gap
        # plateaus instead; see the decisions ledger)
        sp = SpatialKernel.rbf([0.7])
        for tp in (TemporalKernel.periodic(period=0.3, lengthscale=0.8),
                   TemporalKernel.cosine_sum([(0.0, 0.4), (1.3, 0.6)])):
            gaps = {}
            for n in (50, 200):
                m, xs, ts = _spatiotemporal(rng, sp, tp, n)
                exact = mutual_info_exact(m, 0.01)
                spec_s = eig_sym(SymMatrix(sp.pairwise(xs, xs)))
                from tvbospec.kernels import eval_temporal
                kt = eval_temporal(tp, np.abs(ts[:, None] - ts[None, :]))
                spec_t = eig_sym(SymMatrix(kt))
                prod = approx_product_spectrum(spec_s, spec_t, n)
                approx = mutual_info_spectral(prod.spectrum, n, 0.01)
                gaps[n] = abs(approx - exact) / exact
            assert gaps[200] < gaps[50], (tp.family, gaps)

    def test_rbf_periodic_gap_direction(self, rng):
        sp = SpatialKernel.rbf([0.7])
        tp = TemporalKernel.periodic(period=0.3, lengthscale=0.8)
        gaps = {}
        for n in (50, 150):
            m, xs, ts = _spatiotemporal(rng, sp, tp, n)
            exact = mutual_info_exact(m, 0.01)
            spec_s = eig_sym(SymMatrix(sp.pairwise(xs, xs)))
            from tvbospec.kernels import eval_temporal
            kt = eval_temporal(tp, np.abs(ts[:, None] - ts[None, :]))
            prod = approx_product_spectrum(spec_s, eig_sym(SymMatrix(kt)), n)
            gaps[n] = abs(mutual_info_spectral(prod.spectrum, n, 0.01)
                          - exact) / exact
        assert gaps[150] < gaps[50]

    @pytest.mark.parametrize("noise", [0.01, 0.0])
    @pytest.mark.parametrize("label", sorted(REGRET_KERNELS))
    def test_sequential_information_matches_eigenvalues(self, label, noise):
        # I_n = 1/2 sum log(1 + sd_i^2 / sigma^2) over the run's posterior
        # sds (triangular solves) equals 1/2 log det(I + K / sigma^2) from
        # the eigenvalues of its Gram K; K has a unit diagonal, so
        # lam_max <= n and the rounding is within n eps (1 + n / sigma^2)
        temporal = kernel_from_dict({"kind": "temporal",
                                     **REGRET_KERNELS[label]})
        sigma2 = conditioning_noise(noise)
        for seed in range(3):
            trace = run_tvbo(TVBOConfig(
                spatial=SpatialKernel.rbf([0.4]), temporal=temporal,
                horizon=12, grid_resolution=6, noise=noise, seed=seed))
            n = len(trace.times)
            rtol = n * np.finfo(float).eps * (1.0 + n / sigma2)
            assert trace.sequential_information[-1] == pytest.approx(
                bound_report(trace).info_exact, rel=rtol, abs=0.0)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("noise", [0.01, 0.0])
    @pytest.mark.parametrize("label", sorted(REGRET_KERNELS))
    def test_sequential_information_at_regret_size(self, label, noise, seed):
        # the same identity at the regret experiment's size (horizon 200,
        # 25-point grid; the bounds are not needed).  Rounding budget, with
        # n = 200 and sigma^2 = noise, or NOISELESS_JITTER at noise 0:
        # - each sd_i^2 = 1 - |L^-1 k_i|^2 comes from an n-term solve of
        #   entries of size <= 1 and is off by at most 2 n eps; the slope of
        #   1/2 log1p(x / sigma^2) is at most 1 / (2 sigma^2), so the n terms
        #   of I_n move by at most n^2 eps / sigma^2;
        # - ?syevd is backward stable, so each eigenvalue of K is off by at
        #   most n eps ||K||_2 (Weyl), and the n terms of the log det move
        #   by at most n^2 eps ||K||_2 / (2 sigma^2).
        # The bound n^2 eps (1 + ||K||_2 / 2) / sigma^2 grows with 1/sigma^2:
        # about 1e-8 at noise 0.01 (observed gaps ~1e-10) and 1e-2 at the
        # 1e-8 jitter (observed ~1e-4, from the near-zero eigenvalues of
        # the rank-deficient periodic and cosine-sum Grams).
        defaults = REGRET_DEFAULTS
        cfg = TVBOConfig(
            spatial=kernel_from_dict({"kind": "spatial",
                                      **defaults["spatial"]}),
            temporal=kernel_from_dict({"kind": "temporal",
                                       **REGRET_KERNELS[label]}),
            delta=defaults["delta"], horizon=defaults["horizon"],
            grid_resolution=defaults["grid_resolution"], noise=noise,
            seed=seed)
        trace = run_tvbo(cfg)
        n = len(trace.times)
        assert (n, len(trace.grid)) == (200, 25)
        sigma2 = conditioning_noise(noise)
        spec = eig_sym(build_spatiotemporal_matrix(
            cfg.spatial, cfg.temporal, trace.grid[trace.chosen_idx],
            trace.times))
        tol = n * n * np.finfo(float).eps * (1.0 + spec.values[0] / 2) / sigma2
        assert abs(trace.sequential_information[-1]
                   - mutual_info_exact(spec, sigma2)) <= tol


class TestUpperBound:
    def test_zero_information_floor(self):
        assert upper_bound(10, 5.0, 0.01, 0.0) == pytest.approx(math.pi ** 2 / 6)

    def test_doubling_information_scales_radical(self):
        base = upper_bound(10, 5.0, 0.01, 3.0) - math.pi ** 2 / 6
        double = upper_bound(10, 5.0, 0.01, 6.0) - math.pi ** 2 / 6
        assert double == pytest.approx(math.sqrt(2) * base, rel=1e-12)

    def test_c1_constant(self):
        assert c1_constant(0.01) == pytest.approx(100.0 / math.log(101.0), rel=1e-12)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            upper_bound(10, -1.0, 0.01, 3.0)

    def test_sublinear_for_periodic_run(self):
        cfg = TVBOConfig(spatial=SpatialKernel.rbf([0.4]),
                         temporal=TemporalKernel.periodic(period=0.5,
                                                          lengthscale=0.8),
                         seed=0)
        trace = run_tvbo(cfg)
        curve, _ = upper_bound_curve(trace)
        per_step = [curve[n - 1] / n for n in (50, 100, 200)]
        assert per_step[0] > per_step[1] > per_step[2], per_step


class TestTruncatedGaussianMean:
    def test_standard_normal(self):
        assert truncated_gaussian_mean(0.0, 1.0) == pytest.approx(
            1 / math.sqrt(2 * math.pi), rel=1e-12)

    def test_degenerate(self):
        assert truncated_gaussian_mean(3.0, 0.0) == 3.0
        assert truncated_gaussian_mean(-2.0, 0.0) == 0.0

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(99)
        draws = rng.normal(1.0, 2.0, 1_000_000)
        clipped = np.maximum(draws, 0.0)
        mc = clipped.mean()
        se = clipped.std(ddof=1) / math.sqrt(len(draws))
        assert abs(truncated_gaussian_mean(1.0, 2.0) - mc) <= 3 * se

    def test_dominates_relu_of_mean(self, rng):
        for _ in range(200):
            mu = float(rng.uniform(-5, 5))
            sigma = float(rng.uniform(0, 4))
            assert truncated_gaussian_mean(mu, sigma) >= max(0.0, mu) - 1e-12

    def test_increasing_in_sigma(self, rng):
        for _ in range(200):
            mu = float(rng.uniform(-5, 5))
            s1, s2 = sorted(rng.uniform(0.01, 4, 2))
            assert truncated_gaussian_mean(mu, s2) >= \
                truncated_gaussian_mean(mu, float(s1)) - 1e-12


# |a| where _ndtr changes branch: 1 (erf), sqrt(2) (erfc's own erf
# switch), 8 sqrt(2) (P/Q to R/S), sqrt(2 MAXLOG) (erfc underflows to 0)
NDTR_EDGES = (1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0),
              math.sqrt(bounds_module._MAXLOG) / bounds_module._SQRTH)


def _ndtr_edge_points():
    """Each branch edge of either sign with its 4 nextafter neighbours on
    each side, and the special values."""
    points = [0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan,
              1e308, -1e308]
    for edge in NDTR_EDGES:
        for a in (edge, -edge):
            points.append(a)
            up = down = a
            for _ in range(4):
                up = math.nextafter(up, math.inf)
                down = math.nextafter(down, -math.inf)
                points += [up, down]
    return np.array(points)


class TestNdtr:
    """bounds._ndtr is the cephes ndtr that scipy.special.ndtr evaluates,
    ported to math: the same bits."""

    @staticmethod
    def _assert_same_bits(xs):
        from scipy.special import ndtr
        got = np.array([bounds_module._ndtr(float(a)) for a in xs])
        want = ndtr(xs)
        bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
        assert bad.size == 0, (xs[bad][:5], got[bad][:5], want[bad][:5])

    def test_bitwise_equal_to_scipy_on_seeded_values(self):
        rng = np.random.default_rng(23)
        self._assert_same_bits(np.concatenate([
            10.0 * rng.standard_normal(400_000),
            rng.uniform(-40.0, 40.0, 300_000),
            np.linspace(-12.0, 12.0, 300_001)]))

    def test_bitwise_equal_to_scipy_at_branch_edges(self):
        self._assert_same_bits(_ndtr_edge_points())

    def test_truncated_gaussian_mean_matches_scipy_formula(self):
        from scipy.special import ndtr

        def reference(mu, sigma):
            if sigma == 0.0:
                return max(0.0, mu)
            z = mu / sigma
            pdf = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
            return mu * float(ndtr(z)) + sigma * pdf

        mus = np.concatenate([np.linspace(-6.0, 6.0, 241), [0.0, -0.0]])
        sigmas = np.concatenate([[0.0, 1e-300, 1e-8],
                                 np.linspace(0.01, math.sqrt(2.0), 60)])
        for mu in mus:
            for sigma in sigmas:
                got = truncated_gaussian_mean(float(mu), float(sigma))
                want = reference(float(mu), float(sigma))
                assert np.float64(got).view(np.int64) == \
                    np.float64(want).view(np.int64), (mu, sigma)


class TestLowerBound:
    def test_first_step_convention(self):
        cfg = TVBOConfig(spatial=SpatialKernel.rbf([0.4]),
                         temporal=TemporalKernel.rbf(1.0), horizon=5, seed=1)
        trace = run_tvbo(cfg)
        report = _lower_bound_of(trace)
        assert report.terms[0] == pytest.approx(math.sqrt(2 / (2 * math.pi)),
                                                rel=1e-12)
        assert report.mu_hat[0] == 0.0
        assert report.sigma_hat[0] == pytest.approx(math.sqrt(2.0))

    def test_identical_points_cancel_mean(self):
        # force the oracle optimum to coincide with every chosen point: the
        # mean proxy vanishes and only the sigma terms remain
        cfg = TVBOConfig(spatial=SpatialKernel.rbf([0.4]),
                         temporal=TemporalKernel.rbf(1.0), horizon=12, seed=2)
        trace = run_tvbo(cfg)
        rigged = RegretTrace(
            config=trace.config, grid=trace.grid, times=trace.times,
            chosen_idx=trace.chosen_idx, star_idx=trace.chosen_idx.copy(),
            instantaneous=np.zeros_like(trace.instantaneous), ys=trace.ys,
            posterior_sd=trace.posterior_sd, betas=trace.betas,
            objective=trace.objective)
        report = _lower_bound_of(rigged)
        assert np.allclose(report.mu_hat, 0.0, atol=1e-9)
        phi0 = 1 / math.sqrt(2 * math.pi)
        assert report.total == pytest.approx(
            float(np.sum(report.sigma_hat * phi0)), rel=1e-9)

    def test_sigma_within_bounds(self):
        cfg = TVBOConfig(spatial=SpatialKernel.rbf([0.4]),
                         temporal=TemporalKernel.periodic(period=0.5,
                                                          lengthscale=0.8),
                         horizon=40, seed=3)
        trace = run_tvbo(cfg)
        report = _lower_bound_of(trace)
        assert np.all(report.sigma_hat >= 0.0)
        assert np.all(report.sigma_hat <= math.sqrt(2.0) + 1e-12)

    def test_below_empirical_mean_small_runs(self):
        # one-sided validity on short broadband runs (the acceptance suite
        # repeats this at full scale)
        cfg = TVBOConfig(spatial=SpatialKernel.rbf([0.4]),
                         temporal=TemporalKernel.rbf(1.0), horizon=60, seed=0)
        traces = run_replications(cfg, [0, 1, 2, 3])
        totals = np.array([t.total for t in traces])
        lows = np.array([_lower_bound_of(t).total for t in traces])
        sem = totals.std(ddof=1) / math.sqrt(len(totals))
        assert totals.mean() >= lows.mean() - 3 * sem

    def test_mean_matches_mercer_posterior(self):
        # mu_hat_k is the spectral posterior mean at x*_k minus the one at
        # x_k, both conditioned on the first k noiseless objective values;
        # sigma_hat_full_k also subtracts twice the Mercer cross covariance
        # k(x*_k, x_k) - sum lam_bar phi(x*_k) phi(x_k)
        for temporal in (TemporalKernel.rbf(1.0),
                         TemporalKernel.periodic(period=0.5, lengthscale=0.8),
                         TemporalKernel.cosine_sum([(0.0, 0.4), (2.3, 0.6)])):
            cfg = TVBOConfig(spatial=SpatialKernel.rbf([0.4]),
                             temporal=temporal, horizon=40, seed=5)
            trace = run_tvbo(cfg)
            report = _lower_bound_of(trace)
            xs, ts = trace.chosen_x, trace.times
            fvals = trace.objective_at_chosen
            for k in range(1, len(ts)):
                data = Dataset(xs[:k], ts[:k], fvals[:k])
                pairs = eigh_descending(build_spatiotemporal_matrix(
                    cfg.spatial, temporal, data.xs, data.ts).values)
                m_star, _ = _mercer_posterior(
                    pairs, data, (trace.star_x[k], ts[k]), cfg.spatial,
                    temporal)
                m_cur, _ = _mercer_posterior(
                    pairs, data, (xs[k], ts[k]), cfg.spatial, temporal)
                assert abs(report.mu_hat[k] - (m_star - m_cur)) <= 1e-9, \
                    (temporal.family, k)

                vals, vecs = np.linalg.eigh(build_spatiotemporal_matrix(
                    cfg.spatial, temporal, data.xs, data.ts).values)
                x_star, x_cur = trace.star_x[k:k + 1], xs[k:k + 1]
                t_q = ts[k:k + 1]
                k_star, k_cur = (
                    cross_covariance(cfg.spatial, temporal, data.xs, data.ts,
                                     q, t_q)[:, 0] for q in (x_star, x_cur))
                lam_bar, _, (phi_star, phi_cur) = nystrom_expansion(
                    vals[::-1], vecs[:, ::-1], fvals[:k], [k_star, k_cur])
                k_cross = cross_covariance(cfg.spatial, temporal, x_star, t_q,
                                           x_cur, t_q)[0, 0]
                cov = k_cross - np.sum(lam_bar * phi_star * phi_cur)
                var = (2.0 - np.sum(lam_bar * phi_star ** 2)
                       - np.sum(lam_bar * phi_cur ** 2) - 2.0 * cov)
                sigma_full = math.sqrt(min(max(var, 0.0), 2.0))
                assert abs(report.sigma_hat_full[k] - sigma_full) <= 1e-9, \
                    (temporal.family, k)

    def test_bound_report_builds_the_gram_once(self, monkeypatch):
        cfg = TVBOConfig(spatial=SpatialKernel.rbf([0.4]),
                         temporal=TemporalKernel.periodic(period=0.5,
                                                          lengthscale=0.8),
                         horizon=30, seed=2)
        trace = run_tvbo(cfg)
        builds = []
        build = bounds_module.build_spatiotemporal_matrix

        def counting(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(bounds_module, "build_spatiotemporal_matrix",
                            counting)
        report = bound_report(trace)
        assert len(builds) == 1
        alone = _lower_bound_of(trace)
        for field in ("mu_hat", "sigma_hat", "sigma_hat_full", "terms",
                      "terms_full"):
            assert np.array_equal(getattr(report.lower, field),
                                  getattr(alone, field))

    def test_gram_is_a_required_argument(self):
        params = inspect.signature(lower_bound).parameters
        assert list(params) == ["spatial", "temporal", "trace", "gram"]
        assert all(p.default is inspect.Parameter.empty
                   for p in params.values())

    def test_lower_bound_builds_no_gram_of_its_own(self, monkeypatch):
        cfg = TVBOConfig(spatial=SpatialKernel.rbf([0.4]),
                         temporal=TemporalKernel.rbf(1.0), horizon=12, seed=5)
        trace = run_tvbo(cfg)
        gram = build_spatiotemporal_matrix(cfg.spatial, cfg.temporal,
                                           trace.chosen_x, trace.times)
        want = bound_report(trace).lower

        def refused(*args):
            raise AssertionError("lower_bound rebuilt the Gram matrix")

        monkeypatch.setattr(bounds_module, "build_spatiotemporal_matrix",
                            refused)
        got = lower_bound(cfg.spatial, cfg.temporal, trace, gram)
        assert np.array_equal(got.terms, want.terms)
        assert got.total == want.total

    def test_report_serializes(self):
        cfg = TVBOConfig(spatial=SpatialKernel.rbf([0.4]),
                         temporal=TemporalKernel.rbf(1.0), horizon=8, seed=4)
        trace = run_tvbo(cfg)
        report = bound_report(trace)
        assert 0.0 <= report.c1_violation_fraction <= 1.0
        curve, violations = upper_bound_curve(trace)
        assert np.array_equal(report.upper_curve, curve)
        assert report.upper == curve[-1]
        assert report.c1_violation_fraction == violations


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
        return sp, data, eigh_descending(gram.values)

    def test_empty_data_returns_prior(self):
        sp, tp = SpatialKernel.rbf([0.3]), TemporalKernel.rbf(1.0)
        pairs = eigh_descending(np.eye(1))
        data = Dataset(np.zeros((0, 1)), [], [], noise=0.01)
        mean, var = _mercer_posterior(pairs, data, ([0.5], 0.1), sp, tp)
        assert (mean, var) == (0.0, 1.0)

    def test_mean_at_observed_point(self, rng):
        # noiseless conditioning at large n: the spectral mean reproduces
        # the exact posterior mean at observed points
        tp = TemporalKernel.rbf(1.0)
        sp, data, pairs = self._setup(rng, tp, 200, 0.0)
        exact_mean, _ = GPPosterior(sp, tp, data).predict(data.xs[:20],
                                                          data.ts[:20])
        for j in range(20):
            mean, _ = _mercer_posterior(pairs, data, (data.xs[j], data.ts[j]),
                                        sp, tp)
            assert abs(mean - exact_mean[j]) < 0.05

    def test_variance_in_unit_interval(self, rng):
        tp = TemporalKernel.rbf(1.0)
        sp, data, pairs = self._setup(rng, tp, 40, 0.01)
        for j in range(0, 40, 5):
            _, var = _mercer_posterior(pairs, data, (data.xs[j], data.ts[j]),
                                       sp, tp)
            assert 0.0 <= var <= 1.0

    def test_variance_deviation_shrinks_with_n(self, rng):
        # |spectral variance - exact variance| at the observed points decays
        # as the spectrum estimates improve with n
        tp = TemporalKernel.periodic(period=0.3, lengthscale=0.8)
        devs = []
        for n in (50, 100, 200):
            sp, data, pairs = self._setup(rng, tp, n, 0.01)
            _, cov = GPPosterior(sp, tp, data).predict(data.xs, data.ts)
            exact_var = np.diag(cov)
            dev = [abs(_mercer_posterior(pairs, data, (data.xs[j], data.ts[j]),
                                         sp, tp)[1] - exact_var[j])
                   for j in range(n)]
            devs.append(float(np.mean(dev)))
        assert devs[2] < devs[1] < devs[0], devs

    def test_rbf_variance_consistency_direction(self, rng):
        # same convergence direction for the broadband pair used throughout
        tp = TemporalKernel.rbf(1.0)
        devs = []
        for n in (50, 200):
            sp, data, pairs = self._setup(rng, tp, n, 0.01)
            _, cov = GPPosterior(sp, tp, data).predict(data.xs, data.ts)
            exact_var = np.diag(cov)
            dev = [abs(_mercer_posterior(pairs, data, (data.xs[j], data.ts[j]),
                                         sp, tp)[1] - exact_var[j])
                   for j in range(n)]
            devs.append(float(np.mean(dev)))
        assert devs[1] < devs[0], devs


def _scaling_oracle(spatial, temporal, ns, interval=(1.0, 2.0), noise=0.01,
                    delta=0.1, seed=0):
    """The per-(kernel, seed) diagnostic, recomputing both factor spectra
    for every row, as a reference for the shared-spectra loop."""
    a, b = interval
    rng = np.random.default_rng(seed)
    rows = []
    for n in ns:
        xs = rng.uniform(0.0, 1.0, size=(int(n), spatial.dimension))
        ts = (np.arange(int(n)) + 1) * delta
        spec = eig_sym(build_spatiotemporal_matrix(spatial, temporal, xs, ts))
        info = mutual_info_exact(spec, noise)
        ks = eig_sym(SymMatrix(spatial.pairwise(xs, xs)))
        kt = eig_sym(SymMatrix(eval_temporal(
            temporal, np.abs(ts[:, None] - ts[None, :]))))
        rows.append({
            "seed": seed,
            "n": int(n),
            "count": count_in_interval(spec, a, b),
            "info": info,
            "info_per_n": info / n,
            "n0_proxy": approx_product_spectrum(ks, kt, int(n))
            .distinct_spatial_indices,
        })
    return rows


FIG5_SPATIAL = kernel_from_dict({"kind": "spatial",
                                 **FIG5_DEFAULTS["spatial"]})
FIG5_TEMPORALS = {label: kernel_from_dict({"kind": "temporal", **spec})
                  for label, spec in FIG5_DEFAULTS["kernels"].items()}


class TestScalingDiagnostic:
    @pytest.mark.parametrize("ns, seeds", [([50, 100, 150, 200], [0, 1, 2]),
                                           ([100, 200], [0])],
                             ids=["fig5", "table1"])
    def test_rows_equal_per_kernel_and_seed_oracle(self, ns, seeds):
        got = scaling_diagnostic(FIG5_SPATIAL, FIG5_TEMPORALS, ns, seeds)
        assert list(got) == list(FIG5_TEMPORALS)
        for label, temporal in FIG5_TEMPORALS.items():
            want = [row for seed in seeds
                    for row in _scaling_oracle(FIG5_SPATIAL, temporal, ns,
                                               seed=seed)]
            assert got[label] == want

    def test_each_factor_spectrum_computed_once(self, monkeypatch):
        orders = []
        original = bounds_module.eig_sym

        def counting(matrix, *args, **kwargs):
            orders.append(matrix.order)
            return original(matrix, *args, **kwargs)

        monkeypatch.setattr(bounds_module, "eig_sym", counting)
        ns, seeds = [20, 30, 40], [5, 6]
        scaling_diagnostic(FIG5_SPATIAL, FIG5_TEMPORALS, ns, seeds)
        k, s = len(FIG5_TEMPORALS), len(seeds)
        # per n: full matrices per (kernel, seed), spatial factors per
        # seed, temporal factors per kernel
        assert len(orders) == k * s * len(ns) + s * len(ns) + k * len(ns)
        assert sorted(orders) == sorted(ns * (k * s + s + k))

    def test_each_gram_built_once(self, monkeypatch):
        # the spatial Gram once per (seed, n), the temporal Gram once per
        # kernel at the largest n; the spatio-temporal matrices are their
        # products
        counts = {"pairwise": [], "temporal": []}
        pairwise = SpatialKernel.pairwise

        def counting_pairwise(self, xs1, xs2):
            counts["pairwise"].append(len(xs1))
            return pairwise(self, xs1, xs2)

        def counting_temporal(kernel, u):
            counts["temporal"].append(np.shape(u))
            return eval_temporal(kernel, u)

        monkeypatch.setattr(SpatialKernel, "pairwise", counting_pairwise)
        for module in (bounds_module, spectral_module):
            monkeypatch.setattr(module, "eval_temporal", counting_temporal)
        ns, seeds = [20, 40, 30], [5, 6]
        scaling_diagnostic(FIG5_SPATIAL, FIG5_TEMPORALS, ns, seeds)
        assert counts["pairwise"] == ns * len(seeds)
        assert counts["temporal"] == [(40, 40)] * len(FIG5_TEMPORALS)

    def test_discrete_count_stable(self):
        sp = SpatialKernel.rbf([0.7])
        tp = TemporalKernel.cosine_sum([(0.0, 0.4), (1.3, 0.6)])
        rows = scaling_diagnostic(sp, {"cos": tp}, [50, 100, 150, 200],
                                  [0])["cos"]
        counts = [r["count"] for r in rows if r["n"] >= 100]
        assert len(set(counts)) == 1

    def test_broadband_count_grows(self):
        sp = SpatialKernel.rbf([0.7])
        tp = TemporalKernel.rbf(1.0)
        rows = {r["n"]: r for r in scaling_diagnostic(sp, {"rbf": tp},
                                                      [100, 200], [0])["rbf"]}
        assert rows[200]["count"] >= 1.5 * rows[100]["count"]

    def test_interval_above_spectrum(self):
        sp = SpatialKernel.rbf([0.7])
        tp = TemporalKernel.rbf(1.0)
        rows = scaling_diagnostic(sp, {"rbf": tp}, [40, 80], [0],
                                  interval=(1e9, 2e9))["rbf"]
        assert all(r["count"] == 0 for r in rows)

    def test_rows_report_information(self):
        sp = SpatialKernel.rbf([0.7])
        tp = TemporalKernel.rbf(1.0)
        rows = scaling_diagnostic(sp, {"rbf": tp}, [60], [1])["rbf"]
        assert rows[0]["seed"] == 1
        assert rows[0]["info"] > 0
        assert rows[0]["info_per_n"] == pytest.approx(rows[0]["info"] / 60)
        assert rows[0]["n0_proxy"] >= 1
