"""Mutual information, the regret bounds and the scaling diagnostics."""

import math

import numpy as np
import pytest

import tvbospec.bounds as bounds_module
from tvbospec.errors import ScaleMismatch
from tvbospec.expcli.experiments import FIG5_DEFAULTS
from tvbospec.gp import Dataset, mercer_posterior, nystrom_expansion
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
    Scale,
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
        spec = Spectrum(np.array([1.0]), scale=Scale.OPERATOR)
        assert mutual_info_spectral(spec, 1, 1.0) == pytest.approx(0.5 * math.log(2))

    def test_spectral_zero(self):
        spec = Spectrum(np.zeros(5), scale=Scale.OPERATOR)
        assert mutual_info_spectral(spec, 5, 0.3) == 0.0

    def test_scale_mismatch(self):
        spec = Spectrum(np.array([2.0, 1.0]), scale=Scale.MATRIX)
        with pytest.raises(ScaleMismatch):
            mutual_info_spectral(spec, 2, 1.0)

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
                approx = mutual_info_spectral(prod.spectrum.to_operator(n), n, 0.01)
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
            gaps[n] = abs(mutual_info_spectral(prod.spectrum.to_operator(n),
                                               n, 0.01) - exact) / exact
        assert gaps[150] < gaps[50]


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


class TestLowerBound:
    def test_first_step_convention(self):
        cfg = TVBOConfig(spatial=SpatialKernel.rbf([0.4]),
                         temporal=TemporalKernel.rbf(1.0), horizon=5, seed=1)
        trace = run_tvbo(cfg)
        report = lower_bound(cfg.spatial, cfg.temporal, trace)
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
        report = lower_bound(cfg.spatial, cfg.temporal, rigged)
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
        report = lower_bound(cfg.spatial, cfg.temporal, trace)
        assert np.all(report.sigma_hat >= 0.0)
        assert np.all(report.sigma_hat <= math.sqrt(2.0) + 1e-12)

    def test_below_empirical_mean_small_runs(self):
        # one-sided validity on short broadband runs (the acceptance suite
        # repeats this at full scale)
        cfg = TVBOConfig(spatial=SpatialKernel.rbf([0.4]),
                         temporal=TemporalKernel.rbf(1.0), horizon=60, seed=0)
        traces = run_replications(cfg, [0, 1, 2, 3], jobs=1)
        totals = np.array([t.total for t in traces])
        lows = np.array([lower_bound(cfg.spatial, cfg.temporal, t).total
                         for t in traces])
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
            report = lower_bound(cfg.spatial, cfg.temporal, trace)
            xs, ts = trace.chosen_x, trace.times
            fvals = trace.objective_at_chosen
            for k in range(1, len(ts)):
                data = Dataset(xs[:k], ts[:k], fvals[:k])
                spec = eig_sym(build_spatiotemporal_matrix(
                    cfg.spatial, temporal, data.xs, data.ts),
                    want_vectors=True)
                m_star, _ = mercer_posterior(
                    spec, data, (trace.star_x[k], ts[k]), cfg.spatial, temporal)
                m_cur, _ = mercer_posterior(
                    spec, data, (xs[k], ts[k]), cfg.spatial, temporal)
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
