"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py``.  The per-criterion lines are
collected into the terminal summary (and printed live under ``-s``).
"""

import math
import time

import numpy as np
import pytest

from tvbospec.bounds import (
    lower_bound,
    mutual_info_exact,
    scaling_diagnostic,
    truncated_gaussian_mean,
    upper_bound_curve,
)
from tvbospec.gp import Dataset, GPPosterior
from tvbospec.kernels import SpatialKernel, TemporalKernel
from tvbospec.spectral import (
    Spectrum,
    SymMatrix,
    TimeGrid,
    approx_product_spectrum,
    approx_temporal_spectrum,
    build_spatiotemporal_matrix,
    build_temporal_matrix,
    eig_sym,
    positive_count,
)
from tvbospec.tvbo import TVBOConfig, run_replications

from conftest import ACCEPTANCE_LINES
from test_gp import dense_solve_oracle


def _report(criterion: str, ok: bool, elapsed: float, detail: str) -> None:
    line = f"{criterion} {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s) - {detail}"
    print(line, flush=True)
    ACCEPTANCE_LINES.append(line)
    assert ok, line


# experiment defaults shared with the CLI layer
FIG5_SPATIAL = SpatialKernel.rbf([0.7])
FIG5_KERNELS = {
    "rbf": TemporalKernel.rbf(1.0),
    "sinc_squared": TemporalKernel.sinc_squared(1.0),
    "periodic": TemporalKernel.periodic(period=0.3, lengthscale=0.8),
    "cosine_sum": TemporalKernel.cosine_sum([(0.0, 0.4), (1.3, 0.6)]),
}
REGRET_SPATIAL = SpatialKernel.rbf([0.4])
REGRET_KERNELS = {
    "rbf": TemporalKernel.rbf(1.0),
    "sinc_squared": TemporalKernel.sinc_squared(1.0),
    "periodic": TemporalKernel.periodic(period=0.5, lengthscale=0.8),
    "cosine_sum": TemporalKernel.cosine_sum([(0.0, 0.4), (2.3, 0.6)]),
}
SEEDS = list(range(10))


@pytest.fixture(scope="module")
def fig5_diagnostics():
    """count/information rows for the four class examples, 10 seeds each
    (ordered seed by seed, then n), plus the wall time spent producing them."""
    start = time.perf_counter()
    rows = scaling_diagnostic(FIG5_SPATIAL, FIG5_KERNELS, [50, 100, 200],
                              SEEDS, interval=(1.0, 2.0), noise=0.01,
                              delta=0.1)
    return rows, time.perf_counter() - start


@pytest.fixture(scope="module")
def regret_suite():
    """Ten seeded GP-UCB runs per kernel class, with bound evaluations,
    plus the wall time spent producing them."""
    start = time.perf_counter()
    out = {}
    for label, kt in REGRET_KERNELS.items():
        config = TVBOConfig(spatial=REGRET_SPATIAL, temporal=kt, seed=0)
        traces = run_replications(config, SEEDS, jobs=4)
        entries = []
        for trace in traces:
            curve, _ = upper_bound_curve(trace)
            low = lower_bound(config.spatial, config.temporal, trace)
            entries.append({
                "trace": trace,
                "upper_holds": bool(np.all(trace.cumulative <= curve)),
                "lower_total": low.total,
            })
        out[label] = entries
    return out, time.perf_counter() - start


def test_a1_product_spectrum_fidelity():
    start = time.perf_counter()
    spatial = SpatialKernel.rbf([0.2])
    temporal = TemporalKernel.rbf(1.0)
    rng = np.random.default_rng(7)
    errs = {}
    for n in (50, 100, 200):
        xs = rng.uniform(0, 1, (n, 1))
        ts = (np.arange(n) + 1) * 0.1
        exact = eig_sym(build_spatiotemporal_matrix(spatial, temporal, xs, ts))
        spec_s = eig_sym(SymMatrix(spatial.pairwise(xs, xs)))
        spec_t = eig_sym(build_temporal_matrix(temporal, TimeGrid(n, 0.1)))
        prod = approx_product_spectrum(spec_s, spec_t, n)
        rel = np.abs(prod.spectrum.values[:20] - exact.values[:20]) / exact.values[:20]
        errs[n] = float(rel.mean())
    elapsed = time.perf_counter() - start
    ok = errs[100] <= 0.15 and errs[200] < errs[50] and elapsed < 10.0
    _report("A1", ok, elapsed,
            f"top-20 mean relative error {errs[100]:.3f} (<=0.15) at n=100; "
            f"n=200 error {errs[200]:.3f} < n=50 error {errs[50]:.3f}")


def test_a2_broadband_spectrum_law():
    start = time.perf_counter()
    temporal = TemporalKernel.rbf(1.0)
    maes = {}
    for delta in (0.1, 0.05):
        for n in (100, 200):
            grid = TimeGrid(n, delta)
            exact = eig_sym(build_temporal_matrix(temporal, grid)).values
            approx = approx_temporal_spectrum(temporal, grid)
            maes[(delta, n)] = float(np.mean(np.abs(exact - approx.spectrum.values)))
    w1 = approx_temporal_spectrum(temporal, TimeGrid(100, 0.1)).frequencies
    w2 = approx_temporal_spectrum(temporal, TimeGrid(100, 0.05)).frequencies
    width_ratio = (w2[-1] - w2[0]) / (w1[-1] - w1[0])
    elapsed = time.perf_counter() - start
    ok = (maes[(0.1, 200)] < maes[(0.1, 100)]
          and maes[(0.05, 200)] < maes[(0.05, 100)]
          and width_ratio == pytest.approx(2.0, rel=1e-12)
          and elapsed < 20.0)
    _report("A2", ok, elapsed,
            f"MAE halves with n (0.1: {maes[(0.1, 100)]:.4f}->{maes[(0.1, 200)]:.4f}, "
            f"0.05: {maes[(0.05, 100)]:.4f}->{maes[(0.05, 200)]:.4f}); "
            f"frequency-axis width ratio {width_ratio:.12f}")


def test_a3_nyquist_zeros():
    start = time.perf_counter()
    temporal = TemporalKernel.sinc(1.0)
    counts = {}
    for delta in (0.25, 0.6):
        approx = approx_temporal_spectrum(temporal, TimeGrid(100, delta))
        counts[delta] = positive_count(approx.spectrum)
    elapsed = time.perf_counter() - start
    ok = counts[0.25] == 50 and counts[0.6] == 100 and elapsed < 5.0
    _report("A3", ok, elapsed,
            f"positive counts: step 0.25 -> {counts[0.25]} (exactly 50), "
            f"step 0.6 -> {counts[0.6]} (exactly 100)")


def test_a4_periodic_commensurate_rank():
    start = time.perf_counter()
    temporal = TemporalKernel.periodic(period=1.0, lengthscale=1.0)
    counts = {}
    for divisor in (3, 6):
        for n in (60, 120):
            spec = eig_sym(build_temporal_matrix(temporal,
                                                 TimeGrid(n, 1.0 / divisor)))
            counts[(divisor, n)] = positive_count(spec)
    elapsed = time.perf_counter() - start
    ok = (counts[(3, 60)] == counts[(3, 120)] == 3
          and counts[(6, 60)] == counts[(6, 120)] == 6
          and elapsed < 5.0)
    _report("A4", ok, elapsed, f"threshold-positive counts {counts}")


def test_a5_low_rank_spectrum():
    start = time.perf_counter()
    temporal = TemporalKernel.cosine_sum([(0.0, 0.5), (1.3, 0.5)])
    spec = eig_sym(build_temporal_matrix(temporal, TimeGrid(100, 0.1)))
    target = np.array([50.0, 25.0, 25.0])
    rel = np.abs(spec.values[:3] - target) / target
    elapsed = time.perf_counter() - start
    ok = (np.all(rel <= 0.05)
          and spec.values[3] < 1e-6 * spec.values[0]
          and elapsed < 2.0)
    _report("A5", ok, elapsed,
            f"top three {np.round(spec.values[:3], 3).tolist()} within "
            f"{100 * rel.max():.2f}% of [50, 25, 25]; fourth/largest = "
            f"{spec.values[3] / spec.values[0]:.2e}")


def test_a6_scaling_dichotomy(fig5_diagnostics):
    fig5_diagnostics, setup_elapsed = fig5_diagnostics
    start = time.perf_counter()
    means = {}
    per_seed_counts = {}
    for label, rows in fig5_diagnostics.items():
        counts = {n: [row["count"] for row in rows if row["n"] == n]
                  for n in (100, 200)}
        per_seed_counts[label] = counts
        means[label] = {n: float(np.mean(c)) for n, c in counts.items()}
    grow_ok = all(means[k][200] >= 1.5 * means[k][100]
                  for k in ("rbf", "sinc_squared"))
    const_ok = all(a == b for k in ("periodic", "cosine_sum")
                   for a, b in zip(per_seed_counts[k][100],
                                   per_seed_counts[k][200]))
    elapsed = time.perf_counter() - start + setup_elapsed
    ok = grow_ok and const_ok and elapsed < 60.0
    _report("A6", ok, elapsed,
            f"counts in [1,2] mean n=100->200: "
            f"rbf {means['rbf'][100]:.1f}->{means['rbf'][200]:.1f}, "
            f"sinc2 {means['sinc_squared'][100]:.1f}->{means['sinc_squared'][200]:.1f} "
            f"(>=1.5x); periodic/cosine_sum equal per seed: {const_ok}")


def test_a7_mutual_information_dichotomy(fig5_diagnostics):
    fig5_diagnostics, setup_elapsed = fig5_diagnostics
    start = time.perf_counter()
    ipn = {}
    for label, rows in fig5_diagnostics.items():
        ipn[label] = {n: float(np.mean([row["info_per_n"] for row in rows
                                        if row["n"] == n]))
                      for n in (50, 100, 200)}
    discrete_ok = all(ipn[k][200] <= 0.6 * ipn[k][50]
                      for k in ("periodic", "cosine_sum"))
    broadband_ok = True
    for k in ("rbf", "sinc_squared"):
        seq = [ipn[k][n] for n in (50, 100, 200)]
        nonincreasing = all(b <= a * 1.02 for a, b in zip(seq, seq[1:]))
        plateau = seq[2] > 0.6 * seq[0]
        broadband_ok = broadband_ok and nonincreasing and plateau
    elapsed = time.perf_counter() - start + setup_elapsed
    ok = discrete_ok and broadband_ok and elapsed < 60.0
    _report("A7", ok, elapsed,
            "I/n at n=50,100,200: " + "; ".join(
                f"{k} {ipn[k][50]:.3f},{ipn[k][100]:.3f},{ipn[k][200]:.3f}"
                for k in ipn) + f"; discrete ratio <=0.6: {discrete_ok}")


def test_a8_bound_validity(regret_suite):
    regret_suite, setup_elapsed = regret_suite
    start = time.perf_counter()
    details = []
    ok = True
    ratios = {}
    for label, entries in regret_suite.items():
        totals = np.array([e["trace"].total for e in entries])
        lows = np.array([e["lower_total"] for e in entries])
        upper_count = sum(e["upper_holds"] for e in entries)
        sem = totals.std(ddof=1) / math.sqrt(len(totals))
        lower_ok = totals.mean() >= lows.mean() - 3 * sem
        ok = ok and upper_count >= 9 and lower_ok
        details.append(f"{label}: upper {upper_count}/10, mean R "
                       f"{totals.mean():.1f} vs lower {lows.mean():.1f}"
                       f"{'' if lower_ok else ' (VIOLATED)'}")
        cum = np.stack([e["trace"].cumulative for e in entries])
        ratios[label] = (cum[:, 49].mean() / 50, cum[:, 199].mean() / 200)
    # desk-scale stand-ins for the asymptotic dichotomy: the per-step regret
    # of the periodic kernel shrinks with the horizon while the broadband
    # kernel's does not vanish
    sep_ok = (ratios["periodic"][1] < ratios["periodic"][0]
              and ratios["rbf"][1] >= 0.5 * ratios["rbf"][0])
    ok = ok and sep_ok
    elapsed = time.perf_counter() - start + setup_elapsed
    ok = ok and elapsed < 900.0
    _report("A8", ok, elapsed,
            "; ".join(details) + f"; R/n trends periodic "
            f"{ratios['periodic'][0]:.3f}->{ratios['periodic'][1]:.3f}, "
            f"rbf {ratios['rbf'][0]:.3f}->{ratios['rbf'][1]:.3f}")


def test_a9_oracle_equivalences():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    checks = []

    # posterior vs independent dense solve
    sp, tp = SpatialKernel.rbf([0.25]), TemporalKernel.rbf(1.0)
    xs = rng.uniform(0, 1, (8, 1))
    data = Dataset(xs, (np.arange(8) + 1) * 0.1, rng.standard_normal(8),
                   noise=0.01)
    xq = rng.uniform(0, 1, (5, 1))
    tq = np.linspace(0.15, 0.55, 5)
    mean, cov = GPPosterior(sp, tp, data).predict(xq, tq)
    omean, ocov = dense_solve_oracle(sp, tp, data, xq, tq)
    checks.append(("posterior-vs-dense-solve",
                   float(max(np.max(np.abs(mean - omean)),
                             np.max(np.abs(cov - ocov)))), 1e-8))

    # mutual information vs slogdet
    m = build_spatiotemporal_matrix(sp, tp, rng.uniform(0, 1, (20, 1)),
                                    (np.arange(20) + 1) * 0.1)
    _, logdet = np.linalg.slogdet(np.eye(20) + m.values / 0.01)
    checks.append(("mutual-info-vs-logdet",
                   abs(mutual_info_exact(m, 0.01) - 0.5 * logdet), 1e-8))

    # truncated Gaussian mean vs Monte Carlo
    draws = np.maximum(rng.normal(1.0, 2.0, 1_000_000), 0.0)
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    checks.append(("truncated-mean-vs-monte-carlo",
                   abs(truncated_gaussian_mean(1.0, 2.0) - draws.mean()),
                   3 * se))

    # heap products vs brute force
    worst = 0.0
    for _ in range(50):
        na, nb = int(rng.integers(1, 31)), int(rng.integers(1, 31))
        a = np.sort(rng.uniform(0, 5, na))[::-1]
        b = np.sort(rng.uniform(0, 5, nb))[::-1]
        n = int(rng.integers(1, na * nb + 1))
        prod = approx_product_spectrum(Spectrum(a), Spectrum(b), n)
        brute = np.sort(np.outer(a, b).ravel())[::-1][:n] / n
        worst = max(worst, float(np.max(np.abs(prod.spectrum.values - brute))))
    checks.append(("product-heap-vs-brute-force", worst, 1e-12))

    elapsed = time.perf_counter() - start
    ok = all(err <= tol for _, err, tol in checks) and elapsed < 120.0
    _report("A9", ok, elapsed,
            "; ".join(f"{name} err {err:.2e} (tol {tol:.0e})"
                      for name, err, tol in checks))
