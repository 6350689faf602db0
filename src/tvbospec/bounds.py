"""Information quantities and cumulative-regret bound evaluation.

The upper bound couples the GP-UCB confidence schedule with the mutual
information between latent values and observations; the algorithm-
independent lower bound accumulates truncated-Gaussian moments of
per-step regret proxies built from estimated covariance-operator
eigenpairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import ScaleMismatch
from .gp import conditioning_noise, nystrom_expansion
from .kernels import SpatialKernel, TemporalKernel, eval_temporal
from .spectral import (
    Scale,
    Spectrum,
    SymMatrix,
    _eigh,
    approx_product_spectrum,
    build_spatiotemporal_matrix,
    count_in_interval,
    cross_covariance,
    eig_sym,
)
from .tvbo import RegretTrace

__all__ = [
    "c1_constant",
    "mutual_info_exact",
    "mutual_info_spectral",
    "upper_bound",
    "upper_bound_curve",
    "truncated_gaussian_mean",
    "lower_bound",
    "LowerBoundReport",
    "BoundReport",
    "bound_report",
    "scaling_diagnostic",
]

_SQRT2PI = math.sqrt(2.0 * math.pi)


def _norm_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / _SQRT2PI


def c1_constant(noise: float) -> float:
    """C1 = (1/noise) / log(1 + 1/noise), the UCB variance-ratio constant."""
    if noise <= 0:
        raise ValueError("noise variance must be positive")
    inv = 1.0 / noise
    return inv / math.log1p(inv)


def mutual_info_exact(matrix, noise: float) -> float:
    """I(f_n, y_n) = 1/2 log det(I + K / noise) via the eigenvalues of K.

    Small negative eigenvalues (floating-point noise on PSD input) are
    clipped to zero before the logs.
    """
    if noise <= 0:
        raise ValueError("noise variance must be positive")
    if isinstance(matrix, Spectrum):
        vals = matrix.values
    else:
        if not isinstance(matrix, SymMatrix):
            matrix = SymMatrix(np.asarray(matrix, dtype=float))
        vals = eig_sym(matrix).values
    vals = np.maximum(vals, 0.0)
    return float(0.5 * np.sum(np.log1p(vals / noise)))


def mutual_info_spectral(spectrum: Spectrum, n: int, noise: float) -> float:
    """Asymptotic mutual information 1/2 sum_i log(1 + n lam_bar_i / noise)
    over the first n operator-scale eigenvalues."""
    if noise <= 0:
        raise ValueError("noise variance must be positive")
    if spectrum.scale is not Scale.OPERATOR:
        raise ScaleMismatch("operator-scale spectrum required; divide matrix "
                            "eigenvalues by n first")
    vals = np.maximum(spectrum.values[:n], 0.0)
    return float(0.5 * np.sum(np.log1p(n * vals / noise)))


def upper_bound(n: int, beta_n: float, noise: float, info: float) -> float:
    """High-probability cumulative-regret ceiling
    sqrt(8 C1 beta_n noise n I) + pi^2/6, with C1 = c1_constant(noise)."""
    if min(n, beta_n, noise, info) < 0:
        raise ValueError("all inputs must be nonnegative")
    c1 = c1_constant(noise)
    return math.sqrt(8.0 * c1 * beta_n * noise * n * info) + math.pi ** 2 / 6.0


def upper_bound_curve(trace: RegretTrace):
    """Per-iteration upper bound along a run, from the sequential mutual
    information, plus the fraction of steps violating the C1 condition.

    The C1 inequality z^2 <= C1 log(1 + z^2/noise) is only guaranteed for
    posterior standard deviations z <= sqrt(noise); the violation fraction
    reports how often the run exceeded that.
    """
    noise = conditioning_noise(trace.config.noise)
    info = trace.sequential_information
    ns = np.arange(1, len(info) + 1)
    bounds = np.array([
        upper_bound(int(i), max(trace.betas[i - 1], 0.0), noise,
                    float(info[i - 1]))
        for i in ns
    ])
    violation_fraction = float(np.mean(trace.posterior_sd > math.sqrt(noise)))
    return bounds, violation_fraction


def truncated_gaussian_mean(mu: float, sigma: float) -> float:
    """E[max(0, X)] for X ~ N(mu, sigma^2): mu Phi(mu/sigma) + sigma phi(mu/sigma).

    The degenerate sigma = 0 case returns max(0, mu), the continuous limit.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if sigma == 0.0:
        return max(0.0, mu)
    z = mu / sigma
    return mu * float(ndtr(z)) + sigma * _norm_pdf(z)


@dataclass(frozen=True, eq=False)
class LowerBoundReport:
    """Per-step ingredients and totals of the spectral regret lower bound.

    ``sigma_hat`` drops the posterior covariance between the optimum and the
    chosen point (headline values); ``sigma_hat_full`` keeps it, and is
    reported because the positivity of that covariance is an asymptotic
    argument.  ``total`` sums truncated-Gaussian means of the headline
    pairs.
    """

    mu_hat: np.ndarray
    sigma_hat: np.ndarray
    sigma_hat_full: np.ndarray
    terms: np.ndarray
    terms_full: np.ndarray

    @property
    def total(self) -> float:
        return float(np.sum(self.terms))

    @property
    def total_full_cov(self) -> float:
        return float(np.sum(self.terms_full))


def lower_bound(spatial: SpatialKernel, temporal: TemporalKernel,
                trace: RegretTrace) -> LowerBoundReport:
    """Algorithm-independent lower bound on expected cumulative regret.

    At step k+1 the regret proxy max(0, fbar(x*_{k+1}) - fbar(x_{k+1})) is
    a truncated Gaussian whose parameters come from the spectral posterior
    approximation: with eigenpairs of the k-observation kernel matrix
    (eigenfunction values sqrt(k) Phi_ji at samples, Nystrom extension at
    queries),

        mu_hat_k    = (1/k) sum_i dphi_i sum_j phi_i(z_j) fbar(z_j),
        sigma_hat_k = 2 - sum_i lam_bar_i (phi_i(x*)^2 + phi_i(x)^2),

    truncating each sum to the positive eigenpairs available at step k and
    clipping sigma_hat^2 to [0, 2].  The first step uses the empty-sum
    convention mu_hat = 0, sigma_hat^2 = 2.

    The per-step spectra are exact leading principal submatrices of the
    run's kernel matrix; estimating every step from the final n-point
    spectrum instead injects heavy positive noise into mu_hat (the
    eigenvectors are only orthogonal over all n samples) and rectifies it
    into a badly inflated bound.
    """
    n = len(trace.times)
    xs_all = trace.chosen_x
    ts_all = trace.times
    fvals = trace.objective_at_chosen

    gram = build_spatiotemporal_matrix(spatial, temporal, xs_all, ts_all).values
    # star[i, k] = k((x_i, t_i), (x*_k, t_k)): column k holds the step-k
    # covariances between the optimum and every chosen point
    star = cross_covariance(spatial, temporal, xs_all, ts_all, trace.star_x,
                            ts_all)

    mu_hat = np.zeros(n)
    sig_drop = np.zeros(n)
    sig_full = np.zeros(n)
    terms = np.zeros(n)
    terms_full = np.zeros(n)
    sig_drop[0] = sig_full[0] = math.sqrt(2.0)
    terms[0] = terms_full[0] = truncated_gaussian_mean(0.0, math.sqrt(2.0))

    for k in range(1, n):
        vals, vecs = _eigh(gram[:k, :k])
        lam_bar, inner, (phi_star, phi_cur) = nystrom_expansion(
            vals[::-1], vecs[:, ::-1], fvals[:k], [star[:k, k], gram[:k, k]])

        mu = float(np.sum((phi_star - phi_cur) * inner)) / k

        s_star = float(np.sum(lam_bar * phi_star ** 2))
        s_cur = float(np.sum(lam_bar * phi_cur ** 2))
        var_drop = min(max(2.0 - s_star - s_cur, 0.0), 2.0)
        # Mercer cross term: Cov(x*, x) = k(x*, x) - sum lam_bar phi* phi.
        cov = float(star[k, k]) - float(np.sum(lam_bar * phi_star * phi_cur))
        var_full = min(max(2.0 - s_star - s_cur - 2.0 * cov, 0.0), 2.0)

        mu_hat[k] = mu
        sig_drop[k] = math.sqrt(var_drop)
        sig_full[k] = math.sqrt(var_full)
        terms[k] = truncated_gaussian_mean(mu, sig_drop[k])
        terms_full[k] = truncated_gaussian_mean(mu, sig_full[k])

    return LowerBoundReport(mu_hat, sig_drop, sig_full, terms, terms_full)


@dataclass(frozen=True, eq=False)
class BoundReport:
    """What the bound evaluators compute for one run.

    The run's own numbers (length, noise, confidence schedule, regret) stay
    on its RegretTrace.
    """

    info_exact: float
    info_spectral: float
    upper_curve: np.ndarray
    c1_violation_fraction: float
    lower: LowerBoundReport

    @property
    def upper(self) -> float:
        """Upper bound at the last step of the run."""
        return float(self.upper_curve[-1])


def bound_report(trace: RegretTrace) -> BoundReport:
    """Evaluate both bounds and the information quantities for one run."""
    cfg = trace.config
    noise = conditioning_noise(cfg.noise)
    n = len(trace.times)
    gram = build_spatiotemporal_matrix(cfg.spatial, cfg.temporal,
                                       trace.chosen_x, trace.times)
    spec = eig_sym(gram)
    curve, violations = upper_bound_curve(trace)
    return BoundReport(
        info_exact=mutual_info_exact(spec, noise),
        info_spectral=mutual_info_spectral(spec.clipped().to_operator(n), n,
                                           noise),
        upper_curve=curve,
        c1_violation_fraction=violations,
        lower=lower_bound(cfg.spatial, cfg.temporal, trace),
    )


def scaling_diagnostic(spatial: SpatialKernel, temporals, ns, seeds,
                       interval=(1.0, 2.0), noise: float = 0.01,
                       delta: float = 0.1):
    """Eigenvalue counts in an interval and I/n across matrix sizes.

    ``temporals`` maps labels to temporal kernels.  For each seed, one
    ``default_rng(seed)`` draws the spatial points of every n in turn
    (uniform in the unit cube); the spatio-temporal kernel matrix pairs them
    with the fixed-frequency times (1..n) * delta.  Each row reports the
    count of eigenvalues in [a, b], the exact mutual information and its
    value per observation, and the number of distinct spatial eigenvalue
    indices used by the product approximation (a proxy for the constant n0
    controlling how the product spectrum is assembled).

    Returns {label: rows}, each list ordered seed by seed, then n by n; a
    row is {"seed", "n", "count", "info", "info_per_n", "n0_proxy"}.

    Each factor spectrum is computed once: the spatial one per (seed, n),
    shared by all kernels, and the temporal one per (kernel, n), shared by
    all seeds.  Only the spectra are kept, never the factor matrices.
    """
    ns = [int(n) for n in ns]
    a, b = interval
    if b < a:
        raise ValueError("interval must satisfy a <= b")
    times = [(np.arange(n) + 1) * delta for n in ns]
    samples = []  # (seed, [(points, spatial spectrum) for each n])
    for seed in seeds:
        rng = np.random.default_rng(seed)
        per_n = []
        for n in ns:
            xs = rng.uniform(0.0, 1.0, size=(n, spatial.dimension))
            per_n.append((xs, eig_sym(SymMatrix(spatial.pairwise(xs, xs)))))
        samples.append((seed, per_n))
    out = {}
    for label, temporal in temporals.items():
        temporal_specs = [
            eig_sym(SymMatrix(eval_temporal(
                temporal, np.abs(ts[:, None] - ts[None, :]))))
            for ts in times]
        rows = []
        for seed, per_n in samples:
            for n, ts, (xs, spatial_spec), temporal_spec in zip(
                    ns, times, per_n, temporal_specs):
                spec = eig_sym(build_spatiotemporal_matrix(spatial, temporal,
                                                           xs, ts))
                info = mutual_info_exact(spec, noise)
                prod = approx_product_spectrum(spatial_spec, temporal_spec, n)
                rows.append({
                    "seed": seed,
                    "n": n,
                    "count": count_in_interval(spec, a, b),
                    "info": info,
                    "info_per_n": info / n,
                    "n0_proxy": prod.distinct_spatial_indices,
                })
        out[label] = rows
    return out
