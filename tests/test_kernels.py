"""Kernel evaluations, spectral densities, classification, serialization."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from tvbospec.errors import WrongClass
from tvbospec.kernels import (
    ClassTag,
    KernelClass,
    SpatialFamily,
    SpatialKernel,
    TemporalKernel,
    classify,
    eval_temporal,
    kernel_from_dict,
    kernel_to_dict,
    line_features,
    spectral_density,
    spectral_lines,
)
from tvbospec.kernels import _LINE_TOL, _check_lag_range, _matern


class TestEvaluation:
    def test_unit_at_zero_lag(self, shipped_temporal_kernels):
        for name, k in shipped_temporal_kernels.items():
            assert eval_temporal(k, 0.0) == pytest.approx(1.0, abs=1e-12), name

    def test_sinc_zero_crossing(self):
        # sin(2 pi tau u) / (2 pi tau u) at tau=1, u=0.5 is sin(pi)/pi = 0
        assert eval_temporal(TemporalKernel.sinc(1.0), 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_cosine_sum_value(self):
        k = TemporalKernel.cosine_sum([(0.0, 0.5), (1.0, 0.5)])
        assert eval_temporal(k, 0.25) == pytest.approx(0.5 + 0.5 * math.cos(math.pi / 2))

    def test_evenness(self, shipped_temporal_kernels, rng):
        us = rng.uniform(-50, 50, 1000)
        for name, k in shipped_temporal_kernels.items():
            left = eval_temporal(k, us)
            right = eval_temporal(k, -us)
            assert np.array_equal(left, right), name

    def test_bounded_by_one(self, shipped_temporal_kernels, rng):
        us = rng.uniform(-100, 100, 1000)
        for name, k in shipped_temporal_kernels.items():
            vals = eval_temporal(k, us)
            assert np.all(np.abs(vals) <= 1 + 1e-12), name

    def test_psd_sanity(self, shipped_temporal_kernels, rng):
        # correlation matrices on random time sets stay PSD up to round-off
        for name, k in shipped_temporal_kernels.items():
            for _ in range(50):
                n = int(rng.integers(2, 41))
                ts = np.sort(rng.uniform(0, 20, n))
                m = eval_temporal(k, np.abs(ts[:, None] - ts[None, :]))
                smallest = np.linalg.eigvalsh(m)[0]
                assert smallest >= -1e-8, (name, smallest)


class TestSpectralDensity:
    def test_rbf_at_zero(self):
        val = spectral_density(TemporalKernel.rbf(1.0), 0.0)
        assert val == pytest.approx(math.sqrt(2 * math.pi), abs=1e-12)

    def test_sinc_outside_support(self):
        assert spectral_density(TemporalKernel.sinc(1.0), 2.0) == 0.0

    def test_quadrature_oracle(self, shipped_temporal_kernels):
        # direct Fourier quadrature of the kernel on a wide grid must match
        # the closed forms; only the exponentially decaying families are
        # tractable this way (the others get inverse-direction oracles)
        ts = np.linspace(-120, 120, 600_001)
        for name in ("rbf", "matern12", "matern32", "matern52"):
            k = shipped_temporal_kernels[name]
            vals = eval_temporal(k, ts)
            for w in (0.0, 0.13, 0.52):
                oracle = np.trapezoid(vals * np.cos(2 * np.pi * w * ts), ts)
                got = spectral_density(k, w)
                assert got == pytest.approx(oracle, abs=2e-6), (name, w)

    def test_band_limited_inversion_oracle(self):
        # the band-limited kernels must be the Fourier inversions of the
        # boxcar and triangle densities written out independently here
        tau = 1.3
        n = 400_001
        ws = -tau + (np.arange(n) + 0.5) * (2 * tau / n)  # midpoint rule
        boxcar = np.full(n, 1.0 / (2 * tau))
        triangle = (1.0 - np.abs(ws) / tau) / tau
        for k, dens in ((TemporalKernel.sinc(tau), boxcar),
                        (TemporalKernel.sinc_squared(tau), triangle)):
            for u in (0.0, 0.5, 1.23, 4.0):
                oracle = np.sum(dens * np.cos(2 * np.pi * ws * u)) * (2 * tau / n)
                assert eval_temporal(k, u) == pytest.approx(oracle, abs=1e-7), (k.family, u)

    def test_rational_quadratic_inverse_quadrature(self, shipped_temporal_kernels):
        # the rational quadratic's 1/u^2 tails make forward quadrature slow,
        # but its density decays exponentially, so invert the transform:
        # integral S(w) cos(2 pi w u) dw must recover k(u)
        ws = np.linspace(-60, 60, 600_001)
        for name in ("rq", "rq2"):
            k = shipped_temporal_kernels[name]
            dens = spectral_density(k, ws)
            for u in (0.0, 0.31, 1.7):
                oracle = np.trapezoid(dens * np.cos(2 * np.pi * ws * u), ws)
                assert eval_temporal(k, u) == pytest.approx(oracle, abs=2e-6), (name, u)

    def test_bochner_positivity(self, shipped_temporal_kernels):
        ws = np.linspace(-30, 30, 4001)
        for name, k in shipped_temporal_kernels.items():
            if classify(k).support_discrete:
                weights = [w for _, w in spectral_lines(k)]
                assert min(weights) >= -1e-12, name
            else:
                assert np.min(spectral_density(k, ws)) >= -1e-12, name

    def test_normalization(self, shipped_temporal_kernels):
        # integral of the density recovers k(0) = 1; the Matern-1/2 density
        # has 1/w^2 frequency tails and needs a much wider grid to cover
        # 99.9% of its mass
        for name, k in shipped_temporal_kernels.items():
            if classify(k).support_discrete:
                total = sum(w for _, w in spectral_lines(k))
            else:
                width = 500 if name == "matern12" else 60
                ws = np.linspace(-width, width, 2_000_001)
                total = np.trapezoid(spectral_density(k, ws), ws)
            assert abs(total - 1.0) <= 1e-3, (name, total)

    def test_cosine_sum_lines(self):
        k = TemporalKernel.cosine_sum([(0.0, 0.5), (3.0, 0.5)])
        lines = spectral_lines(k)
        assert sorted(lines) == [(-3.0, 0.25), (0.0, 0.5), (3.0, 0.25)]

    def test_periodic_lines_are_bessel_weights(self):
        from scipy.special import ive
        k = TemporalKernel.periodic(period=2.0, lengthscale=0.9)
        z = 1.0 / 0.9 ** 2
        lines = dict(spectral_lines(k))
        assert lines[0.0] == pytest.approx(float(ive(0, z)), rel=1e-12)
        assert lines[1 / 2.0] == pytest.approx(float(ive(1, z)), rel=1e-12)
        assert lines[-1 / 2.0] == pytest.approx(float(ive(1, z)), rel=1e-12)

    def test_lines_refused_for_continuous(self):
        with pytest.raises(WrongClass):
            spectral_lines(TemporalKernel.rbf(1.0))

    def test_density_refused_for_discrete(self):
        with pytest.raises(WrongClass, match="spectral_lines"):
            spectral_density(TemporalKernel.periodic(1.0), 0.0)

    def test_each_class_refuses_the_other_spectrum(
            self, shipped_temporal_kernels):
        for k in shipped_temporal_kernels.values():
            with pytest.raises(WrongClass):
                if classify(k).support_discrete:
                    spectral_density(k, 0.0)
                else:
                    spectral_lines(k)

    def test_periodic_lines_reconstruct_kernel(self):
        # the truncated line sum matches the kernel at any sampling step,
        # commensurate with the period or not
        k = TemporalKernel.periodic(period=1.0, lengthscale=0.6)
        lines = spectral_lines(k)
        for delta in (1 / 3.0, 0.13, 0.2719):
            u = np.arange(96) * delta
            rebuilt = sum(w * np.cos(2 * np.pi * f * u) for f, w in lines)
            assert np.max(np.abs(rebuilt - eval_temporal(k, u))) <= 1e-10

    def test_narrow_periodic_lines_reach_tolerance(self):
        # z = 1/l^2 = 100 needs dozens of harmonics; the omitted mass still
        # falls below the tolerance well before the harmonic cap
        lines = spectral_lines(TemporalKernel.periodic(period=1.0,
                                                       lengthscale=0.1))
        assert 20 < len(lines) < 1000
        assert abs(sum(w for _, w in lines) - 1.0) <= 10 * _LINE_TOL


class TestClassification:
    @pytest.mark.parametrize("factory,tag", [
        (lambda: TemporalKernel.rbf(1.0), ClassTag.BROADBAND),
        (lambda: TemporalKernel.matern(1.5, 1.0), ClassTag.BROADBAND),
        (lambda: TemporalKernel.rational_quadratic(1.0), ClassTag.BROADBAND),
        (lambda: TemporalKernel.sinc(2.0), ClassTag.BAND_LIMITED),
        (lambda: TemporalKernel.sinc_squared(2.0), ClassTag.BAND_LIMITED),
        (lambda: TemporalKernel.periodic(1.0), ClassTag.ALMOST_PERIODIC),
        (lambda: TemporalKernel.cosine_sum([(0.0, 1.0)]), ClassTag.LOW_RANK),
    ])
    def test_families(self, factory, tag):
        assert classify(factory()).tag is tag

    def test_support_tag_bijection(self):
        seen = set()
        for bounded in (False, True):
            for discrete in (False, True):
                cls = KernelClass.from_support(bounded, discrete)
                assert (cls.support_bounded, cls.support_discrete) == (bounded, discrete)
                seen.add(cls.tag)
        assert seen == set(ClassTag)


class TestCosineSum:
    def test_low_rank_kernel_validation(self):
        with pytest.raises(ValueError):
            TemporalKernel.cosine_sum([(0.0, 0.5), (1.0, 0.6)])
        with pytest.raises(ValueError):
            TemporalKernel.cosine_sum([(0.0, 0.5), (1.0, -0.1), (2.0, 0.6)])

    def test_serialization_round_trip(self, rng):
        # non-round float frequencies and weights come back bit for bit
        for n_lines in (1, 3, 8):
            weights = rng.uniform(0.1, 1.0, n_lines + 1)
            weights /= weights.sum()
            freqs = [0.0, *rng.uniform(0.1, 3.0, n_lines)]
            k = TemporalKernel.cosine_sum(zip(freqs, weights))
            text = json.dumps(kernel_to_dict(k))
            assert kernel_from_dict(json.loads(text)) == k

    def test_lines_reproduce_kernel(self):
        k = TemporalKernel.cosine_sum([(0.0, 0.3), (0.7, 0.5), (2.1, 0.2)])
        lines = spectral_lines(k)
        assert sum(w for _, w in lines) == pytest.approx(1.0, abs=1e-15)
        u = np.arange(50) * 0.37
        rebuilt = sum(w * np.cos(2 * np.pi * f * u) for f, w in lines)
        assert np.max(np.abs(rebuilt - eval_temporal(k, u))) <= 1e-14

    def test_line_features_reproduce_kernel(self, rng):
        # phi(s) . phi(t) = k(s - t) with one feature for the zero frequency
        # and two for each other line
        k = TemporalKernel.cosine_sum([(0.0, 0.3), (0.7, 0.5), (2.1, 0.2)])
        s, t = rng.uniform(0.0, 5.0, 40), rng.uniform(0.0, 5.0, 30)
        phi_s, phi_t = line_features(k, s), line_features(k, t)
        assert phi_s.shape == (40, 5) and phi_t.shape == (30, 5)
        assert np.allclose(phi_s @ phi_t.T,
                           eval_temporal(k, s[:, None] - t[None, :]),
                           rtol=0.0, atol=1e-14)

    def test_no_line_features_without_finite_expansion(self):
        times = np.arange(5) * 0.1
        for k in (TemporalKernel.periodic(period=0.3, lengthscale=0.8),
                  TemporalKernel.rbf(1.0)):
            assert line_features(k, times) is None


class TestSpatialKernel:
    def test_unit_diagonal_and_symmetry(self, rng):
        k = SpatialKernel.rbf([0.3, 0.5])
        x = rng.uniform(0, 1, (7, 2))
        m = k.pairwise(x, x)
        assert np.allclose(np.diag(m), 1.0)
        assert np.array_equal(m, m.T)

    def test_matern_matches_temporal_form(self, rng):
        ks = SpatialKernel.matern(1.5, [0.4])
        kt = TemporalKernel.matern(1.5, 0.4)
        x = rng.uniform(0, 1, (5, 1))
        m = ks.pairwise(x, x)
        expected = eval_temporal(kt, np.abs(x[:, 0][:, None] - x[:, 0][None, :]))
        assert np.allclose(m, expected, atol=1e-14)

    def test_dimension_mismatch(self):
        from tvbospec.errors import DimensionMismatch
        k = SpatialKernel.rbf([0.3, 0.5])
        with pytest.raises(DimensionMismatch):
            k.pairwise(np.zeros((3, 1)), np.zeros((3, 1)))

    @staticmethod
    def _broadcast_pairwise(kernel, X, Y):
        """The (n, m, d) broadcast formula, as a reference."""
        diff = (X[:, None, :] - Y[None, :, :]) / np.asarray(kernel.lengthscales)
        sq = np.sum(diff * diff, axis=-1)
        if kernel.family is SpatialFamily.RBF:
            return np.exp(-0.5 * sq)
        return _matern(kernel.nu, np.sqrt(sq))

    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5])
    def test_matern_in_place_matches_closed_forms(self, rng, nu):
        # the in-place evaluation keeps the closed forms' operation order
        r = rng.uniform(0.0, 5.0, (60, 70))
        s = math.sqrt(2.0 * nu) * r
        want = {0.5: lambda: np.exp(-s),
                1.5: lambda: (1.0 + s) * np.exp(-s),
                2.5: lambda: (1.0 + s + s * s / 3.0) * np.exp(-s)}[nu]()
        assert np.array_equal(_matern(nu, r.copy()), want)

    @pytest.mark.parametrize("d", range(1, 10))
    @pytest.mark.parametrize("nu", [None, 0.5, 1.5, 2.5],
                             ids=["rbf", "matern12", "matern32", "matern52"])
    def test_pairwise_matches_broadcast_formula(self, d, nu):
        # bit for bit while np.sum adds fewer than 8 terms in order; beyond
        # that it sums pairwise, so only the last ulps may differ
        rng = np.random.default_rng(d)
        ell = rng.uniform(0.8, 1.5, d)
        k = SpatialKernel.rbf(ell) if nu is None else SpatialKernel.matern(nu, ell)
        X = rng.uniform(0, 1, (40, d))
        Y = rng.uniform(0, 1, (30, d))
        got = k.pairwise(X, Y)
        want = self._broadcast_pairwise(k, X, Y)
        if d <= 7:
            assert np.array_equal(got, want)
        else:
            assert np.allclose(got, want, rtol=1e-14, atol=0.0)

    # bounds in (n, n) float arrays: rbf and the cheap Matern forms hold the
    # result and one coordinate-difference buffer; Matern 5/2 one more
    @pytest.mark.parametrize("nu, grams", [(None, 2.5), (0.5, 2.5),
                                           (1.5, 2.5), (2.5, 4)],
                             ids=["rbf", "matern12", "matern32", "matern52"])
    def test_pairwise_memory_is_a_few_gram_matrices(self, rng, nu, grams):
        n = 800
        ell = [0.3, 0.4, 0.5]
        k = SpatialKernel.rbf(ell) if nu is None else SpatialKernel.matern(nu, ell)
        X = rng.uniform(0, 1, (n, 3))
        tracemalloc.start()
        try:
            k.pairwise(X, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= grams * n * n * 8


class TestSerialization:
    def test_round_trip(self, shipped_temporal_kernels):
        for k in shipped_temporal_kernels.values():
            j = json.dumps(kernel_to_dict(k))
            back = kernel_from_dict(json.loads(j))
            assert back == k

    def test_spatial_round_trip(self):
        k = SpatialKernel.matern(2.5, [0.3, 0.4, 0.5])
        assert kernel_from_dict(kernel_to_dict(k)) == k

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            kernel_from_dict({"kind": "nope"})

    @pytest.mark.parametrize("d, error, field", [
        ({"kind": "temporal", "family": "rbf", "period": 0.5},
         TypeError, "'period'"),
        ({"kind": "temporal", "family": "rbf", "lenghtscale": 2.0},
         TypeError, "'lenghtscale'"),
        ({"kind": "spatial", "family": "rbf", "lengthscales": [0.3],
          "nu": 1.5}, TypeError, "'nu'"),
        ({"kind": "temporal", "lengthscale": 1.0}, ValueError, "family"),
        ({"kind": "temporal", "family": "matern"}, TypeError, "'nu'"),
    ], ids=["foreign_field", "unknown_field", "foreign_spatial_field",
            "missing_family", "missing_required"])
    def test_rejected_fields_named(self, d, error, field):
        with pytest.raises(error, match=field):
            kernel_from_dict(d)

    def test_omitted_fields_take_constructor_defaults(self):
        assert kernel_from_dict({"kind": "temporal",
                                 "family": "rational_quadratic"}) == \
            TemporalKernel.rational_quadratic()
        assert kernel_from_dict({"kind": "temporal", "family": "periodic",
                                 "lengthscale": 0.8}) == \
            TemporalKernel.periodic(lengthscale=0.8)


class TestNumberFields:
    """Kernel number fields must be finite numbers that are not bools."""

    @pytest.mark.parametrize("bad", [True, math.inf, math.nan, 10 ** 400,
                                     "1.0"],
                             ids=["bool", "inf", "nan", "huge_int", "string"])
    @pytest.mark.parametrize("build, field", [
        (lambda v: TemporalKernel.rbf(lengthscale=v), "lengthscale"),
        (lambda v: TemporalKernel.matern(nu=v), "nu"),
        (lambda v: TemporalKernel.rational_quadratic(alpha=v), "alpha"),
        (lambda v: TemporalKernel.sinc_squared(bandlimit=v), "bandlimit"),
        (lambda v: TemporalKernel.periodic(period=v), "period"),
        (lambda v: TemporalKernel.cosine_sum([(v, 0.5), (1.0, 0.5)]),
         "lines"),
        (lambda v: TemporalKernel.cosine_sum([(0.0, v)]), "lines"),
        (lambda v: SpatialKernel.rbf([0.3, v]), "lengthscales"),
        (lambda v: SpatialKernel.rbf(v), "lengthscales"),
    ], ids=["lengthscale", "nu", "alpha", "bandlimit", "period",
            "line_frequency", "line_weight", "lengthscales_entry",
            "lengthscales_scalar"])
    def test_rejected_and_named(self, build, field, bad):
        with pytest.raises(ValueError, match=f"^{field} "):
            build(bad)

    def test_numpy_numbers_accepted_unconverted(self):
        assert TemporalKernel.rbf(np.float64(0.5)) == TemporalKernel.rbf(0.5)
        assert TemporalKernel.periodic(period=2).period == 2
        assert SpatialKernel.rbf(np.array([0.3, 0.4])).lengthscales == \
            (0.3, 0.4)
        lines = TemporalKernel.cosine_sum(
            (f, w) for f, w in np.array([[0.0, 0.25], [1.0, 0.75]])).lines
        assert lines == ((0.0, 0.25), (1.0, 0.75))
        assert all(type(v) is float for line in lines for v in line)

    # The lengthscales at which eval_temporal's denominator (2 l^2 for rbf,
    # 2 alpha l^2 for rational quadratic, l^2 for periodic) is the smallest
    # and the largest positive normal float.
    @pytest.mark.parametrize("build, low, high", [
        (TemporalKernel.rbf, 1.0547686614863e-154, 9.480751908109176e+153),
        (lambda v: TemporalKernel.rational_quadratic(v, alpha=0.75),
         1.217941941283793e-154, 1.0947429332533783e+154),
        (lambda v: TemporalKernel.periodic(period=0.3, lengthscale=v),
         1.4916681462400413e-154, 1.3407807929942596e+154),
    ], ids=["rbf", "rational_quadratic", "periodic"])
    def test_lengthscale_keeps_unit_value_at_zero_lag(self, build, low, high):
        for edge, beyond in ((low, 0.0), (high, math.inf)):
            assert eval_temporal(build(edge), 0.0) == 1.0
            with pytest.raises(ValueError,
                               match="^lengthscale .* positive normal float"):
                build(math.nextafter(edge, beyond))
        with pytest.raises(ValueError, match="^lengthscale "):
            build(10 ** 200)  # an int whose square no float holds

    # The largest bandlimit (2 pi b for sinc, pi b for sinc squared) and
    # cosine-sum frequency (2 pi f) whose factor of the lag in
    # eval_temporal is finite.
    @pytest.mark.parametrize("build, field, edge", [
        (TemporalKernel.sinc, "bandlimit", 2.861117485757028e+307),
        (TemporalKernel.sinc_squared, "bandlimit", 5.722234971514056e+307),
        (lambda v: TemporalKernel.cosine_sum([(0.0, 0.5), (v, 0.5)]),
         "lines", 2.861117485757028e+307),
    ], ids=["sinc", "sinc_squared", "cosine_sum"])
    def test_lag_factor_keeps_unit_value_at_zero_lag(self, build, field,
                                                      edge):
        assert eval_temporal(build(edge), 0.0) == 1.0
        for beyond in (math.nextafter(edge, math.inf), 1e308):
            with pytest.raises(ValueError,
                               match=f"^{field} .* not a finite float"):
                build(beyond)

    # The largest lag at which a factor of the lag stays finite in
    # eval_temporal: the check's edge is where k turns NaN.
    @pytest.mark.parametrize("kernel, field, edge", [
        (TemporalKernel.sinc(2.861117485757028e+307), "bandlimit", 1.0),
        (TemporalKernel.sinc_squared(1.0), "bandlimit",
         5.722234971514056e+307),
        (TemporalKernel.cosine_sum([(0.0, 0.5), (1e300, 0.5)]), "lines",
         28611174.85757028),
    ], ids=["sinc", "sinc_squared", "cosine_sum"])
    def test_lag_range_edge_is_where_k_turns_nan(self, kernel, field, edge):
        beyond = math.nextafter(edge, math.inf)
        _check_lag_range(kernel, edge)
        with pytest.raises(ValueError,
                           match=f"^{field} .* not a finite float"):
            _check_lag_range(kernel, beyond)
        with np.errstate(over="ignore", invalid="ignore"):
            at_edge, past = eval_temporal(kernel, [edge, beyond])
        assert math.isfinite(at_edge)
        assert math.isnan(past)

    @pytest.mark.parametrize("lines", [[], "x", 5, [(0.0, 0.5, 0.5)], [-1]],
                             ids=["empty", "string", "number", "triple",
                                  "not_pairs"])
    def test_malformed_lines_named(self, lines):
        with pytest.raises(ValueError, match="^lines "):
            TemporalKernel.cosine_sum(lines)

    def test_unknown_family_named(self):
        with pytest.raises(ValueError, match="^family must be one of"):
            kernel_from_dict({"kind": "temporal", "family": "nope"})
