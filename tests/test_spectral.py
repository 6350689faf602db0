"""Kernel matrices, eigendecomposition and spectrum approximations."""

import math

import numpy as np
import pytest

from tvbospec.errors import WrongClass
from tvbospec.kernels import SpatialKernel, TemporalKernel, eval_temporal
from tvbospec.spectral import (
    Scale,
    Spectrum,
    SymMatrix,
    TimeGrid,
    approx_lowrank_spectrum,
    approx_product_spectrum,
    approx_temporal_spectrum,
    build_spatiotemporal_matrix,
    build_temporal_matrix,
    circulant_embedding,
    circulant_spectrum,
    count_in_interval,
    eig_sym,
    positive_count,
)


class TestBuildMatrices:
    def test_single_sample(self):
        m = build_temporal_matrix(TemporalKernel.rbf(1.0), TimeGrid(1, 0.5))
        assert m.values.shape == (1, 1) and m.values[0, 0] == 1.0

    def test_rbf_first_row(self):
        m = build_temporal_matrix(TemporalKernel.rbf(1.0), TimeGrid(3, 1.0))
        expected = [1.0, math.exp(-0.5), math.exp(-2.0)]
        assert np.allclose(m.values[0], expected, atol=1e-15)

    def test_constant_kernel_rank_one(self):
        k = TemporalKernel.cosine_sum([(0.0, 1.0)])
        m = build_temporal_matrix(k, TimeGrid(3, 0.37))
        assert np.array_equal(m.values, np.ones((3, 3)))
        assert np.linalg.matrix_rank(m.values) == 1

    def test_toeplitz_exact(self):
        m = build_temporal_matrix(TemporalKernel.matern(1.5, 0.7),
                                  TimeGrid(12, 0.3)).values
        assert np.array_equal(m[:-1, :-1], m[1:, 1:])

    def test_spatiotemporal_duplicated_point(self):
        sp = SpatialKernel.rbf([0.5])
        tp = TemporalKernel.rbf(1.0)
        m = build_spatiotemporal_matrix(sp, tp, [[0.3], [0.3]], [0.1, 0.1])
        assert m.values[0, 1] == pytest.approx(1.0, abs=1e-15)

    def test_spatiotemporal_same_space_factor(self):
        sp = SpatialKernel.rbf([0.5])
        tp = TemporalKernel.rbf(1.0)
        m = build_spatiotemporal_matrix(sp, tp, [[0.3], [0.3]], [0.1, 0.7])
        assert m.values[0, 1] == pytest.approx(eval_temporal(tp, 0.6),
                                               rel=1e-14)

    def test_spatiotemporal_product(self):
        # pick the spatial separation so k_S = 0.5 exactly, and the time lag
        # so k_T = 0.4 exactly: the entry is their product
        ell = 0.4
        dx = ell * math.sqrt(2 * math.log(2.0))
        du = math.sqrt(-2 * math.log(0.4))
        sp = SpatialKernel.rbf([ell])
        tp = TemporalKernel.rbf(1.0)
        m = build_spatiotemporal_matrix(sp, tp, [[0.1], [0.1 + dx]], [0.0, du])
        assert m.values[0, 1] == pytest.approx(0.2, rel=1e-12)

    def test_dimension_mismatch(self):
        from tvbospec.errors import DimensionMismatch
        sp = SpatialKernel.rbf([0.5, 0.5])
        with pytest.raises(DimensionMismatch):
            build_spatiotemporal_matrix(sp, TemporalKernel.rbf(1.0),
                                        [[0.3], [0.4]], [0.1, 0.2])

    def test_row_of_points_rejected(self):
        # a (1, m) row is one m-dimensional point, not m points
        sp = SpatialKernel.rbf([0.5])
        with pytest.raises(ValueError, match="one spatial point per time"):
            build_spatiotemporal_matrix(sp, TemporalKernel.rbf(1.0),
                                        [[0.1, 0.2, 0.3]], [0.1, 0.2, 0.3])

    def test_outside_cube_rejected(self):
        sp = SpatialKernel.rbf([0.5])
        with pytest.raises(ValueError):
            build_spatiotemporal_matrix(sp, TemporalKernel.rbf(1.0),
                                        [[1.5]], [0.1])


class TestEigSym:
    def test_identity(self):
        spec = eig_sym(SymMatrix(np.eye(5)))
        assert np.allclose(spec.values, 1.0)

    def test_all_ones(self):
        spec = eig_sym(SymMatrix(np.ones((6, 6))))
        assert spec.values[0] == pytest.approx(6.0, rel=1e-12)
        assert np.allclose(spec.values[1:], 0.0, atol=1e-12)

    def test_cubic_root_oracle(self):
        # characteristic polynomial of the 3x3 symmetric Toeplitz with first
        # row (1, a, b), expanded by hand and solved independently
        a, b = math.exp(-0.5), math.exp(-2.0)
        m = np.array([[1, a, b], [a, 1, a], [b, a, 1]])
        # det(M - x I) = -x^3 + 3x^2 + (2a^2 + b^2 - 3)x + (1 - 2a^2 - b^2 + 2a^2 b)
        coeffs = [-1.0, 3.0, 2 * a * a + b * b - 3.0,
                  1.0 - 2 * a * a - b * b + 2 * a * a * b]
        roots = np.sort(np.roots(coeffs).real)[::-1]
        spec = eig_sym(SymMatrix(m))
        assert np.allclose(spec.values, roots, atol=1e-10)

    def test_reconstruction(self, rng):
        m = rng.standard_normal((40, 40))
        m = m + m.T
        spec = eig_sym(SymMatrix(m), want_vectors=True)
        q, lam = spec.vectors, spec.values
        recon = q @ np.diag(lam) @ q.T
        assert np.linalg.norm(recon - m) <= 1e-8 * np.linalg.norm(m)
        assert np.allclose(q.T @ q, np.eye(40), atol=1e-8)

    def test_descending(self, rng):
        m = rng.standard_normal((20, 20))
        spec = eig_sym(SymMatrix(m + m.T))
        assert np.all(np.diff(spec.values) <= 0)


class TestCirculant:
    def test_two_by_two(self):
        k = TemporalKernel.rbf(1.0)
        row = circulant_embedding(k, TimeGrid(2, 0.4))
        assert row[0] == 1.0
        assert row[1] == pytest.approx(2 * eval_temporal(k, 0.4), rel=1e-14)

    def test_three_rbf(self):
        k = TemporalKernel.rbf(1.0)
        row = circulant_embedding(k, TimeGrid(3, 1.0))
        k1, k2 = eval_temporal(k, 1.0), eval_temporal(k, 2.0)
        expected = [1.0, k1 + k2, k2 + k1]
        assert np.allclose(row, expected, atol=1e-15)

    def test_palindrome(self):
        k = TemporalKernel.matern(0.5, 0.8)
        row = circulant_embedding(k, TimeGrid(17, 0.21))
        assert np.allclose(row[1:], row[1:][::-1], atol=1e-15)

    def test_asymptotic_equivalence(self):
        # sorted spectra of the Toeplitz matrix and its circulant embedding
        # drift together as n grows at fixed sampling step
        k = TemporalKernel.rbf(1.0)
        mads = []
        for n in (50, 100, 200, 400):
            grid = TimeGrid(n, 0.1)
            toep = eig_sym(build_temporal_matrix(k, grid)).values
            circ = circulant_spectrum(circulant_embedding(k, grid)).values
            mads.append(float(np.mean(np.abs(toep - circ))))
        assert all(b < a for a, b in zip(mads, mads[1:])), mads


class TestSampledDensityApprox:
    def test_sinc_time_bandwidth_count(self):
        approx = approx_temporal_spectrum(TemporalKernel.sinc(1.0),
                                          TimeGrid(100, 0.25))
        assert int(np.sum(approx.raw_values > 0)) == 50
        assert int(np.sum(approx.raw_values == 0)) == 50
        assert positive_count(approx.spectrum) == 50

    def test_rbf_all_positive(self):
        approx = approx_temporal_spectrum(TemporalKernel.rbf(1.0),
                                          TimeGrid(64, 0.2))
        assert np.all(approx.raw_values > 0)

    def test_sinc_squared_peak(self):
        k = TemporalKernel.sinc_squared(1.0)
        approx = approx_temporal_spectrum(k, TimeGrid(200, 0.5))
        from tvbospec.kernels import spectral_density
        assert approx.spectrum.values[0] == pytest.approx(
            spectral_density(k, 0.0) / 0.5, rel=1e-12)

    def test_wrong_class(self):
        with pytest.raises(WrongClass):
            approx_temporal_spectrum(TemporalKernel.periodic(1.0),
                                     TimeGrid(10, 0.1))

    def test_frequency_axis_scales_with_rate(self):
        k = TemporalKernel.rbf(1.0)
        a1 = approx_temporal_spectrum(k, TimeGrid(100, 0.1))
        a2 = approx_temporal_spectrum(k, TimeGrid(100, 0.05))
        width1 = a1.frequencies[-1] - a1.frequencies[0]
        width2 = a2.frequencies[-1] - a2.frequencies[0]
        assert width2 == pytest.approx(2 * width1, rel=1e-12)

    def test_convergence_as_n_grows(self):
        # mean absolute error against the exact spectrum shrinks when n
        # doubles at a fixed step (10% slack per doubling)
        k = TemporalKernel.rbf(1.0)
        maes = []
        for n in (50, 100, 200, 400):
            grid = TimeGrid(n, 0.1)
            exact = eig_sym(build_temporal_matrix(k, grid)).values
            approx = approx_temporal_spectrum(k, grid).spectrum.values
            maes.append(float(np.mean(np.abs(exact - approx))))
        for a, b in zip(maes, maes[1:]):
            assert b <= 1.1 * a, maes


class TestLowRankSpectrum:
    def test_weights(self):
        lr = TemporalKernel.cosine_sum([(0.0, 0.5), (1.7, 0.5)])
        spec = approx_lowrank_spectrum(lr, 100)
        assert np.allclose(spec.values[:3], [50.0, 25.0, 25.0])
        assert np.allclose(spec.values[3:], 0.0)

    def test_constant_rank_one(self):
        lr = TemporalKernel.cosine_sum([(0.0, 1.0)])
        spec = approx_lowrank_spectrum(lr, 7)
        assert spec.values[0] == 7.0 and np.all(spec.values[1:] == 0.0)

    def test_two_line_count(self):
        lr = TemporalKernel.cosine_sum([(0.0, 0.2), (0.9, 0.5), (2.2, 0.3)])
        spec = approx_lowrank_spectrum(lr, 64)
        assert int(np.sum(spec.values > 0)) == 5

    def test_matches_exact_eigenvalues(self):
        k = TemporalKernel.cosine_sum([(0.0, 0.5), (1.3, 0.5)])
        m = build_temporal_matrix(k, TimeGrid(100, 0.1))
        exact = eig_sym(m).values
        approx = approx_lowrank_spectrum(k, 100).values
        assert np.max(np.abs(exact[:3] - approx[:3])) / approx[0] < 0.05
        assert exact[3] < 1e-6 * exact[0]

    def test_rank_bound_generic_frequencies(self, rng):
        # any induced kernel matrix of an L-line kernel has at most 2L+1
        # numerically positive eigenvalues
        for _ in range(20):
            L = int(rng.integers(1, 4))
            raw = rng.uniform(0.1, 1.0, L + 1)
            raw /= raw.sum()
            freqs = rng.uniform(0.3, 3.0, L)
            lr = TemporalKernel.cosine_sum(
                [(0.0, raw[0])] + list(zip(freqs, raw[1:])))
            n = int(rng.integers(2 * L + 2, 60))
            grid = TimeGrid(n, float(rng.uniform(0.05, 0.4)))
            spec = eig_sym(build_temporal_matrix(lr, grid))
            assert positive_count(spec) <= 2 * L + 1

    def test_periodic_commensurate_counts(self):
        k = TemporalKernel.periodic(period=1.0, lengthscale=1.0)
        for divisor in (3, 6):
            for n in (60, 120):
                spec = eig_sym(build_temporal_matrix(
                    k, TimeGrid(n, 1.0 / divisor)))
                assert positive_count(spec) == divisor


class TestProductSpectrum:
    def test_worked_example(self):
        # brute force: products {6, 2, 3, 1} -> top three 6, 3, 2, coming
        # from (spatial, temporal) index pairs (1,1), (2,1), (1,2)
        s = Spectrum(np.array([2.0, 1.0]))
        t = Spectrum(np.array([3.0, 1.0]))
        prod = approx_product_spectrum(s, t, 3)
        assert np.allclose(prod.spectrum.values, np.array([6.0, 3.0, 2.0]) / 3)
        assert prod.pairs == ((1, 1), (2, 1), (1, 2))

    def test_all_zero(self):
        s = Spectrum(np.zeros(4))
        prod = approx_product_spectrum(s, s, 4)
        assert np.all(prod.spectrum.values == 0.0)

    def test_negative_clipping(self):
        s = Spectrum(np.array([2.0, -1.0]))
        t = Spectrum(np.array([1.0, -3.0]))
        prod = approx_product_spectrum(s, t, 4)
        assert np.min(prod.spectrum.values) >= 0.0

    def test_matches_brute_force(self, rng):
        for _ in range(50):
            na, nb = int(rng.integers(1, 31)), int(rng.integers(1, 31))
            a = np.sort(rng.uniform(0, 5, na))[::-1]
            b = np.sort(rng.uniform(0, 5, nb))[::-1]
            n = int(rng.integers(1, na * nb + 1))
            prod = approx_product_spectrum(Spectrum(a), Spectrum(b), n)
            brute = np.sort(np.outer(a, b).ravel())[::-1][:n] / n
            assert np.allclose(prod.spectrum.values, brute, rtol=0, atol=1e-12)

    def test_provenance_consistent(self, rng):
        a = np.sort(rng.uniform(0, 5, 8))[::-1]
        b = np.sort(rng.uniform(0, 5, 9))[::-1]
        prod = approx_product_spectrum(Spectrum(a), Spectrum(b), 20)
        for value, (i, j) in zip(prod.spectrum.values, prod.pairs):
            assert value == pytest.approx(a[i - 1] * b[j - 1] / 20, rel=1e-12)


class TestCounting:
    def test_empty_interval(self):
        spec = Spectrum(np.array([3.0, 1.0, 0.5]))
        assert count_in_interval(spec, -1.0, -1.0) == 0

    def test_identity_spectrum(self):
        spec = eig_sym(SymMatrix(np.eye(9)))
        assert count_in_interval(spec, 1.0, 1.0) == 9

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            count_in_interval(Spectrum(np.array([1.0])), 2.0, 1.0)

    def test_periodic_counts_stable_in_n(self, rng):
        # with the figure defaults, the spatio-temporal spectrum of the
        # periodic kernel has the same number of eigenvalues in [1, 2] at
        # n and 2n
        sp = SpatialKernel.rbf([0.7])
        tp = TemporalKernel.periodic(period=0.3, lengthscale=0.8)
        counts = {}
        for n in (100, 200):
            xs = rng.uniform(0, 1, (n, 1))
            ts = (np.arange(n) + 1) * 0.1
            spec = eig_sym(build_spatiotemporal_matrix(sp, tp, xs, ts))
            counts[n] = count_in_interval(spec, 1.0, 2.0)
        assert counts[100] == counts[200]


class TestSpectrumType:
    def test_scale_round_trip(self):
        spec = Spectrum(np.array([4.0, 2.0]), scale=Scale.MATRIX)
        op = spec.to_operator(4)
        assert op.scale is Scale.OPERATOR
        assert np.allclose(op.values, [1.0, 0.5])
        assert np.allclose(op.to_matrix(4).values, spec.values)

    def test_monotonicity_enforced(self):
        with pytest.raises(ValueError):
            Spectrum(np.array([1.0, 2.0]))

    def test_symmetry_validation(self):
        bad = np.array([[1.0, 0.2], [0.3, 1.0]])
        with pytest.raises(ValueError):
            SymMatrix(bad)
