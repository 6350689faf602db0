"""Kernel matrices, eigendecomposition and spectrum approximations."""

import dataclasses
import heapq
import math

import numpy as np
import pytest
import scipy.linalg

from tvbospec import _blas
from tvbospec.errors import ConvergenceFailure, WrongClass
from tvbospec.expcli.experiments import REGRET_KERNELS
from tvbospec.gp import nystrom_expansion
from tvbospec.kernels import (
    SpatialKernel,
    TemporalKernel,
    eval_temporal,
    kernel_from_dict,
)
from tvbospec.spectral import (
    Spectrum,
    SymMatrix,
    TimeGrid,
    approx_product_spectrum,
    approx_temporal_spectrum,
    build_spatiotemporal_matrix,
    build_temporal_matrix,
    count_in_interval,
    eig_sym,
    positive_count,
    positive_mask,
)


@pytest.mark.parametrize("field, n, delta", [
    ("n", True, 0.1), ("n", 2.5, 0.1), ("n", 0, 0.1), ("delta", 3, math.inf),
    ("delta", 3, math.nan), ("delta", 3, 0.0), ("delta", 10, 1e308),
    ("delta", 10 ** 400, 0.1)])
def test_time_grid_validation(field, n, delta):
    with pytest.raises(ValueError, match=f"^{field} "):
        TimeGrid(n, delta)


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

    @pytest.mark.parametrize("n", [1, 2, 25, 200])
    def test_matches_scipy_toeplitz(self, shipped_temporal_kernels, n):
        grid = TimeGrid(n, 0.1)
        for kernel in shipped_temporal_kernels.values():
            m = build_temporal_matrix(kernel, grid).values
            want = scipy.linalg.toeplitz(eval_temporal(kernel, grid.times))
            assert m.flags.c_contiguous
            assert np.array_equal(m, want)

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
        lam, q = _blas.eigh_descending(m)
        recon = q @ np.diag(lam) @ q.T
        assert np.linalg.norm(recon - m) <= 1e-8 * np.linalg.norm(m)
        assert np.allclose(q.T @ q, np.eye(40), atol=1e-8)

    def test_descending(self, rng):
        m = rng.standard_normal((20, 20))
        spec = eig_sym(SymMatrix(m + m.T))
        assert np.all(np.diff(spec.values) <= 0)

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 145, 200])
    def test_cached_syevd_matches_scipy_eigh(self, rng, n,
                                             at_wrapper_pool_size):
        # same routine, workspace and layout as scipy's wrapper, so the same
        # bits (in reverse order), on a whole matrix and on a leading block
        # of a larger one
        big = rng.standard_normal((n + 5, n + 5))
        big = big + big.T
        before = big.copy()
        for a in (big[:n, :n], np.ascontiguousarray(big[:n, :n])):
            vals, vecs = _blas.eigh_descending(a)
            want_vals, want_vecs = at_wrapper_pool_size(
                "syevd", n, scipy.linalg.eigh, a, driver="evd")
            assert np.array_equal(vals, want_vals[::-1])
            assert np.array_equal(vecs, want_vecs[:, ::-1])
            vals, vecs = _blas.eigh_descending(a, vectors=False)
            assert vecs is None
            assert np.array_equal(vals, at_wrapper_pool_size(
                "syevd", n, scipy.linalg.eigh, a, driver="evd",
                eigvals_only=True)[::-1])
        assert np.array_equal(big, before)

    @staticmethod
    def _syevd_reporting(monkeypatch, info):
        # ?syevd returns the info of ?sterf (eigenvalues only) or ?stedc
        def sterf(n, d, e, stage_info):
            stage_info.value = info

        def stedc(compz, n, d, e, z, ldz, work, lwork, iwork, liwork,
                  stage_info, compz_length):
            stage_info.value = info

        monkeypatch.setitem(_blas._HANDLES, "sterf", sterf)
        monkeypatch.setitem(_blas._HANDLES, "stedc", stedc)

    def test_nonconvergence_raises_convergence_failure(self, monkeypatch):
        self._syevd_reporting(monkeypatch, 2)
        with pytest.raises(ConvergenceFailure, match="did not converge"):
            eig_sym(SymMatrix(np.eye(3)))

    def test_nonconvergence_of_eigenpairs_raises_linalg_error(self,
                                                             monkeypatch):
        # the lower bound's eigenpairs come from eigh_descending directly
        self._syevd_reporting(monkeypatch, 2)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            _blas.eigh_descending(np.eye(3), vectors=True)

    def test_illegal_argument_raises_value_error(self, monkeypatch):
        self._syevd_reporting(monkeypatch, -4)
        with pytest.raises(ValueError, match="argument 4"):
            eig_sym(SymMatrix(np.eye(3)))

    def test_eigenvalues_sum_to_order(self, shipped_temporal_kernels):
        # a unit-diagonal kernel matrix has trace n, and a PSD one has no
        # eigenvalue below rounding
        grid = TimeGrid(80, 0.13)
        for name, kernel in shipped_temporal_kernels.items():
            values = eig_sym(build_temporal_matrix(kernel, grid)).values
            assert np.sum(values) == pytest.approx(grid.n, rel=1e-12), name
            assert values[-1] >= -1e-10 * grid.n, name


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
        with pytest.raises(WrongClass, match="spectral_lines.*eig_sym"):
            approx_temporal_spectrum(TemporalKernel.periodic(1.0),
                                     TimeGrid(10, 0.1))

    def test_cosine_sum_refused(self):
        with pytest.raises(WrongClass, match="spectral_lines.*eig_sym"):
            approx_temporal_spectrum(
                TemporalKernel.cosine_sum([(0.0, 0.4), (1.3, 0.6)]),
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
    def test_constant_rank_one(self):
        spec = eig_sym(build_temporal_matrix(
            TemporalKernel.cosine_sum([(0.0, 1.0)]), TimeGrid(7, 0.37)))
        assert spec.values[0] == pytest.approx(7.0, rel=1e-14)
        assert np.max(np.abs(spec.values[1:])) <= 1e-14
        assert positive_count(spec) == 1

    def test_two_line_count(self):
        # a constant and two cosines give 1 + 2 + 2 positive eigenvalues
        lr = TemporalKernel.cosine_sum([(0.0, 0.2), (0.9, 0.5), (2.2, 0.3)])
        spec = eig_sym(build_temporal_matrix(lr, TimeGrid(64, 0.1)))
        assert positive_count(spec) == 5

    def test_line_weights_set_leading_eigenvalues(self):
        # at large n the cosine and sine vectors of a line are nearly
        # orthogonal, so a weight-w line at f > 0 gives two eigenvalues
        # near n w / 2 and the constant one near n w
        k = TemporalKernel.cosine_sum([(0.0, 0.5), (1.3, 0.5)])
        exact = eig_sym(build_temporal_matrix(k, TimeGrid(100, 0.1))).values
        assert np.max(np.abs(exact[:3] - [50.0, 25.0, 25.0])) / 50.0 < 0.05
        assert exact[3] < 1e-6 * exact[0]

    def test_periodic_half_period_closed_form(self):
        # at half the period the matrix alternates 1 and b = k(r/2): it is
        # (1 + b)/2 * 11' + (1 - b)/2 * ss' with s_i = (-1)^i, so its only
        # eigenvalues are n(1 + b)/2 and n(1 - b)/2
        k = TemporalKernel.periodic(period=1.0, lengthscale=1.0)
        b = float(eval_temporal(k, 0.5))
        n = 64
        spec = eig_sym(build_temporal_matrix(k, TimeGrid(n, 0.5)))
        assert spec.values[0] == pytest.approx(n * (1 + b) / 2, rel=1e-12)
        assert spec.values[1] == pytest.approx(n * (1 - b) / 2, rel=1e-12)
        assert np.max(np.abs(spec.values[2:])) <= 1e-12 * n
        assert positive_count(spec) == 2

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



class TestPositiveEigenvalueRule:
    """``positive_mask`` is the one rule behind ``positive_count`` and the
    eigenpairs ``nystrom_expansion`` keeps."""

    REGRET_LINES = kernel_from_dict({"kind": "temporal",
                                     **REGRET_KERNELS["cosine_sum"]})

    @pytest.mark.parametrize("kernel, delta, rank", [
        (TemporalKernel.periodic(period=1.0, lengthscale=1.0), 1.0 / 3, 3),
        (TemporalKernel.periodic(period=1.0, lengthscale=1.0), 1.0 / 6, 6),
        (REGRET_LINES, 0.1, 3),
    ], ids=["periodic_p3", "periodic_p6", "regret_cosine_sum"])
    @pytest.mark.parametrize("n", [40, 97])
    def test_rank_deficient_matrix_keeps_its_rank(self, kernel, delta, rank,
                                                  n):
        # a period of p samples gives rank p; a constant plus one cosine
        # line at a generic frequency gives rank 1 + 2
        gram = build_temporal_matrix(kernel, TimeGrid(n, delta))
        assert positive_count(eig_sym(gram)) == rank
        vals, vecs = _blas.eigh_descending(gram.values)
        assert np.count_nonzero(positive_mask(vals)) == rank
        lam_bar, inner, _ = nystrom_expansion(vals, vecs, np.ones(n), [])
        assert len(lam_bar) == len(inner) == rank
        assert np.array_equal(lam_bar, vals[:rank] / n)

    def test_threshold_is_relative_to_the_largest(self):
        values = np.array([2.0, 2e-8 * (1 + 1e-12), 2e-8, 0.0, -1.0])
        assert positive_mask(values).tolist() == [True, True, False, False,
                                                  False]
        assert positive_mask(values * 2.0 ** -100).tolist() == \
            positive_mask(values).tolist()
        # nystrom_expansion keeps exactly the eigenpairs the rule counts
        lam_bar, _, _ = nystrom_expansion(values, np.eye(5), np.zeros(5), [])
        assert len(lam_bar) == positive_count(Spectrum(values)) == 2

    @pytest.mark.parametrize("values", [[], [0.0, 0.0], [-1e-3, -2.0]],
                             ids=["empty", "zero", "negative"])
    def test_nonpositive_largest_keeps_none(self, values):
        values = np.array(values)
        mask = positive_mask(values)
        assert mask.dtype == bool and mask.shape == values.shape
        assert not mask.any()
        assert positive_count(Spectrum(values)) == 0
        if len(values):
            lam_bar, _, _ = nystrom_expansion(values, np.eye(len(values)),
                                              np.zeros(len(values)), [])
            assert len(lam_bar) == 0


def _heap_products(a, b, n):
    """Oracle for approx_product_spectrum: pop the n largest products of
    two nonincreasing spectra from a lazy max-heap over the index lattice,
    ties broken by the smaller (i, j).  Returns (values / n, pairs)."""
    a = np.maximum(a, 0.0)
    b = np.maximum(b, 0.0)
    if len(a) == 0 or len(b) == 0 or n <= 0:
        return np.zeros(0), ()
    out = []
    pairs = []
    heap = [(-a[0] * b[0], 0, 0)]
    seen = {(0, 0)}
    while heap and len(out) < n:
        neg, i, j = heapq.heappop(heap)
        out.append(-neg)
        pairs.append((i + 1, j + 1))
        for ni, nj in ((i + 1, j), (i, j + 1)):
            if ni < len(a) and nj < len(b) and (ni, nj) not in seen:
                heapq.heappush(heap, (-a[ni] * b[nj], ni, nj))
                seen.add((ni, nj))
    return np.array(out) / n, tuple(pairs)


def _assert_matches_heap(a, b, n):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    values, pairs = _heap_products(a, b, n)
    prod = approx_product_spectrum(Spectrum(a), Spectrum(b), n)
    # bitwise, signed zeros included
    assert prod.spectrum.values.tobytes() == values.tobytes()
    assert prod.pairs == pairs
    assert prod.distinct_spatial_indices == len({i for i, _ in pairs})


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

    @pytest.mark.parametrize("a, b, n", [
        ([2.0, 0.5, -0.0, -1e-17, -3.0], [1.0, 0.0, -2.0], 9),
        ([3.0, 2.0, -1.0], [-0.0, -0.5], 6),
        ([2.0, 2.0, 2.0, 1.0, 1.0], [3.0, 3.0, 1.5, 1.5], 11),
        ([4.0, 2.0, 1.0], [2.0, 1.0, 0.5], 5),
        ([1.0, 1.0], [1.0, 1.0, 1.0], 4),
        ([1.0, 0.5], [2.0, 1.0], 4),
        ([1.0, 0.5], [2.0, 1.0], 50),
        ([], [1.0, 0.5], 3),
        ([1.0], [], 3),
        ([], [], 1),
        ([1.0, 0.5], [2.0, 1.0], 0),
    ], ids=["negatives-clipped", "all-products-zero", "repeated",
            "equal-products-across-rows", "all-equal", "n-equals-size",
            "n-above-size", "empty-spatial", "empty-temporal", "both-empty",
            "n-zero"])
    def test_matches_heap_oracle(self, a, b, n):
        _assert_matches_heap(a, b, n)

    def test_matches_heap_oracle_on_tie_heavy_spectra(self, rng):
        levels = np.array([4.0, 2.0, 1.0, 0.5, 0.0, -0.0, -1e-16, -1.0])
        for _ in range(300):
            a = np.sort(rng.choice(levels, int(rng.integers(0, 12))))[::-1]
            b = np.sort(rng.choice(levels, int(rng.integers(0, 12))))[::-1]
            _assert_matches_heap(a, b, int(rng.integers(0, a.size * b.size + 3)))


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
    def test_holds_only_values(self):
        spec = Spectrum([4.0, 2.0])
        assert spec.values.dtype == float and len(spec) == 2
        assert [f.name for f in dataclasses.fields(Spectrum)] == ["values"]

    def test_monotonicity_enforced(self):
        with pytest.raises(ValueError):
            Spectrum(np.array([1.0, 2.0]))

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="at least one row"):
            SymMatrix(np.zeros((0, 0)))

    def test_symmetry_validation(self):
        bad = np.array([[1.0, 0.2], [0.3, 1.0]])
        with pytest.raises(ValueError):
            SymMatrix(bad)
