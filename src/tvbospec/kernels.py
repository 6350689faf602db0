"""Stationary correlation functions and their spectral descriptions.

Temporal kernels are normalized correlation functions k(0) = 1 on the real
line; spatial kernels live on the unit cube [0, 1]^d.  Every temporal kernel
carries a spectral density under the ordinary-frequency Fourier convention

    S(w) = integral k(u) exp(-2*pi*i*u*w) du,

so that integral S(w) dw = k(0) = 1.  Kernels fall into four classes
according to the support of S: broadband (unbounded continuous support),
band-limited (bounded continuous), almost-periodic (discrete infinite) and
low-rank (discrete finite).
"""

from __future__ import annotations

import enum
import inspect
import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy.fft import dct

from .errors import DimensionMismatch, ToleranceUnreachable, WrongClass

__all__ = [
    "TemporalFamily",
    "SpatialFamily",
    "ClassTag",
    "KernelClass",
    "TemporalKernel",
    "SpatialKernel",
    "eval_temporal",
    "spectral_density",
    "spectral_lines",
    "classify",
    "low_rank_approx",
    "kernel_to_dict",
    "kernel_from_dict",
]

_MATERN_NUS = (0.5, 1.5, 2.5)
_WEIGHT_TOL = 1e-9


class TemporalFamily(str, enum.Enum):
    RBF = "rbf"
    MATERN = "matern"
    RATIONAL_QUADRATIC = "rational_quadratic"
    SINC = "sinc"
    SINC_SQUARED = "sinc_squared"
    PERIODIC = "periodic"
    COSINE_SUM = "cosine_sum"


class SpatialFamily(str, enum.Enum):
    RBF = "rbf"
    MATERN = "matern"


class ClassTag(str, enum.Enum):
    BROADBAND = "broadband"
    BAND_LIMITED = "band_limited"
    ALMOST_PERIODIC = "almost_periodic"
    LOW_RANK = "low_rank"


@dataclass(frozen=True)
class KernelClass:
    """Spectral-support class of a temporal kernel.

    The (bounded, discrete) support pair maps bijectively to the tag:
    (False, False) broadband, (True, False) band-limited,
    (False, True) almost-periodic, (True, True) low-rank.
    """

    tag: ClassTag
    support_bounded: bool
    support_discrete: bool

    @staticmethod
    def from_support(bounded: bool, discrete: bool) -> "KernelClass":
        tag = {
            (False, False): ClassTag.BROADBAND,
            (True, False): ClassTag.BAND_LIMITED,
            (False, True): ClassTag.ALMOST_PERIODIC,
            (True, True): ClassTag.LOW_RANK,
        }[(bounded, discrete)]
        return KernelClass(tag, bounded, discrete)


def _as_array(u):
    return np.asarray(u, dtype=float)


def _finite_real(value) -> bool:
    """Whether ``value`` is an int or float (numpy's included, bools not)
    that a finite float can hold; checked without converting it."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


@dataclass(frozen=True)
class TemporalKernel:
    """A stationary temporal correlation function.

    Only the fields relevant to the chosen family are used; the classmethod
    constructors are the intended entry points.  ``lines`` holds
    (frequency, weight) pairs for the cosine-sum family, with nonnegative
    frequencies and weights summing to one (the zero-frequency entry is the
    constant term).  Every number must be finite and not a bool; error
    messages start with the field name.
    """

    family: TemporalFamily
    lengthscale: float = 1.0
    nu: float | None = None
    alpha: float | None = None
    bandlimit: float | None = None
    period: float | None = None
    lines: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        f = self.family
        for name in ("lengthscale", "nu", "alpha", "bandlimit", "period"):
            value = getattr(self, name)
            if value is not None and not _finite_real(value):
                raise ValueError(
                    f"{name} must be a finite number, got {value!r}")
        if f in (TemporalFamily.RBF, TemporalFamily.MATERN,
                 TemporalFamily.RATIONAL_QUADRATIC, TemporalFamily.PERIODIC):
            if not self.lengthscale > 0:
                raise ValueError("lengthscale must be positive")
        if f is TemporalFamily.MATERN:
            if self.nu not in _MATERN_NUS:
                raise ValueError(f"nu must be one of {_MATERN_NUS}")
        if f is TemporalFamily.RATIONAL_QUADRATIC:
            if self.alpha is None or not self.alpha > 0.5:
                raise ValueError("alpha must exceed 0.5 (the spectral "
                                 "density diverges at 0 otherwise)")
        if f in (TemporalFamily.SINC, TemporalFamily.SINC_SQUARED):
            if self.bandlimit is None or not self.bandlimit > 0:
                raise ValueError("bandlimit must be positive")
        if f is TemporalFamily.PERIODIC:
            if self.period is None or not self.period > 0:
                raise ValueError("period must be positive")
        if f is TemporalFamily.COSINE_SUM:
            try:
                lines = [tuple(line) for line in self.lines]
            except TypeError:  # not a sequence of sequences
                lines = []
            if not lines or not all(len(line) == 2
                                    and all(map(_finite_real, line))
                                    for line in lines):
                raise ValueError("lines must be a nonempty list of "
                                 "(frequency, weight) pairs of finite "
                                 f"numbers, got {self.lines!r}")
            object.__setattr__(self, "lines", tuple(
                (float(freq), float(weight)) for freq, weight in lines))
            total = 0.0
            for freq, weight in self.lines:
                if freq < 0:
                    raise ValueError("lines must have nonnegative frequencies")
                if not 0 < weight <= 1:
                    raise ValueError("lines must have weights in (0, 1]")
                total += weight
            if abs(total - 1.0) > _WEIGHT_TOL:
                raise ValueError(
                    f"lines must have weights summing to 1, got {total!r}")

    # -- constructors -----------------------------------------------------

    @classmethod
    def rbf(cls, lengthscale: float = 1.0) -> "TemporalKernel":
        return cls(TemporalFamily.RBF, lengthscale=lengthscale)

    @classmethod
    def matern(cls, nu: float, lengthscale: float = 1.0) -> "TemporalKernel":
        return cls(TemporalFamily.MATERN, lengthscale=lengthscale, nu=nu)

    @classmethod
    def rational_quadratic(cls, lengthscale: float = 1.0,
                           alpha: float = 1.0) -> "TemporalKernel":
        return cls(TemporalFamily.RATIONAL_QUADRATIC,
                   lengthscale=lengthscale, alpha=alpha)

    @classmethod
    def sinc(cls, bandlimit: float = 1.0) -> "TemporalKernel":
        return cls(TemporalFamily.SINC, bandlimit=bandlimit)

    @classmethod
    def sinc_squared(cls, bandlimit: float = 1.0) -> "TemporalKernel":
        return cls(TemporalFamily.SINC_SQUARED, bandlimit=bandlimit)

    @classmethod
    def periodic(cls, period: float = 1.0,
                 lengthscale: float = 1.0) -> "TemporalKernel":
        return cls(TemporalFamily.PERIODIC, lengthscale=lengthscale,
                   period=period)

    @classmethod
    def cosine_sum(cls, lines) -> "TemporalKernel":
        return cls(TemporalFamily.COSINE_SUM, lines=lines)


def _matern(nu: float, r: np.ndarray) -> np.ndarray:
    """Matern correlation of smoothness nu in {1/2, 3/2, 5/2} at distances r.

    Works in place: the float array ``r`` is overwritten and may be returned.
    With s = sqrt(2 nu) r the values are exp(-s), (1 + s) exp(-s) and
    (1 + s + s^2 / 3) exp(-s), computed in that order of operations, with
    at most two more arrays of r's shape alive at once.
    """
    if nu == 0.5:
        return np.exp(np.negative(r, out=r), out=r)
    if nu == 1.5:
        s = np.multiply(math.sqrt(3.0), r, out=r)
        poly = 1.0 + s
    else:
        s = np.multiply(math.sqrt(5.0), r, out=r)
        quad = s * s
        quad /= 3.0
        poly = 1.0 + s
        poly += quad
    poly *= np.exp(np.negative(s, out=s), out=s)
    return poly


def _sinc(x):
    """sin(x) / x, with the limit 1 at x = 0."""
    out = np.ones_like(x)
    nz = x != 0
    out[nz] = np.sin(x[nz]) / x[nz]
    return out


def eval_temporal(kernel: TemporalKernel, u):
    """Evaluate the correlation k(u) at lags ``u`` (scalar or array).

    Removable singularities (the sinc families at u = 0) return the limit
    value 1.
    """
    u = _as_array(u)
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    f = kernel.family
    ell = kernel.lengthscale
    if f is TemporalFamily.RBF:
        out = np.exp(-(u * u) / (2.0 * ell * ell))
    elif f is TemporalFamily.MATERN:
        out = _matern(kernel.nu, np.abs(u) / ell)
    elif f is TemporalFamily.RATIONAL_QUADRATIC:
        a = kernel.alpha
        out = (1.0 + (u * u) / (2.0 * a * ell * ell)) ** (-a)
    elif f is TemporalFamily.SINC:
        out = _sinc(2.0 * np.pi * kernel.bandlimit * u)
    elif f is TemporalFamily.SINC_SQUARED:
        out = _sinc(np.pi * kernel.bandlimit * u) ** 2
    elif f is TemporalFamily.PERIODIC:
        s = np.sin(np.pi * u / kernel.period)
        out = np.exp(-2.0 * s * s / (ell * ell))
    else:  # COSINE_SUM
        out = np.zeros_like(u)
        for freq, weight in kernel.lines:
            out += weight * np.cos(2.0 * np.pi * freq * u)
    return float(out[0]) if scalar else out


def classify(kernel: TemporalKernel) -> KernelClass:
    """Classify a temporal kernel by the support of its spectral density."""
    f = kernel.family
    if f in (TemporalFamily.RBF, TemporalFamily.MATERN,
             TemporalFamily.RATIONAL_QUADRATIC):
        return KernelClass.from_support(bounded=False, discrete=False)
    if f in (TemporalFamily.SINC, TemporalFamily.SINC_SQUARED):
        return KernelClass.from_support(bounded=True, discrete=False)
    if f is TemporalFamily.PERIODIC:
        return KernelClass.from_support(bounded=False, discrete=True)
    return KernelClass.from_support(bounded=True, discrete=True)


def _continuous_density(kernel: TemporalKernel, w: np.ndarray) -> np.ndarray:
    """S(w) of a continuous-support kernel; the caller checks the class."""
    f = kernel.family
    ell = kernel.lengthscale
    if f is TemporalFamily.RBF:
        return ell * math.sqrt(2.0 * math.pi) * np.exp(
            -2.0 * np.pi ** 2 * ell ** 2 * w ** 2)
    if f is TemporalFamily.MATERN:
        nu = kernel.nu
        two_nu = 2.0 * nu
        const = (2.0 * math.sqrt(math.pi) * special.gamma(nu + 0.5)
                 * two_nu ** nu / (special.gamma(nu) * ell ** two_nu))
        return const * (two_nu / ell ** 2 + 4.0 * np.pi ** 2 * w ** 2) ** (-(nu + 0.5))
    if f is TemporalFamily.RATIONAL_QUADRATIC:
        # Fourier dual of the Matern family: with a = sqrt(2 alpha) * ell,
        #   S(w) = a * (2 sqrt(pi) / Gamma(alpha)) (pi a |w|)^(alpha-1/2)
        #          * K_{alpha-1/2}(2 pi a |w|)
        # with the finite w -> 0 limit a sqrt(pi) Gamma(alpha-1/2)/Gamma(alpha).
        alpha = kernel.alpha
        a = math.sqrt(2.0 * alpha) * ell
        order = alpha - 0.5
        x = 2.0 * np.pi * a * np.abs(w)
        out = np.empty_like(x)
        small = x < 1e-12
        out[small] = (a * math.sqrt(math.pi)
                      * special.gamma(order) / special.gamma(alpha))
        xs = x[~small]
        out[~small] = (a * 2.0 * math.sqrt(math.pi) / special.gamma(alpha)
                       * (0.5 * xs) ** order * special.kv(order, xs))
        return out
    if f is TemporalFamily.SINC:
        # Boxcar on the half-open interval [-tau, tau): with observations at
        # frequencies (i - n/2)/(n delta) this makes the number of positive
        # sampled eigenvalues exactly n*min(1, 2*tau*delta) at commensurate
        # sampling rates.
        tau = kernel.bandlimit
        return np.where((w >= -tau) & (w < tau), 1.0 / (2.0 * tau), 0.0)
    # SINC_SQUARED
    tau = kernel.bandlimit
    return np.maximum(0.0, 1.0 - np.abs(w) / tau) / tau


def spectral_lines(kernel: TemporalKernel, tol: float = 1e-12):
    """Two-sided spectral lines [(frequency, weight), ...] of a discrete-
    support kernel, heaviest first, truncated once the omitted mass is
    below ``tol``.

    The periodic kernel exp(-2 sin^2(pi u / r) / l^2) has lines at p / r
    with weights exp(-z) I_p(z), z = 1 / l^2.
    """
    f = kernel.family
    if f is TemporalFamily.COSINE_SUM:
        lines = []
        for freq, weight in kernel.lines:
            if freq == 0.0:
                lines.append((0.0, weight))
            else:
                lines.append((freq, weight / 2.0))
                lines.append((-freq, weight / 2.0))
    elif f is TemporalFamily.PERIODIC:
        z = 1.0 / kernel.lengthscale ** 2
        r = kernel.period
        lines = [(0.0, float(special.ive(0, z)))]
        total = lines[0][1]
        p = 1
        while total < 1.0 - tol and p < 10_000:
            w = float(special.ive(p, z))
            lines.append((p / r, w))
            lines.append((-p / r, w))
            total += 2.0 * w
            p += 1
    else:
        raise WrongClass(f"{f.value} has a continuous spectral density")
    lines.sort(key=lambda fw: (-fw[1], abs(fw[0]), fw[0] < 0))
    return lines


def spectral_density(kernel: TemporalKernel, omega):
    """Spectral density S(omega) of a continuous-support kernel at the
    frequencies ``omega`` (scalar or array).

    Raises WrongClass for a discrete-support kernel, whose spectrum is the
    line list of :func:`spectral_lines`.
    """
    if classify(kernel).support_discrete:
        raise WrongClass(f"{kernel.family.value} has discrete spectral "
                         "support; use spectral_lines")
    w = _as_array(omega)
    scalar = w.ndim == 0
    out = _continuous_density(kernel, np.atleast_1d(w))
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Spatial kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpatialKernel:
    """A stationary correlation function on the unit cube [0, 1]^d."""

    family: SpatialFamily
    lengthscales: tuple[float, ...]
    nu: float | None = None

    def __post_init__(self):
        given = self.lengthscales
        values = (given,) if np.ndim(given) == 0 else tuple(given)
        if not values or not all(_finite_real(l) and l > 0 for l in values):
            raise ValueError("lengthscales must be positive finite numbers, "
                             f"one per dimension, got {given!r}")
        object.__setattr__(self, "lengthscales",
                           tuple(float(l) for l in values))
        if self.family is SpatialFamily.MATERN and self.nu not in _MATERN_NUS:
            raise ValueError(f"nu must be one of {_MATERN_NUS}")

    @property
    def dimension(self) -> int:
        return len(self.lengthscales)

    @classmethod
    def rbf(cls, lengthscales) -> "SpatialKernel":
        return cls(SpatialFamily.RBF, lengthscales)

    @classmethod
    def matern(cls, nu: float, lengthscales) -> "SpatialKernel":
        return cls(SpatialFamily.MATERN, lengthscales, nu=nu)

    def pairwise(self, X, Y) -> np.ndarray:
        """Correlation matrix k(X[i], Y[j]) for point arrays (n, d), (m, d)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        if X.shape[1] != self.dimension or Y.shape[1] != self.dimension:
            raise DimensionMismatch(
                f"points have dimension {X.shape[1]}/{Y.shape[1]}, "
                f"kernel expects {self.dimension}")
        # Scaled squared distances, one coordinate at a time into one (n, m)
        # array through one (n, m) buffer; for d < 8 this adds in the order
        # np.sum would over an (n, m, d) array, without building one.
        sq = np.zeros((X.shape[0], Y.shape[0]))
        diff = np.empty_like(sq)
        for a, ell in enumerate(self.lengthscales):
            np.subtract(X[:, a, None], Y[None, :, a], out=diff)
            diff /= ell
            sq += np.square(diff, out=diff)
        del diff
        if self.family is SpatialFamily.RBF:
            sq *= -0.5
            return np.exp(sq, out=sq)
        return _matern(self.nu, np.sqrt(sq, out=sq))


# ---------------------------------------------------------------------------
# Low-rank (cosine-sum) approximation by cosine-transform truncation
# ---------------------------------------------------------------------------


def _dct1_candidates(values: np.ndarray, delta: float):
    """Type-I cosine transform of ``values`` as (coefficient, frequency)
    pairs such that values[j] = sum_i a_i cos(2 pi f_i * j * delta)."""
    n = len(values)
    coeffs = dct(values, type=1) / (n - 1.0)
    coeffs[0] /= 2.0
    coeffs[-1] /= 2.0
    freqs = np.arange(n) / (2.0 * (n - 1) * delta)
    return coeffs, freqs


def _greedy_truncation(coeffs, freqs, target, grid, eps):
    """Drop coefficients smallest-in-magnitude-first while the renormalized
    grid reconstruction stays within eps; returns (coeffs, freqs) or None if
    even the full set misses eps."""
    basis = np.cos(2.0 * np.pi * np.outer(grid, freqs))  # (n, m)
    recon = basis @ coeffs
    if float(np.max(np.abs(recon - target))) > eps:
        return None
    order = np.argsort(np.abs(coeffs))
    keep = np.ones(len(coeffs), dtype=bool)
    resid = recon - target
    for idx in order:
        trial = resid - coeffs[idx] * basis[:, idx]
        kept = keep.copy()
        kept[idx] = False
        total = float(np.sum(coeffs[kept]))
        if total <= 0:
            break
        # residual after the final renormalization to unit total weight
        trial_renorm = (trial + target) / total - target
        if np.max(np.abs(trial_renorm)) <= eps:
            keep = kept
            resid = trial
    kept_coeffs = coeffs[keep] / float(np.sum(coeffs[keep]))
    return kept_coeffs, freqs[keep]


def _assemble_low_rank(coeffs, freqs) -> TemporalKernel:
    return TemporalKernel.cosine_sum(
        (f, c) for f, c in zip(freqs, coeffs) if c > 0)


def low_rank_approx(kernel: TemporalKernel, delta: float, n: int,
                    eps: float) -> TemporalKernel:
    """Approximate a discrete-support kernel by a cosine-sum kernel.

    The returned kernel matches k(j*delta) for j in [0, n-1] within ``eps``
    in sup norm, with as few cosine terms as a smallest-first truncation
    allows; lines of zero weight are dropped.  Accuracy is guaranteed on the
    sampled grid only.

    Truncation candidates come from the type-I cosine transform of the
    sampled sequence, which is sparse exactly when the sampling step is
    commensurate with the kernel's line structure.  Otherwise the transform
    needs signed coefficients (spectral leakage), which cannot form a
    correlation function, so the construction falls back to truncating the
    kernel's own spectral lines - valid at any step.

    Raises ToleranceUnreachable when no nonnegative truncation meets
    ``eps``, WrongClass for kernels with continuous spectral support.
    """
    if n < 2:
        raise ValueError("need at least two samples")
    if eps <= 0:
        raise ValueError("tolerance must be positive")
    if not classify(kernel).support_discrete:
        raise WrongClass("low-rank approximation applies to discrete-support "
                         "kernels only")
    grid = np.arange(n) * delta
    target = eval_temporal(kernel, grid)

    if kernel.family is not TemporalFamily.COSINE_SUM:
        coeffs, freqs = _dct1_candidates(target, delta)
        result = _greedy_truncation(coeffs, freqs, target, grid, eps)
        if result is not None and np.all(result[0] >= -_WEIGHT_TOL):
            kept_coeffs, kept_freqs = result
            return _assemble_low_rank(np.maximum(kept_coeffs, 0.0), kept_freqs)

    # line-truncation route: one-sided lines of the kernel itself
    line_tol = min(eps * 1e-3, 1e-13)
    one_sided: dict[float, float] = {}
    for f, w in spectral_lines(kernel, tol=line_tol):
        one_sided[abs(f)] = one_sided.get(abs(f), 0.0) + w
    freqs = np.array(sorted(one_sided))
    coeffs = np.array([one_sided[f] for f in freqs])
    coeffs = coeffs / float(np.sum(coeffs))
    result = _greedy_truncation(coeffs, freqs, target, grid, eps)
    if result is None:
        raise ToleranceUnreachable(
            f"no nonnegative cosine truncation reaches eps={eps:.3e} on the "
            f"sampled grid")
    return _assemble_low_rank(*result)


# ---------------------------------------------------------------------------
# JSON round-tripping (field names documented in schemas/kernel_schema.json)
# ---------------------------------------------------------------------------


_KINDS = {"temporal": (TemporalKernel, TemporalFamily),
          "spatial": (SpatialKernel, SpatialFamily)}


def kernel_to_dict(kernel) -> dict:
    """Serialize a kernel as its kind, its family and the arguments of that
    family's constructor (``TemporalKernel.rbf`` for a temporal RBF)."""
    for kind, (kernel_type, _) in _KINDS.items():
        if isinstance(kernel, kernel_type):
            make = getattr(kernel_type, kernel.family.value)
            return {"kind": kind, "family": kernel.family.value,
                    **{name: getattr(kernel, name)
                       for name in inspect.signature(make).parameters}}
    raise TypeError(f"not a kernel: {kernel!r}")


def kernel_from_dict(d: dict):
    """Inverse of :func:`kernel_to_dict`: the family's constructor called
    with the remaining fields, so an omitted field takes its default and an
    unknown or missing required field raises TypeError naming it."""
    rest = dict(d)
    kind = rest.pop("kind", None)
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {list(_KINDS)}, got {kind!r}")
    kernel_type, families = _KINDS[kind]
    names = [family.value for family in families]
    family = rest.pop("family", None)
    if family not in names:
        raise ValueError(f"family must be one of {names}, got {family!r}")
    return getattr(kernel_type, families(family).value)(**rest)
