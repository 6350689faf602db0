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

from .errors import DimensionMismatch, WrongClass

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
    "line_features",
    "classify",
    "kernel_to_dict",
    "kernel_from_dict",
]

_MATERN_NUS = (0.5, 1.5, 2.5)
_WEIGHT_TOL = 1e-9
# Spectral mass a periodic kernel's truncated line list may leave out.
_LINE_TOL = 1e-12


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
        # k(0) is NaN (0/0) once eval_temporal's denominator underflows
        denominator = _lag_denominator(self)
        if denominator is not None and not (
                sys.float_info.min <= denominator <= sys.float_info.max):
            raise ValueError(
                f"lengthscale {self.lengthscale!r} makes eval_temporal's "
                f"denominator {denominator!r}, not a positive normal float")
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
        # k(0) is NaN (inf * 0) once a factor of eval_temporal's lag
        # overflows, that is once it overflows at lag 1
        _check_lag_range(self, 1.0)

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


def _lag_denominator(kernel: TemporalKernel) -> float | None:
    """What eval_temporal divides the squared lag (rbf, rational quadratic)
    or the squared sine (periodic) by, in its order of operations; None for
    the other families."""
    f, ell = kernel.family, kernel.lengthscale
    if f is TemporalFamily.RBF:
        return 2.0 * ell * ell
    if f is TemporalFamily.RATIONAL_QUADRATIC:
        return 2.0 * kernel.alpha * ell * ell
    if f is TemporalFamily.PERIODIC:
        return ell * ell
    return None


def _lag_factors(kernel: TemporalKernel) -> tuple[float, ...]:
    """What eval_temporal multiplies the lag by inside sin or cos, in its
    order of operations: 2 pi b (sinc), pi b (sinc squared) or 2 pi f for
    each cosine-sum line, in line order; none for the other families."""
    f = kernel.family
    if f is TemporalFamily.SINC:
        return (2.0 * np.pi * kernel.bandlimit,)
    if f is TemporalFamily.SINC_SQUARED:
        return (np.pi * kernel.bandlimit,)
    if f is TemporalFamily.COSINE_SUM:
        return tuple(2.0 * np.pi * freq for freq, _ in kernel.lines)
    return ()


def _check_lag_range(kernel: TemporalKernel, largest: float) -> None:
    """Raises ValueError, starting with the field, when a factor of the lag
    in eval_temporal times a lag up to ``largest`` is not a finite float
    (sin or cos of it is NaN).  The rounded product grows with the lag, so
    the largest lag decides."""
    products = [factor * largest for factor in _lag_factors(kernel)]
    if not all(map(math.isfinite, products)):
        field = ("lines" if kernel.family is TemporalFamily.COSINE_SUM
                 else "bandlimit")
        raise ValueError(
            f"{field} {getattr(kernel, field)!r} makes eval_temporal's lag "
            f"factor times lag {largest!r} {max(products)!r}, not a finite "
            "float")


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
        out = np.exp(-(u * u) / _lag_denominator(kernel))
    elif f is TemporalFamily.MATERN:
        out = _matern(kernel.nu, np.abs(u) / ell)
    elif f is TemporalFamily.RATIONAL_QUADRATIC:
        a = kernel.alpha
        out = (1.0 + (u * u) / _lag_denominator(kernel)) ** (-a)
    elif f is TemporalFamily.SINC:
        out = _sinc(_lag_factors(kernel)[0] * u)
    elif f is TemporalFamily.SINC_SQUARED:
        out = _sinc(_lag_factors(kernel)[0] * u) ** 2
    elif f is TemporalFamily.PERIODIC:
        s = np.sin(np.pi * u / kernel.period)
        out = np.exp(-2.0 * s * s / _lag_denominator(kernel))
    else:  # COSINE_SUM
        out = np.zeros_like(u)
        for (_, weight), factor in zip(kernel.lines, _lag_factors(kernel)):
            out += weight * np.cos(factor * u)
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
        from scipy import special
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
        from scipy import special
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


def spectral_lines(kernel: TemporalKernel):
    """Two-sided spectral lines [(frequency, weight), ...] of a discrete-
    support kernel, heaviest first, truncated once the omitted mass is
    below _LINE_TOL.

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
        from scipy import special
        z = 1.0 / kernel.lengthscale ** 2
        r = kernel.period
        lines = [(0.0, float(special.ive(0, z)))]
        total = lines[0][1]
        p = 1
        while total < 1.0 - _LINE_TOL and p < 10_000:
            w = float(special.ive(p, z))
            lines.append((p / r, w))
            lines.append((-p / r, w))
            total += 2.0 * w
            p += 1
    else:
        raise WrongClass(f"{f.value} has a continuous spectral density")
    lines.sort(key=lambda fw: (-fw[1], abs(fw[0]), fw[0] < 0))
    return lines


def line_features(kernel: TemporalKernel, times):
    """Features phi(t) of a finite line expansion k(s - t) = phi(s) . phi(t)
    at ``times``, as a (len(times), r) array; None for a kernel without one.

    Only the cosine sum has one: each line w cos(2 pi f (s - t)) splits into
    w cos(2 pi f s) cos(2 pi f t) + w sin(2 pi f s) sin(2 pi f t), two
    features sqrt(w) cos(2 pi f t) and sqrt(w) sin(2 pi f t), and a zero
    frequency gives the one constant feature sqrt(w), so r <= 2L for L
    lines.
    """
    if kernel.family is not TemporalFamily.COSINE_SUM:
        return None
    t = _as_array(times)
    features = []
    for (freq, weight), factor in zip(kernel.lines, _lag_factors(kernel)):
        root = math.sqrt(weight)
        if freq == 0.0:
            features.append(np.full_like(t, root))
        else:
            phase = factor * t
            features += [root * np.cos(phase), root * np.sin(phase)]
    return np.stack(features, axis=-1)


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
