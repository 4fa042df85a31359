"""Probability density models, every one closed in form.

A family supplies `support`, the array forms `pdf_array`, `cdf_array`,
`quantile_array` and `isf_array`, `sf_array` where 1 - cdf would cancel, and
`_power_integral` and `_tilt_closed`; the `Density` base class checks the
domains and holds no numeric fallback behind them. Each functional has one formula, its array form:
the scalar `pdf`, `cdf`, `sf`, `quantile`, `isf` and `interval_mass` of the
base class evaluate it at one entry, `logpdf` too: no float integrand is
left, as every integral runs on arrays (`quadrature.integrate`). The
library's families are Uniform, Gaussian, Laplacian and Exponential, a
piecewise-linear source, whose tilts are piecewise powers over its knots, and
a restriction, closed through its base's array forms. `decreasing_roots` is
the batched root solver of the codepoint refinement, and `absolute_moment`
integrates the moments off a family's location 0. The weak-unimodality grid
check runs in one array pass over its grid, not one per level, and only on a
source that is not log-concave; a source that fails it raises the run's
HypothesisError, naming the level. Densities are immutable after construction
and every operation is a pure function, so instances can be shared across
threads. The JSON density specs are read beside the config, in `experiments`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DomainError, EmptyConditioningError, HypothesisError
from .intervals import Interval, REAL_LINE
from . import quadrature

TAIL_MASS = 1e-12           # unbounded supports integrate over the 1e-12 quantile window
QUANTILE_WIDTH = 1e-12      # bracket width at which decreasing_roots stops
UNIMODALITY_LEVELS = 32     # level sets check_weak_unimodality samples
UNIMODALITY_GRID = 4096     # interior grid points it samples them on

_SQRT_2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)  # correctly rounded, so E|X|^3 of N(0, 1) is too
_LOG_2 = math.log(2.0)


def _elementwise(fn, x) -> np.ndarray:
    """fn, a float function, applied to every entry of x, keeping its shape."""
    arr = np.asarray(x, dtype=float)
    flat = np.fromiter(map(fn, arr.ravel().tolist()), dtype=float, count=arr.size)
    return flat.reshape(arr.shape)


def _finite_or(fn, x: np.ndarray, fill: float) -> np.ndarray:
    """fn at the finite entries of x and fill at the infinite ones."""
    out = np.full(x.shape, fill)
    finite = np.isfinite(x)
    out[finite] = fn(x[finite])
    return out


# Wichura's AS241 ("The Percentage Points of the Normal Distribution",
# Applied Statistics 37, 1988), the rational approximations behind
# statistics.NormalDist.inv_cdf: numerator and denominator coefficients,
# highest degree first, for |p - 0.5| <= 0.425, then r = sqrt(-log(min(p, 1-p)))
# up to 5, then beyond
_AS241_CENTRAL = (
    (2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
     4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
     1.3314166789178437745e+2, 3.3871328727963666080e+0),
    (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
     2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
     4.2313330701600911252e+1, 1.0),
)
_AS241_NEAR = (
    (7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
     1.2704582524523683826e+0, 3.6478483247632045605e+0, 5.7694972214606914055e+0,
     4.6303378461565452959e+0, 1.4234371107496835773e+0),
    (1.0507500716444168432e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
     1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e+0,
     2.0531916266377588219e+0, 1.0),
)
_AS241_FAR = (
    (2.0103343992922881327e-7, 2.7115555687434875782e-5, 1.2426609473880784386e-3,
     2.6532189526576123093e-2, 2.9656057182850489123e-1, 1.7848265399172913358e+0,
     5.4637849111641143699e+0, 6.6579046435011037772e+0),
    (2.0442631033899397856e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
     7.8686913114561325910e-4, 1.4875361290850614853e-2, 1.3692988092273580531e-1,
     5.9983220655588793769e-1, 1.0),
)


def _horner(coeffs, x):
    acc = 0.0
    for c in coeffs:
        acc *= x  # in place once acc is an array
        acc += c
    return acc


def _rational(coeffs, x):
    return _horner(coeffs[0], x) / _horner(coeffs[1], x)


def _ndtri(p: np.ndarray) -> np.ndarray:
    """Standard normal quantile by AS241 of every entry of p in (0, 1), each
    branch on its own entries."""
    q = p - 0.5
    x = np.empty(p.shape)
    central = np.abs(q) <= 0.425
    qc = q[central]
    r = 0.180625 - qc * qc
    x[central] = _horner(_AS241_CENTRAL[0], r) * qc / _horner(_AS241_CENTRAL[1], r)
    tail = ~central
    qt = q[tail]
    r = np.sqrt(-np.log(np.where(qt < 0.0, p[tail], 1.0 - p[tail])))
    near = r <= 5.0
    xt = np.empty(r.shape)
    xt[near] = _rational(_AS241_NEAR, r[near] - 1.6)
    xt[~near] = _rational(_AS241_FAR, r[~near] - 5.0)
    x[tail] = np.copysign(xt, qt)
    return x


def _open_unit(p: np.ndarray) -> np.ndarray:
    """p clipped into the open interval (0, 1)."""
    return np.clip(p, math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0))


def _check_probabilities(p, name: str = "quantile") -> np.ndarray:
    p = np.asarray(p, dtype=float)
    outside = ~((p > 0.0) & (p < 1.0))
    if np.any(outside):
        raise DomainError(f"{name} requires p in (0,1), got {p[outside].flat[0]}")
    return p


def _at(array_form, x: float) -> float:
    """An array form at the one entry x: a 1-entry array, as a 0-d one may take
    another ufunc loop and round otherwise."""
    return float(array_form(np.array([x], dtype=float))[0])


def decreasing_roots(fn, lo, hi) -> np.ndarray:
    """Per entry i, the root in (lo[i], hi[i]) of fn(x, idx), an array function
    that decreases in x, called with only the entries idx still open.

    An infinite end is bracketed by doubling steps from the other end, or from
    0. Each step is an Illinois false-position step, kept QUANTILE_WIDTH / 2
    from both ends, or the bracket's midpoint where the last three steps did
    not halve the bracket. An entry stops at a point where fn is exactly 0, or
    at the midpoint of a bracket no wider than QUANTILE_WIDTH or with no
    double inside.
    """
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    fa, fb = np.full(a.shape, np.inf), np.full(b.shape, -np.inf)  # infinite until evaluated
    last = np.zeros(a.shape)  # the sign of fn at each entry's last step

    def step(x, idx):
        """fn at x; x becomes the end of idx's bracket on its side of the root,
        both ends where fn is 0."""
        f = fn(x, idx)
        left, right = f >= 0.0, ~(f > 0.0)
        a[idx[left]], fa[idx[left]] = x[left], f[left]
        b[idx[right]], fb[idx[right]] = x[right], f[right]
        return f

    # fn at each finite end; from an infinite one, doubling steps until fn changes sign
    for end, f_end, other, sign in ((a, fa, b, -1.0), (b, fb, a, 1.0)):
        idx = np.flatnonzero(np.isinf(f_end))
        unbounded = np.isinf(end[idx])
        x = np.where(unbounded, np.where(np.isfinite(other[idx]), other[idx], 0.0) + sign, end[idx])
        width = 1.0
        while idx.size:
            f = step(x, idx)
            width *= 2.0
            outside = unbounded & (sign * f > 0.0) & np.isfinite(x)
            idx, x, unbounded = idx[outside], x[outside] + sign * width, unbounded[outside]
    widths = np.full((3, a.size), np.inf)  # the bracket widths of the last three steps
    idx = np.arange(a.size)
    while True:
        lo_, hi_ = a[idx], b[idx]
        width, mid = hi_ - lo_, 0.5 * (lo_ + hi_)
        done = (width <= QUANTILE_WIDTH) | (mid <= lo_) | (mid >= hi_)
        a[idx[done]] = mid[done]  # an entry's root, once it is done
        if done.all():
            return a
        idx, lo_, hi_, width, mid = idx[~done], lo_[~done], hi_[~done], width[~done], mid[~done]
        x = lo_ + width * (fa[idx] / (fa[idx] - fb[idx]))
        # at least half the stopping width from either end, so a point next to
        # the root is followed by one that brackets it from the other side
        x = np.clip(x, lo_ + 0.5 * QUANTILE_WIDTH, hi_ - 0.5 * QUANTILE_WIDTH)
        x = np.where((width > 0.5 * widths[0, idx]) | ~((lo_ < x) & (x < hi_)), mid, x)
        widths[:, idx] = np.vstack((widths[1:, idx], width))
        f = step(x, idx)
        # Illinois: an end kept at two steps in a row has its value halved
        fb[idx[(f > 0.0) & (last[idx] > 0.0)]] *= 0.5
        fa[idx[(f < 0.0) & (last[idx] < 0.0)]] *= 0.5
        last[idx] = np.sign(f)


def _closed_moment(direct: Callable[[], float], log: Callable[[], float]) -> float:
    """A closed absolute moment by its direct formula, or where a factor of
    that overflows or underflows, as the exp of its log: OverflowError where
    the moment itself passes the largest double."""
    try:
        value = direct()
    except OverflowError:
        value = math.inf
    return value if 0.0 < value < math.inf else math.exp(log())


class Density:
    """The interface every density family implements, with domain checks only.

    A family supplies `support`, the array forms `pdf_array`, `cdf_array`,
    `quantile_array` and `isf_array`, `sf_array` where 1 - cdf would cancel,
    and `_power_integral` and `_tilt_closed`, each in closed form; the base
    class keeps no numeric fallback beside them, and `tilt` of a family
    without `_tilt_closed` raises `DomainError`. The scalar `pdf`, `cdf`,
    `sf`, `quantile`, `isf` and `interval_mass` are the array forms at one
    entry, bit for bit, as is `logpdf` of `logpdf_array`, so each functional
    is written once; `quantile_array` and `isf_array` check p in (0, 1). The
    public `power_integral` and `tilt` check the domain (a finite beta > 0)
    and then call the hooks `_power_integral` and `_tilt_closed`; a hook may
    assume its argument is in the domain. Over an interval, pdf**beta
    integrates to `power_integral(beta) * tilt(beta).interval_mass(interval)`,
    the product a restriction reads through the hook `_partial_power_integral`.
    """

    support: Interval

    # --- array surface -----------------------------------------------------
    #
    # Elementwise over an array of any shape; every family supplies these.

    def pdf_array(self, x) -> np.ndarray:
        raise NotImplementedError

    def cdf_array(self, x) -> np.ndarray:
        raise NotImplementedError

    def logpdf_array(self, x) -> np.ndarray:
        """log pdf, -inf outside the support; closed-form families override
        it so deep tails stay finite where the pdf itself underflows to 0."""
        with np.errstate(divide="ignore"):
            return np.log(self.pdf_array(x))

    def sf_array(self, x) -> np.ndarray:
        """Survival function 1 - cdf; override where the tail cancels."""
        return 1.0 - self.cdf_array(x)

    def quantile_array(self, p) -> np.ndarray:
        """Generalized inverse inf{x : cdf(x) >= p} for p in (0, 1)."""
        raise NotImplementedError

    def isf_array(self, p) -> np.ndarray:
        """Inverse survival function, the x with sf(x) = p for p in (0, 1):
        quantile(1 - p), but in full relative precision deep in the right
        tail, where every family inverts sf itself."""
        raise NotImplementedError

    def interval_mass_array(self, lo, hi) -> np.ndarray:
        """The probability of every (lo[i], hi[i]], by a cdf difference, or by
        an sf difference where cdf(lo[i]) > 1/2, which keeps relative precision
        deep in the right tail."""
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        c_lo = _finite_or(self.cdf_array, lo, 0.0)
        left = c_lo <= 0.5
        right = ~left
        masses = np.empty(lo.shape)
        masses[left] = _finite_or(self.cdf_array, hi[left], 1.0) - c_lo[left]
        masses[right] = _finite_or(self.sf_array, lo[right], 1.0) - _finite_or(
            self.sf_array, hi[right], 0.0
        )
        return np.maximum(masses, 0.0)

    # --- pointwise surface: the array forms at one entry -----------------------

    def pdf(self, x: float) -> float:
        return _at(self.pdf_array, x)

    def cdf(self, x: float) -> float:
        return _at(self.cdf_array, x)

    def sf(self, x: float) -> float:
        return _at(self.sf_array, x)

    def quantile(self, p: float) -> float:
        return _at(self.quantile_array, p)

    def isf(self, p: float) -> float:
        return _at(self.isf_array, p)

    def interval_mass(self, interval: Interval) -> float:
        return float(self.interval_mass_array(np.array([interval.lo]), np.array([interval.hi]))[0])

    def logpdf(self, x: float) -> float:
        return _at(self.logpdf_array, x)

    @property
    def kinks(self) -> tuple[float, ...]:
        """The points inside the support where the pdf is not differentiable,
        in increasing order; a quadrature panel should not straddle one."""
        return ()

    @property
    def center(self) -> float | None:
        """The point c the pdf is symmetric about, pdf(c - t) = pdf(c + t),
        for the families that are; None for every other."""
        return None

    def vanishing_order(self, x: float) -> float:
        """The gamma >= 0 with pdf(t) of order |t - x|^gamma as t -> x, on a side
        where the pdf is not identically 0: 0 where it is positive, inf where
        it is 0 on both sides, as off the closed support. Only a piecewise-linear
        source has a finite gamma > 0, its power p at a zero knot, and every
        such x is a kink or a support end."""
        return 0.0 if self.support.lo <= x <= self.support.hi else math.inf

    @cached_property
    def quartile_scale(self) -> tuple[float, float]:
        """The interquartile range and the power of 2 at or below it, the scale
        the cell layer sets its tail windows and floors by; computed once, as
        the cell layer reads it on every pass."""
        iqr = np.ptp(self.quantile_array(np.array([0.25, 0.75])))
        return float(iqr), float(2.0 ** np.floor(np.log2(iqr)))

    @cached_property
    def mass_window(self) -> Interval:
        """`quadrature.truncate_support` at TAIL_MASS, where integrals place
        their panels; computed once, as the cell layer reads it on every pass."""
        return quadrature.truncate_support(self, TAIL_MASS)

    # --- analytic functionals ----------------------------------------------

    def power_integral(self, beta: float) -> float:
        """Integral of pdf**beta over the support."""
        if not 0.0 < beta < math.inf:
            raise DomainError(f"power_integral requires a finite beta > 0, got {beta}")
        return self._power_integral(beta)

    def _power_integral(self, beta: float) -> float:
        raise NotImplementedError

    def _partial_power_integral(self, beta: float, interval: Interval) -> float:
        # the full power integral times the tilted measure of the interval
        return self._power_integral(beta) * self._tilt_closed(beta).interval_mass(interval)

    def absolute_moment(self, r: float) -> float:
        """E|X|^r: the family's closed form where it has one (`_absolute_moment`),
        else by `quadrature.integrate` over the mass window, splitting at the
        |x| kink. A node where |x|^r passes the largest double takes
        exp(r log|x| + logpdf(x)), so a node the pdf brings back into range
        counts. A DomainError names the order where the closed moment, finite
        as it is, or an integrand value passes the largest double."""
        if r < 1.0:
            raise DomainError(f"absolute_moment requires r >= 1, got {r}")
        try:
            closed = self._absolute_moment(r)
        except OverflowError:
            raise DomainError(f"the absolute moment of order {r:g} is finite but passes "
                              f"the largest double") from None
        if closed is not None:
            return closed

        def integrand(x: np.ndarray) -> np.ndarray:
            power = np.abs(x) ** r
            out = power * self.pdf_array(x)
            far = np.isinf(power)
            if far.any():
                out[far] = np.exp(r * np.log(np.abs(x[far])) + self.logpdf_array(x[far]))
                if np.isinf(out).any():
                    raise OverflowError
            return out

        try:
            with np.errstate(over="ignore", invalid="ignore"):
                return quadrature.integrate(integrand, self.support, (0.0,), core=self.mass_window).value
        except OverflowError:
            raise DomainError(f"the absolute moment of order {r:g} takes an integrand value "
                              f"past the largest double") from None

    def _absolute_moment(self, r: float) -> float | None:
        return None

    # --- derived densities ---------------------------------------------------

    def restrict(self, interval: Interval) -> "Density":
        """Conditional density given the interval."""
        return RestrictedDensity(self, interval)

    def tilt(self, beta: float) -> "Density":
        """Normalized pdf**beta as a density, for the families whose tilt is closed."""
        if not 0.0 < beta < math.inf:
            raise DomainError(f"tilt requires a finite positive exponent, got {beta}")
        return self._tilt_closed(beta)

    def _tilt_closed(self, beta: float) -> "Density":
        raise DomainError(f"{type(self).__name__} has no closed-form tilt")

    def tilt_exponent(self, other: "Density") -> float | None:
        """The gamma with other == self.tilt(gamma), for the pairs a family
        knows in closed form (same family, same location); None for any other."""
        return None


@dataclass(frozen=True)
class Uniform(Density):
    """Uniform density on (a, b]."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b) and self.a < self.b):
            raise DomainError(f"uniform requires finite a < b, got ({self.a}, {self.b})")

    @property
    def support(self) -> Interval:
        return Interval(self.a, self.b)

    @property
    def center(self) -> float:
        return 0.5 * (self.a + self.b)

    def pdf_array(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.where((self.a < x) & (x <= self.b), 1.0 / (self.b - self.a), 0.0)

    def logpdf_array(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.where((self.a < x) & (x <= self.b), -math.log(self.b - self.a), -np.inf)

    def cdf_array(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.clip((x - self.a) / (self.b - self.a), 0.0, 1.0)

    def quantile_array(self, p) -> np.ndarray:
        return self.a + _check_probabilities(p) * (self.b - self.a)

    def isf_array(self, p) -> np.ndarray:
        return self.b - _check_probabilities(p, "isf") * (self.b - self.a)

    def _power_integral(self, beta: float) -> float:
        return (self.b - self.a) ** (1.0 - beta)

    def _absolute_moment(self, r: float) -> float:
        # across 0, (|a|^(r+1) + b^(r+1)) / ((r+1)(b-a)); on one side, |x| over (u, v]
        # gives v^r (1 - w^(r+1)) / ((r+1)(1 - w)), w = u/v, from t = w - 1 by log1p
        if self.a < 0.0 < self.b:
            small, big = sorted((-self.a, self.b))
            return _closed_moment(
                lambda: (-self.a * (-self.a) ** r + self.b * self.b**r) / ((r + 1.0) * (self.b - self.a)),
                lambda: (r + 1.0) * math.log(big) + math.log1p((small / big) ** (r + 1.0))
                - math.log((r + 1.0) * (self.b - self.a)),
            )
        u, v = sorted((abs(self.a), abs(self.b)))
        t = (u - v) / v
        inner = -math.expm1((r + 1.0) * math.log1p(t)) if u else 1.0
        return _closed_moment(lambda: v**r * inner / ((r + 1.0) * -t),
                              lambda: r * math.log(v) + math.log(inner) - math.log((r + 1.0) * -t))

    def _tilt_closed(self, beta: float) -> Density:
        return self

    def tilt_exponent(self, other: Density) -> float | None:
        return 1.0 if other == self else None

    def mode(self) -> float:
        return self.center


@dataclass(frozen=True)
class Gaussian(Density):
    mean: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.mean) and 0.0 < self.sigma < math.inf):
            raise DomainError(f"gaussian requires a finite sigma > 0, got {self.sigma}")

    @property
    def support(self) -> Interval:
        return REAL_LINE

    @property
    def center(self) -> float:
        return self.mean

    def pdf_array(self, x) -> np.ndarray:
        z = (np.asarray(x, dtype=float) - self.mean) / self.sigma
        return np.exp(-0.5 * z * z) / (self.sigma * _SQRT_2PI)

    def logpdf_array(self, x) -> np.ndarray:
        z = (np.asarray(x, dtype=float) - self.mean) / self.sigma
        return -0.5 * z * z - math.log(self.sigma * _SQRT_2PI)

    # math.erfc stays within ~2 ulp deep into the tails, where scipy's erfc
    # drifts by hundreds of ulp, so cdf and sf call it per element
    def cdf_array(self, x) -> np.ndarray:
        w = -(np.asarray(x, dtype=float) - self.mean) / (self.sigma * _SQRT_2)
        return 0.5 * _elementwise(math.erfc, w)

    def sf_array(self, x) -> np.ndarray:
        w = (np.asarray(x, dtype=float) - self.mean) / (self.sigma * _SQRT_2)
        return 0.5 * _elementwise(math.erfc, w)

    def quantile_array(self, p) -> np.ndarray:
        return self.mean + self.sigma * _ndtri(_check_probabilities(p))

    def isf_array(self, p) -> np.ndarray:  # the quantile mirrored about the mean
        return self.mean - self.sigma * _ndtri(_check_probabilities(p, "isf"))

    def _power_integral(self, beta: float) -> float:
        return (2.0 * math.pi * self.sigma**2) ** (0.5 * (1.0 - beta)) / math.sqrt(beta)

    def _absolute_moment(self, r: float) -> float | None:
        if self.mean != 0.0:
            return None
        return _closed_moment(
            lambda: self.sigma**r * 2.0 ** (0.5 * (r - 1.0)) * math.gamma(0.5 * (r + 1.0))
            * _SQRT_2_OVER_PI,
            lambda: r * math.log(self.sigma) + 0.5 * (r - 1.0) * _LOG_2
            + math.lgamma(0.5 * (r + 1.0)) + math.log(_SQRT_2_OVER_PI),
        )

    def _tilt_closed(self, beta: float) -> Density:
        return Gaussian(self.mean, self.sigma / math.sqrt(beta))

    def tilt_exponent(self, other: Density) -> float | None:
        if isinstance(other, Gaussian) and other.mean == self.mean:
            return (self.sigma / other.sigma) ** 2
        return None

    def mode(self) -> float:
        return self.mean


@dataclass(frozen=True)
class Laplacian(Density):
    mean: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.mean) and 0.0 < self.scale < math.inf):
            raise DomainError(f"laplacian requires a finite scale > 0, got {self.scale}")

    @property
    def support(self) -> Interval:
        return REAL_LINE

    @property
    def kinks(self) -> tuple[float, ...]:
        return (self.mean,)

    @property
    def center(self) -> float:
        return self.mean

    def pdf_array(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.exp(-np.abs(x - self.mean) / self.scale) / (2.0 * self.scale)

    def logpdf_array(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return -np.abs(x - self.mean) / self.scale - math.log(2.0 * self.scale)

    def cdf_array(self, x) -> np.ndarray:
        z = (np.asarray(x, dtype=float) - self.mean) / self.scale
        tail = 0.5 * np.exp(-np.abs(z))
        return np.where(z < 0.0, tail, 1.0 - tail)

    def sf_array(self, x) -> np.ndarray:
        z = (np.asarray(x, dtype=float) - self.mean) / self.scale
        tail = 0.5 * np.exp(-np.abs(z))
        return np.where(z < 0.0, 1.0 - tail, tail)

    def _offsets(self, p: np.ndarray) -> np.ndarray:
        """The p quantile's offset from the mean, from the nearer tail's mass."""
        below = p < 0.5
        offset = self.scale * np.log(2.0 * np.where(below, p, 1.0 - p))
        return np.where(below, offset, -offset)

    def quantile_array(self, p) -> np.ndarray:
        return self.mean + self._offsets(_check_probabilities(p))

    def isf_array(self, p) -> np.ndarray:  # the quantile mirrored about the mean
        return self.mean - self._offsets(_check_probabilities(p, "isf"))

    def _power_integral(self, beta: float) -> float:
        return (2.0 * self.scale) ** (1.0 - beta) / beta

    def _absolute_moment(self, r: float) -> float | None:
        if self.mean != 0.0:
            return None
        return _closed_moment(lambda: self.scale**r * math.gamma(r + 1.0),
                              lambda: r * math.log(self.scale) + math.lgamma(r + 1.0))

    def _tilt_closed(self, beta: float) -> Density:
        return Laplacian(self.mean, self.scale / beta)

    def tilt_exponent(self, other: Density) -> float | None:
        if isinstance(other, Laplacian) and other.mean == self.mean:
            return self.scale / other.scale
        return None

    def mode(self) -> float:
        return self.mean


@dataclass(frozen=True)
class Exponential(Density):
    rate: float = 1.0
    shift: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.rate < math.inf and math.isfinite(self.shift)):
            raise DomainError(f"exponential requires a finite rate > 0, got {self.rate}")

    @property
    def support(self) -> Interval:
        return Interval(self.shift, math.inf)

    # the maximum keeps exp finite left of the support, where np.where discards it
    def pdf_array(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        t = -self.rate * (np.maximum(x, self.shift) - self.shift)
        return np.where(x > self.shift, self.rate * np.exp(t), 0.0)

    def logpdf_array(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.where(x > self.shift, math.log(self.rate) - self.rate * (x - self.shift), -np.inf)

    def cdf_array(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        t = -self.rate * (np.maximum(x, self.shift) - self.shift)
        return np.where(x > self.shift, -np.expm1(t), 0.0)

    def sf_array(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        t = -self.rate * (np.maximum(x, self.shift) - self.shift)
        return np.where(x > self.shift, np.exp(t), 1.0)

    def quantile_array(self, p) -> np.ndarray:
        return self.shift - np.log1p(-_check_probabilities(p)) / self.rate

    def isf_array(self, p) -> np.ndarray:
        return self.shift - np.log(_check_probabilities(p, "isf")) / self.rate

    def _power_integral(self, beta: float) -> float:
        return self.rate ** (beta - 1.0) / beta

    def _absolute_moment(self, r: float) -> float | None:
        if self.shift != 0.0:
            return None
        return _closed_moment(lambda: math.gamma(r + 1.0) / self.rate**r,
                              lambda: math.lgamma(r + 1.0) - r * math.log(self.rate))

    def _tilt_closed(self, beta: float) -> Density:
        return Exponential(self.rate * beta, self.shift)

    def tilt_exponent(self, other: Density) -> float | None:
        if isinstance(other, Exponential) and other.shift == self.shift:
            return other.rate / self.rate
        return None

    def mode(self) -> float:
        return self.shift


def _power_primitive(y, s, t, p):
    """The integral from 0 to t of (y + s u)^p du, per entry: the mass of a
    segment's piece measured from a knot of ordinate y, s the slope away from
    that knot. s = 0 and y = 0 are the limits; s t / y is clamped at -1, which
    a segment falling to a zero knot would otherwise round past to NaN. Powers
    are taken as y**p y, since q = p + 1 rounds and a rounded exponent costs
    ~|log y| ulp."""
    q = p + 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        out = y**p * y * np.expm1(q * np.log1p(np.maximum(s * t / y, -1.0))) / (s * q)
        out = np.where(y == 0.0, (s * t) ** p * t / q, out)
    return np.where(s == 0.0, y**p * t, out)


def _power_inverse(y, s, m, p):
    """The t with _power_primitive(y, s, t, p) = m, per entry of positive mass."""
    q = p + 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t = y * np.expm1(np.log1p(np.maximum(m * s * q / (y**p * y), -1.0)) / q) / s
        # from a zero knot (s t)^q = m s q; 1/q rounds, which costs ~|log m| ulp
        # of t, so one Newton step on t^q follows
        t0 = (m * s * q) ** (1.0 / q) / s
        t0 = np.where(m > 0.0, t0 * (1.0 - ((s * t0) ** p * t0 / (m * q) - 1.0) / q), t0)
        t = np.where(y == 0.0, t0, t)
        return np.where(s == 0.0, m / y**p, t)


class PiecewiseLinear(Density):
    """Piecewise-linear density l from (x, y) knots, normalized at construction.

    The density is l**p over the same knots, renormalized. p is 1 for a source
    built from knots and is set only by `tilt`, since the tilt of l**p by beta
    is l**(p beta). Every functional comes in closed form from the per-segment
    primitive of (y + s u)**p and its inverse: cdf, sf, quantile and isf take
    one `searchsorted` over the knots, each side measured from its own knot.
    """

    def __init__(self, knots):
        pts = [(float(x), float(y)) for x, y in knots]
        if len(pts) < 2:
            raise DomainError("piecewise linear density needs at least two knots")
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise DomainError("piecewise linear knots must be finite")
        if np.any(np.diff(xs) <= 0.0):
            raise DomainError("piecewise linear knots must have strictly increasing x")
        if np.any(ys < 0.0):
            raise DomainError("piecewise linear knots must have nonnegative y")
        area = float(np.sum(0.5 * (ys[1:] + ys[:-1]) * np.diff(xs)))
        if area <= 0.0:
            raise DomainError("piecewise linear density has zero total mass")
        self._set_power(xs, ys / area, 1.0)

    def _set_power(self, xs: np.ndarray, ys: np.ndarray, p: float) -> None:
        self._xs, self._ys, self._p = xs, ys, p
        self._slopes = np.diff(ys) / np.diff(xs)
        seg = self._segment_masses(p)
        self._norm = float(seg.sum())
        self._cum = np.concatenate(([0.0], np.cumsum(seg))) / self._norm
        self._cum[-1] = 1.0
        # the mass right of each knot, summed from the right end
        self._tail = np.concatenate((np.cumsum(seg[::-1])[::-1], [0.0])) / self._norm
        self._tail[0] = 1.0
        self._support = Interval(float(xs[0]), float(xs[-1]))

    @property
    def support(self) -> Interval:
        return self._support

    @property
    def knots(self) -> tuple[tuple[float, float], ...]:
        """The knots of l, the density at power 1."""
        return tuple(zip(self._xs.tolist(), self._ys.tolist()))

    @property
    def kinks(self) -> tuple[float, ...]:
        return tuple(self._xs[1:-1].tolist())

    def vanishing_order(self, x: float) -> float:
        xs, ys = self._xs, self._ys
        if not xs[0] <= x <= xs[-1]:
            return math.inf
        i = int(np.searchsorted(xs, x))  # xs[i - 1] < x <= xs[i]
        if xs[i] != x:  # inside a segment: positive unless both its knots are 0
            return 0.0 if max(ys[i - 1], ys[i]) > 0.0 else math.inf
        if ys[i] > 0.0:
            return 0.0
        return self._p if ys[max(i - 1, 0):i + 2].max() > 0.0 else math.inf

    def pdf_array(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        inside = (self._xs[0] < x) & (x <= self._xs[-1])
        return np.where(inside, np.interp(x, self._xs, self._ys) ** self._p / self._norm, 0.0)

    def cdf_array(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        xs = self._xs
        t = np.clip(x, xs[0], xs[-1])
        i = np.minimum(np.searchsorted(xs, t, side="right"), xs.size - 1) - 1
        piece = _power_primitive(self._ys[i], self._slopes[i], t - xs[i], self._p)
        below = self._cum[i] + piece / self._norm
        return np.where(x <= xs[0], 0.0, np.where(x >= xs[-1], 1.0, np.minimum(below, 1.0)))

    def sf_array(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        xs = self._xs
        t = np.clip(x, xs[0], xs[-1])
        i = np.maximum(np.searchsorted(xs, t, side="left"), 1)
        piece = _power_primitive(self._ys[i], -self._slopes[i - 1], xs[i] - t, self._p)
        above = self._tail[i] + piece / self._norm
        return np.where(x <= xs[0], 1.0, np.where(x >= xs[-1], 0.0, np.minimum(above, 1.0)))

    def quantile_array(self, p) -> np.ndarray:
        p = _check_probabilities(p)
        i = np.searchsorted(self._cum, p, side="left") - 1  # cum[i] < p <= cum[i + 1]
        t = _power_inverse(self._ys[i], self._slopes[i], (p - self._cum[i]) * self._norm, self._p)
        return np.minimum(self._xs[i] + t, self._xs[i + 1])

    def isf_array(self, p) -> np.ndarray:
        p = _check_probabilities(p, "isf")
        i = np.searchsorted(-self._tail, -p, side="right")  # tail[i] < p <= tail[i - 1]
        m = (p - self._tail[i]) * self._norm
        t = _power_inverse(self._ys[i], -self._slopes[i - 1], m, self._p)
        return np.maximum(self._xs[i] - t, self._xs[i - 1])

    def _segment_masses(self, p: float) -> np.ndarray:
        """The integral of l**p over each segment."""
        return _power_primitive(self._ys[:-1], self._slopes, np.diff(self._xs), p)

    def _power_integral(self, beta: float) -> float:
        return float(self._segment_masses(self._p * beta).sum()) / self._norm**beta

    def _tilt_closed(self, beta: float) -> Density:
        return TiltedDensity(self, beta)

    def mode(self) -> float:
        return float(self._xs[int(np.argmax(self._ys))])

    def __repr__(self) -> str:
        return f"PiecewiseLinear({len(self._xs)} knots on {self.support})"


class RestrictedDensity(Density):
    """Conditional density of a base density given an interval.

    Every array form comes from the base's array forms over the window (lo, hi]:
    the cdf and sf are base masses from lo and up to hi, and the quantile and
    isf invert the base's cdf from lo or its sf from hi, or where that end's
    value passes 1/2, the other one, which keeps relative precision in the
    tail the window lies in.
    """

    def __init__(self, base: Density, interval: Interval):
        window = base.support.intersect(interval)
        if window is None:
            raise EmptyConditioningError(
                f"conditioning interval {interval} misses the support {base.support}"
            )
        mass = base.interval_mass(window)
        if mass <= 0.0:
            raise EmptyConditioningError(
                f"conditioning interval {interval} has zero probability"
            )
        self.base = base
        self.interval = interval
        self._window = window
        self._mass = mass
        # the base's cdf and sf at lo and hi, 0 at an infinite end, as cdf(lo)
        # and sf(hi) are there; sf(lo) and cdf(hi) are read only past a 1/2
        # test that an infinite end fails
        ends = np.array([window.lo, window.hi])
        self._cdf_ends = _finite_or(base.cdf_array, ends, 0.0).tolist()
        self._sf_ends = _finite_or(base.sf_array, ends, 0.0).tolist()

    @property
    def support(self) -> Interval:
        return self._window

    @property
    def kinks(self) -> tuple[float, ...]:
        return tuple(k for k in self.base.kinks if self._window.lo < k < self._window.hi)

    def vanishing_order(self, x: float) -> float:
        # the base's, inside the window and at its ends, unless the base is 0
        # on both sides of the next double inside: then the pdf is 0 around x
        lo, hi = self._window.lo, self._window.hi
        inner = np.nextafter(x, hi) if x == lo else np.nextafter(x, lo) if x == hi else x
        if not lo <= x <= hi or self.base.vanishing_order(inner) == math.inf:
            return math.inf
        return self.base.vanishing_order(x)

    def pdf_array(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        inside = (self._window.lo < x) & (x <= self._window.hi)
        return np.where(inside, self.base.pdf_array(x) / self._mass, 0.0)

    def logpdf_array(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        inside = (self._window.lo < x) & (x <= self._window.hi)
        return np.where(inside, self.base.logpdf_array(x) - math.log(self._mass), -np.inf)

    def cdf_array(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        lo, hi = self._window.lo, self._window.hi
        below = self.base.interval_mass_array(np.full(x.shape, lo), np.clip(x, lo, hi))
        return np.where(x <= lo, 0.0, np.where(x >= hi, 1.0, np.minimum(below / self._mass, 1.0)))

    def sf_array(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        lo, hi = self._window.lo, self._window.hi
        above = self.base.interval_mass_array(np.clip(x, lo, hi), np.full(x.shape, hi))
        return np.where(x <= lo, 1.0, np.where(x >= hi, 0.0, np.minimum(above / self._mass, 1.0)))

    def quantile_array(self, p) -> np.ndarray:
        p = _check_probabilities(p)
        (c_lo, _), (s_lo, _) = self._cdf_ends, self._sf_ends
        if c_lo > 0.5:
            # deep in the right tail c_lo + p * mass rounds to 1; invert the survival form
            return self.base.isf_array(_open_unit(s_lo - p * self._mass))
        return self.base.quantile_array(_open_unit(c_lo + p * self._mass))

    def isf_array(self, p) -> np.ndarray:
        p = _check_probabilities(p, "isf")
        (_, c_hi), (_, s_hi) = self._cdf_ends, self._sf_ends
        if s_hi > 0.5:
            # deep in the left tail s_hi + p * mass rounds to 1; invert the cdf form
            return self.base.quantile_array(_open_unit(c_hi - p * self._mass))
        return self.base.isf_array(_open_unit(s_hi + p * self._mass))

    def _power_integral(self, beta: float) -> float:
        return self._mass ** (-beta) * self.base._partial_power_integral(beta, self._window)

    def _partial_power_integral(self, beta: float, interval: Interval) -> float:
        window = self._window.intersect(interval)
        if window is None:
            return 0.0
        return self._mass ** (-beta) * self.base._partial_power_integral(beta, window)

    def _tilt_closed(self, beta: float) -> Density:
        return RestrictedDensity(self.base.tilt(beta), self._window)

    def mode(self) -> float:
        m = self.base.mode()
        if self._window.contains(m):
            return m
        return self.quantile(0.5)

    def __repr__(self) -> str:
        return f"Restricted({self.base!r}, {self.interval})"


class TiltedDensity(PiecewiseLinear):
    """Normalized pdf**exponent of a piecewise-linear base: the base's knots at
    its power times exponent."""

    def __init__(self, base: PiecewiseLinear, exponent: float):
        if not isinstance(base, PiecewiseLinear):
            raise DomainError(f"{type(base).__name__} has no piecewise-linear tilt")
        if not 0.0 < exponent < math.inf:
            raise DomainError(f"tilt exponent must be finite and positive, got {exponent}")
        self.base = base
        self.exponent = exponent
        self._set_power(base._xs, base._ys, base._p * exponent)

    def _tilt_closed(self, beta: float) -> Density:
        return self.base.tilt(self.exponent * beta)

    def __repr__(self) -> str:
        return f"Tilted({self.base!r}, beta={self.exponent})"


# --- weak unimodality -----------------------------------------------------


def check_weak_unimodality(d: Density) -> None:
    """Grid check that sampled level sets {pdf >= l} are single intervals; a
    HypothesisError names the lowest level whose set splits.

    UNIMODALITY_LEVELS level sets are sampled on a log grid below the maximum
    pdf value seen on UNIMODALITY_GRID interior points of the support,
    truncated to its 1e-9 quantile window; with no positive value there the
    check fails at level None. The lowest splitting level is the one a test of
    the levels one by one finds, from one pass over the grid: its prefix and
    suffix maxima, and each point's lowest level above it (`np.searchsorted`).
    A log-concave family (uniform, Gaussian, Laplacian, exponential) has only
    intervals for level sets, so it passes without the grid.
    """
    if isinstance(d, (Uniform, Gaussian, Laplacian, Exponential)):
        return
    window = quadrature.truncate_support(d, 1e-9)
    xs = np.linspace(window.lo, window.hi, UNIMODALITY_GRID + 2)[1:-1]
    vals = d.pdf_array(xs)
    vmax = float(vals.max())
    level = None
    if vmax > 0.0:
        levels = np.geomspace(vmax * 1e-6, vmax * (1.0 - 1e-9), UNIMODALITY_LEVELS)
        # {vals >= l} splits exactly where a point below l has values >= l on
        # both sides (the lower side maximum, its wall); if any level splits at
        # a point, the lowest level above the point does
        walls = np.minimum(np.maximum.accumulate(vals)[:-2],
                           np.maximum.accumulate(vals[::-1])[-3::-1])
        dips = vals[1:-1] < walls
        lowest = np.append(levels, np.inf)[np.searchsorted(levels, vals[1:-1][dips], side="right")]
        splits = lowest[lowest <= walls[dips]]
        if not splits.size:
            return
        level = float(splits.min())
    raise HypothesisError(f"source density failed the weak-unimodality grid check (level {level})")
