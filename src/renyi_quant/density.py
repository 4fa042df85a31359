"""Probability density models with analytic functionals where available.

Closed forms cover the Uniform/Gaussian/Laplacian/Exponential families (pdf,
cdf, quantile, power integrals and their tilted relatives); everything else
falls back to adaptive quadrature on a quantile-truncated support, and its
quantiles to one batched root solver, `decreasing_roots`. Densities
are immutable after construction and every operation is a pure function, so
instances can be shared across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DomainError,
    EmptyConditioningError,
    InfiniteIntegralError,
)
from .intervals import Interval, REAL_LINE
from . import quadrature

TAIL_MASS = 1e-12           # unbounded supports integrate over the 1e-12 quantile window
NORMALIZATION_TOL = 1e-9
QUANTILE_WIDTH = 1e-12      # bracket width at which decreasing_roots stops
UNIMODALITY_LEVELS = 32     # level sets check_weak_unimodality samples
UNIMODALITY_GRID = 4096     # interior grid points it samples them on

_SQRT_2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _elementwise(fn, x) -> np.ndarray:
    """fn applied to every entry of x, keeping the shape of x."""
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


def _ndtri_scalar(p: float) -> float:
    """Standard normal quantile of p in (0, 1) by AS241."""
    q = p - 0.5
    if abs(q) <= 0.425:
        r = 0.180625 - q * q
        return _horner(_AS241_CENTRAL[0], r) * q / _horner(_AS241_CENTRAL[1], r)
    r = math.sqrt(-math.log(p if q < 0.0 else 1.0 - p))
    x = _rational(_AS241_NEAR, r - 1.6) if r <= 5.0 else _rational(_AS241_FAR, r - 5.0)
    return -x if q < 0.0 else x


def _ndtri(p: np.ndarray) -> np.ndarray:
    """_ndtri_scalar of every entry of p, each branch on its own entries."""
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


def _open_unit(p: float) -> float:
    """p clamped into the open interval (0, 1)."""
    return min(max(p, math.nextafter(0.0, 1.0)), math.nextafter(1.0, 0.0))


def _check_probabilities(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    outside = ~((p > 0.0) & (p < 1.0))
    if np.any(outside):
        raise DomainError(f"quantile requires p in (0,1), got {p[outside].flat[0]}")
    return p


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


def integrate_over(
    f,
    densities,
    interval: Interval = REAL_LINE,
    cuts=(),
    rel_tol: float = quadrature.DEFAULT_REL_TOL,
    abs_tol: float = quadrature.DEFAULT_ABS_TOL,
    tail_tol: float = 1e-13,
) -> float:
    """Integrate f over the densities' common support within interval.

    A finite end of that range is kept exactly. An unbounded end starts at the
    widest of the densities' TAIL_MASS windows and continues with geometric
    tail windows, so slowly decaying integrands (fractional powers of light
    tails) are still captured. The range is split at every cut and at every
    window end inside it, so a density much narrower than another still gets
    panels on its own scale. An empty range integrates to 0.0; a half-line
    whose finite end lies past every window is its geometric tail from that end.
    """
    lo = max(interval.lo, *(d.support.lo for d in densities))
    hi = min(interval.hi, *(d.support.hi for d in densities))
    if not lo < hi:
        return 0.0
    windows = [quadrature.truncate_support(d, TAIL_MASS) for d in densities]
    lo_eff = lo if math.isfinite(lo) else min(w.lo for w in windows)
    hi_eff = hi if math.isfinite(hi) else max(w.hi for w in windows)
    if not lo_eff < hi_eff:
        if math.isfinite(lo):
            return quadrature._tail_sum(f, lo, +1, tail_tol)
        return quadrature._tail_sum(f, hi, -1, tail_tol)
    splits = {*cuts, *(w.lo for w in windows), *(w.hi for w in windows)}
    edges = [lo_eff, *sorted(x for x in splits if lo_eff < x < hi_eff), hi_eff]
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        total += quadrature.integrate_with_tails(
            f,
            Interval(a, b),
            extend_left=a == lo_eff and not math.isfinite(lo),
            extend_right=b == hi_eff and not math.isfinite(hi),
            rel_tol=rel_tol,
            abs_tol=abs_tol,
            tail_tol=tail_tol,
        )
    return total


class Density:
    """Common surface for all density families.

    Subclasses must provide `support`, `pdf`, and `cdf`; everything else has
    a generic implementation that closed-form families override. The public
    `quantile`, `isf`, `power_integral` and `partial_power_integral` check the
    domain (p in (0, 1), beta > 0) and then call the hooks `_quantile`,
    `_isf`, `_power_integral` and `_partial_power_integral`, which are what
    a family overrides; a hook may assume its argument is in the domain.
    """

    support: Interval

    # --- pointwise surface -------------------------------------------------

    def pdf(self, x: float) -> float:
        raise NotImplementedError

    def cdf(self, x: float) -> float:
        raise NotImplementedError

    def logpdf(self, x: float) -> float:
        """log pdf(x), -inf outside the support.

        Closed-form families override this so deep tails stay finite where
        the pdf itself underflows to zero.
        """
        g = self.pdf(x)
        return math.log(g) if g > 0.0 else -math.inf

    def sf(self, x: float) -> float:
        """Survival function 1 - cdf(x); override where the tail cancels."""
        return 1.0 - self.cdf(x)

    @property
    def kinks(self) -> tuple[float, ...]:
        """The points inside the support where the pdf is not differentiable,
        in increasing order; a quadrature panel should not straddle one."""
        return ()

    def quantile(self, p: float) -> float:
        """Generalized inverse inf{x : cdf(x) >= p} for p in (0, 1); where cdf
        is flat at p, the generic fallback may return any point of that stretch."""
        if not 0.0 < p < 1.0:
            raise DomainError(f"quantile requires p in (0,1), got {p}")
        return self._quantile(p)

    def isf(self, p: float) -> float:
        """Inverse survival function: the x with sf(x) = p.

        Equivalent to quantile(1 - p), but keeps full relative precision deep
        in the right tail: the closed-form families invert sf in closed form,
        and the generic fallback solves on sf.
        """
        if not 0.0 < p < 1.0:
            raise DomainError(f"isf requires p in (0,1), got {p}")
        return self._isf(p)

    def _quantile(self, p: float) -> float:
        return float(self.quantile_array(p))

    def _isf(self, p: float) -> float:
        # on sf itself: 1 - p rounds away a right tail below 1e-16
        lo, hi = self.support.lo, self.support.hi
        return float(decreasing_roots(lambda x, idx: self.sf_array(x) - p, [lo], [hi])[0])

    # --- array surface -----------------------------------------------------
    #
    # Elementwise versions of pdf/cdf/sf/quantile. The defaults loop the
    # scalar method, so every family works; closed-form families override
    # them with numpy expressions that repeat the scalar arithmetic.

    def pdf_array(self, x) -> np.ndarray:
        return _elementwise(self.pdf, x)

    def cdf_array(self, x) -> np.ndarray:
        return _elementwise(self.cdf, x)

    def sf_array(self, x) -> np.ndarray:
        return _elementwise(self.sf, x)

    def quantile_array(self, p) -> np.ndarray:
        """Every quantile in one decreasing_roots call on p - cdf_array."""
        p = _check_probabilities(p)
        flat, support = p.ravel(), self.support
        roots = decreasing_roots(lambda x, idx: flat[idx] - self.cdf_array(x),
                                 np.full(flat.size, support.lo), np.full(flat.size, support.hi))
        return roots.reshape(p.shape)

    def interval_mass_array(self, lo, hi) -> np.ndarray:
        """interval_mass of every (lo[i], hi[i]], with the same cdf/sf branches."""
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

    def interval_mass(self, interval: Interval) -> float:
        """Probability of a half-open interval via cdf/sf differences."""
        c_lo = self.cdf(interval.lo) if math.isfinite(interval.lo) else 0.0
        if c_lo <= 0.5:
            c_hi = self.cdf(interval.hi) if math.isfinite(interval.hi) else 1.0
            return max(0.0, c_hi - c_lo)
        # deep in the right tail the survival form keeps relative precision
        s_lo = self.sf(interval.lo) if math.isfinite(interval.lo) else 1.0
        s_hi = self.sf(interval.hi) if math.isfinite(interval.hi) else 0.0
        return max(0.0, s_lo - s_hi)

    # --- analytic functionals ----------------------------------------------

    def power_integral(self, beta: float) -> float:
        """Integral of pdf**beta over the support."""
        if beta <= 0.0:
            raise DomainError(f"power_integral requires beta > 0, got {beta}")
        return self._power_integral(beta)

    def partial_power_integral(self, beta: float, interval: Interval) -> float:
        """Integral of pdf**beta over an interval."""
        if beta <= 0.0:
            raise DomainError(f"partial_power_integral requires beta > 0, got {beta}")
        return self._partial_power_integral(beta, interval)

    def _power_integral(self, beta: float) -> float:
        return self._power_integral_quad(beta)

    def _partial_power_integral(self, beta: float, interval: Interval) -> float:
        # with a closed-form tilt: the full power integral times the tilted
        # measure of the interval
        closed = self._tilt_closed(beta)
        if closed is not None:
            return self._power_integral(beta) * closed.interval_mass(interval)
        return self._power_integral_quad(beta, interval)

    def _power_integral_quad(self, beta: float, interval: Interval = REAL_LINE) -> float:
        def f(x: float) -> float:
            g = self.pdf(x)
            return g**beta if g > 0.0 else 0.0

        return integrate_over(f, (self,), interval)

    def absolute_moment(self, r: float) -> float:
        """E|X|^r by quadrature, splitting at the |x| kink."""
        if r < 1.0:
            raise DomainError(f"absolute_moment requires r >= 1, got {r}")
        return integrate_over(lambda x: abs(x) ** r * self.pdf(x), (self,), cuts=(0.0,))

    # --- derived densities ---------------------------------------------------

    def restrict(self, interval: Interval) -> "Density":
        """Conditional density given the interval."""
        return RestrictedDensity(self, interval)

    def tilt(self, beta: float) -> "Density":
        """Normalized pdf**beta as a density."""
        if beta <= 0.0:
            raise DomainError(f"tilt requires a positive exponent, got {beta}")
        closed = self._tilt_closed(beta)
        if closed is not None:
            return closed
        return TiltedDensity(self, beta)

    def _tilt_closed(self, beta: float) -> "Density | None":
        return None

    def mode(self) -> float:
        """A representative maximizer of the pdf (diagnostic use)."""
        return self.quantile(0.5)

    # --- housekeeping ---------------------------------------------------------

    def _check_normalization(self) -> None:
        total = integrate_over(self.pdf, (self,))
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise DomainError(
                f"{type(self).__name__} pdf integrates to {total!r}, expected 1 "
                f"within {NORMALIZATION_TOL}"
            )


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

    def pdf(self, x: float) -> float:
        return 1.0 / (self.b - self.a) if self.a < x <= self.b else 0.0

    def logpdf(self, x: float) -> float:
        if not self.a < x <= self.b:
            return -math.inf
        return -math.log(self.b - self.a)

    def cdf(self, x: float) -> float:
        if x <= self.a:
            return 0.0
        if x >= self.b:
            return 1.0
        return (x - self.a) / (self.b - self.a)

    def _quantile(self, p: float) -> float:
        return self.a + p * (self.b - self.a)

    def pdf_array(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.where((self.a < x) & (x <= self.b), 1.0 / (self.b - self.a), 0.0)

    def cdf_array(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.clip((x - self.a) / (self.b - self.a), 0.0, 1.0)

    def sf_array(self, x) -> np.ndarray:
        return 1.0 - self.cdf_array(x)

    def quantile_array(self, p) -> np.ndarray:
        return self.a + _check_probabilities(p) * (self.b - self.a)

    def _isf(self, p: float) -> float:
        return self.b - p * (self.b - self.a)

    def _power_integral(self, beta: float) -> float:
        return (self.b - self.a) ** (1.0 - beta)

    def _tilt_closed(self, beta: float) -> Density:
        return self

    def mode(self) -> float:
        return 0.5 * (self.a + self.b)


@dataclass(frozen=True)
class Gaussian(Density):
    mean: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.mean) and self.sigma > 0.0):
            raise DomainError(f"gaussian requires sigma > 0, got {self.sigma}")

    @property
    def support(self) -> Interval:
        return REAL_LINE

    def pdf(self, x: float) -> float:
        z = (x - self.mean) / self.sigma
        return math.exp(-0.5 * z * z) / (self.sigma * _SQRT_2PI)

    def logpdf(self, x: float) -> float:
        z = (x - self.mean) / self.sigma
        return -0.5 * z * z - math.log(self.sigma * _SQRT_2PI)

    def cdf(self, x: float) -> float:
        return 0.5 * math.erfc(-(x - self.mean) / (self.sigma * _SQRT_2))

    def sf(self, x: float) -> float:
        return 0.5 * math.erfc((x - self.mean) / (self.sigma * _SQRT_2))

    def _quantile(self, p: float) -> float:
        return self.mean + self.sigma * _ndtri_scalar(p)

    def pdf_array(self, x) -> np.ndarray:
        z = (np.asarray(x, dtype=float) - self.mean) / self.sigma
        return np.exp(-0.5 * z * z) / (self.sigma * _SQRT_2PI)

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

    def _isf(self, p: float) -> float:
        return self.mean - self.sigma * _ndtri_scalar(p)

    def _power_integral(self, beta: float) -> float:
        return (2.0 * math.pi * self.sigma**2) ** (0.5 * (1.0 - beta)) / math.sqrt(beta)

    def _tilt_closed(self, beta: float) -> Density:
        return Gaussian(self.mean, self.sigma / math.sqrt(beta))

    def mode(self) -> float:
        return self.mean


@dataclass(frozen=True)
class Laplacian(Density):
    mean: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.mean) and self.scale > 0.0):
            raise DomainError(f"laplacian requires scale > 0, got {self.scale}")

    @property
    def support(self) -> Interval:
        return REAL_LINE

    def pdf(self, x: float) -> float:
        return math.exp(-abs(x - self.mean) / self.scale) / (2.0 * self.scale)

    @property
    def kinks(self) -> tuple[float, ...]:
        return (self.mean,)

    def logpdf(self, x: float) -> float:
        return -abs(x - self.mean) / self.scale - math.log(2.0 * self.scale)

    def cdf(self, x: float) -> float:
        z = (x - self.mean) / self.scale
        if z < 0.0:
            return 0.5 * math.exp(z)
        return 1.0 - 0.5 * math.exp(-z)

    def sf(self, x: float) -> float:
        z = (x - self.mean) / self.scale
        if z < 0.0:
            return 1.0 - 0.5 * math.exp(z)
        return 0.5 * math.exp(-z)

    def _quantile(self, p: float) -> float:
        if p < 0.5:
            return self.mean + self.scale * math.log(2.0 * p)
        return self.mean - self.scale * math.log(2.0 * (1.0 - p))

    def pdf_array(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.exp(-np.abs(x - self.mean) / self.scale) / (2.0 * self.scale)

    def cdf_array(self, x) -> np.ndarray:
        z = (np.asarray(x, dtype=float) - self.mean) / self.scale
        tail = 0.5 * np.exp(-np.abs(z))
        return np.where(z < 0.0, tail, 1.0 - tail)

    def sf_array(self, x) -> np.ndarray:
        z = (np.asarray(x, dtype=float) - self.mean) / self.scale
        tail = 0.5 * np.exp(-np.abs(z))
        return np.where(z < 0.0, 1.0 - tail, tail)

    def quantile_array(self, p) -> np.ndarray:
        p = _check_probabilities(p)
        below = p < 0.5
        offset = self.scale * np.log(2.0 * np.where(below, p, 1.0 - p))
        return np.where(below, self.mean + offset, self.mean - offset)

    def _isf(self, p: float) -> float:
        if p < 0.5:
            return self.mean - self.scale * math.log(2.0 * p)
        return self.mean + self.scale * math.log(2.0 * (1.0 - p))

    def _power_integral(self, beta: float) -> float:
        return (2.0 * self.scale) ** (1.0 - beta) / beta

    def _tilt_closed(self, beta: float) -> Density:
        return Laplacian(self.mean, self.scale / beta)

    def mode(self) -> float:
        return self.mean


@dataclass(frozen=True)
class Exponential(Density):
    rate: float = 1.0
    shift: float = 0.0

    def __post_init__(self):
        if not (self.rate > 0.0 and math.isfinite(self.shift)):
            raise DomainError(f"exponential requires rate > 0, got {self.rate}")

    @property
    def support(self) -> Interval:
        return Interval(self.shift, math.inf)

    def pdf(self, x: float) -> float:
        if x <= self.shift:
            return 0.0
        return self.rate * math.exp(-self.rate * (x - self.shift))

    def logpdf(self, x: float) -> float:
        if x <= self.shift:
            return -math.inf
        return math.log(self.rate) - self.rate * (x - self.shift)

    def cdf(self, x: float) -> float:
        if x <= self.shift:
            return 0.0
        return -math.expm1(-self.rate * (x - self.shift))

    def sf(self, x: float) -> float:
        if x <= self.shift:
            return 1.0
        return math.exp(-self.rate * (x - self.shift))

    def _quantile(self, p: float) -> float:
        return self.shift - math.log1p(-p) / self.rate

    # the maximum keeps exp finite left of the support, where np.where discards it
    def pdf_array(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        t = -self.rate * (np.maximum(x, self.shift) - self.shift)
        return np.where(x > self.shift, self.rate * np.exp(t), 0.0)

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

    def _isf(self, p: float) -> float:
        return self.shift - math.log(p) / self.rate

    def _power_integral(self, beta: float) -> float:
        return self.rate ** (beta - 1.0) / beta

    def _tilt_closed(self, beta: float) -> Density:
        return Exponential(self.rate * beta, self.shift)

    def mode(self) -> float:
        return self.shift


class PiecewiseLinear(Density):
    """Piecewise-linear density from (x, y) knots, normalized at construction."""

    def __init__(self, knots):
        pts = [(float(x), float(y)) for x, y in knots]
        if len(pts) < 2:
            raise DomainError("piecewise linear density needs at least two knots")
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        if np.any(np.diff(xs) <= 0.0):
            raise DomainError("piecewise linear knots must have strictly increasing x")
        if np.any(ys < 0.0):
            raise DomainError("piecewise linear knots must have nonnegative y")
        area = float(np.sum(0.5 * (ys[1:] + ys[:-1]) * np.diff(xs)))
        if area <= 0.0:
            raise DomainError("piecewise linear density has zero total mass")
        self._xs = xs
        self._ys = ys / area
        seg = 0.5 * (self._ys[1:] + self._ys[:-1]) * np.diff(xs)
        self._cum = np.concatenate(([0.0], np.cumsum(seg)))
        self._cum[-1] = 1.0
        # the mass right of each knot, summed from the right end
        self._tail = np.concatenate((np.cumsum(seg[::-1])[::-1], [0.0]))
        self._tail[0] = 1.0
        self._support = Interval(float(xs[0]), float(xs[-1]))
        self._check_normalization()

    @property
    def support(self) -> Interval:
        return self._support

    @property
    def knots(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self._xs.tolist(), self._ys.tolist()))

    @property
    def kinks(self) -> tuple[float, ...]:
        return tuple(self._xs[1:-1].tolist())

    def pdf(self, x: float) -> float:
        if not self._support.contains(x):
            return 0.0
        return float(np.interp(x, self._xs, self._ys))

    def pdf_array(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        inside = (self._xs[0] < x) & (x <= self._xs[-1])
        return np.where(inside, np.interp(x, self._xs, self._ys), 0.0)

    def cdf(self, x: float) -> float:
        if x <= self._xs[0]:
            return 0.0
        if x >= self._xs[-1]:
            return 1.0
        i = int(np.searchsorted(self._xs, x, side="right")) - 1
        x0, y0 = self._xs[i], self._ys[i]
        slope = (self._ys[i + 1] - y0) / (self._xs[i + 1] - x0)
        dx = x - x0
        return float(self._cum[i] + y0 * dx + 0.5 * slope * dx * dx)

    def sf(self, x: float) -> float:
        if x <= self._xs[0]:
            return 1.0
        if x >= self._xs[-1]:
            return 0.0
        i = int(np.searchsorted(self._xs, x, side="left"))
        x1, y1 = self._xs[i], self._ys[i]
        slope = (y1 - self._ys[i - 1]) / (x1 - self._xs[i - 1])
        dx = x1 - x
        return float(self._tail[i] + y1 * dx - 0.5 * slope * dx * dx)

    def _power_integral(self, beta: float) -> float:
        return self._partial_power_integral(beta, self.support)

    def _partial_power_integral(self, beta: float, interval: Interval) -> float:
        total = 0.0
        for i in range(len(self._xs) - 1):
            lo = max(float(self._xs[i]), interval.lo)
            hi = min(float(self._xs[i + 1]), interval.hi)
            if lo < hi:
                total += self._segment_power(i, lo, hi, beta)
        return total

    def _segment_power(self, i: int, a: float, b: float, beta: float) -> float:
        x0, x1 = float(self._xs[i]), float(self._xs[i + 1])
        y0, y1 = float(self._ys[i]), float(self._ys[i + 1])
        slope = (y1 - y0) / (x1 - x0)
        # each end's pdf from the nearer knot: from the other it cancels near a zero
        ya, yb = (y0 + slope * (t - x0) if t - x0 <= x1 - t else y1 - slope * (x1 - t)
                  for t in (a, b))
        if slope == 0.0:
            return ya**beta * (b - a) if ya > 0.0 else 0.0
        return (yb ** (beta + 1.0) - ya ** (beta + 1.0)) / (slope * (beta + 1.0))

    def mode(self) -> float:
        return float(self._xs[int(np.argmax(self._ys))])

    def __repr__(self) -> str:
        return f"PiecewiseLinear({len(self._xs)} knots on {self.support})"


class RestrictedDensity(Density):
    """Conditional density of a base density given an interval."""

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
        self._check_normalization()

    @property
    def support(self) -> Interval:
        return self._window

    @property
    def kinks(self) -> tuple[float, ...]:
        return tuple(k for k in self.base.kinks if self._window.lo < k < self._window.hi)

    def pdf(self, x: float) -> float:
        if not self._window.contains(x):
            return 0.0
        return self.base.pdf(x) / self._mass

    def logpdf(self, x: float) -> float:
        if not self._window.contains(x):
            return -math.inf
        return self.base.logpdf(x) - math.log(self._mass)

    def cdf(self, x: float) -> float:
        if x <= self._window.lo:
            return 0.0
        if x >= self._window.hi:
            return 1.0
        return min(1.0, self.base.interval_mass(Interval(self._window.lo, x)) / self._mass)

    def sf(self, x: float) -> float:
        if x <= self._window.lo:
            return 1.0
        if x >= self._window.hi:
            return 0.0
        return min(1.0, self.base.interval_mass(Interval(x, self._window.hi)) / self._mass)

    def _quantile(self, p: float) -> float:
        c_lo = self.base.cdf(self._window.lo) if math.isfinite(self._window.lo) else 0.0
        if c_lo > 0.5:
            # deep in the right tail c_lo + p * mass rounds to 1; invert the survival form
            return self.base.isf(_open_unit(self.base.sf(self._window.lo) - p * self._mass))
        return self.base.quantile(_open_unit(c_lo + p * self._mass))

    def _isf(self, p: float) -> float:
        s_hi = self.base.sf(self._window.hi) if math.isfinite(self._window.hi) else 0.0
        if s_hi > 0.5:
            # deep in the left tail s_hi + p * mass rounds to 1; invert the cdf form
            return self.base.quantile(_open_unit(self.base.cdf(self._window.hi) - p * self._mass))
        return self.base.isf(_open_unit(s_hi + p * self._mass))

    def quantile_array(self, p) -> np.ndarray:  # the closed form through the base
        return _elementwise(self.quantile, p)

    def _power_integral(self, beta: float) -> float:
        return self._mass ** (-beta) * self.base.partial_power_integral(beta, self._window)

    def _partial_power_integral(self, beta: float, interval: Interval) -> float:
        window = self._window.intersect(interval)
        if window is None:
            return 0.0
        return self._mass ** (-beta) * self.base.partial_power_integral(beta, window)

    def _tilt_closed(self, beta: float) -> Density:
        return RestrictedDensity(self.base.tilt(beta), self._window)

    def mode(self) -> float:
        m = self.base.mode()
        if self._window.contains(m):
            return m
        return self.quantile(0.5)

    def __repr__(self) -> str:
        return f"Restricted({self.base!r}, {self.interval})"


class TiltedDensity(Density):
    """Normalized pdf**exponent of a base density, evaluated numerically."""

    def __init__(self, base: Density, exponent: float):
        if exponent <= 0.0:
            raise DomainError(f"tilt exponent must be positive, got {exponent}")
        normalizer = base.power_integral(exponent)
        if not math.isfinite(normalizer) or normalizer <= 0.0:
            raise InfiniteIntegralError(
                f"tilted normalizer diverges (exponent {exponent})"
            )
        self.base = base
        self.exponent = exponent
        self._normalizer = normalizer
        self._check_normalization()

    @property
    def support(self) -> Interval:
        return self.base.support

    @property
    def kinks(self) -> tuple[float, ...]:
        return self.base.kinks

    def pdf(self, x: float) -> float:
        g = self.base.pdf(x)
        return g**self.exponent / self._normalizer if g > 0.0 else 0.0

    def logpdf(self, x: float) -> float:
        lp = self.base.logpdf(x)
        if lp == -math.inf:
            return -math.inf
        return self.exponent * lp - math.log(self._normalizer)

    def cdf(self, x: float) -> float:
        if x <= self.support.lo:
            return 0.0
        if x >= self.support.hi:
            return 1.0
        below = self.base.partial_power_integral(self.exponent, Interval(-math.inf, x))
        return min(1.0, below / self._normalizer)

    def sf(self, x: float) -> float:
        if x <= self.support.lo:
            return 1.0
        if x >= self.support.hi:
            return 0.0
        above = self.base.partial_power_integral(self.exponent, Interval(x, math.inf))
        return min(1.0, above / self._normalizer)

    def _power_integral(self, beta: float) -> float:
        return self._normalizer ** (-beta) * self.base.power_integral(self.exponent * beta)

    def _partial_power_integral(self, beta: float, interval: Interval) -> float:
        return self._normalizer ** (-beta) * self.base.partial_power_integral(
            self.exponent * beta, interval
        )

    def _tilt_closed(self, beta: float) -> Density:
        return self.base.tilt(self.exponent * beta)

    def mode(self) -> float:
        return self.base.mode()

    def __repr__(self) -> str:
        return f"Tilted({self.base!r}, beta={self.exponent})"


# --- weak unimodality -----------------------------------------------------


@dataclass(frozen=True)
class UnimodalityReport:
    passed: bool
    failing_level: float | None


def check_weak_unimodality(d: Density) -> UnimodalityReport:
    """Grid check that sampled level sets {pdf >= l} are single intervals.

    Diagnostic only: UNIMODALITY_LEVELS level sets are sampled on a log grid
    below the maximum pdf value seen on UNIMODALITY_GRID interior points of
    the support, truncated to its 1e-9 quantile window.
    """
    window = quadrature.truncate_support(d, 1e-9)
    xs = np.linspace(window.lo, window.hi, UNIMODALITY_GRID + 2)[1:-1]
    vals = d.pdf_array(xs)
    vmax = float(vals.max())
    if vmax <= 0.0:
        return UnimodalityReport(False, None)
    levels = np.geomspace(vmax * 1e-6, vmax * (1.0 - 1e-9), UNIMODALITY_LEVELS)
    for level in levels:
        idx = np.flatnonzero(vals >= level)
        if idx.size == 0:
            continue
        if idx[-1] - idx[0] + 1 != idx.size:
            return UnimodalityReport(False, float(level))
    return UnimodalityReport(True, None)


# --- JSON specs -------------------------------------------------------------


def density_from_spec(spec: dict) -> Density:
    """Build a density from its JSON object form.

    Examples: {"family": "gaussian", "mean": 0.0, "sigma": 1.0},
    {"family": "uniform", "a": 0.0, "b": 1.0},
    {"family": "restricted", "base": {...}, "interval": [0.0, 0.5]}.
    """
    if not isinstance(spec, dict):
        raise ConfigError(f"density spec must be an object, got {type(spec).__name__}")
    try:
        family = str(spec["family"]).lower()
    except KeyError:
        raise ConfigError("density spec is missing the 'family' field") from None
    try:
        if family == "uniform":
            return Uniform(float(spec["a"]), float(spec["b"]))
        if family in ("gaussian", "normal"):
            return Gaussian(float(spec.get("mean", 0.0)), float(spec["sigma"]))
        if family == "laplacian":
            return Laplacian(float(spec.get("mean", 0.0)), float(spec["scale"]))
        if family == "exponential":
            return Exponential(float(spec["rate"]), float(spec.get("shift", 0.0)))
        if family == "piecewise_linear":
            return PiecewiseLinear(spec["knots"])
        if family == "restricted":
            base = density_from_spec(spec["base"])
            return base.restrict(Interval.from_json(spec["interval"]))
        if family == "tilted":
            return density_from_spec(spec["base"]).tilt(float(spec["beta"]))
        if family == "point_density_of":
            alpha, r = float(spec["alpha"]), float(spec["r"])
            if not (0.0 <= alpha < 1.0 and r > 1.0):
                raise ConfigError(
                    f"point_density_of requires alpha in [0,1) and r > 1, "
                    f"got alpha={alpha}, r={r}"
                )
            from .compander import optimal_point_density  # compander imports this module

            return optimal_point_density(density_from_spec(spec["base"]), alpha, r)
    except KeyError as exc:
        raise ConfigError(
            f"density family '{family}' is missing required field {exc.args[0]!r}"
        ) from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid density spec for family '{family}': {exc}") from None
    raise ConfigError(f"unknown density family '{spec['family']}'")
