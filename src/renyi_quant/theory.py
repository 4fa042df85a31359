"""Closed-form high-rate predictors: rate parameters, quantization coefficient,
divergences, density limits, mismatch formulas, and the split-bound minimizer.

Conventions: alpha in [0, 1) is the entropy order, r > 1 the distortion power,
beta1 = (1 - alpha + alpha r) / (1 - alpha + r), beta2 = (1 - alpha + r) / (1 - alpha),
and the cell constant is 1 / (2^r (1 + r)). Everything here is a pure function
of immutable densities. A predictor integral of u^a v^b, where v is u's
closed-form tilt by gamma (same family, same location), is closed:
P_u(a + gamma b) / P_u(gamma)^b with P_u = u.power_integral. Every other pair
(mixed families, shifted locations, different uniform supports, piecewise
densities and their tilts, a + gamma b <= 0) and the KL integral run
through quadrature.integrate, once per integral, with array integrands in log
space.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .compander import optimal_point_density
from .density import Density
from .errors import DomainError, InfiniteIntegralError, RenyiQuantError
from .intervals import Interval
from . import quadrature

# orders this close to 1 route through the dedicated variable-rate formulas
ALPHA_VARIABLE_RATE_SWITCH = 1e-3
RATIO_CAP = 1e12
RATIO_GRID_SIZE = 10_000  # interior grid points of check_density_ratio_bound


def cell_constant(r: float) -> float:
    """The midpoint-cell constant 1 / (2^r (1 + r))."""
    if r <= 1.0:
        raise DomainError(f"r must exceed 1, got {r}")
    return 1.0 / (2.0**r * (1.0 + r))


@dataclass(frozen=True)
class RateParams:
    alpha: float
    r: float
    beta1: float
    beta2: float
    c_r: float


def rate_params(alpha: float, r: float) -> RateParams:
    """Validated (alpha, r, beta1, beta2, C(r)) tuple."""
    if not 0.0 <= alpha < 1.0:
        raise DomainError(f"alpha must lie in [0, 1), got {alpha}")
    if r <= 1.0:
        raise DomainError(f"r must exceed 1, got {r}")
    beta1 = (1.0 - alpha + alpha * r) / (1.0 - alpha + r)
    beta2 = (1.0 - alpha + r) / (1.0 - alpha)
    params = RateParams(alpha, r, beta1, beta2, cell_constant(r))
    # exponent identities the mismatch algebra relies on
    assert abs((beta1 - alpha) - (1.0 - alpha) / beta2) <= 1e-12
    assert abs((beta1 - 1.0) + r / beta2) <= 1e-12
    return params


# --- shared integration helpers ---------------------------------------------


def _joint_integral(fn: Callable[[np.ndarray], np.ndarray], densities: Sequence[Density]) -> float:
    """Integrate fn, an array function, over the densities' common support at
    the predictor tolerances: split at the ends of every density's mass
    window, tails past the widest. An empty common support integrates to 0."""
    lo, hi = max(d.support.lo for d in densities), min(d.support.hi for d in densities)
    if not lo < hi:
        return 0.0
    windows = [d.mass_window for d in densities]
    core = Interval(min(w.lo for w in windows), max(w.hi for w in windows))
    with np.errstate(over="ignore", invalid="ignore"):
        return quadrature.integrate(fn, Interval(lo, hi), [x for w in windows for x in (w.lo, w.hi)],
                                    rel_tol=1e-10, abs_tol=1e-14, core=core).value


def _support_within(inner: Interval, outer: Interval, rel_tol: float = 1e-12) -> bool:
    """inner lies in outer, up to rel_tol times the narrower finite width."""
    width = min(inner.hi - inner.lo, outer.hi - outer.lo)
    tol = rel_tol * width if math.isfinite(width) else 0.0
    return inner.lo >= outer.lo - tol and inner.hi <= outer.hi + tol


def _product(u: Density, a: float, v: Density, b: float) -> Callable[[np.ndarray], np.ndarray]:
    """x -> u(x)^a v(x)^b on arrays in log space, so deep-tail pdf underflow is safe.

    The product is 0 off u's support, and off v's support when b >= 0 (the
    0**0 := 0 convention); with b < 0 a point where v vanishes inside u's
    support makes the integral diverge, and so does an overflow.
    """

    def fn(x: np.ndarray) -> np.ndarray:
        lu, lv = u.logpdf_array(x), v.logpdf_array(x)
        inside, vanish = lu > -np.inf, lv == -np.inf
        if b < 0.0 and (inside & vanish).any():
            raise InfiniteIntegralError(
                f"{v!r} vanishes at {x[inside & vanish].flat[0]:.6g} inside the support of {u!r}"
            )
        out = np.exp(a * lu + b * lv, out=np.zeros(x.shape), where=inside & ~vanish)
        if np.isinf(out).any():
            raise InfiniteIntegralError(f"integrand overflows at x = {x[np.isinf(out)].flat[0]:.6g}")
        return out

    return fn


def _power_product(
    u: Density, a: float, v: Density, b: float, densities: Sequence[Density]
) -> float:
    """The integral of u^a v^b, over the densities' common support.

    Closed when v = u.tilt(gamma) and a + gamma b > 0: then u^a v^b is
    u^(a + gamma b) / P_u(gamma)^b. Otherwise, or when a power integral leaves
    the float range, `_product` by quadrature, once no zero of a pdf makes it
    diverge: at a kink or support end e where u and v vanish like |x - e| to
    the powers g_u and g_v (`Density.vanishing_order`), u^a v^b is of order
    |x - e|^(a g_u + b g_v), which diverges iff that power is at most -1.
    """
    gamma = u.tilt_exponent(v)
    if gamma is not None and a + gamma * b > 0.0:
        try:
            return u.power_integral(a + gamma * b) / u.power_integral(gamma) ** b
        except (OverflowError, ZeroDivisionError):
            pass
    for e in sorted({*u.kinks, *v.kinks, u.support.lo, u.support.hi, v.support.lo, v.support.hi}):
        # a NaN passes: a pdf 0 around e to the power 0, or a u that is 0 around e
        if a * u.vanishing_order(e) + b * v.vanishing_order(e) <= -1.0:
            raise InfiniteIntegralError(
                f"{u!r}^{a:g} {v!r}^{b:g} is of order |x - e|^-1 or below at e = {e:.6g}"
            )
    return _joint_integral(_product(u, a, v, b), densities)


# --- quantization coefficient and density limits -----------------------------


def quantization_coefficient(d: Density, alpha: float, r: float) -> float:
    """C(r) times the beta2 power of the beta1 power integral."""
    p = rate_params(alpha, r)
    return p.c_r * d.power_integral(p.beta1) ** p.beta2


def tilted_measure(d: Density, alpha: float, r: float) -> Density:
    """The entropy/distortion density: pdf**beta1 normalized."""
    p = rate_params(alpha, r)
    return d.tilt(p.beta1)


def entropy_density_limit(d: Density, interval: Interval, alpha: float, r: float) -> float:
    """Limit of an interval's relative Renyi-entropy contribution.

    Equals the tilted measure of the interval times mu(interval)**(-alpha).
    """
    p = rate_params(alpha, r)
    mass = d.interval_mass(interval)
    if not 0.0 < mass < 1.0:
        raise DomainError(
            f"entropy density limit needs interval probability in (0,1), got {mass}"
        )
    tilted_mass = d.partial_power_integral(p.beta1, interval) / d.power_integral(p.beta1)
    return tilted_mass * mass ** (-alpha)


def limit_distortion_measure(d: Density, interval: Interval, alpha: float, r: float) -> float:
    """The limit distortion measure of an interval.

    Totals the quantization coefficient over the real line since
    beta2 = 1 + r / (1 - alpha).
    """
    p = rate_params(alpha, r)
    return (
        p.c_r
        * d.partial_power_integral(p.beta1, interval)
        * d.power_integral(p.beta1) ** (r / (1.0 - alpha))
    )


def compander_performance(d: Density, h: Density, alpha: float, r: float) -> float:
    """High-rate normalized distortion of companders with point density h.

    Scaled by the cell constant so the optimal point density returns exactly
    the quantization coefficient of d; any other h gives a strictly larger
    value. Cross-checked against the equivalent Renyi-divergence form.
    """
    p = rate_params(alpha, r)
    if not _support_within(d.support, h.support):
        raise DomainError(
            f"point density support {h.support} does not cover the source support "
            f"{d.support}"
        )
    a_int = _power_product(d, alpha, h, 1.0 - alpha, (d, h))
    b_int = _power_product(d, 1.0, h, -r, (d,))
    value = p.c_r * a_int ** (r / (1.0 - alpha)) * b_int
    # same quantity through the divergence form, D_alpha(d || h) from a_int as
    # renyi_divergence forms it; a disagreement means the numerics (not the
    # algebra) broke down
    div = math.log(a_int) / (alpha - 1.0) if a_int > 0.0 else math.inf
    alt = p.c_r * math.exp(-r * div) * b_int
    if not math.isclose(value, alt, rel_tol=1e-8):
        raise RenyiQuantError(
            f"compander performance cross-validation failed: {value!r} vs {alt!r}"
        )
    return value


# --- Renyi divergence ---------------------------------------------------------


def renyi_divergence(u: Density, v: Density, alpha: float) -> float:
    """Renyi divergence of order alpha between densities, +inf if divergent.

    Orders within 1e-9 of 1 evaluate the Kullback-Leibler integral instead of
    the singular closed form.
    """
    if alpha <= 0.0:
        raise DomainError(f"divergence order must be positive, got {alpha}")
    if abs(alpha - 1.0) <= 1e-9:
        return _kl_divergence(u, v)
    if alpha > 1.0 and not _support_within(u.support, v.support):
        return math.inf
    densities = (u, v) if alpha < 1.0 else (u,)
    try:
        total = _power_product(u, alpha, v, 1.0 - alpha, densities)
    except InfiniteIntegralError:
        return math.inf
    if total <= 0.0:
        return math.inf
    return math.log(total) / (alpha - 1.0)


def _kl_divergence(u: Density, v: Density) -> float:
    if not _support_within(u.support, v.support):
        return math.inf

    def fn(x: np.ndarray) -> np.ndarray:
        lu, lv = u.logpdf_array(x), v.logpdf_array(x)
        inside = lu > -np.inf
        if (inside & (lv == -np.inf)).any():
            raise InfiniteIntegralError(f"second density vanishes at {x[inside & (lv == -np.inf)].flat[0]}")
        return np.where(inside, np.exp(lu) * (lu - lv), 0.0)

    try:
        return _joint_integral(fn, (u,))
    except InfiniteIntegralError:
        return math.inf


# --- mismatch -------------------------------------------------------------------


@dataclass(frozen=True)
class RatioBoundReport:
    bounded: bool
    max_ratio: float
    argmax: float
    grid_size: int


def check_density_ratio_bound(f: Density, g: Density) -> RatioBoundReport:
    """Grid check that f/g stays bounded on the support of f.

    Reports the maximum over RATIO_GRID_SIZE points of f's mass window
    (`Density.mass_window`), inflated by a 10% safety factor. Unbounded means g vanishes (or
    the ratio exceeds RATIO_CAP) somewhere f has mass.
    """
    window = f.mass_window
    xs = np.linspace(window.lo, window.hi, RATIO_GRID_SIZE + 2)[1:-1]
    fx = f.pdf_array(xs)
    gx = g.pdf_array(xs)
    # inf where g vanishes, and 0 where f does, so those points never become the maximum
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = np.where(fx > 0.0, fx / gx, 0.0)
    k = int(np.argmax(ratio))  # the first maximum
    worst = float(ratio[k])
    return RatioBoundReport(worst <= RATIO_CAP, 1.1 * worst, float(xs[k]), RATIO_GRID_SIZE)


def mismatch_entropy_shift(g: Density, f: Density, alpha: float, r: float) -> float:
    """Limit of exp((1-alpha)(H_nu - H_mu)) when g-optimal quantizers meet f."""
    p = rate_params(alpha, r)
    report = check_density_ratio_bound(f, g)
    if not report.bounded:
        warnings.warn(
            f"density ratio f/g appears unbounded near x={report.argmax:.6g}; "
            "the mismatch hypothesis fails and the limit formula may not apply",
            stacklevel=2,
        )
    num = _power_product(f, alpha, g, p.beta1 - alpha, (f,))
    return num / g.power_integral(p.beta1)


def mismatch_distortion_limit(g: Density, f: Density, alpha: float, r: float) -> float:
    """Limit of exp(r H_nu) D_nu for g-optimal quantizers applied to f: the
    compander performance on f of the optimal point density of g."""
    return compander_performance(f, optimal_point_density(g, alpha, r), alpha, r)


def mismatch_loss(g: Density, f: Density, alpha: float, r: float) -> float:
    """Distortion loss from quantizing f with a sequence designed for g.

    Orders within 1e-3 of 1 dispatch to the dedicated variable-rate formula
    exp(r KL(f||g)): the generic ratio degenerates as alpha -> 1 (its limit
    does not commute with the high-rate limit), so the endpoint is served by
    its own limit expression. alpha = 0 needs no dispatch; there the generic
    ratio coincides with the fixed-rate formula for equal supports.
    """
    if not 0.0 <= alpha < 1.0:
        raise DomainError(f"alpha must lie in [0, 1), got {alpha}")
    if alpha >= 1.0 - ALPHA_VARIABLE_RATE_SWITCH:
        return mismatch_loss_variable_rate(g, f, r)
    return mismatch_distortion_limit(g, f, alpha, r) / quantization_coefficient(f, alpha, r)


def mismatch_loss_fixed_rate(g: Density, f: Density, r: float) -> float:
    """Fixed-rate (alpha = 0) mismatch loss: exp(r D_{1+r}(f*||g*))."""
    if r <= 1.0:
        raise DomainError(f"r must exceed 1, got {r}")
    f_star = f.tilt(1.0 / (1.0 + r))
    g_star = g.tilt(1.0 / (1.0 + r))
    return math.exp(r * renyi_divergence(f_star, g_star, 1.0 + r))


def mismatch_loss_variable_rate(g: Density, f: Density, r: float) -> float:
    """Variable-rate (alpha = 1) mismatch loss: exp(r KL(f||g))."""
    if r <= 1.0:
        raise DomainError(f"r must exceed 1, got {r}")
    return math.exp(r * renyi_divergence(f, g, 1.0))


# --- split bound ------------------------------------------------------------------


@dataclass(frozen=True)
class SplitBoundResult:
    f_value: float
    z0: float
    f_min: float


def split_bound(a: float, b: float, gamma: float, z: float) -> SplitBoundResult:
    """Evaluate F(z) = a/z^gamma + b/(1-z)^gamma and its strict minimizer.

    The minimizer z0 = a^(1/(1+gamma)) / (a^(1/(1+gamma)) + b^(1/(1+gamma)))
    achieves F_min = (a^(1/(1+gamma)) + b^(1/(1+gamma)))^(1+gamma); when one
    term vanishes the infimum is attained in the boundary limit.
    """
    if a < 0.0 or b < 0.0:
        raise DomainError("split_bound requires nonnegative numerators")
    if gamma <= 0.0:
        raise DomainError(f"gamma must be positive, got {gamma}")
    if not 0.0 < z < 1.0:
        raise DomainError(f"z must lie in (0,1), got {z}")
    if a == 0.0 and b == 0.0:
        raise DomainError("split_bound is degenerate for a = b = 0")
    f_value = a / z**gamma + b / (1.0 - z) ** gamma
    ia = a ** (1.0 / (1.0 + gamma))
    ib = b ** (1.0 / (1.0 + gamma))
    z0 = ia / (ia + ib)
    f_min = (ia + ib) ** (1.0 + gamma)
    return SplitBoundResult(f_value, z0, f_min)
