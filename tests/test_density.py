import math
import warnings
from statistics import NormalDist

import numpy as np
import pytest

from renyi_quant import (
    Exponential,
    Gaussian,
    Interval,
    Laplacian,
    PiecewiseLinear,
    Uniform,
    check_weak_unimodality,
    density_from_spec,
)
from renyi_quant import density, quadrature
from renyi_quant.density import (
    QUANTILE_WIDTH,
    TAIL_MASS,
    UNIMODALITY_GRID,
    UNIMODALITY_LEVELS,
    Density,
    TiltedDensity,
    decreasing_roots,
)
from renyi_quant.errors import (
    ConfigError,
    DomainError,
    EmptyConditioningError,
    HypothesisError,
    RenyiQuantError,
)
from renyi_quant.intervals import REAL_LINE
from renyi_quant.quadrature import integrate, truncate_support

ALL_FAMILIES = [
    Uniform(0.0, 1.0),
    Uniform(-1.0, 3.0),
    Gaussian(0.0, 1.0),
    Gaussian(1.5, 0.7),
    Laplacian(0.0, 1.0),
    Laplacian(-2.0, 0.5),
    Exponential(1.0, 0.0),
    Exponential(2.5, 1.0),
    PiecewiseLinear([(0.0, 0.2), (1.0, 1.0), (3.0, 0.0)]),
]


# --- pdf / cdf / quantile ----------------------------------------------------


def test_pdf_examples():
    assert Uniform(0.0, 1.0).pdf(0.5) == 1.0
    assert Gaussian(0.0, 1.0).pdf(0.0) == pytest.approx(0.3989422804014327, abs=1e-12)
    assert Uniform(0.0, 1.0).pdf(2.0) == 0.0


def test_cdf_examples():
    assert Uniform(0.0, 1.0).cdf(0.25) == pytest.approx(0.25, abs=1e-15)
    assert Laplacian(0.0, 1.0).cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert Gaussian(0.0, 1.0).cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-10)


def test_quantile_examples():
    assert Uniform(0.0, 1.0).quantile(0.75) == pytest.approx(0.75, abs=1e-15)
    assert Laplacian(0.0, 1.0).quantile(0.5) == pytest.approx(0.0, abs=1e-15)
    assert Gaussian(0.0, 1.0).quantile(0.8413447460685429) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize(
    "d",
    ALL_FAMILIES + [
        Gaussian(0.0, 1.0).restrict(Interval(0.0, 1.0)),
        PiecewiseLinear([(0.0, 0.2), (1.0, 1.0), (3.0, 0.0)]).tilt(0.6),
    ],
    ids=lambda d: repr(d),
)
@pytest.mark.parametrize(
    "method, bad_args",
    [
        ("quantile", [(p,) for p in (0.0, 1.0, -0.3, 1.7)]),
        ("isf", [(p,) for p in (0.0, 1.0, -0.3, 1.7)]),
        ("power_integral", [(beta,) for beta in (0.0, -1.0)]),
        ("tilt", [(beta,) for beta in (0.0, -1.0)]),
    ],
)
def test_quantile_domain_error(d, method, bad_args):
    for args in bad_args:
        with pytest.raises(DomainError):
            getattr(d, method)(*args)


@pytest.mark.parametrize("d", ALL_FAMILIES, ids=lambda d: repr(d))
def test_quantile_inverts_cdf(d):
    for p in (0.013, 0.2, 0.5, 0.77, 0.998):
        x = d.quantile(p)
        assert d.quantile(d.cdf(x)) == pytest.approx(x, abs=1e-9)


def test_decreasing_roots_stops_where_fn_is_exactly_zero():
    calls = []

    def fn(x, idx):
        calls.append(idx.tolist())
        # entry 0 is linear, so its first false-position step lands on the root;
        # entry 1 is 0 on [1, 1.5], where its first step lands, and the bracket's
        # midpoint 2 is not
        return np.where(idx == 0, 0.75 - x, np.maximum(1.0 - x, 0.0) - np.maximum(x - 1.5, 0.0))

    roots = decreasing_roots(fn, np.array([0.0, 0.0]), np.array([1.0, 4.0]))
    assert roots[0] == 0.75
    assert 1.0 <= roots[1] <= 1.5 and roots[1] != 2.0
    # two end calls and one step; each call gets only the entries still open
    assert calls == [[0, 1], [0, 1], [0, 1]]


def test_decreasing_roots_brackets_two_unbounded_ends():
    targets = np.array([1e9, -17.0, 0.0])
    roots = decreasing_roots(
        lambda x, idx: targets[idx] - x**3, np.full(3, -math.inf), np.full(3, math.inf)
    )
    want = np.cbrt(targets)
    assert np.all(np.abs(roots - want) <= QUANTILE_WIDTH), roots - want


# --- array surface ------------------------------------------------------------

ARRAY_FAMILIES = ALL_FAMILIES + [
    PiecewiseLinear([(0.0, 0.2), (1.0, 1.0), (3.0, 0.0)]).tilt(0.6),
    Gaussian(0.0, 1.0).restrict(Interval(-1.0, 2.0)),
    # windows deep in the right and the left tail: the restriction's other branches
    Gaussian(0.0, 1.0).restrict(Interval(9.0, math.inf)),
    Laplacian(0.0, 1.0).restrict(Interval(-math.inf, -30.0)),
]
# |z| up to 38 standard deviations reaches the subnormal Gaussian tail
DEEP_Z = np.linspace(-38.0, 38.0, 761)
DEEP_P = np.concatenate((np.geomspace(1e-300, 0.5, 301), 1.0 - np.geomspace(1e-16, 0.5, 60)))


def _probe_points(d):
    support = d.support
    if support.bounded:
        inner = support.lo + (support.hi - support.lo) * np.linspace(0.0, 1.0, 401)
        return np.concatenate((inner, [support.lo - 1.0, support.hi + 1.0]))
    sigma = (d.quantile(0.75) - d.quantile(0.25)) / 1.3489795003921634  # Gaussian IQR / sigma
    return d.quantile(0.5) + sigma * DEEP_Z


def _same_bits(got, want):
    return np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("d", ARRAY_FAMILIES, ids=lambda d: repr(d))
def test_scalar_surface_is_the_array_form_at_one_entry(d):
    xs = _probe_points(d)
    for method in ("pdf", "logpdf", "cdf", "sf"):
        want = getattr(d, method + "_array")(xs)
        assert _same_bits(np.array([getattr(d, method)(float(x)) for x in xs]), want), method
    for method in ("quantile", "isf"):
        want = getattr(d, method + "_array")(DEEP_P)
        assert _same_bits(np.array([getattr(d, method)(float(p)) for p in DEEP_P]), want), method
    ends = np.concatenate(([-math.inf], np.unique(xs), [math.inf]))
    want = d.interval_mass_array(ends[:-1], ends[1:])
    got = np.array([d.interval_mass(Interval(a, b))
                    for a, b in zip(ends[:-1].tolist(), ends[1:].tolist())])
    assert _same_bits(got, want)
    assert math.fsum(want) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("d", ALL_FAMILIES, ids=lambda d: repr(d))
def test_array_surface_keeps_shape_and_checks_domain(d):
    ps = np.array([[0.1, 0.2], [0.7, 0.9]])
    grid = d.quantile_array(ps)
    assert grid.shape == (2, 2)
    assert d.cdf_array(grid).shape == (2, 2)
    assert d.isf_array(ps).shape == (2, 2)
    for p in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(DomainError, match="^quantile requires"):
            d.quantile_array(np.array([0.5, p]))
        with pytest.raises(DomainError, match="^isf requires"):
            d.isf_array(np.array([0.5, p]))


def test_piecewise_pdf_array_is_the_scalar_pdf():
    # nonzero at both ends, so the half-open support (lo, hi] shows
    d = PiecewiseLinear([(0.0, 0.2), (1.0, 1.0), (3.0, 0.0), (3.5, 0.4)])
    knots = np.array([x for x, _ in d.knots])
    xs = np.concatenate((
        np.linspace(-0.5, 4.0, 451),
        knots,
        np.nextafter(knots, -np.inf),
        np.nextafter(knots, np.inf),
        [-np.inf, np.inf],
    ))
    got = d.pdf_array(xs)
    want = np.array([d.pdf(float(x)) for x in xs])
    assert np.array_equal(got, want)
    assert d.pdf_array(np.array([0.0, 3.5])).tolist() == [0.0, d.pdf(3.5)] and d.pdf(3.5) > 0.0
    assert d.pdf_array(xs[:450].reshape(-1, 2)).shape == (225, 2)


# zero knots at both ends and a slope-0 segment between them
_POWER_SOURCE = PiecewiseLinear([(0.0, 0.0), (1.0, 2.0), (2.0, 2.0), (3.0, 0.5), (4.0, 0.0)])


def _mp_piecewise_power(mpmath, d, p):
    """For l the knots of d, at the working precision: the integrals of l**p
    left and right of x, and the x left of which that integral is m."""
    xs = [mpmath.mpf(x) for x, _ in d.knots]
    ys = [mpmath.mpf(y) for _, y in d.knots]
    segments = list(zip(xs, xs[1:], ys, ys[1:]))

    def piece(y0, s, t):  # the integral of (y0 + s u)**p over u in (0, t)
        return y0**p * t if s == 0 else ((y0 + s * t) ** (p + 1) - y0 ** (p + 1)) / (s * (p + 1))

    def below(x):
        x = mpmath.mpf(x)
        return mpmath.fsum(piece(y0, (y1 - y0) / (x1 - x0), min(x, x1) - x0)
                           for x0, x1, y0, y1 in segments if x > x0)

    def above(x):
        x = mpmath.mpf(x)
        return mpmath.fsum(piece(y1, (y0 - y1) / (x1 - x0), x1 - max(x, x0))
                           for x0, x1, y0, y1 in segments if x < x1)

    def inverse(m):
        for x0, x1, y0, y1 in segments:
            s = (y1 - y0) / (x1 - x0)
            mass = piece(y0, s, x1 - x0)
            if m <= mass:
                if s == 0:
                    return x0 + m / y0**p
                return x0 + ((y0 ** (p + 1) + s * (p + 1) * m) ** (1 / (p + 1)) - y0) / s
            m -= mass
        raise AssertionError("mass past the support")

    return below, above, inverse


def _rel(got, want):
    want = float(want)
    return abs(got - want) / abs(want) if want else abs(got)


@pytest.mark.parametrize("p", [0.25, 0.6, 1.0, 3.0])
def test_piecewise_power_matches_mpmath_oracle(p):
    mpmath = pytest.importorskip("mpmath")
    d = _POWER_SOURCE if p == 1.0 else _POWER_SOURCE.tilt(p)
    xs = np.array([-1.0, 0.0, 1e-300, 1e-9, 0.5, 1.0, 1.5, 2.0, math.nextafter(2.0, 3.0), 2.5,
                   3.0 - 1e-12, 3.7, 4.0 - 1e-6, 4.0 - 1e-9, 4.0, 5.0])
    # the left tail by quantile, the right one by isf; each stays within a few ulp
    ps = np.array([1e-300, 1e-20, 1e-6, 0.1, 0.3, 0.5, 0.7, 0.9])
    tails = (1e-20, 1e-6, 0.3, 0.8)
    with mpmath.workdps(40):
        below, above, inverse = _mp_piecewise_power(mpmath, _POWER_SOURCE, mpmath.mpf(p))
        total = below(4.0)
        for x in xs:
            assert _rel(d.cdf(x), below(x) / total) <= 1e-15, x
            assert _rel(d.sf(x), above(x) / total) <= 1e-15, x
        for q in ps:
            want = float(inverse(mpmath.mpf(q) * total))
            assert abs(d.quantile(q) - want) <= 8 * math.ulp(want), q
        for q in tails:
            want = float(inverse(total - mpmath.mpf(q) * total))
            assert abs(d.isf(q) - want) <= 8 * math.ulp(want), q
        for beta in (0.5, 2.0):
            below_b, _, _ = _mp_piecewise_power(mpmath, _POWER_SOURCE, mpmath.mpf(p) * beta)
            scale = total**beta
            assert _rel(d.power_integral(beta), below_b(4.0) / scale) <= 2e-15
            for iv in (Interval(-math.inf, 1.5), Interval(0.5, 3.2), Interval(1.2, 1.8),
                       Interval(3.9, math.inf), Interval(-1.0, 1e-3), Interval(5.0, 6.0)):
                want = (below_b(min(iv.hi, 4.0)) - below_b(max(iv.lo, 0.0))) / scale
                got = d.power_integral(beta) * d.tilt(beta).interval_mass(iv)
                assert _rel(got, want) <= 2e-15, iv
    # the scalar masses and quantiles are the array forms on one entry, bit for bit
    for method in ("cdf", "sf"):
        want = np.array([getattr(d, method)(float(x)) for x in xs])
        assert np.array_equal(getattr(d, method + "_array")(xs), want), method
    assert np.array_equal(d.quantile_array(ps), [d.quantile(float(q)) for q in ps])
    np.testing.assert_array_max_ulp(d.pdf_array(xs), [d.pdf(float(x)) for x in xs], maxulp=1)


def test_piecewise_and_tilted_right_tails_keep_relative_precision():
    d = PiecewiseLinear([(0.0, 0.0), (1.0, 2.0), (3.0, 0.5), (4.0, 0.0)])
    # normalized by the area 3.75, the last segment falls to 0 with slope -0.5/3.75
    slope = 0.5 / 3.75
    x = 4.0 - 1e-6
    dx = 4.0 - x  # exact, and not quite 1e-6
    assert d.sf(x) == pytest.approx(0.5 * slope * dx * dx, rel=1e-12, abs=0.0)
    assert abs(d.isf(1e-20) - (4.0 - math.sqrt(1.5e-19))) <= QUANTILE_WIDTH
    # the tilted pdf near 4 is (slope (4 - x))^beta / normalizer
    beta, x = 0.6, 4.0 - 1e-3
    dx = 4.0 - x
    want = slope**beta * dx ** (beta + 1.0) / ((beta + 1.0) * d.power_integral(beta))
    assert d.tilt(beta).sf(x) == pytest.approx(want, rel=1e-12, abs=0.0)
    # next to the zero right end the segment's pdf comes from its right knot:
    # from the left one it cancels, 6.7e-11 off here
    x = 4.0 - 1e-6
    dx = 4.0 - x
    want = slope**beta * dx ** (beta + 1.0) / ((beta + 1.0) * d.power_integral(beta))
    assert d.tilt(beta).sf(x) == pytest.approx(want, rel=1e-13, abs=0.0)


def test_kinks_are_the_pdf_corners_inside_the_support():
    d = PiecewiseLinear([(0.0, 0.0), (1.0, 2.0), (3.0, 0.5), (4.0, 0.0)])
    assert d.kinks == (1.0, 3.0)
    assert d.tilt(0.6).kinks == (1.0, 3.0)
    assert d.restrict(Interval(0.5, 3.0)).kinks == (1.0,)
    assert Laplacian(-0.5, 0.8).kinks == (-0.5,)
    assert Laplacian(-0.5, 0.8).restrict(Interval(-0.5, 2.0)).kinks == ()
    assert Gaussian(0.0, 1.0).kinks == Uniform(0.0, 1.0).kinks == Exponential(1.0).kinks == ()


@pytest.mark.parametrize("d", [Gaussian(0.0, 1.0), Gaussian(1.5, 0.7), Gaussian(-3.0, 2e-3)],
                         ids=lambda d: repr(d))
def test_gaussian_quantile_matches_stdlib_as241(d):
    # statistics.NormalDist.inv_cdf is Wichura's AS241 as well; isf(p) is the
    # p quantile mirrored about the mean, which keeps p tiny on both sides
    want = np.array([NormalDist(d.mean, d.sigma).inv_cdf(float(p)) for p in DEEP_P])
    want_isf = np.array([-NormalDist(-d.mean, d.sigma).inv_cdf(float(p)) for p in DEEP_P])
    np.testing.assert_array_max_ulp(np.array([d.quantile(float(p)) for p in DEEP_P]), want, maxulp=4)
    np.testing.assert_array_max_ulp(d.quantile_array(DEEP_P), want, maxulp=4)
    np.testing.assert_array_max_ulp(np.array([d.isf(float(p)) for p in DEEP_P]), want_isf, maxulp=4)


def test_gaussian_quantile_matches_mpmath_oracle():
    mpmath = pytest.importorskip("mpmath")
    d = Gaussian(0.0, 1.0)
    with mpmath.workdps(50):
        oracle = []
        for p in DEEP_P:
            target = mpmath.mpf(float(p))
            z = mpmath.mpf(d.quantile(float(p)))
            for _ in range(4):  # Newton on ncdf(z) = p from a start a few ulp off
                z -= (mpmath.ncdf(z) - target) / mpmath.npdf(z)
            oracle.append(float(z))
    oracle = np.array(oracle)
    np.testing.assert_array_max_ulp(np.array([d.quantile(float(p)) for p in DEEP_P]), oracle, maxulp=8)
    np.testing.assert_array_max_ulp(d.quantile_array(DEEP_P), oracle, maxulp=8)
    np.testing.assert_array_max_ulp(np.array([d.isf(float(p)) for p in DEEP_P]), -oracle, maxulp=8)


@pytest.mark.parametrize("d", ALL_FAMILIES, ids=lambda d: repr(d))
def test_cdf_monotone_and_normalized(d):
    window = truncate_support(d, 1e-9)
    xs = np.linspace(window.lo, window.hi, 200)
    vals = [d.cdf(float(x)) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert d.cdf(-math.inf) == 0.0
    assert d.cdf(math.inf) == 1.0


# --- power integrals ----------------------------------------------------------


def test_power_integral_examples():
    assert Uniform(0.0, 1.0).power_integral(0.6) == pytest.approx(1.0, abs=1e-12)
    assert Gaussian(0.0, 1.0).power_integral(0.6) == pytest.approx(
        1.8644912453132446, abs=1e-4
    )
    assert Uniform(0.0, 2.0).power_integral(0.5) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_laplacian_power_integral_closed_form():
    # (2b)^(1-beta)/beta, checked against quadrature at construction scale
    assert Laplacian(0.0, 1.0).power_integral(0.6) == pytest.approx(
        2.1991798512881571, rel=1e-12
    )


@pytest.mark.parametrize("d", ALL_FAMILIES, ids=lambda d: repr(d))
def test_power_integral_at_one_is_unity(d):
    assert d.power_integral(1.0) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("d", ALL_FAMILIES, ids=lambda d: repr(d))
def test_pdf_normalization_by_quadrature(d):
    window = truncate_support(d, 1e-12)
    total = integrate(d.pdf_array, window).value
    assert total == pytest.approx(1.0, abs=1e-8)


# each unit source, and its copy scaled by s built by the constructor
SCALED_BY = {
    Uniform(0.0, 1.0): lambda s: Uniform(0.0, s),
    Gaussian(0.0, 1.0): lambda s: Gaussian(0.0, s),
    Laplacian(0.0, 1.0): lambda s: Laplacian(0.0, s),
    Exponential(1.0, 0.0): lambda s: Exponential(1.0 / s),
}


@pytest.mark.parametrize("d", list(SCALED_BY), ids=lambda d: repr(d))
@pytest.mark.parametrize("s", [0.5, 2.0, 10.0])
def test_power_integral_scaling_law(d, s):
    beta = 0.6
    scaled = SCALED_BY[d](s)
    assert scaled.power_integral(beta) == pytest.approx(
        s ** (1.0 - beta) * d.power_integral(beta), rel=1e-8
    )


def _quad_power_integral(d, beta, interval=REAL_LINE):
    """The integral of pdf**beta over the interval by adaptive quadrature,
    split at the ends of d's mass window, tails past it."""
    domain = d.support.intersect(interval)
    if domain is None:
        return 0.0
    window = d.mass_window
    return integrate(lambda x: d.pdf_array(x) ** beta, domain, (window.lo, window.hi),
                     core=window).value


def test_closed_form_power_integrals_match_quadrature():
    for d in (Gaussian(0.3, 1.4), Laplacian(0.0, 2.0), Exponential(0.7, 0.0)):
        for beta in (0.4, 0.75):
            closed = d.power_integral(beta)
            quad = _quad_power_integral(d, beta)
            assert quad == pytest.approx(closed, rel=1e-9)


@pytest.mark.parametrize(
    "build",
    [
        lambda: density_from_spec({"family": "gaussian", "sigma": math.inf}),
        lambda: density_from_spec({"family": "laplacian", "scale": math.inf}),
        lambda: density_from_spec({"family": "exponential", "rate": math.inf}),
        lambda: density_from_spec({"family": "piecewise_linear", "knots": [[0, 1], [math.nan, 1]]}),
        lambda: density_from_spec({"family": "piecewise_linear", "knots": [[0, 1], [math.inf, 1]]}),
        lambda: density_from_spec({"family": "piecewise_linear", "knots": [[0, 1], [1, math.nan]]}),
        lambda: density_from_spec({"family": "piecewise_linear", "knots": [[0, 1], [1, math.inf]]}),
        lambda: PiecewiseLinear([(0.0, 0.2), (1.0, 1.0), (3.0, 0.0)]).tilt(math.nan),
        lambda: PiecewiseLinear([(0.0, 0.2), (1.0, 1.0), (3.0, 0.0)]).tilt(math.inf),
        lambda: TiltedDensity(PiecewiseLinear([(0.0, 1.0), (1.0, 1.0)]), math.nan),
        lambda: Gaussian(0.0, 1.0).tilt(math.nan),
        lambda: Gaussian(0.0, 1.0).power_integral(math.nan),
        lambda: Gaussian(0.0, 1.0).power_integral(math.inf),
        lambda: PiecewiseLinear([(0.0, 0.2), (1.0, 1.0), (3.0, 0.0)]).power_integral(math.nan),
        lambda: Laplacian(0.0, 1.0).power_integral(math.nan)
        * Laplacian(0.0, 1.0).tilt(math.nan).interval_mass(Interval(0.0, 1.0)),
    ],
)
def test_non_finite_parameters_and_exponents_are_refused(build):
    # density_from_spec reports a constructor's DomainError as a ConfigError
    with pytest.raises((DomainError, ConfigError), match="finite"):
        build()


# --- moments -------------------------------------------------------------------


def test_absolute_moment_examples():
    assert Uniform(0.0, 1.0).absolute_moment(2.0) == pytest.approx(1.0 / 3.0, rel=1e-9)
    assert Gaussian(0.0, 1.0).absolute_moment(2.0) == pytest.approx(1.0, rel=1e-9)
    assert Laplacian(0.0, 1.0).absolute_moment(2.0) == pytest.approx(2.0, rel=1e-9)


def _mp_closed_moment(d, r):
    """E|X|^r at 40 digits, from the family's parameters."""
    import mpmath

    mpf, R = mpmath.mpf, mpmath.mpf(r)
    if isinstance(d, Gaussian):
        return mpf(d.sigma) ** R * 2 ** (R / 2) * mpmath.gamma((R + 1) / 2) / mpmath.sqrt(mpmath.pi)
    if isinstance(d, Laplacian):
        return mpf(d.scale) ** R * mpmath.gamma(R + 1)
    if isinstance(d, Exponential):
        return mpmath.gamma(R + 1) / mpf(d.rate) ** R
    a, b = mpf(d.a), mpf(d.b)  # |x|^(r+1) / (r+1) over each side of 0, per unit width
    side = (lambda x: abs(x) ** (R + 1) / (R + 1))
    inside = side(b) + side(a) if a < 0 < b else abs(side(b) - side(a))
    return inside / (b - a)


@pytest.mark.parametrize("s", [1e-5, 1.0, 1e5])
@pytest.mark.parametrize("r", [1.5, 2.05, 3.0, 4.7])
def test_closed_absolute_moments_match_mpmath(monkeypatch, r, s):
    """At location 0, and for a uniform on any interval, E|X|^r is closed:
    within 1e-15 of 40 digits, and no quadrature runs."""
    mpmath = pytest.importorskip("mpmath")
    monkeypatch.setattr(quadrature, "integrate", None)  # a call would raise
    sources = [Gaussian(0.0, s), Laplacian(0.0, s), Exponential(1.0 / s, 0.0)]
    sources += [Uniform(a * s, b * s) for a, b in ((0.0, 1.0), (-1.0, 2.0), (-3.0, -0.5),
                                                    (0.5, 0.5000001), (-0.7, 0.0))]
    with mpmath.workdps(40):
        for d in sources:
            want = _mp_closed_moment(d, r)
            assert abs(d.absolute_moment(r) - want) <= 1e-15 * want, d


@pytest.mark.parametrize(
    "d, r",
    [
        (Gaussian(0.0, 0.01), 301.0),  # 0.01^301 underflows
        (Gaussian(0.0, 0.5), 350.0),  # Gamma(175.5) overflows
        (Laplacian(0.0, 0.01), 201.0),  # Gamma(202) overflows
        (Exponential(100.0, 0.0), 201.0),
        (Uniform(0.0, 2.0), 1030.0),  # 2^1030 overflows, 2^1030 / 1031 does not
        (Uniform(-2.0, 1.5), 1030.0),
    ],
    ids=repr,
)
def test_a_closed_moment_whose_factor_overflows_comes_from_its_log(d, r):
    """Where a factor of its formula overflows or underflows, a closed moment
    can still fit a double: it is the exp of its log then, within 1e-12 of
    40 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        want = _mp_closed_moment(d, r)
    assert want < 1e308
    assert abs(d.absolute_moment(r) - want) <= 1e-12 * want


@pytest.mark.parametrize(
    "d, r", [(Gaussian(0.0, 1.0), 400.0), (Laplacian(0.0, 1.0), 201.0),
             (Exponential(0.5, 0.0), 171.0), (Uniform(-1.0, 2.0), 1100.0)],
    ids=repr,
)
def test_a_closed_moment_past_the_largest_double_names_its_order(d, r):
    with pytest.raises(DomainError, match=f"of order {r:g} is finite but passes the largest double"):
        d.absolute_moment(r)


@pytest.mark.parametrize(
    "d", [Gaussian(0.5, 2.0), Laplacian(-0.5, 0.7), Exponential(1.5, 0.5)], ids=repr
)
def test_absolute_moment_off_location_zero_integrates(monkeypatch, d):
    calls = []
    original = quadrature.integrate

    def recording(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(quadrature, "integrate", recording)
    assert d._absolute_moment(3.0) is None
    assert d.absolute_moment(3.0) > 0.0
    assert len(calls) == 1


def test_an_integrated_moment_survives_nodes_where_its_power_overflows():
    # |x|^201 overflows past |x| ~ 34, where the half-normal pdf is still positive:
    # those nodes take exp(r log|x| + logpdf(x))
    want = Gaussian(0.0, 1.0).absolute_moment(201.0)
    got = Gaussian(0.0, 1.0).restrict(Interval(0.0, math.inf)).absolute_moment(201.0)
    assert abs(got - want) <= 1e-12 * want and want > 1e187


def test_logpdf_array_stays_finite_where_the_pdf_underflows():
    d = Gaussian(0.0, 1.0)
    assert d.pdf_array(np.array([40.0]))[0] == 0.0
    assert d.logpdf_array(np.array([40.0]))[0] == pytest.approx(-800.9189385332047, rel=1e-15)
    assert d.restrict(Interval(0.0, math.inf)).logpdf(40.0) == pytest.approx(
        -800.9189385332047 + math.log(2.0), rel=1e-15)


@pytest.mark.parametrize("hi", [1e6, 1e308])
def test_a_bounded_support_far_wider_than_its_mass_integrates_over_its_mass(hi):
    """A half-normal on (0, hi] is the one on (0, inf) to a double: its moments
    integrate over its mass window, tails out to hi, and its grid check runs
    on that window."""
    wide, half = (Gaussian(0.0, 1.0).restrict(Interval(0.0, end)) for end in (hi, math.inf))
    assert truncate_support(wide, TAIL_MASS) == truncate_support(half, TAIL_MASS)
    for r in (3.0, 201.0):
        want = half.absolute_moment(r)
        assert abs(wide.absolute_moment(r) - want) <= 1e-12 * want
    assert abs(half.absolute_moment(3.0) - 1.5957691216057308) <= 1e-12 * 1.6
    assert check_weak_unimodality(wide) is check_weak_unimodality(half) is None


def test_truncate_support_keeps_a_bounded_support_near_its_window():
    # a uniform's and a piecewise source's windows are their supports to 1e-12
    for d in (Uniform(-1.0, 3.0), PiecewiseLinear([(0.0, 0.2), (1.0, 1.0), (3.0, 0.0)]),
              Gaussian(0.0, 1.0).restrict(Interval(-1.0, 2.0))):
        assert truncate_support(d, TAIL_MASS) == d.support == d.mass_window
    # a bounded support narrows to its window from 16 times the window's width:
    # the half-normal's is (1.25e-12, 7.03]
    assert truncate_support(Gaussian(0.0, 1.0).restrict(Interval(0.0, 100.0)), TAIL_MASS).hi == 100.0
    assert truncate_support(Gaussian(0.0, 1.0).restrict(Interval(0.0, 120.0)), TAIL_MASS).hi < 7.2


@pytest.mark.parametrize("u", ARRAY_FAMILIES, ids=repr)
def test_predictors_and_moments_call_no_float_pdf(monkeypatch, u):
    """Every theory predictor over u and each array family, and u's moment of
    order 3 (integrated off location 0), run on the array forms alone."""
    from renyi_quant import theory

    def refuse(self, x):
        raise AssertionError(f"{type(self).__name__} float pdf called")

    for cls in {Density, *(type(d) for d in ARRAY_FAMILIES)}:
        monkeypatch.setattr(cls, "pdf", refuse)
        monkeypatch.setattr(cls, "logpdf", refuse)
    u.absolute_moment(3.0)
    Gaussian(0.5, 2.0).absolute_moment(3.0)
    iv = Interval(u.quantile(0.2), u.quantile(0.7))
    theory.quantization_coefficient(u, 0.5, 2.0), theory.tilted_measure(u, 0.5, 2.0)
    theory.entropy_density_limit(u, iv, 0.5, 2.0), theory.limit_distortion_measure(u, iv, 0.5, 2.0)
    for v in ARRAY_FAMILIES:
        for predictor in (
            lambda: theory.compander_performance(u, v, 0.5, 2.0),
            lambda: theory.renyi_divergence(u, v, 0.5),
            lambda: theory.renyi_divergence(u, v, 1.0),
            lambda: theory.check_density_ratio_bound(u, v),
            lambda: theory.mismatch_entropy_shift(v, u, 0.5, 2.0),
            lambda: theory.mismatch_loss(v, u, 0.5, 2.0),
            lambda: theory.mismatch_loss_fixed_rate(v, u, 2.0),
            lambda: theory.mismatch_loss_variable_rate(v, u, 2.0),
        ):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # an unbounded ratio
                    predictor()
            except (DomainError, RenyiQuantError, OverflowError):
                pass  # a support v does not cover, or a divergent integral


def test_absolute_moment_requires_r_at_least_one():
    with pytest.raises(DomainError):
        Gaussian(0.0, 1.0).absolute_moment(0.5)


# --- restriction ----------------------------------------------------------------


def test_restrict_uniform_halves():
    d = Uniform(0.0, 1.0).restrict(Interval(0.0, 0.5))
    assert d.pdf(0.25) == pytest.approx(2.0, abs=1e-12)
    assert d.pdf(0.75) == 0.0


def test_restrict_gaussian_half_line():
    d = Gaussian(0.0, 1.0).restrict(Interval(0.0, math.inf))
    assert d.pdf(1.0) == pytest.approx(2.0 * 0.24197072451914337, abs=1e-6)


@pytest.mark.parametrize("d", ALL_FAMILIES, ids=lambda d: repr(d))
def test_restrict_normalizes(d):
    iv = Interval(d.quantile(0.2), d.quantile(0.7))
    restricted = d.restrict(iv)
    window = truncate_support(restricted, 1e-12)
    assert integrate(restricted.pdf_array, window).value == pytest.approx(1.0, abs=1e-9)


def test_restrict_quantile_deep_in_the_right_tail():
    d = Gaussian(0.0, 1.0).restrict(Interval(9.0, math.inf))
    # base.cdf(9) + p * mass rounds to 1 there; the survival form does not
    assert d.quantile(0.5) == pytest.approx(d.isf(0.5), abs=2e-12)
    assert 9.0 < d.quantile(1e-12) < d.quantile(0.5)
    window = truncate_support(d, TAIL_MASS)
    assert 9.0 < window.lo < window.hi


def test_restrict_isf_deep_in_the_right_tail():
    # 1 - p rounds to 1 below p ~ 1e-16; the survival form keeps every digit
    d = Gaussian(0.0, 1.0).restrict(Interval(0.0, math.inf))
    for p in np.geomspace(1e-3, 1e-300, 31).tolist():
        want = Gaussian(0.0, 1.0).isf(p / 2.0)
        assert abs(d.isf(p) - want) <= 4.0 * math.ulp(want)


def test_restrict_isf_in_the_left_tail_mirrors_quantile():
    for hi in (-9.0, -1.0):
        d = Gaussian(0.0, 1.0).restrict(Interval(-math.inf, hi))
        for p in (0.1, 0.25, 0.5, 0.75, 0.9):
            want = d.quantile(1.0 - p)
            assert abs(d.isf(p) - want) <= 4.0 * math.ulp(want)


@pytest.mark.parametrize(
    "d",
    [Gaussian(0.0, 1.0).restrict(Interval(0.0, math.inf)),
     Laplacian(0.0, 1.0).restrict(Interval(9.0, math.inf)),
     Exponential(1.0).restrict(Interval(0.5, 2.0))],
    ids=repr,
)
def test_restriction_runs_on_its_base_arrays(monkeypatch, d):
    from renyi_quant.compander import build_compander
    from renyi_quant.quantizer import cell_table

    def scalar_call(*args):
        raise AssertionError("a scalar density call")

    for method in ("pdf", "cdf", "sf", "quantile", "isf"):
        monkeypatch.setattr(type(d.base), method, scalar_call)
    table = cell_table(build_compander(d, 256), d, 2.0)
    assert math.fsum(table.masses) == pytest.approx(1.0, abs=1e-12)
    assert table.distortions.min() > 0.0


def test_restrict_empty_interval_errors():
    with pytest.raises(EmptyConditioningError):
        Uniform(0.0, 1.0).restrict(Interval(5.0, 6.0))


def test_restrict_power_integral_identity():
    # restricted beta power integral equals mass^-beta * the power integral
    # over the interval, which is the full one times the tilted mass of it
    beta = 0.6
    for d in (Gaussian(0.0, 1.0), Laplacian(0.0, 1.0), Uniform(0.0, 2.0)):
        iv = Interval(-0.3, 0.9)
        mass = d.interval_mass(iv)
        lhs = d.restrict(iv).power_integral(beta)
        rhs = mass ** (-beta) * d.power_integral(beta) * d.tilt(beta).interval_mass(iv)
        assert lhs == pytest.approx(rhs, rel=1e-8)


def test_power_integral_times_tilted_mass_matches_quadrature():
    d = Gaussian(0.0, 1.0)
    iv = Interval(-0.5, 1.25)
    closed = d.power_integral(0.6) * d.tilt(0.6).interval_mass(iv)
    quad = _quad_power_integral(d, 0.6, iv)
    assert closed == pytest.approx(quad, rel=1e-9)


# --- support integrals --------------------------------------------------------
#
# Each functional computed as one quadrature.settle over its TAIL_MASS window
# (finite ends clipped to it) and the half-lines its tail flags extend it by:
# quadrature.integrate must match these bit for bit wherever the finite ends of
# the range lie inside the window, and a half-line that starts past the window
# is its geometric tail from that start.


def _settled(f, edges, core):
    """f over the pieces between consecutive edges, in order, as one settle
    at integrate's default tolerances."""
    edges = np.array(edges)
    totals, _, _ = quadrature.settle(lambda *_: lambda x, _: f(x), edges[:-1], edges[1:],
                                     np.zeros(edges.size - 1, dtype=int), 1, 1e-12, 1.0, core=core)
    return totals[0]


def _with_tails(f, core, extend_left, extend_right, split=()):
    """f over the core, split at split, and the half-line past each end it extends."""
    edges = [core.lo, *split, core.hi]
    return _settled(f, [-math.inf] * extend_left + edges + [math.inf] * extend_right, core)


def _window_power_integral(d, beta, interval):
    domain = d.support.intersect(interval)
    if domain is None:
        return 0.0
    core = truncate_support(d, TAIL_MASS)
    window = core.intersect(domain)

    def f(x):
        return d.pdf_array(x) ** beta

    if window is None:
        return _settled(f, [domain.lo, domain.hi], core)
    return _with_tails(
        f,
        window,
        extend_left=not math.isfinite(domain.lo) and window.lo == core.lo,
        extend_right=not math.isfinite(domain.hi) and window.hi == core.hi,
    )


def _window_absolute_moment(d, r):
    core = truncate_support(d, TAIL_MASS)
    return _with_tails(
        lambda x: np.abs(x) ** r * d.pdf_array(x),
        core,
        extend_left=not math.isfinite(d.support.lo),
        extend_right=not math.isfinite(d.support.hi),
        split=(0.0,) if core.lo < 0.0 < core.hi else (),
    )


_PIECEWISE = PiecewiseLinear([(0.0, 0.0), (1.0, 2.0), (3.0, 0.5), (4.0, 0.0)])


@pytest.mark.parametrize(
    "d",
    [
        Gaussian(0.3, 1.4),
        Laplacian(-0.2, 0.7),
        Exponential(1.7, 0.5),
        Uniform(-1.0, 2.0),
        _PIECEWISE,
        TiltedDensity(_PIECEWISE, 0.6),
    ],
    ids=repr,
)
def test_support_integrals_keep_the_window_bits(d):
    q, window = d.quantile, truncate_support(d, TAIL_MASS)
    for beta in (0.6, 1.7):
        inside = (Interval(q(0.2), q(0.7)), Interval(q(0.6), math.inf))
        past = (Interval(window.hi + 1.0, math.inf), Interval(-math.inf, window.lo - 1.0))
        for iv in inside + past:
            assert _quad_power_integral(d, beta, iv) == _window_power_integral(d, beta, iv)
    # an Exponential's window starts past its support's finite end: see the oracle test
    if window.lo == d.support.lo or d.support.lo == -math.inf:
        for r in (2.0, 3.0):
            if d._absolute_moment(r) is None:  # a closed moment is no window integral
                assert d.absolute_moment(r) == _window_absolute_moment(d, r)
        for beta in (0.6, 1.7):
            for iv in (REAL_LINE, Interval(-math.inf, q(0.3))):
                assert _quad_power_integral(d, beta, iv) == _window_power_integral(d, beta, iv)


def test_support_integrals_past_the_window_match_mpmath_oracle():
    mpmath = pytest.importorskip("mpmath")
    gauss, lap, expo = Gaussian(0.3, 1.4), Laplacian(-0.2, 0.7), Exponential(1.7, 0.5)
    g_window, l_window = truncate_support(gauss, TAIL_MASS), truncate_support(lap, TAIL_MASS)
    e_window_hi = truncate_support(expo, TAIL_MASS).hi
    with mpmath.workdps(30):
        mpf, inf = mpmath.mpf, mpmath.inf

        def g_pdf(x):
            z = (x - mpf(0.3)) / mpf(1.4)
            return mpmath.exp(-z * z / 2) / (mpf(1.4) * mpmath.sqrt(2 * mpmath.pi))

        def l_pdf(x):
            return mpmath.exp(-abs(x - mpf(-0.2)) / mpf(0.7)) / (2 * mpf(0.7))

        def e_pdf(x):
            return mpf(1.7) * mpmath.exp(-mpf(1.7) * (x - mpf(0.5)))

        g_iv = Interval(gauss.quantile(0.3), g_window.hi + 2.0)
        l_iv = Interval(l_window.lo - 3.0, lap.quantile(0.5))
        e_iv = Interval(-math.inf, expo.quantile(0.3))
        cases = [
            # the Exponential's support end 0.5 lies left of its window
            (expo.absolute_moment(3.0), lambda x: x**3 * e_pdf(x), [mpf(0.5), inf]),
            (_quad_power_integral(expo, 0.6), lambda x: e_pdf(x) ** mpf(0.6), [mpf(0.5), inf]),
            (_quad_power_integral(expo, 1.7, e_iv), lambda x: e_pdf(x) ** mpf(1.7),
             [mpf(0.5), mpf(e_iv.hi)]),
            # intervals with a finite end past the window
            (_quad_power_integral(gauss, 0.6, g_iv), lambda x: g_pdf(x) ** mpf(0.6),
             [mpf(g_iv.lo), mpf(g_iv.hi)]),
            (_quad_power_integral(lap, 0.6, l_iv), lambda x: l_pdf(x) ** mpf(0.6),
             [mpf(l_iv.lo), mpf(l_iv.hi)]),
            # half-lines that start past the window: the whole tail, not 0
            (_quad_power_integral(gauss, 0.6, Interval(g_window.hi + 1.0, math.inf)),
             lambda x: g_pdf(x) ** mpf(0.6), [mpf(g_window.hi + 1.0), inf]),
            (_quad_power_integral(lap, 0.6, Interval(-math.inf, l_window.lo - 1.0)),
             lambda x: l_pdf(x) ** mpf(0.6), [-inf, mpf(l_window.lo - 1.0)]),
            (_quad_power_integral(expo, 0.6, Interval(e_window_hi + 1.0, math.inf)),
             lambda x: e_pdf(x) ** mpf(0.6), [mpf(e_window_hi + 1.0), inf]),
        ]
        for got, integrand, points in cases:
            assert got == pytest.approx(float(mpmath.quad(integrand, points)), rel=1e-12)


# --- tilting ---------------------------------------------------------------------


def test_tilt_closed_forms():
    assert Gaussian(0.0, 1.0).tilt(0.6) == Gaussian(0.0, 1.0 / math.sqrt(0.6))
    assert Laplacian(0.0, 1.0).tilt(0.5) == Laplacian(0.0, 2.0)
    assert Exponential(1.0, 0.0).tilt(2.0) == Exponential(2.0, 0.0)
    assert Uniform(0.0, 1.0).tilt(0.3) == Uniform(0.0, 1.0)


@pytest.mark.parametrize(
    "d, gamma",
    [(Gaussian(0.3, 1.0), 0.6), (Laplacian(-0.2, 1.5), 0.5), (Exponential(2.0, 1.0), 3.0)],
    ids=repr,
)
def test_tilt_exponent_inverts_tilt(d, gamma):
    assert d.tilt_exponent(d.tilt(gamma)) == pytest.approx(gamma, rel=1e-15)
    assert d.tilt(gamma).tilt_exponent(d) == pytest.approx(1.0 / gamma, rel=1e-15)
    assert d.tilt_exponent(d) == 1.0


def test_tilt_exponent_none_off_the_closed_pairs():
    assert Uniform(0.0, 1.0).tilt_exponent(Uniform(0.0, 1.0)) == 1.0
    for d, other in (
        (Uniform(0.0, 1.0), Uniform(0.0, 2.0)),  # a uniform's tilts are itself
        (Gaussian(0.0, 1.0), Gaussian(0.5, 1.0)),  # shifted
        (Laplacian(0.0, 1.0), Laplacian(1.0, 2.0)),
        (Exponential(1.0, 0.0), Exponential(1.0, 0.5)),
        (Gaussian(0.0, 1.0), Laplacian(0.0, 1.0)),  # mixed families
        (Laplacian(0.0, 1.0), Gaussian(0.0, 1.0)),
        (Exponential(1.0, 0.0), Uniform(0.0, 1.0)),
        (Uniform(0.0, 1.0), PiecewiseLinear([(0.0, 1.0), (1.0, 1.0)])),
    ):
        assert d.tilt_exponent(other) is None
    # piecewise densities and their tilts name no tilt exponent
    p = PiecewiseLinear([(0.0, 0.2), (1.0, 1.0), (3.0, 0.0)])
    assert p.tilt_exponent(p) is None
    assert p.tilt(0.5).tilt_exponent(p.tilt(0.5)) is None


def test_tilt_numeric_matches_pointwise_power():
    d = PiecewiseLinear([(0.0, 0.2), (1.0, 1.0), (3.0, 0.0)])
    t = d.tilt(0.5)
    z = d.power_integral(0.5)
    for x in (0.2, 0.9, 1.7, 2.5):
        assert t.pdf(x) == pytest.approx(d.pdf(x) ** 0.5 / z, rel=1e-9)
    assert t.power_integral(1.0) == pytest.approx(1.0, abs=1e-9)


# every density the library builds: the families, a restriction of each, their
# tilts, and tilts and restrictions of tilts
NORMALIZED = [
    *ALL_FAMILIES,
    _POWER_SOURCE,
    *(d.restrict(Interval(d.quantile(0.2), d.quantile(0.7))) for d in ALL_FAMILIES),
    *(d.tilt(beta) for d in ALL_FAMILIES + [_POWER_SOURCE] for beta in (0.25, 0.6, 3.0)),
    _POWER_SOURCE.tilt(0.6).tilt(3.0),
    Laplacian(0.0, 1.0).tilt(0.6).tilt(3.0),
    _POWER_SOURCE.tilt(0.25).restrict(Interval(0.5, 3.5)),
]


@pytest.mark.parametrize("d", NORMALIZED, ids=repr)
def test_every_library_density_integrates_to_one(d):
    # no density checks this when it is built: every normalizer is closed
    window = d.mass_window
    total = integrate(d.pdf_array, d.support, (*d.kinks, window.lo, window.hi), core=window)
    assert abs(total.value - 1.0) <= 1e-12


class _SlowTails(Density):
    """pdf (1 + |x|)^-2 / 2, a density from outside the library."""

    support = REAL_LINE
    kinks = (0.0,)

    def pdf_array(self, x):
        return 0.5 / (1.0 + np.abs(x)) ** 2

    def cdf_array(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.0, 0.5 / (1.0 - np.minimum(x, 0.0)),
                        1.0 - 0.5 / (1.0 + np.maximum(x, 0.0)))


def test_tilt_without_a_closed_form_raises():
    with pytest.raises(DomainError, match="_SlowTails has no closed-form tilt"):
        _SlowTails().tilt(0.5)
    with pytest.raises(DomainError, match="_SlowTails has no closed-form tilt"):
        _SlowTails().restrict(Interval(0.0, 1.0)).tilt(0.5)
    with pytest.raises(DomainError, match="Gaussian has no piecewise-linear tilt"):
        TiltedDensity(Gaussian(0.0, 1.0), 0.5)


_KNOTS = [[0.0, 0.0], [1.0, 2.0], [3.0, 0.5], [4.0, 0.0]]


@pytest.mark.parametrize(
    "spec",
    [
        {"family": "uniform", "a": -1.0, "b": 3.0},
        {"family": "gaussian", "mean": 0.5, "sigma": 2.0},
        {"family": "laplacian", "mean": -0.5, "scale": 0.7},
        {"family": "exponential", "rate": 1.5, "shift": 0.5},
        {"family": "piecewise_linear", "knots": _KNOTS},
        {"family": "restricted", "base": {"family": "gaussian", "sigma": 1.0},
         "interval": [-1.0, 2.0]},
        {"family": "restricted", "base": {"family": "piecewise_linear", "knots": _KNOTS},
         "interval": [0.5, 3.5]},
        {"family": "tilted", "base": {"family": "laplacian", "scale": 1.0}, "beta": 0.6},
        {"family": "tilted", "beta": 0.6,
         "base": {"family": "restricted", "interval": [0.5, 3.5],
                  "base": {"family": "piecewise_linear", "knots": _KNOTS}}},
        {"family": "point_density_of", "base": {"family": "exponential", "rate": 1.0},
         "alpha": 0.5, "r": 2.0},
        {"family": "point_density_of", "base": {"family": "piecewise_linear", "knots": _KNOTS},
         "alpha": 0.5, "r": 3.0},
    ],
    ids=lambda spec: spec["family"],
)
def test_every_spec_family_is_closed(monkeypatch, spec):
    """No family density_from_spec builds reaches the root solver or quadrature
    in its quantiles, power integrals or tilt."""
    calls = []

    def recording(fn):
        def recorded(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return recorded

    for module, name in ((density, "decreasing_roots"), (quadrature, "integrate")):
        monkeypatch.setattr(module, name, recording(getattr(module, name)))
    d = density_from_spec(spec)
    q = d.quantile
    iv = Interval(q(0.2), q(0.7))
    for p in (1e-9, 0.3, 0.5, 0.9):
        q(p), d.isf(p)
    d.quantile_array(np.array([1e-9, 0.3, 0.5, 0.9]))
    for beta in (0.6, 1.7):
        d.power_integral(beta), d.tilt(beta).interval_mass(iv)
    assert calls == []
    # the wrappers do see the quadrature where it still runs: a moment off location 0
    Gaussian(0.5, 2.0).absolute_moment(2.0)
    assert calls == ["integrate"]


# --- weak unimodality ---------------------------------------------------------------


def test_weak_unimodality_pass_cases():
    assert check_weak_unimodality(Gaussian(0.0, 1.0)) is None
    assert check_weak_unimodality(Uniform(0.0, 1.0)) is None
    assert check_weak_unimodality(Exponential(1.0, 0.0)) is None


def test_weak_unimodality_detects_two_bumps():
    # 0.5 Uniform(0,1) + 0.5 Uniform(2,3) as a piecewise-linear plateau pair
    eps = 1e-9
    mixture = PiecewiseLinear(
        [(0.0, 0.5), (1.0, 0.5), (1.0 + eps, 0.0), (2.0 - eps, 0.0), (2.0, 0.5), (3.0, 0.5)]
    )
    with pytest.raises(HypothesisError, match="weak-unimodality grid check") as err:
        check_weak_unimodality(mixture)
    assert "(level None)" not in str(err.value)


def _unimodality_by_level(d):
    """The check as a loop over its levels, lowest first: the first level
    whose points >= it are not one run of the grid fails."""
    window = truncate_support(d, 1e-9)
    vals = d.pdf_array(np.linspace(window.lo, window.hi, UNIMODALITY_GRID + 2)[1:-1])
    vmax = float(vals.max())
    if vmax <= 0.0:
        return (False, None)
    for level in np.geomspace(vmax * 1e-6, vmax * (1.0 - 1e-9), UNIMODALITY_LEVELS):
        idx = np.flatnonzero(vals >= level)
        if idx.size and idx[-1] - idx[0] + 1 != idx.size:
            return (False, float(level))
    return (True, None)


def _check_against_loop(d):
    """The loop's verdict, once the check has passed where the loop does, or
    raised the run's message at the loop's level where it fails."""
    passed, level = _unimodality_by_level(d)
    if passed:
        assert check_weak_unimodality(d) is None
    else:
        with pytest.raises(HypothesisError) as err:
            check_weak_unimodality(d)
        message = f"source density failed the weak-unimodality grid check (level {level})"
        assert str(err.value) == message
    return passed, level


def test_weak_unimodality_matches_the_loop_over_levels():
    """300 random piecewise-linear sources, zeros and plateaus among their
    knots, a third or more of them failing, and the bimodal example."""
    rng = np.random.default_rng(5)
    sources = [PiecewiseLinear([(0, 0), (1, 1), (2, 0.1), (3, 1), (4, 0)])]
    for _ in range(300):
        k = int(rng.integers(3, 10))
        xs = np.cumsum(rng.integers(1, 9, k) / 4.0)
        ys = rng.integers(0, 17, k) / 16.0
        ys[int(rng.integers(k))] += 0.25  # never all zero
        sources.append(PiecewiseLinear(list(zip(xs.tolist(), ys.tolist()))))
    verdicts = []
    for d in sources:
        verdicts.append(_check_against_loop(d))
    assert verdicts[0] == (False, pytest.approx(0.0513, abs=5e-5))
    assert 100 <= sum(not passed for passed, _ in verdicts) <= 250


@pytest.mark.parametrize(
    "d",
    [Uniform(-1.0, 3.0), Gaussian(0.3, 1.7), Gaussian(0.0, 1e-5), Laplacian(-0.5, 0.8),
     Laplacian(0.0, 1e5), Exponential(1.5, 0.25), Exponential(1e-5, 0.0)],
    ids=repr,
)
def test_log_concave_verdict_matches_the_loop_over_levels(monkeypatch, d):
    """A log-concave family passes without the grid, the verdict the grid gives."""
    monkeypatch.setattr(type(d), "pdf_array", None)  # the grid would call it
    assert check_weak_unimodality(d) is None
    monkeypatch.undo()
    assert _unimodality_by_level(d) == (True, None)


def test_weak_unimodality_matches_the_loop_where_values_tie_with_levels(monkeypatch):
    """Grid values drawn from the levels themselves, the points between them
    and zero: a point equal to a level is inside its level set."""
    rng = np.random.default_rng(6)
    plateau = PiecewiseLinear([(0.0, 1.0), (1.0, 1.0)])  # a source that keeps the grid
    levels = np.geomspace(1e-6, 1.0 - 1e-9, UNIMODALITY_LEVELS)
    choices = np.sort(np.concatenate(([0.0], levels, np.sqrt(levels[1:] * levels[:-1]))))
    failing = 0
    for _ in range(200):
        runs = int(rng.integers(3, 25))  # from a few neighbouring values, so walls tie with levels
        low = int(rng.integers(choices.size - 3))
        run_values = rng.choice(choices[low:low + int(rng.integers(3, choices.size - low + 1))], runs)
        vals = np.repeat(run_values, UNIMODALITY_GRID // runs + 1)[:UNIMODALITY_GRID]
        vals[int(rng.integers(UNIMODALITY_GRID))] = 1.0  # the levels above are vmax's
        monkeypatch.setattr(PiecewiseLinear, "pdf_array", lambda self, x: vals.copy())
        _, level = _check_against_loop(plateau)
        failing += level in levels
    assert failing >= 100


# --- JSON specs ------------------------------------------------------------------------


def test_density_from_spec_round_trip():
    specs = [
        {"family": "uniform", "a": 0.0, "b": 1.0},
        {"family": "uniform", "a": -1.0, "b": 3.0},
        {"family": "gaussian", "mean": 0.0, "sigma": 1.0},
        {"family": "gaussian", "mean": 1.5, "sigma": 0.7},
        {"family": "laplacian", "mean": 0.0, "scale": 1.0},
        {"family": "laplacian", "mean": -2.0, "scale": 0.5},
        {"family": "exponential", "rate": 1.0, "shift": 0.0},
        {"family": "exponential", "rate": 2.5, "shift": 1.0},
        {"family": "piecewise_linear", "knots": [[0.0, 0.2], [1.0, 1.0], [3.0, 0.0]]},
    ]
    for spec, d in zip(specs, ALL_FAMILIES, strict=True):
        rebuilt = density_from_spec(spec)
        for p in (0.2, 0.5, 0.9):
            assert rebuilt.quantile(p) == pytest.approx(d.quantile(p), abs=1e-9)


def test_density_from_spec_nested():
    spec = {
        "family": "restricted",
        "base": {"family": "gaussian", "mean": 0.0, "sigma": 1.0},
        "interval": [0.0, None],
    }
    d = density_from_spec(spec)
    assert d.pdf(1.0) == pytest.approx(2.0 * 0.24197072451914337, abs=1e-6)
    tilted = density_from_spec(
        {"family": "point_density_of", "base": {"family": "gaussian", "sigma": 1.0},
         "alpha": 0.5, "r": 2.0}
    )
    assert tilted == Gaussian(0.0, math.sqrt(5.0))


def test_density_from_spec_errors_name_field():
    with pytest.raises(ConfigError, match="family"):
        density_from_spec({"mean": 0.0})
    with pytest.raises(ConfigError, match="sigma"):
        density_from_spec({"family": "gaussian", "mean": 0.0})
    with pytest.raises(ConfigError, match="nonsense"):
        density_from_spec({"family": "nonsense"})
    # theory.rate_params refuses a point density's (alpha, r), named with the family
    for alpha, r, message in ((1.0, 2.0, "alpha must lie in"), (0.5, 1.0, "r must exceed 1")):
        with pytest.raises(ConfigError, match=f"family 'point_density_of': {message}"):
            density_from_spec({"family": "point_density_of", "alpha": alpha, "r": r,
                               "base": {"family": "gaussian", "sigma": 1.0}})


@pytest.mark.parametrize(
    "spec, message",
    [
        # a field the family does not take, at the top and inside a base
        ({"family": "gaussian", "sigma": 1.0, "mena": 3},
         "family 'gaussian' takes no field 'mena'"),
        ({"family": "tilted", "beta": 0.5,
          "base": {"family": "laplacian", "scale": 1.0, "rate": 2}},
         "family 'laplacian' takes no field 'rate'"),
        # numbers are JSON numbers, finite, as in a config
        ({"family": "gaussian", "sigma": True}, "field 'sigma' must be a number, got True"),
        ({"family": "uniform", "a": 0, "b": "1"}, "field 'b' must be a number, got '1'"),
        ({"family": "restricted", "base": {"family": "gaussian", "sigma": 1.0},
          "interval": ["0", 1]}, "field 'interval' must be a number, got '0'"),
        ({"family": "piecewise_linear", "knots": [[0, 1], [1, False]]},
         "field 'knots' must be a number, got False"),
        ({"family": "exponential", "rate": 1.0, "shift": -math.inf},
         "field 'shift' must be a finite number, got -inf"),
        ({"family": "point_density_of", "base": {"family": "gaussian", "sigma": 1.0},
          "alpha": 0.5, "r": math.nan}, "field 'r' must be a finite number, got nan"),
        ({"family": "restricted", "base": {"family": "gaussian", "sigma": 1.0},
          "interval": [1, 0]}, "field 'interval' requires lo < hi, got [1, 0]"),
    ],
)
def test_density_from_spec_reads_its_fields_as_strictly_as_a_config(spec, message):
    with pytest.raises(ConfigError) as err:
        density_from_spec(spec)
    assert str(err.value).endswith(message)


# --- modes and medians -------------------------------------------------------------------


def test_mode_positions():
    assert Gaussian(2.0, 1.0).mode() == 2.0
    assert Laplacian(-1.0, 2.0).mode() == -1.0
    assert Exponential(1.0, 3.0).mode() == 3.0
    assert Uniform(0.0, 4.0).mode() == 2.0
    assert PiecewiseLinear([(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]).mode() == 1.0
