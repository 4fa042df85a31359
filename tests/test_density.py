import math
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
from renyi_quant.density import QUANTILE_WIDTH, TAIL_MASS, TiltedDensity, decreasing_roots
from renyi_quant.errors import ConfigError, DomainError, EmptyConditioningError
from renyi_quant.intervals import REAL_LINE
from renyi_quant.quadrature import _tail_sum, integrate, integrate_with_tails, truncate_support

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
        # (5, 6) misses the restricted window: the check comes before that shortcut
        ("partial_power_integral", [(beta, Interval(5.0, 6.0)) for beta in (0.0, -1.0)]),
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


@pytest.mark.parametrize("d", ARRAY_FAMILIES, ids=lambda d: repr(d))
def test_array_surface_matches_scalar(d):
    xs = _probe_points(d)
    for method in ("pdf", "cdf", "sf"):
        got = getattr(d, method + "_array")(xs)
        want = np.array([getattr(d, method)(float(x)) for x in xs])
        np.testing.assert_array_max_ulp(got, want, maxulp=4)
    ps = DEEP_P if isinstance(d, (Gaussian, Laplacian, Exponential, Uniform)) else DEEP_P[::10]
    got = d.quantile_array(ps)
    want = np.array([d.quantile(float(p)) for p in ps])
    np.testing.assert_array_max_ulp(got, want, maxulp=4)


@pytest.mark.parametrize("d", ALL_FAMILIES, ids=lambda d: repr(d))
def test_array_surface_keeps_shape_and_checks_domain(d):
    grid = d.quantile_array(np.array([[0.1, 0.2], [0.7, 0.9]]))
    assert grid.shape == (2, 2)
    assert d.cdf_array(grid).shape == (2, 2)
    for p in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(DomainError):
            d.quantile_array(np.array([0.5, p]))


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


def test_piecewise_partial_power_integral_sums_the_clipped_segments():
    d = PiecewiseLinear([(0.0, 0.2), (1.0, 1.0), (3.0, 0.0), (3.5, 0.4)])
    knots = [x for x, _ in d.knots]
    for iv in (
        Interval(-math.inf, 1.0),
        Interval(0.5, 3.2),
        Interval(1.0, 3.0),
        Interval(-1.0, 5.0),
        Interval(3.4, math.inf),
        Interval(1.2, 1.3),
        Interval(4.0, 5.0),
    ):
        want = 0.0
        for i in range(len(knots) - 1):
            seg = Interval(knots[i], knots[i + 1]).intersect(iv)
            if seg is not None:
                want += d._segment_power(i, seg.lo, seg.hi, 0.6)
        assert d.partial_power_integral(0.6, iv) == want


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
    total = integrate(d.pdf, window).value
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


def test_closed_form_power_integrals_match_quadrature():
    for d in (Gaussian(0.3, 1.4), Laplacian(0.0, 2.0), Exponential(0.7, 0.0)):
        for beta in (0.4, 0.75):
            closed = d.power_integral(beta)
            quad = d._power_integral_quad(beta)
            assert quad == pytest.approx(closed, rel=1e-9)


# --- moments -------------------------------------------------------------------


def test_absolute_moment_examples():
    assert Uniform(0.0, 1.0).absolute_moment(2.0) == pytest.approx(1.0 / 3.0, rel=1e-9)
    assert Gaussian(0.0, 1.0).absolute_moment(2.0) == pytest.approx(1.0, rel=1e-9)
    assert Laplacian(0.0, 1.0).absolute_moment(2.0) == pytest.approx(2.0, rel=1e-9)


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
    assert integrate(restricted.pdf, window).value == pytest.approx(1.0, abs=1e-9)


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


def test_restrict_empty_interval_errors():
    with pytest.raises(EmptyConditioningError):
        Uniform(0.0, 1.0).restrict(Interval(5.0, 6.0))


def test_restrict_power_integral_identity():
    # restricted beta power integral equals mass^-beta * partial integral
    beta = 0.6
    for d in (Gaussian(0.0, 1.0), Laplacian(0.0, 1.0), Uniform(0.0, 2.0)):
        iv = Interval(-0.3, 0.9)
        mass = d.interval_mass(iv)
        lhs = d.restrict(iv).power_integral(beta)
        rhs = mass ** (-beta) * d.partial_power_integral(beta, iv)
        assert lhs == pytest.approx(rhs, rel=1e-8)


def test_partial_power_integral_matches_quadrature():
    d = Gaussian(0.0, 1.0)
    iv = Interval(-0.5, 1.25)
    closed = d.partial_power_integral(0.6, iv)
    quad = d._power_integral_quad(0.6, iv)
    assert closed == pytest.approx(quad, rel=1e-9)


# --- support integrals --------------------------------------------------------
#
# Each functional computed with its own TAIL_MASS window (finite ends clipped to
# it) and its own tail flags: density.integrate_over must match these bit for
# bit wherever the finite ends of the range lie inside the window, and a
# half-line that starts past the window is its geometric tail from that start.


def _window_power_integral(d, beta, interval):
    domain = d.support.intersect(interval)
    if domain is None:
        return 0.0
    core = truncate_support(d, TAIL_MASS)
    window = core.intersect(domain)

    def f(x):
        g = d.pdf(x)
        return g**beta if g > 0.0 else 0.0

    if window is None:
        if math.isfinite(domain.lo):
            return _tail_sum(f, domain.lo, +1, 1e-13)
        return _tail_sum(f, domain.hi, -1, 1e-13)
    return integrate_with_tails(
        f,
        window,
        extend_left=not math.isfinite(domain.lo) and window.lo == core.lo,
        extend_right=not math.isfinite(domain.hi) and window.hi == core.hi,
    )


def _window_absolute_moment(d, r):
    core = truncate_support(d, TAIL_MASS)
    pieces = [core]
    if core.lo < 0.0 < core.hi:
        pieces = [Interval(core.lo, 0.0), Interval(0.0, core.hi)]
    total = 0.0
    for piece in pieces:
        total += integrate_with_tails(
            lambda x: abs(x) ** r * d.pdf(x),
            piece,
            extend_left=piece.lo == core.lo and not math.isfinite(d.support.lo),
            extend_right=piece.hi == core.hi and not math.isfinite(d.support.hi),
        )
    return total


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
            assert d._power_integral_quad(beta, iv) == _window_power_integral(d, beta, iv)
    # an Exponential's window starts past its support's finite end: see the oracle test
    if window.lo == d.support.lo or d.support.lo == -math.inf:
        for r in (2.0, 3.0):
            assert d.absolute_moment(r) == _window_absolute_moment(d, r)
        for beta in (0.6, 1.7):
            for iv in (REAL_LINE, Interval(-math.inf, q(0.3))):
                assert d._power_integral_quad(beta, iv) == _window_power_integral(d, beta, iv)


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
            (expo._power_integral_quad(0.6), lambda x: e_pdf(x) ** mpf(0.6), [mpf(0.5), inf]),
            (expo._power_integral_quad(1.7, e_iv), lambda x: e_pdf(x) ** mpf(1.7),
             [mpf(0.5), mpf(e_iv.hi)]),
            # intervals with a finite end past the window
            (gauss._power_integral_quad(0.6, g_iv), lambda x: g_pdf(x) ** mpf(0.6),
             [mpf(g_iv.lo), mpf(g_iv.hi)]),
            (lap._power_integral_quad(0.6, l_iv), lambda x: l_pdf(x) ** mpf(0.6),
             [mpf(l_iv.lo), mpf(l_iv.hi)]),
            # half-lines that start past the window: the whole tail, not 0
            (gauss._power_integral_quad(0.6, Interval(g_window.hi + 1.0, math.inf)),
             lambda x: g_pdf(x) ** mpf(0.6), [mpf(g_window.hi + 1.0), inf]),
            (lap._power_integral_quad(0.6, Interval(-math.inf, l_window.lo - 1.0)),
             lambda x: l_pdf(x) ** mpf(0.6), [-inf, mpf(l_window.lo - 1.0)]),
            (expo._power_integral_quad(0.6, Interval(e_window_hi + 1.0, math.inf)),
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


def test_tilt_numeric_matches_pointwise_power():
    d = PiecewiseLinear([(0.0, 0.2), (1.0, 1.0), (3.0, 0.0)])
    t = d.tilt(0.5)
    z = d.power_integral(0.5)
    for x in (0.2, 0.9, 1.7, 2.5):
        assert t.pdf(x) == pytest.approx(d.pdf(x) ** 0.5 / z, rel=1e-9)
    assert t.power_integral(1.0) == pytest.approx(1.0, abs=1e-9)


# --- weak unimodality ---------------------------------------------------------------


def test_weak_unimodality_pass_cases():
    assert check_weak_unimodality(Gaussian(0.0, 1.0)).passed
    assert check_weak_unimodality(Uniform(0.0, 1.0)).passed
    assert check_weak_unimodality(Exponential(1.0, 0.0)).passed


def test_weak_unimodality_detects_two_bumps():
    # 0.5 Uniform(0,1) + 0.5 Uniform(2,3) as a piecewise-linear plateau pair
    eps = 1e-9
    mixture = PiecewiseLinear(
        [(0.0, 0.5), (1.0, 0.5), (1.0 + eps, 0.0), (2.0 - eps, 0.0), (2.0, 0.5), (3.0, 0.5)]
    )
    report = check_weak_unimodality(mixture)
    assert not report.passed
    assert report.failing_level is not None


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


# --- modes and medians -------------------------------------------------------------------


def test_mode_positions():
    assert Gaussian(2.0, 1.0).mode() == 2.0
    assert Laplacian(-1.0, 2.0).mode() == -1.0
    assert Exponential(1.0, 3.0).mode() == 3.0
    assert Uniform(0.0, 4.0).mode() == 2.0
    assert PiecewiseLinear([(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]).mode() == 1.0
