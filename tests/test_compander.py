import copy
import math

import numpy as np
import pytest

from renyi_quant import (
    Exponential,
    Gaussian,
    Interval,
    Laplacian,
    PiecewiseLinear,
    Uniform,
    build_compander,
    cell_probabilities,
    distortion,
    optimal_point_density,
    quantizer_entropy,
    refine_codepoints,
)
from renyi_quant import compander, density, quadrature, quantizer, theory
from renyi_quant.density import QUANTILE_WIDTH
from renyi_quant.errors import DomainError
from renyi_quant.quantizer import Quantizer, cell_distortions
from renyi_quant.theory import rate_params


def test_optimal_point_density_uniform_is_itself():
    u = Uniform(0.0, 1.0)
    for alpha, r in ((0.0, 2.0), (0.5, 2.0), (0.9, 3.0)):
        assert optimal_point_density(u, alpha, r) == u


def test_optimal_point_density_gaussian_widens():
    g = Gaussian(0.0, 2.0)
    h = optimal_point_density(g, 0.5, 2.0)
    # beta2 = 5, variance scales by beta2
    assert h == Gaussian(0.0, 2.0 * math.sqrt(5.0))


def test_optimal_point_density_exponent():
    # alpha = 0.5, r = 2 gives tilt exponent 1/beta2 = 0.2
    g = Gaussian(0.0, 1.0)
    h = optimal_point_density(g, 0.5, 2.0)
    assert h.sigma == pytest.approx(1.0 / math.sqrt(0.2), rel=1e-12)


def test_optimal_point_density_alpha_zero_fixed_rate():
    g = Gaussian(0.0, 1.0)
    h = optimal_point_density(g, 0.0, 2.0)
    assert isinstance(h, Gaussian)
    assert h.sigma == pytest.approx(math.sqrt(3.0), rel=1e-14)


def test_optimal_point_density_domain():
    with pytest.raises(DomainError):
        optimal_point_density(Uniform(0.0, 1.0), 1.0, 2.0)
    with pytest.raises(DomainError):
        optimal_point_density(Uniform(0.0, 1.0), 0.5, 1.0)


def test_build_compander_uniform():
    q = build_compander(Uniform(0.0, 1.0), 4)
    assert q.breakpoints == (0.25, 0.5, 0.75)
    assert q.codepoints == (0.125, 0.375, 0.625, 0.875)
    q = build_compander(Uniform(0.0, 2.0), 2)
    assert q.breakpoints == (1.0,)
    assert q.codepoints == (0.5, 1.5)


def test_build_compander_gaussian_quartiles():
    q = build_compander(Gaussian(0.0, 1.0), 2)
    assert q.breakpoints[0] == pytest.approx(0.0, abs=1e-12)
    assert q.codepoints[0] == pytest.approx(-0.6744897501960817, abs=1e-9)
    assert q.codepoints[1] == pytest.approx(0.6744897501960817, abs=1e-9)


@pytest.mark.parametrize("n", [2, 4, 64, 4096])
@pytest.mark.parametrize("d", [Gaussian(0.0, 1.0), Laplacian(0.0, 1.0), Uniform(0.0, 1.0)], ids=repr)
def test_mirrored_build_compander_equals_the_direct_quantiles(d, n):
    """A symmetric point density's compander evaluates the j < n quantiles of
    j / (2n) and mirrors them about its center; where j / (2n) is exact, as
    at every n = 2^k the sweeps use, the result is the direct one bit for bit."""
    h = optimal_point_density(d, 0.5, 2.0)
    assert h.center is not None
    q = build_compander(h, n)
    x = h.quantile_array(np.arange(1, 2 * n) / (2 * n))
    assert np.array_equal(q._edges[1:-1].view(np.int64), x[1::2].view(np.int64))
    assert np.array_equal(q._codepoint_array.view(np.int64), x[0::2].view(np.int64))


def _one_build(h, n):
    """The compander of n from its own quantile_array call."""
    if h.center is None:
        x = h.quantile_array(np.arange(1, 2 * n) / (2 * n))
    else:
        left = h.quantile_array(np.arange(1, n) / (2 * n))
        x = np.concatenate((left, [h.center], 2.0 * h.center - left[::-1]))
    return x[0::2], x[1::2]


@pytest.mark.parametrize(
    "h",
    [
        Gaussian(0.0, 1.0),
        Gaussian(0.3, 1.7),  # 2c - x rounds: the mirrors are not exact
        Laplacian(-0.5, 0.8),
        Uniform(0.0, 1.0),
        Exponential(1.5, 0.25),  # no center: every quantile evaluated
        PiecewiseLinear([(0.0, 0.2), (1.0, 1.0), (3.0, 0.0)]).tilt(0.6),
    ],
    ids=repr,
)
def test_group_build_bit_equals_one_build_per_n(monkeypatch, h):
    """build_companders calls quantile_array once for the whole group, and each
    quantizer is the one its n gets from a call of its own, bit for bit."""
    ns = (2, 3, 16, 100, 4096)
    calls = []
    owner = next(cls for cls in type(h).__mro__ if "quantile_array" in vars(cls))
    monkeypatch.setattr(owner, "quantile_array", _recording(owner.quantile_array, calls))
    qs = compander.build_companders(h, ns)
    assert len(calls) == 1
    for n, q in zip(ns, qs, strict=True):
        codepoints, breakpoints = _one_build(h, n)
        assert np.array_equal(q._codepoint_array.view(np.int64), codepoints.view(np.int64))
        assert np.array_equal(q._edges[1:-1].view(np.int64), breakpoints.view(np.int64))
        assert q == build_compander(h, n)


@pytest.mark.parametrize("s", [1e-5, 1e5])
def test_tilted_piecewise_compander_scales_with_the_source(s):
    knots = [(0.0, 0.2), (1.0, 1.0), (3.0, 0.0)]
    unit = build_compander(PiecewiseLinear(knots).tilt(0.6), 64)
    scaled = build_compander(PiecewiseLinear([(x * s, y) for x, y in knots]).tilt(0.6), 64)
    for got, want in ((scaled.breakpoints, unit.breakpoints), (scaled.codepoints, unit.codepoints)):
        np.testing.assert_allclose(np.array(got) / s, want, rtol=0.0, atol=1e-14)


def _recording(fn, calls):
    def recorded(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)

    return recorded


def test_tilted_piecewise_compander_and_masses_are_closed(monkeypatch):
    calls = []
    numeric = (density.decreasing_roots, quadrature.integrate)
    for module in (compander, density, quadrature, quantizer, theory):
        for name, value in list(vars(module).items()):
            if any(value is fn for fn in numeric):
                monkeypatch.setattr(module, name, _recording(value, calls))
    d = PiecewiseLinear([(0.0, 0.2), (1.0, 1.0), (3.0, 0.0)])
    h = d.tilt(0.6)
    q = build_compander(h, 4096)
    for source in (h, d):
        assert cell_probabilities(q, source).sum() == pytest.approx(1.0, abs=1e-12)
    assert calls == []
    # the wrappers do see the solver and the quadrature where they still run
    refine_codepoints(build_compander(h, 4), d, 3.0)
    d.absolute_moment(2.0)
    assert set(calls) == {"decreasing_roots", "integrate"}


GROUP_NS = (2, 3, 4, 5, 7, 16, 37, 64, 255, 1024, 1025)
TRIANGLE = PiecewiseLinear([(-1.0, 0.0), (0.0, 1.0), (1.0, 0.0)])


@pytest.mark.parametrize(
    "h, mirrored",
    [
        (Gaussian(0.0, 1.0), "all"),
        (Laplacian(-0.5, 0.8), "all"),
        (Uniform(0.0, 1.0), "some"),  # center 0.5: at odd n, 1 - x rounds
        (Gaussian(0.3, 1.7), "none"),  # 2c - x rounds
        (TRIANGLE, "none"),  # no center: left for the quantizer to decide
    ],
    ids=repr,
)
def test_the_seeded_mirror_verdict_is_the_quantizers_own(monkeypatch, h, mirrored):
    """build_companders decides every compander's center from one TwoSum over
    the group's leading quantiles, and a pass under h makes no `_mirrors`
    call: the center is the one a copy decides from its own arrays, and the
    pass evaluates ceil(n / 2) cells where it is h's, n otherwise."""
    calls = []
    original = quantizer._mirrors
    monkeypatch.setattr(quantizer, "_mirrors", lambda x, c: calls.append(c) or original(x, c))
    qs = compander.build_companders(h, GROUP_NS)
    evaluated = [quantizer._evaluated(q, h) for q in qs]
    quantizer.group_probabilities(qs, h)
    assert calls == []
    c = h.center
    if c is None:
        assert all(q._center is quantizer._UNDECIDED for q in qs)
    centers = [q.center for q in qs]
    assert centers == [copy.copy(q).center for q in qs]
    assert set(centers) <= {c, None}
    verdicts = [center is not None for center in centers]
    assert {"all": all(verdicts), "some": any(verdicts) and not all(verdicts),
            "none": not any(verdicts)}[mirrored]
    assert evaluated == [(n + 1) // 2 if own else n for n, own in zip(GROUP_NS, verdicts)]


def _spoiled(h, index, value):
    """h whose quantile_array sets entry `index` of its result to value, or to
    the entry left of it where value is None."""

    class Spoiled(type(h)):
        def quantile_array(self, p):
            x = super().quantile_array(p)
            x[index] = x[index - 1] if value is None else value
            return x

    spoiled = copy.copy(h)
    object.__setattr__(spoiled, "__class__", Spoiled)  # the families are frozen dataclasses
    return spoiled


@pytest.mark.parametrize("h", [Exponential(1.0), Gaussian(0.0, 1.0)], ids=repr)
@pytest.mark.parametrize(
    "index, value",
    [(4, None), (3, None), (5, math.nan), (3, math.inf), (0, -math.inf), (6, math.inf)],
)
def test_the_group_check_refuses_with_the_constructors_message(monkeypatch, h, index, value):
    """A tie or a non-finite quantile in the group's second compander (n = 8)
    raises the DomainError that Quantizer raises for that compander alone; a
    group that passes constructs no Quantizer through its checks."""
    checked = []
    original = Quantizer.__init__
    monkeypatch.setattr(Quantizer, "__init__",
                        lambda self, *args: checked.append(1) or original(self, *args))
    assert len(compander.build_companders(h, (4, 8, 16))) == 3 and checked == []
    first = 3 if h.center is not None else 7  # quantiles of the n = 4 compander
    with pytest.raises(DomainError) as want:
        Quantizer(*_one_build(_spoiled(h, index, value), 8)[::-1])
    with pytest.raises(DomainError) as got:
        compander.build_companders(_spoiled(h, first + index, value), (4, 8, 16))
    assert str(got.value) == str(want.value)
    assert checked == [1, 1, 1]  # n = 4, then n = 8 twice: alone and in the group


def test_build_compander_needs_two_cells():
    with pytest.raises(DomainError):
        build_compander(Uniform(0.0, 1.0), 1)


@pytest.mark.parametrize("n", [2, 8, 64])
def test_compander_cells_have_equal_h_probability(n):
    h = Gaussian(0.0, 1.0)
    q = build_compander(h, n)
    masses = cell_probabilities(q, h)
    assert np.allclose(masses, 1.0 / n, atol=1e-9)


@pytest.mark.parametrize("n", [2, 8, 64])
def test_source_matched_compander_entropy_log_n(n):
    d = Laplacian(0.0, 1.0)
    q = build_compander(d, n)
    for alpha in (0.0, 0.3, 0.8, 1.0):
        assert quantizer_entropy(q, d, alpha) == pytest.approx(math.log(n), abs=1e-9)


def test_point_fraction_matches_fixed_rate_density():
    # N_n(I)/n approaches the alpha=0 point density mass of I
    g = Gaussian(0.0, 1.0)
    h = optimal_point_density(g, 0.0, 2.0)
    n = 4096
    q = build_compander(h, n)
    interval = Interval(0.0, 1.0)
    fraction = sum(interval.contains(c) for c in q.codepoints) / n
    assert fraction == pytest.approx(h.interval_mass(interval), abs=0.01)


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("n", [2, 16, 128])
def test_uniform_normalized_distortion_is_cell_constant(alpha, n):
    # for the uniform source the compander is exact at every n:
    # e^{rH} D = C(r) * span^r
    for span in (1.0, 2.0):
        u = Uniform(0.0, span)
        q = build_compander(optimal_point_density(u, alpha, 2.0), n)
        value = math.exp(2.0 * quantizer_entropy(q, u, alpha)) * distortion(q, u, 2.0)
        assert value == pytest.approx(rate_params(alpha, 2.0).c_r * span**2, rel=1e-10)


def test_refine_codepoints_uniform_midpoints_unchanged():
    u = Uniform(0.0, 1.0)
    q = build_compander(u, 4)
    refined = refine_codepoints(q, u, 2.0)
    assert refined.breakpoints == q.breakpoints
    assert np.allclose(refined.codepoints, q.codepoints, atol=1e-9)


def test_refine_codepoints_gaussian_half_means():
    g = Gaussian(0.0, 1.0)
    q = Quantizer((0.0,), (-1.0, 1.0))
    refined = refine_codepoints(q, g, 2.0)
    c = math.sqrt(2.0 / math.pi)
    assert refined.codepoints[0] == pytest.approx(-c, abs=1e-9)
    assert refined.codepoints[1] == pytest.approx(c, abs=1e-9)


def test_refine_codepoints_matches_mean_for_r2():
    # r = 2.5, next to the conditional mean of r = 2: distortion cannot rise
    g = Gaussian(0.0, 1.0)
    q = build_compander(optimal_point_density(g, 0.5, 2.0), 8)
    refined = refine_codepoints(q, g, 2.5)
    assert distortion(refined, g, 2.5) <= distortion(q, g, 2.5) + 1e-12


@pytest.mark.parametrize("n", [16, 4096])
def test_refine_codepoints_outer_centroids_cover_the_whole_tail(n):
    # r = 2: the last cell (a, inf) of N(0, 1) has centroid phi(a)/Q(a); at
    # n = 4096 the first cell lies wholly past the 1e-12 quantile window
    g = Gaussian(0.0, 1.0)
    q = build_compander(optimal_point_density(g, 0.5, 2.0), n)
    refined = refine_codepoints(q, g, 2.0)
    a = q.breakpoints[-1]
    centroid = math.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi) / (0.5 * math.erfc(a / math.sqrt(2.0)))
    assert refined.codepoints[-1] == pytest.approx(centroid, rel=1e-12)
    assert refined.codepoints[0] == pytest.approx(-centroid, rel=1e-12)
    # the generic first moment: a Laplacian(0, 1) tail beyond a has mean a + 1
    lap = Laplacian(0.0, 1.0)
    q = build_compander(optimal_point_density(lap, 0.5, 2.0), n)
    refined = refine_codepoints(q, lap, 2.0)
    assert refined.codepoints[-1] == pytest.approx(q.breakpoints[-1] + 1.0, rel=1e-12)
    assert refined.codepoints[0] == pytest.approx(q.breakpoints[0] - 1.0, rel=1e-12)


@pytest.mark.parametrize("n", [4, 16, 64])
def test_refine_codepoints_searches_the_whole_tail(n):
    # r = 3: beyond a, a Laplacian(0, 1) is a + Exp(1), and E|Y - t|^3 for
    # Y ~ Exp(1) is least where t^2 - 2t + 2 = 4 e^{-t}
    lo, hi = 1.0, 1.5
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if mid * mid - 2.0 * mid + 2.0 < 4.0 * math.exp(-mid) else (lo, mid)
    lap = Laplacian(0.0, 1.0)
    q = build_compander(optimal_point_density(lap, 0.5, 3.0), n)
    refined = refine_codepoints(q, lap, 3.0)
    # a golden section on the distortion itself stalls ~1e-8 away, where the
    # objective is flat to its rounding; a search over the cell clipped to the
    # 1e-12 quantile window misses by 3.6e-4 at n = 16
    assert refined.codepoints[-1] == pytest.approx(q.breakpoints[-1] + lo, abs=1e-12)
    assert refined.codepoints[0] == pytest.approx(q.breakpoints[0] - lo, abs=1e-12)


@pytest.mark.parametrize("d", [Gaussian(0.0, 1.0), Laplacian(0.0, 1.0)], ids=repr)
def test_refine_codepoints_r1_gives_the_cell_medians(d):
    q = build_compander(optimal_point_density(d, 0.5, 2.0), 64)
    refined = refine_codepoints(q, d, 1.0)
    edges = (-math.inf, *q.breakpoints, math.inf)
    for k, c in enumerate(refined.codepoints):
        a, b = edges[k], edges[k + 1]
        # the cell's half-mass point, from the side that keeps relative precision
        if b <= 0.0:
            median = d.quantile(0.5 * (d.cdf(a) + d.cdf(b)))
        else:
            median = d.isf(0.5 * (d.sf(a) + d.sf(b)))
        assert c == pytest.approx(median, abs=1e-12), k


def test_refine_codepoints_r2_gives_the_gaussian_centroids():
    g = Gaussian(0.0, 1.0)
    q = build_compander(optimal_point_density(g, 0.5, 2.0), 4096)
    refined = refine_codepoints(q, g, 2.0)
    a, b = np.array(q.breakpoints[:-1]), np.array(q.breakpoints[1:])
    mass = np.array([g.interval_mass(Interval(lo, hi)) for lo, hi in zip(a, b)])
    centroids = (g.pdf_array(a) - g.pdf_array(b)) / mass
    np.testing.assert_allclose(
        refined.codepoints[1:-1], centroids, rtol=0.0, atol=2 * QUANTILE_WIDTH
    )


def test_refine_codepoints_degenerate_cell_errors():
    from renyi_quant.errors import DegenerateCellError

    u = Uniform(0.0, 1.0)
    dead_cell = Quantizer((2.0,), (1.5, 2.5))  # the right cell has no mass
    with pytest.raises(DegenerateCellError):
        refine_codepoints(dead_cell, u, 2.0)


def test_refine_codepoints_never_increases_distortion():
    rng = np.random.default_rng(11)
    densities = [Gaussian(0.0, 1.0), Laplacian(0.0, 1.0), Uniform(-1.0, 2.0)]
    for trial in range(20):
        d = densities[trial % len(densities)]
        n = int(rng.integers(2, 12))
        alpha = float(rng.uniform(0.0, 0.95))
        r = float(rng.uniform(1.2, 3.0))
        q = build_compander(optimal_point_density(d, alpha, r), n)
        refined = refine_codepoints(q, d, r)
        assert distortion(refined, d, r) <= distortion(q, d, r) * (1.0 + 1e-10)
    # the last cell (9, inf) holds ~2e-19 of a restricted density's mass
    d = Gaussian(0.0, 1.0).restrict(Interval(0.0, math.inf))
    q = Quantizer((1.0, 9.0), (0.5, 5.0, 9.1))
    refined = refine_codepoints(q, d, 3.0)
    assert np.all(cell_distortions(refined, d, 3.0) <= cell_distortions(q, d, 3.0) * (1.0 + 1e-10))
