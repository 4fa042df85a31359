import math

import numpy as np
import pytest

from renyi_quant import (
    Gaussian,
    Interval,
    Laplacian,
    Uniform,
    build_compander,
    cell_probabilities,
    distortion,
    optimal_point_density,
    quantizer_entropy,
    refine_codepoints,
)
from renyi_quant.density import QUANTILE_WIDTH
from renyi_quant.errors import DomainError
from renyi_quant.quantizer import Quantizer, cell_distortions
from renyi_quant.theory import cell_constant


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
        assert value == pytest.approx(cell_constant(2.0) * span**2, rel=1e-10)


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
