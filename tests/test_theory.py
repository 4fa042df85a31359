import math

import numpy as np
import pytest

from renyi_quant import (
    Gaussian,
    Interval,
    Laplacian,
    PiecewiseLinear,
    Uniform,
    compander_performance,
    entropy_density_limit,
    limit_distortion_measure,
    mismatch_distortion_limit,
    mismatch_entropy_shift,
    mismatch_loss,
    mismatch_loss_fixed_rate,
    mismatch_loss_variable_rate,
    optimal_point_density,
    quantization_coefficient,
    rate_params,
    renyi_divergence,
    split_bound,
    tilted_measure,
)
from renyi_quant.errors import DomainError
from renyi_quant.density import TAIL_MASS
from renyi_quant.quadrature import truncate_support
from renyi_quant.theory import RATIO_CAP, check_density_ratio_bound

# frozen oracle values (high-precision evaluation of the closed forms)
GAUSS_POWER_06 = 1.8644912453132446          # integral of phi^0.6
Q_GAUSS = 1.8776753129507462                 # (1/12) * GAUSS_POWER_06^5
D_HALF_GAUSS = 0.058891517828191727          # D_0.5(N(0,1) || N(0,sqrt 2))
SHIFT_GAUSS_PAIR = 0.75592894601845445       # g=N(0,2), f=N(0,1), alpha=.5, r=2
DIST_GAUSS_PAIR = 2.0024365363156667
LOSS_GAUSS_PAIR = 1.066444513864785
LOSS0_GAUSS_PAIR = 2.5298221281347035        # e^{2 D_3(f*||g*)}
KL_GAUSS_PAIR = 0.31814718055994531          # KL(N(0,1) || N(0,2))


def gaussian_renyi_divergence(alpha, s1, s2):
    """Closed-form order-alpha divergence between zero-mean Gaussians."""
    s = alpha / s1**2 + (1.0 - alpha) / s2**2
    integral = (
        (2.0 * math.pi * s1**2) ** (-alpha / 2.0)
        * (2.0 * math.pi * s2**2) ** (-(1.0 - alpha) / 2.0)
        * math.sqrt(2.0 * math.pi / s)
    )
    return math.log(integral) / (alpha - 1.0)


# --- rate params -----------------------------------------------------------------


def test_rate_params_examples():
    p = rate_params(0.5, 2.0)
    assert p.beta1 == pytest.approx(0.6, abs=1e-15)
    assert p.beta2 == pytest.approx(5.0, abs=1e-12)
    assert p.c_r == pytest.approx(1.0 / 12.0, abs=1e-16)
    p = rate_params(0.0, 2.0)
    assert p.beta1 == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert p.beta2 == pytest.approx(3.0, abs=1e-12)


def test_rate_params_identities_random():
    rng = np.random.default_rng(5)
    for _ in range(50):
        alpha = float(rng.uniform(0.0, 0.999))
        r = float(rng.uniform(1.001, 6.0))
        p = rate_params(alpha, r)
        assert p.beta1 - alpha == pytest.approx((1.0 - alpha) / p.beta2, abs=1e-12)
        assert p.beta1 - 1.0 == pytest.approx(-r / p.beta2, abs=1e-12)
        assert p.beta2 == pytest.approx(1.0 + r / (1.0 - alpha), rel=1e-12)
        assert 0.0 < p.beta1 < 1.0


def test_rate_params_domain():
    for alpha, r in ((1.0, 2.0), (-0.1, 2.0), (0.5, 1.0), (0.5, 0.5)):
        with pytest.raises(DomainError):
            rate_params(alpha, r)


# --- quantization coefficient ---------------------------------------------------------


def test_quantization_coefficient_examples():
    assert quantization_coefficient(Uniform(0.0, 1.0), 0.5, 2.0) == pytest.approx(
        1.0 / 12.0, abs=1e-14
    )
    assert quantization_coefficient(Uniform(0.0, 1.0), 0.2, 2.0) == pytest.approx(
        1.0 / 12.0, abs=1e-14
    )
    assert quantization_coefficient(Uniform(0.0, 2.0), 0.5, 2.0) == pytest.approx(
        1.0 / 3.0, rel=1e-12
    )
    assert quantization_coefficient(Gaussian(0.0, 1.0), 0.5, 2.0) == pytest.approx(
        Q_GAUSS, rel=1e-12
    )


@pytest.mark.parametrize("s", [0.5, 2.0, 5.0])
@pytest.mark.parametrize(
    "d", [Uniform(0.0, 1.0), Gaussian(0.0, 1.0), Laplacian(0.0, 1.0)], ids=lambda d: repr(d)
)
def test_quantization_coefficient_scaling(d, s):
    r = 2.0
    q1 = quantization_coefficient(d, 0.5, r)
    q2 = quantization_coefficient(type(d)(0.0, s), 0.5, r)  # d scaled by s
    assert q2 == pytest.approx(s**r * q1, rel=1e-6)


# --- Renyi divergence -------------------------------------------------------------------


def test_renyi_divergence_identical_is_zero():
    for d in (Uniform(0.0, 1.0), Gaussian(0.0, 1.0), Laplacian(0.0, 1.0)):
        for alpha in (0.3, 0.5, 1.0, 2.0):
            assert renyi_divergence(d, d, alpha) == pytest.approx(0.0, abs=1e-9)


def test_renyi_divergence_uniform_pair():
    u1, u2 = Uniform(0.0, 1.0), Uniform(0.0, 2.0)
    for alpha in (0.3, 0.7, 1.0, 3.0):
        assert renyi_divergence(u1, u2, alpha) == pytest.approx(math.log(2.0), rel=1e-9)


def test_renyi_divergence_gaussian_closed_form():
    value = renyi_divergence(Gaussian(0.0, 1.0), Gaussian(0.0, math.sqrt(2.0)), 0.5)
    assert value == pytest.approx(D_HALF_GAUSS, rel=1e-9)
    assert value == pytest.approx(gaussian_renyi_divergence(0.5, 1.0, math.sqrt(2.0)), rel=1e-9)


def test_renyi_divergence_nonnegative_grid():
    densities = [
        Uniform(0.0, 1.0),
        Uniform(0.25, 0.75),
        Gaussian(0.0, 1.0),
        Gaussian(0.5, 2.0),
        Laplacian(0.0, 1.0),
    ]
    for u in densities:
        for v in densities:
            val = renyi_divergence(u, v, 0.5)
            assert val >= -1e-9
            if u is v:
                assert val == pytest.approx(0.0, abs=1e-9)
            elif math.isfinite(val):
                assert val > 1e-6


def test_renyi_divergence_support_violation_infinite():
    # KL and alpha > 1 need supp(u) inside supp(v)
    u, v = Uniform(0.0, 2.0), Uniform(0.0, 1.0)
    assert renyi_divergence(u, v, 1.0) == math.inf
    assert renyi_divergence(u, v, 3.0) == math.inf


def test_renyi_divergence_tail_divergence_infinite():
    # equal supports but u wider: the order-3 integrand blows up in the tails
    assert renyi_divergence(Gaussian(0.0, 2.0), Gaussian(0.0, 1.0), 3.0) == math.inf


def test_kl_divergence_light_tail_reference():
    # KL(Laplace(0,1) || N(0,1)) = -(1 + log 2) + log(2 pi)/2 + 1, finite even
    # though the Gaussian pdf underflows where the Laplacian still has mass
    expected = -(1.0 + math.log(2.0)) + 0.5 * math.log(2.0 * math.pi) + 1.0
    assert renyi_divergence(Laplacian(0.0, 1.0), Gaussian(0.0, 1.0), 1.0) == pytest.approx(
        expected, rel=1e-9
    )


def test_mismatch_distortion_limit_divergence_propagates():
    from renyi_quant.errors import InfiniteIntegralError

    # a Laplacian source under a Gaussian design has an unbounded Bennett integral
    with pytest.raises(InfiniteIntegralError):
        mismatch_distortion_limit(Gaussian(0.0, 1.0), Laplacian(0.0, 0.2), 0.5, 2.0)


# --- tilted measure ------------------------------------------------------------------------


def test_tilted_measure_examples():
    assert tilted_measure(Uniform(0.0, 1.0), 0.5, 2.0) == Uniform(0.0, 1.0)
    t = tilted_measure(Gaussian(0.0, 1.0), 0.5, 2.0)
    assert isinstance(t, Gaussian)
    assert t.sigma == pytest.approx(1.0 / math.sqrt(0.6), rel=1e-12)
    assert t.power_integral(1.0) == pytest.approx(1.0, abs=1e-12)


# --- entropy density limit -------------------------------------------------------------------


def test_entropy_density_limit_examples():
    u = Uniform(0.0, 1.0)
    assert entropy_density_limit(u, Interval(0.0, 0.5), 0.5, 2.0) == pytest.approx(
        math.sqrt(0.5), rel=1e-12
    )
    # alpha near 0 reduces to the tilted (point-density) mass
    g = Gaussian(0.0, 1.0)
    iv = Interval(0.0, 1.0)
    near_zero = entropy_density_limit(g, iv, 1e-9, 2.0)
    h = optimal_point_density(g, 0.0, 2.0)
    assert near_zero == pytest.approx(h.interval_mass(iv), rel=1e-6)


def test_entropy_density_limit_full_support_minus_null_set():
    u = Uniform(0.0, 1.0)
    value = entropy_density_limit(u, Interval(1e-12, 1.0), 0.5, 2.0)
    assert value == pytest.approx(1.0, abs=1e-9)


def test_entropy_density_limit_degenerate_interval():
    u = Uniform(0.0, 1.0)
    with pytest.raises(DomainError):
        entropy_density_limit(u, Interval(-3.0, -2.0), 0.5, 2.0)
    with pytest.raises(DomainError):
        entropy_density_limit(u, Interval(-1.0, 2.0), 0.5, 2.0)


def test_entropy_density_partition_normalization():
    g = Gaussian(0.0, 1.0)
    alpha, r = 0.4, 2.0
    iv = Interval(-0.7, 0.9)
    mass = g.interval_mass(iv)
    lim1 = entropy_density_limit(g, iv, alpha, r)
    tilted = tilted_measure(g, alpha, r)
    lim2 = (1.0 - tilted.interval_mass(iv)) * (1.0 - mass) ** (-alpha)
    assert lim1 * mass**alpha + lim2 * (1.0 - mass) ** alpha == pytest.approx(
        1.0, abs=1e-9
    )


# --- limit distortion measure -------------------------------------------------------------------


def test_limit_distortion_measure_examples():
    u = Uniform(0.0, 1.0)
    assert limit_distortion_measure(u, Interval(0.0, 0.5), 0.5, 2.0) == pytest.approx(
        1.0 / 24.0, rel=1e-12
    )
    # whole line gives back the quantization coefficient
    g = Gaussian(0.0, 1.0)
    assert limit_distortion_measure(g, Interval(-60.0, 60.0), 0.5, 2.0) == pytest.approx(
        quantization_coefficient(g, 0.5, 2.0), rel=1e-9
    )
    assert limit_distortion_measure(u, Interval(5.0, 6.0), 0.5, 2.0) == 0.0


def test_limit_distortion_measure_additive():
    g = Gaussian(0.0, 1.0)
    alpha, r = 0.5, 2.0
    parts = [Interval(-50.0, -0.5), Interval(-0.5, 0.8), Interval(0.8, 50.0)]
    total = sum(limit_distortion_measure(g, iv, alpha, r) for iv in parts)
    assert total == pytest.approx(quantization_coefficient(g, alpha, r), rel=1e-9)


# --- compander performance -----------------------------------------------------------------------


@pytest.mark.parametrize(
    "d", [Uniform(0.0, 1.0), Gaussian(0.0, 1.0), Laplacian(0.0, 1.0)], ids=lambda d: repr(d)
)
def test_compander_performance_at_optimum(d):
    alpha, r = 0.5, 2.0
    h = optimal_point_density(d, alpha, r)
    assert compander_performance(d, h, alpha, r) == pytest.approx(
        quantization_coefficient(d, alpha, r), rel=1e-8
    )


def test_compander_performance_uniform_identity():
    u = Uniform(0.0, 1.0)
    assert compander_performance(u, u, 0.5, 2.0) == pytest.approx(1.0 / 12.0, rel=1e-10)


def test_compander_performance_strictly_above_for_other_h():
    # suboptimal point densities whose Bennett integral still converges
    g = Gaussian(0.0, 1.0)
    alpha, r = 0.5, 2.0
    q_coeff = quantization_coefficient(g, alpha, r)
    for h in (
        Gaussian(0.0, 1.8),
        Gaussian(0.0, 4.0),
        Gaussian(0.2, math.sqrt(5.0)),
        Laplacian(0.0, 2.0),
    ):
        assert compander_performance(g, h, alpha, r) > q_coeff * (1.0 + 1e-6)


# --- mismatch formulas -----------------------------------------------------------------------------


def test_mismatch_entropy_shift_examples():
    g = Uniform(0.0, 1.0)
    assert mismatch_entropy_shift(g, g, 0.5, 2.0) == pytest.approx(1.0, abs=1e-10)
    f = Uniform(0.0, 0.5)
    assert mismatch_entropy_shift(g, f, 0.5, 2.0) == pytest.approx(
        math.sqrt(2.0) / 2.0, rel=1e-10
    )
    # alpha -> 0 with equal supports tends to 1
    assert mismatch_entropy_shift(
        Gaussian(0.0, 2.0), Gaussian(0.0, 1.0), 1e-9, 2.0
    ) == pytest.approx(1.0, rel=1e-6)


def test_mismatch_entropy_shift_gaussian_pair():
    assert mismatch_entropy_shift(
        Gaussian(0.0, 2.0), Gaussian(0.0, 1.0), 0.5, 2.0
    ) == pytest.approx(SHIFT_GAUSS_PAIR, rel=1e-9)


def test_mismatch_entropy_shift_warns_on_unbounded_ratio():
    # sigma_f > sigma_g violates the bounded-ratio hypothesis
    with pytest.warns(UserWarning, match="unbounded"):
        mismatch_entropy_shift(Gaussian(0.0, 1.0), Gaussian(0.0, 2.0), 0.5, 2.0)


def test_mismatch_distortion_limit_examples():
    g = Uniform(0.0, 1.0)
    f = Uniform(0.0, 0.5)
    assert mismatch_distortion_limit(g, g, 0.5, 2.0) == pytest.approx(
        1.0 / 12.0, rel=1e-9
    )
    assert mismatch_distortion_limit(g, f, 0.5, 2.0) == pytest.approx(
        1.0 / 48.0, rel=1e-9
    )
    assert mismatch_distortion_limit(
        Gaussian(0.0, 2.0), Gaussian(0.0, 1.0), 0.5, 2.0
    ) == pytest.approx(DIST_GAUSS_PAIR, rel=1e-8)


def test_mismatch_distortion_limit_matches_compander_performance():
    for g, f in (
        (Uniform(0.0, 1.0), Uniform(0.0, 0.5)),
        (Gaussian(0.0, 2.0), Gaussian(0.0, 1.0)),
    ):
        alpha, r = 0.5, 2.0
        h = optimal_point_density(g, alpha, r)
        assert mismatch_distortion_limit(g, f, alpha, r) == pytest.approx(
            compander_performance(f, h, alpha, r), rel=1e-8
        )


def test_mismatch_loss_examples():
    g = Uniform(0.0, 1.0)
    f = Uniform(0.0, 0.5)
    assert mismatch_loss(g, g, 0.5, 2.0) == pytest.approx(1.0, abs=1e-9)
    # f is a rescaling of g; the g-compander restricted to supp(f) is optimal
    assert mismatch_loss(g, f, 0.5, 2.0) == pytest.approx(1.0, abs=1e-9)
    assert mismatch_loss(Gaussian(0.0, 2.0), Gaussian(0.0, 1.0), 0.5, 2.0) == pytest.approx(
        LOSS_GAUSS_PAIR, rel=1e-8
    )


# the (g, f) pairs of the mismatch grid below whose supports are equal: only for
# those does the generic ratio at alpha = 0 equal the fixed-rate formula
EQUAL_SUPPORT_PAIRS = [
    (Gaussian(0.0, 2.0), Gaussian(0.0, 1.0)),
    (Gaussian(0.0, 2.0), Gaussian(0.3, 1.5)),
    (Laplacian(0.0, 2.0), Laplacian(0.0, 1.0)),
    (Laplacian(0.0, 2.0), Gaussian(0.0, 1.0)),
    (Uniform(-2.0, 2.0), Uniform(-2.0, 2.0)),
]


@pytest.mark.parametrize("g, f", EQUAL_SUPPORT_PAIRS, ids=repr)
def test_mismatch_loss_endpoint_alpha_zero(g, f):
    generic = mismatch_loss(g, f, 0.0, 2.0)
    dedicated = mismatch_loss_fixed_rate(g, f, 2.0)
    assert generic == pytest.approx(dedicated, rel=1e-8)
    if (g, f) == (Gaussian(0.0, 2.0), Gaussian(0.0, 1.0)):
        assert dedicated == pytest.approx(LOSS0_GAUSS_PAIR, rel=1e-8)


def test_mismatch_loss_endpoint_near_one():
    g, f = Gaussian(0.0, 2.0), Gaussian(0.0, 1.0)
    target = math.exp(2.0 * KL_GAUSS_PAIR)
    assert mismatch_loss(g, f, 1.0 - 1e-4, 2.0) == pytest.approx(target, abs=1e-2)
    assert mismatch_loss_variable_rate(g, f, 2.0) == pytest.approx(target, rel=1e-8)


# near 1 the point density of g is far wider than f (Laplacian scale 201 g.scale
# at 0.99), so these orders check that the integrals still resolve f's peak
ALPHA_GRID = [0.0, 0.5, 0.9, 0.97, 0.99]


@pytest.mark.parametrize("alpha", ALPHA_GRID)
def test_mismatch_loss_at_least_one_on_grid(alpha):
    # 3x3 grid of (g, f) pairs satisfying the bounded-ratio hypothesis;
    # Laplacian-over-Gaussian and the like are excluded exactly because f/g
    # blows up there and the theorem does not apply
    grid = {
        Gaussian(0.0, 2.0): [Gaussian(0.0, 1.0), Gaussian(0.3, 1.5), Uniform(-1.0, 1.0)],
        Laplacian(0.0, 2.0): [Laplacian(0.0, 1.0), Gaussian(0.0, 1.0), Uniform(-1.0, 1.0)],
        Uniform(-2.0, 2.0): [Uniform(-1.0, 1.0), Uniform(-2.0, 2.0), Uniform(0.0, 1.5)],
    }
    for g, fs in grid.items():
        for f in fs:
            assert check_density_ratio_bound(f, g).bounded
            loss = mismatch_loss(g, f, alpha, 2.0)
            assert loss >= 1.0 - 1e-9


def _mp_pdf(mpmath, d):
    """An mpmath pdf of d and the points its integrals split at (support ends, mode)."""
    if isinstance(d, Gaussian):
        m, s = mpmath.mpf(d.mean), mpmath.mpf(d.sigma)
        c = 1 / (s * mpmath.sqrt(2 * mpmath.pi))
        return (lambda x: c * mpmath.exp(-(((x - m) / s) ** 2) / 2)), [-mpmath.inf, m, mpmath.inf]
    if isinstance(d, Laplacian):
        m, b = mpmath.mpf(d.mean), mpmath.mpf(d.scale)
        return (lambda x: mpmath.exp(-abs(x - m) / b) / (2 * b)), [-mpmath.inf, m, mpmath.inf]
    a, b = mpmath.mpf(d.a), mpmath.mpf(d.b)
    return (lambda x: 1 / (b - a) if a < x <= b else mpmath.mpf(0)), [a, b]


def _mp_mismatch_loss(mpmath, g, f, alpha, r):
    """a^(r/(1-alpha)) b / (int f^beta1)^beta2 with a = int f^alpha h^(1-alpha),
    b = int f h^-r and h the normalized g^(1/beta2), every integral by mpmath.quad."""
    alpha, r = mpmath.mpf(alpha), mpmath.mpf(r)
    beta1 = (1 - alpha + alpha * r) / (1 - alpha + r)
    beta2 = (1 - alpha + r) / (1 - alpha)
    gp, g_pts = _mp_pdf(mpmath, g)
    fp, f_pts = _mp_pdf(mpmath, f)
    norm = mpmath.quad(lambda x: gp(x) ** (1 / beta2), g_pts)

    def h(x):
        return gp(x) ** (1 / beta2) / norm

    def a_integrand(x):
        fx = fp(x)
        return fx**alpha * h(x) ** (1 - alpha) if fx > 0 else 0

    a_int = mpmath.quad(a_integrand, f_pts)
    b_int = mpmath.quad(lambda x: fp(x) / h(x) ** r, f_pts)
    f_power = mpmath.quad(lambda x: fp(x) ** beta1, f_pts)
    return a_int ** (r / (1 - alpha)) * b_int / f_power**beta2


@pytest.mark.parametrize("alpha", ALPHA_GRID)
@pytest.mark.parametrize(
    "g, f",
    [
        (Laplacian(0.0, 1.5), Gaussian(0.0, 1.0)),
        (Gaussian(0.0, 2.0), Gaussian(0.0, 1.0)),
        (Uniform(0.0, 1.0), Uniform(0.0, 0.5)),
    ],
    ids=repr,
)
def test_mismatch_loss_matches_mpmath_oracle(g, f, alpha):
    mpmath = pytest.importorskip("mpmath")
    # a_int carries a 1e-10 tolerance and is raised to r/(1-alpha) = 200 at 0.99
    with mpmath.workdps(20):
        want = float(_mp_mismatch_loss(mpmath, g, f, alpha, 2.0))
    assert mismatch_loss(g, f, alpha, 2.0) == pytest.approx(want, rel=1e-8)


def test_ratio_bound_report():
    ok = check_density_ratio_bound(Gaussian(0.0, 1.0), Gaussian(0.0, 2.0))
    assert ok.bounded
    assert ok.max_ratio == pytest.approx(1.1 * 2.0, rel=1e-3)  # ratio peaks at 2 at x=0
    bad = check_density_ratio_bound(Gaussian(0.0, 2.0), Gaussian(0.0, 1.0))
    assert not bad.bounded


def _ratio_bound_loop(f, g, grid_size=10_000):
    """The grid check one scalar pdf pair at a time, as the reference."""
    window = truncate_support(f, TAIL_MASS)
    xs = np.linspace(window.lo, window.hi, grid_size + 2)[1:-1]
    worst, worst_x, bounded = 0.0, float(xs[0]), True
    for x in xs:
        fx = f.pdf(float(x))
        if fx <= 0.0:
            continue
        gx = g.pdf(float(x))
        ratio = fx / gx if gx > 0.0 else math.inf
        if ratio > worst:
            worst, worst_x = ratio, float(x)
        if ratio > RATIO_CAP:
            bounded = False
    return bounded, 1.1 * worst, worst_x, grid_size


@pytest.mark.parametrize(
    "f, g",
    [
        (Gaussian(0.0, 1.0), Gaussian(0.0, 2.0)),
        (Gaussian(0.0, 2.0), Gaussian(0.0, 1.0)),
        (Gaussian(0.3, 1.5), Gaussian(0.0, 2.0)),
        (Uniform(0.0, 0.5), Uniform(0.0, 1.0)),
        (Uniform(0.0, 1.0), Uniform(0.0, 0.5)),  # g vanishes on half of f's support
        (Gaussian(0.0, 1.0), Uniform(-1.0, 1.0)),  # g vanishes in both tails
        (Uniform(-3.0, 3.0), Gaussian(0.0, 1.0)),
        (Laplacian(0.0, 1.0), Laplacian(0.5, 2.0)),
        (Laplacian(0.0, 1.0), Gaussian(0.0, 1.0)),
        (Gaussian(0.0, 1.0), Laplacian(0.0, 2.0)),
        # f vanishes on the left third of its grid, and g with it
        (PiecewiseLinear([(-2.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (1.0, 0.0)]), Uniform(-1.0, 1.0)),
    ],
    ids=repr,
)
def test_ratio_bound_matches_scalar_loop(f, g):
    got = check_density_ratio_bound(f, g)
    bounded, max_ratio, argmax, grid_size = _ratio_bound_loop(f, g)
    assert (got.bounded, got.argmax, got.grid_size) == (bounded, argmax, grid_size)
    assert got.max_ratio == pytest.approx(max_ratio, rel=1e-15)


# --- split bound --------------------------------------------------------------------------------------


def test_split_bound_symmetric():
    res = split_bound(1.0, 1.0, 2.0, 0.5)
    assert res.z0 == pytest.approx(0.5, abs=1e-15)
    assert res.f_min == pytest.approx(8.0, abs=1e-12)
    assert res.f_value == pytest.approx(8.0, abs=1e-12)


def test_split_bound_single_term():
    res = split_bound(1.0, 0.0, 2.0, 0.9)
    assert res.f_min == pytest.approx(1.0, abs=1e-12)
    assert res.z0 == pytest.approx(1.0, abs=1e-15)


def test_split_bound_matches_tilted_mass():
    # the minimizer location reproduces the tilted measure of the interval
    u = Uniform(0.0, 1.0)
    p = rate_params(0.5, 2.0)
    a = u.partial_power_integral(p.beta1, Interval(0.0, 0.5)) ** p.beta2
    b = u.partial_power_integral(p.beta1, Interval(0.5, 1.0)) ** p.beta2
    res = split_bound(a, b, p.beta2 - 1.0, 0.3)
    assert res.f_min == pytest.approx(u.power_integral(p.beta1) ** p.beta2, rel=1e-12)
    assert res.z0 == pytest.approx(0.5, abs=1e-12)


def test_split_bound_strict_minimizer_random():
    rng = np.random.default_rng(17)
    for _ in range(100):
        a = float(rng.uniform(0.01, 5.0))
        b = float(rng.uniform(0.01, 5.0))
        gamma = float(rng.uniform(0.1, 4.0))
        res0 = split_bound(a, b, gamma, 0.5)
        z = float(rng.uniform(1e-6, 1.0 - 1e-6))
        if abs(z - res0.z0) < 1e-9:
            continue
        res = split_bound(a, b, gamma, z)
        assert res.f_value > res.f_min
        at_min = split_bound(a, b, gamma, res0.z0)
        assert at_min.f_value == pytest.approx(at_min.f_min, rel=1e-12)


def test_split_bound_degenerate():
    with pytest.raises(DomainError):
        split_bound(0.0, 0.0, 2.0, 0.5)
