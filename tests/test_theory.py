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
from renyi_quant import quadrature, theory
from renyi_quant.errors import DomainError, InfiniteIntegralError
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


def _count_joint_integrals(monkeypatch):
    """The densities count of each theory._joint_integral call, as they happen;
    each must run quadrature.integrate exactly once."""
    calls, integrals = [], []
    original, original_integrate = theory._joint_integral, quadrature.integrate

    def integrating(*args, **kwargs):
        integrals.append(args[1])
        return original_integrate(*args, **kwargs)

    def counting(fn, densities):
        calls.append(len(densities))
        before = len(integrals)
        value = original(fn, densities)
        assert len(integrals) == before + 1
        return value

    monkeypatch.setattr(quadrature, "integrate", integrating)
    monkeypatch.setattr(theory, "_joint_integral", counting)
    return calls


@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_mismatch_distortion_limit_integrates_each_integral_once(monkeypatch, alpha):
    # a Gaussian source under a Laplacian design: h is no tilt of f, so both integrate
    g, f = Laplacian(0.0, 1.5), Gaussian(0.0, 1.0)
    calls = _count_joint_integrals(monkeypatch)
    value = mismatch_distortion_limit(g, f, alpha, 2.0)
    # a_int over f and h, which the divergence cross-check reuses, and b_int over f
    assert calls == [2, 1]
    h = optimal_point_density(g, alpha, 2.0)
    assert value == pytest.approx(compander_performance(f, h, alpha, 2.0), rel=1e-8)


@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_mismatch_distortion_limit_closed_for_a_tilt_pair(monkeypatch, alpha):
    # h is a tilt of f (both zero-mean Gaussians): no integral runs
    calls = _count_joint_integrals(monkeypatch)
    value = mismatch_distortion_limit(Gaussian(0.0, 2.0), Gaussian(0.0, 1.0), alpha, 2.0)
    assert calls == []
    if alpha == 0.5:
        assert value == pytest.approx(DIST_GAUSS_PAIR, rel=1e-14)


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


@pytest.mark.parametrize("scale", [1.0, 1e-13, 1e13])
def test_compander_performance_support_check_scales_with_the_source(scale):
    # a point density covering only half of the source is refused by name at
    # every scale; an end off by rounding (5e-13 of the width) still passes
    with pytest.raises(DomainError, match="does not cover"):
        compander_performance(Uniform(0.0, scale), Uniform(0.0, 0.5 * scale), 0.5, 2.0)
    assert theory._support_within(Interval(0.0, scale * (1.0 + 5e-13)), Interval(0.0, scale))
    assert not theory._support_within(Interval(0.0, scale * (1.0 + 5e-12)), Interval(0.0, scale))
    # unbounded supports compare their finite ends exactly
    assert theory._support_within(Interval(0.0, math.inf), Interval(0.0, math.inf))
    assert not theory._support_within(Interval(-1e-300, math.inf), Interval(0.0, math.inf))


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
    if isinstance(d, Exponential):
        lam, s = mpmath.mpf(d.rate), mpmath.mpf(d.shift)
        return (lambda x: lam * mpmath.exp(-lam * (x - s)) if x > s else mpmath.mpf(0)), [s, mpmath.inf]
    a, b = mpmath.mpf(d.a), mpmath.mpf(d.b)
    return (lambda x: 1 / (b - a) if a < x <= b else mpmath.mpf(0)), [a, b]


def _mp_mismatch_loss(mpmath, g, f, alpha, r):
    """a^(r/(1-alpha)) b / (int f^beta1)^beta2 with a = int f^alpha h^(1-alpha),
    b = int f h^-r and h the normalized g^(1/beta2), every integral by mpmath.quad,
    split at the points of both densities inside f's support (h has g's kink)."""
    alpha, r = mpmath.mpf(alpha), mpmath.mpf(r)
    beta1 = (1 - alpha + alpha * r) / (1 - alpha + r)
    beta2 = (1 - alpha + r) / (1 - alpha)
    gp, g_pts = _mp_pdf(mpmath, g)
    fp, f_pts = _mp_pdf(mpmath, f)
    f_pts = sorted({*f_pts, *(x for x in g_pts if f_pts[0] < x < f_pts[-1])})
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
        (Laplacian(0.0, 2.0), Uniform(-1.0, 1.0)),  # g's kink inside f's support
    ],
    ids=repr,
)
def test_mismatch_loss_matches_mpmath_oracle(g, f, alpha):
    mpmath = pytest.importorskip("mpmath")
    # a_int carries a 1e-10 tolerance and is raised to r/(1-alpha) = 200 at 0.99
    with mpmath.workdps(20):
        want = float(_mp_mismatch_loss(mpmath, g, f, alpha, 2.0))
    assert mismatch_loss(g, f, alpha, 2.0) == pytest.approx(want, rel=1e-8)


def _mp_power_product(mpmath, u, a, v, b):
    """The integral of u^a v^b over u's support by mpmath.quad; u, v > 0 inside it."""
    up, points = _mp_pdf(mpmath, u)
    vp, _ = _mp_pdf(mpmath, v)
    a, b = mpmath.mpf(a), mpmath.mpf(b)
    return mpmath.quad(lambda x: up(x) ** a * vp(x) ** b, points)


# same-family, same-location (g, f): every predictor integral takes the closed route
TILT_PAIRS = [
    (Gaussian(0.3, 2.0), Gaussian(0.3, 1.0)),
    (Laplacian(-0.5, 2.0), Laplacian(-0.5, 1.0)),
    (Exponential(0.5, 1.0), Exponential(1.0, 1.0)),
]


@pytest.mark.parametrize("alpha", ALPHA_GRID)
@pytest.mark.parametrize("g, f", TILT_PAIRS, ids=repr)
def test_closed_predictors_match_mpmath_oracle(monkeypatch, g, f, alpha):
    mpmath = pytest.importorskip("mpmath")

    def no_quadrature(fn, densities):
        raise AssertionError("a tilt pair integrated numerically")

    monkeypatch.setattr(theory, "_joint_integral", no_quadrature)
    r = 2.0
    p = rate_params(alpha, r)
    h = optimal_point_density(g, alpha, r)
    f_star, g_star = f.tilt(1.0 / (1.0 + r)), g.tilt(1.0 / (1.0 + r))
    got = {
        "compander": compander_performance(f, h, alpha, r),
        "shift": mismatch_entropy_shift(g, f, alpha, r),
        "loss": mismatch_loss(g, f, alpha, r),
        "divergence_1+r": renyi_divergence(f_star, g_star, 1.0 + r),
    }
    with mpmath.workdps(30):
        mpf = mpmath.mpf
        a_int = _mp_power_product(mpmath, f, alpha, h, 1.0 - alpha)
        b_int = _mp_power_product(mpmath, f, 1.0, h, -r)
        compander = mpf(p.c_r) * a_int ** (mpf(r) / (1 - mpf(alpha))) * b_int
        beta1 = (1 - mpf(alpha) + mpf(alpha) * r) / (1 - mpf(alpha) + r)
        beta2 = (1 - mpf(alpha) + r) / (1 - mpf(alpha))
        want = {
            "compander": compander,
            "shift": _mp_power_product(mpmath, f, alpha, g, beta1 - mpf(alpha))
            / _mp_power_product(mpmath, g, beta1, g, 0.0),
            # g's optimal point density h applied to f, over f's quantization coefficient
            "loss": compander
            / (mpf(p.c_r) * _mp_power_product(mpmath, f, beta1, f, 0.0) ** beta2),
            "divergence_1+r": mpmath.log(_mp_power_product(mpmath, f_star, 1.0 + r, g_star, -r))
            / r,
        }
        if alpha > 0.0:
            got["divergence"] = renyi_divergence(f, g, alpha)
            want["divergence"] = mpmath.log(
                _mp_power_product(mpmath, f, alpha, g, 1.0 - alpha)
            ) / (mpf(alpha) - 1)
    for key, value in got.items():
        assert value == pytest.approx(float(want[key]), rel=1e-13), key


@pytest.mark.parametrize(
    "d, h",
    [
        (Gaussian(0.0, 1.0), Gaussian(0.0, 0.5)),
        (Laplacian(0.0, 1.0), Laplacian(0.0, 0.4)),
        (Exponential(1.0), Exponential(3.0)),
    ],
    ids=repr,
)
def test_divergent_tilt_pairs_keep_the_quadrature_outcome(monkeypatch, d, h):
    # h narrower than d: the Bennett integral of d h^-r has a + gamma b <= 0 and
    # diverges, which only the quadrature route reports
    calls = _count_joint_integrals(monkeypatch)
    with pytest.raises(InfiniteIntegralError):
        compander_performance(d, h, 0.5, 2.0)
    assert calls == [1]  # a_int closed, b_int integrated until it fails


def test_divergent_tilt_pair_divergence_is_infinite():
    assert renyi_divergence(Gaussian(0.0, 1.0), Gaussian(0.0, 0.5), 2.0) == math.inf


# the pdf vanishes like (3 - x) at the right end, and like |x - 2| at an interior knot
END_ZERO = PiecewiseLinear([(0.0, 0.2), (1.0, 1.0), (3.0, 0.0)])
INTERIOR_ZERO = PiecewiseLinear([(0.0, 0.5), (1.0, 1.0), (2.0, 0.0), (3.0, 1.0), (4.0, 0.5)])
FLAT_ZERO = PiecewiseLinear([(0, 1), (1, 0), (2, 0), (3, 1)])  # 0 on all of [1, 2]


@pytest.mark.parametrize(
    "v", [END_ZERO, INTERIOR_ZERO, END_ZERO.restrict(Interval(0.5, 3.0))], ids=repr
)
def test_a_power_singularity_at_a_zero_knot_is_infinite_without_quadrature(monkeypatch, v):
    """u = v.tilt(0.3) at alpha = 3 integrates u^3 v^-2, of order |x - e|^(0.9 - 2)
    at the zero knot e: +inf, from the orders alone (the end panels once
    settled on a finite value, the interior ones not at all)."""
    calls = _count_joint_integrals(monkeypatch)
    assert renyi_divergence(v.tilt(0.3), v, 3.0) == math.inf
    assert calls == []


def test_a_bennett_integral_singular_at_a_zero_end_is_infinite(monkeypatch):
    """d h^-2 with d = h.tilt(0.6) is of order (3 - x)^(0.6 - 2) at h's zero
    end: InfiniteIntegralError naming x = 3, not a quadrature that runs out
    of pieces."""
    calls = _count_joint_integrals(monkeypatch)
    with pytest.raises(InfiniteIntegralError, match="e = 3$"):
        compander_performance(END_ZERO.tilt(0.6), END_ZERO, 0.5, 2.0)
    assert calls == [2]  # a_int over both supports; b_int refused before it integrates


@pytest.mark.parametrize(
    "u, v, alpha, want",
    [
        # order 0.6 - 1 > -1 at the zero end: integrable, and integrated as before
        (END_ZERO.tilt(0.3), END_ZERO, 2.0, 0.26582435401305365),
        # v's zero end lies outside u's support
        (Uniform(0.0, 2.0), END_ZERO, 3.0, 0.40323793293347426),
        # v's zero at 1.5 lies where u is 0 on both sides
        (FLAT_ZERO, PiecewiseLinear([(0, 1), (1.5, 0), (3, 1)]), 3.0, 0.2326798900855999),
        # v's zero at a window end of u, whose base is 0 on the window's side of it
        (FLAT_ZERO.tilt(0.1).restrict(Interval(1.0, 3.0)),
         PiecewiseLinear([(0, 0.5), (1, 0), (3, 1)]), 3.0, 0.5308996430027714),
    ],
    ids=["integrable", "outside_support", "flat_zero", "flat_zero_window_end"],
)
def test_a_zero_knot_that_leaves_the_integral_finite_changes_nothing(u, v, alpha, want):
    assert renyi_divergence(u, v, alpha) == want


@pytest.mark.parametrize(
    "u, v",
    [
        (Gaussian(0.0, 1.0), Laplacian(0.0, 2.0)),  # mixed families
        (Gaussian(0.0, 1.0), Gaussian(0.2, 2.0)),  # shifted
        (Uniform(0.0, 1.0), Uniform(0.0, 2.0)),  # different supports
    ],
    ids=repr,
)
def test_non_tilt_pairs_integrate(monkeypatch, u, v):
    calls = []
    original = quadrature.integrate

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(quadrature, "integrate", counting)
    assert math.isfinite(renyi_divergence(u, v, 0.5))
    assert calls


def test_power_product_out_of_float_range_integrates(monkeypatch):
    # at sigma = 1e-120 the power integral of u at gamma = 4 overflows, while
    # the integral of u^alpha v^(1 - alpha) itself stays near 1
    u, v = Gaussian(0.0, 1e-120), Gaussian(0.0, 0.5e-120)
    with pytest.raises(OverflowError):
        u.power_integral(u.tilt_exponent(v))
    calls = _count_joint_integrals(monkeypatch)
    value = renyi_divergence(u, v, 0.5)
    assert calls == [2]
    assert value == pytest.approx(gaussian_renyi_divergence(0.5, 1.0, 0.5), rel=1e-9)


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
