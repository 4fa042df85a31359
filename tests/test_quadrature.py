import math

import numpy as np
import pytest

from renyi_quant import Gaussian, Exponential, Uniform, Interval
from renyi_quant import quadrature
from renyi_quant.errors import DomainError, InfiniteIntegralError, NonConvergenceError
from renyi_quant.intervals import REAL_LINE
from renyi_quant.quadrature import integrate, kronrod_panels, truncate_support


def test_constant_on_unit_interval():
    res = integrate(lambda x: np.ones(x.shape), Interval(0.0, 1.0))
    assert res.value == pytest.approx(1.0, abs=1e-14)
    assert res.error_estimate <= 1e-12
    assert res.subdivisions == 1  # one panel settles it


def test_quadratic_exact():
    res = integrate(lambda x: x * x, Interval(0.0, 1.0))
    assert res.value == pytest.approx(1.0 / 3.0, abs=1e-10)


def _normal(x):
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def test_normal_mass_within_8_sigma():
    res = integrate(_normal, Interval(-8.0, 8.0), rel_tol=1e-12, abs_tol=1e-14)
    # mass beyond 8 sigma is ~1.2e-15
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_normal_mass_over_the_real_line():
    # split at 0, each half-line a tail of doubling windows from there
    assert integrate(_normal, REAL_LINE).value == pytest.approx(1.0, abs=1e-12)


def test_linearity():
    f = lambda x: np.sin(x) + 0.5
    g = lambda x: x**3 - x
    iv = Interval(0.0, 2.0)
    lhs = integrate(lambda x: 3.0 * f(x) + 2.0 * g(x), iv).value
    rhs = 3.0 * integrate(f, iv).value + 2.0 * integrate(g, iv).value
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_splitting_matches_unsplit():
    f = lambda x: np.exp(-x) * np.cos(3.0 * x)
    whole = integrate(f, Interval(0.0, 3.0)).value
    parts = integrate(f, Interval(0.0, 1.1)).value + integrate(f, Interval(1.1, 3.0)).value
    assert parts == pytest.approx(whole, abs=2e-9)
    assert integrate(f, Interval(0.0, 3.0), cuts=(1.1,)).value == pytest.approx(whole, abs=2e-9)


def test_deterministic_repeat():
    f = lambda x: np.sqrt(np.abs(np.sin(7.0 * x))) + x
    a = integrate(f, Interval(0.0, 5.0))
    b = integrate(f, Interval(0.0, 5.0))
    assert a.value == b.value
    assert a.error_estimate == b.error_estimate
    assert a.subdivisions == b.subdivisions


def test_unsettled_halving_raises(monkeypatch):
    # a discontinuity that halving localizes, a round at a time
    f = lambda x: np.where(x < math.pi / 7.0, 0.0, 1.0)
    assert integrate(f, Interval(0.0, 1.0)).value == pytest.approx(1.0 - math.pi / 7.0, abs=1e-12)
    monkeypatch.setattr(quadrature, "MAX_HALVINGS", 3)
    with pytest.raises(NonConvergenceError, match="within 3 halvings"):
        integrate(f, Interval(0.0, 1.0))


def test_a_piece_too_narrow_to_halve_raises():
    # one ulp wide, its nodes on both sides of the step at 1: the panel does not
    # settle, and its midpoint rounds to an end
    hi = math.nextafter(1.0, 2.0)
    with pytest.raises(NonConvergenceError, match="one with no double inside it"):
        integrate(lambda x: np.where(x >= 1.0, 1.0, 0.0), Interval(1.0, hi), abs_tol=1e-300)


def test_a_tolerance_no_piece_meets_raises_before_its_pieces_outgrow_memory(monkeypatch):
    # below the panels' 50 eps floor every piece is halved in every round
    monkeypatch.setattr(quadrature, "_MAX_PIECES", 2**10)
    with pytest.raises(NonConvergenceError, match="more than 1024"):
        integrate(lambda x: 1.0 + x, Interval(0.0, 1.0), rel_tol=1e-300, abs_tol=1e-300)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_a_non_finite_panel_raises_at_once(value):
    # such a panel never meets the stopping test: without the check it would
    # be halved out to the halving budget
    calls = []

    def f(x):
        calls.append(x.size)
        return np.full(x.shape, value)

    with np.errstate(invalid="ignore"), pytest.raises(
        NonConvergenceError, match=r"not finite on the panel \(0.0, 1.0\)"
    ):
        integrate(f, Interval(0.0, 1.0))
    assert calls == [15]  # one G7/K15 panel, in one call


def test_tail_windows_capture_slow_decay():
    # integral of exp(-x) over (0, inf) = 1, in doubling windows from 0
    val = integrate(lambda x: np.exp(-x), Interval(0.0, math.inf)).value
    assert val == pytest.approx(1.0, abs=1e-12)


def test_tail_that_halves_each_window_settles():
    # 1/x^2 from 1: each doubling window holds half the last one
    f = lambda x: 1.0 / (x * x)
    assert integrate(f, Interval(1.0, math.inf)).value == pytest.approx(1.0, rel=1e-8)
    assert integrate(f, Interval(-math.inf, -1.0)).value == pytest.approx(1.0, rel=1e-8)


@pytest.mark.parametrize("f", [lambda x: x, lambda x: 1.0 / x], ids=["growing", "harmonic"])
def test_a_tail_that_does_not_settle_raises(f):
    with pytest.raises(InfiniteIntegralError, match="does not converge"):
        integrate(f, Interval(1.0, math.inf))


def test_a_piece_past_the_core_is_a_tail_clipped_at_its_end():
    # exp(-x) on (0, 1e300]: a single panel there would see no mass; past the
    # core (0, 1] it runs as the windows of (0, inf), clipped at 1e300
    f = lambda x: np.exp(-x)
    core = Interval(0.0, 1.0)
    clipped = integrate(f, Interval(0.0, 1e300), core=core)
    assert clipped.value == integrate(f, Interval(0.0, math.inf), core=core).value
    assert clipped.value == pytest.approx(1.0, abs=1e-12)
    assert integrate(f, Interval(0.0, 1e300)).value < 1e-100


def test_truncate_support_uniform_unchanged():
    iv = truncate_support(Uniform(0.0, 1.0), 1e-12)
    assert (iv.lo, iv.hi) == (0.0, 1.0)


def test_truncate_support_gaussian():
    iv = truncate_support(Gaussian(0.0, 1.0), 1e-12)
    assert iv.lo == pytest.approx(-7.034483825301131, abs=1e-6)
    assert iv.hi == pytest.approx(7.034483825301131, abs=1e-6)


def test_truncate_support_exponential():
    iv = truncate_support(Exponential(1.0, 0.0), 1e-12)
    assert iv.lo == pytest.approx(1e-12, abs=1e-13)
    assert iv.hi == pytest.approx(27.631021115928547, rel=1e-9)


def test_truncate_support_rejects_large_tol():
    with pytest.raises(DomainError):
        truncate_support(Uniform(0.0, 1.0), 0.5)


def _steep(x):
    # (1 + x^2/64)^-64, close to exp(-x^2), by squaring
    y = 1.0 + x * x / 64.0
    for _ in range(6):
        y = y * y
    return 1.0 / y


# nonnegative integrands of only correctly rounded operations, so arrays and
# scalars agree bit for bit
_PANEL_INTEGRANDS = {
    "smooth": lambda x: (x - 0.3) * (x - 0.3) / (1.0 + x * x),
    "kinked": lambda x: abs(x - 0.3) * abs(x + 1.1) / (1.0 + x * x),
    "steep_tails": lambda x: x * x * _steep(3.0 * x),
    "quartic": lambda x: x * x * x * x + 2.0,  # G7 is exact: the 50 eps floor binds
}


_EPS = 2.220446049250313e-16


def _qk15(f, a, b):
    """QUADPACK's scalar G7/K15 panel (Piessens et al. 1983) over [a, b]:
    (value, error_estimate), the reference kronrod_panels repeats."""
    xgk, wgk, wg = quadrature._XGK, quadrature._WGK, quadrature._WG
    h = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fc = f(mid)
    resg = quadrature._WG_CENTER * fc
    resk = quadrature._WGK_CENTER * fc
    resabs = quadrature._WGK_CENTER * abs(fc)
    pairs = []
    for j in range(7):
        dx = h * xgk[j]
        f1 = f(mid - dx)
        f2 = f(mid + dx)
        pairs.append((f1, f2))
        s = f1 + f2
        resk += wgk[j] * s
        resabs += wgk[j] * (abs(f1) + abs(f2))
        if j % 2 == 1:
            resg += wg[(j - 1) // 2] * s
    reskh = 0.5 * resk
    resasc = quadrature._WGK_CENTER * abs(fc - reskh)
    for j in range(7):
        f1, f2 = pairs[j]
        resasc += wgk[j] * (abs(f1 - reskh) + abs(f2 - reskh))
    value = resk * h
    resabs *= abs(h)
    resasc *= abs(h)
    err = abs((resk - resg) * h)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return value, max(err, 50.0 * _EPS * resabs)


@pytest.mark.parametrize("name", sorted(_PANEL_INTEGRANDS))
def test_kronrod_panels_repeat_the_scalar_panel(name):
    f = _PANEL_INTEGRANDS[name]
    rng = np.random.default_rng(5)
    a = rng.uniform(-6.0, 6.0, size=400)
    b = a + 10.0 ** rng.uniform(-6.0, 1.0, size=400)
    values, bounds = kronrod_panels(lambda x, from_a: f(x), a, b)
    floor_binds = 0
    for i in range(a.size):
        value, err = _qk15(f, float(a[i]), float(b[i]))
        assert values[i] == value
        assert bounds[i] >= err
        floor_binds += bool(bounds[i] <= 51.0 * 2.220446049250313e-16 * value)
    if name == "quartic":
        assert floor_binds > 0
