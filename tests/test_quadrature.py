import math

import numpy as np
import pytest

from renyi_quant import Gaussian, Exponential, Uniform, Interval
from renyi_quant import quadrature
from renyi_quant.errors import DomainError, InfiniteIntegralError, NonConvergenceError
from renyi_quant.quadrature import (
    _kronrod_panel,
    _tail_sum,
    integrate,
    kronrod_panels,
    truncate_support,
)


def test_constant_on_unit_interval():
    res = integrate(lambda x: 1.0, Interval(0.0, 1.0))
    assert res.value == pytest.approx(1.0, abs=1e-14)
    assert res.error_estimate <= 1e-12
    assert res.subdivisions >= 1


def test_quadratic_exact():
    res = integrate(lambda x: x * x, Interval(0.0, 1.0))
    assert res.value == pytest.approx(1.0 / 3.0, abs=1e-10)


def test_normal_mass_within_8_sigma():
    f = lambda x: math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    res = integrate(f, Interval(-8.0, 8.0), rel_tol=1e-12, abs_tol=1e-14)
    # mass beyond 8 sigma is ~1.2e-15
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_linearity():
    f = lambda x: math.sin(x) + 0.5
    g = lambda x: x**3 - x
    iv = Interval(0.0, 2.0)
    lhs = integrate(lambda x: 3.0 * f(x) + 2.0 * g(x), iv).value
    rhs = 3.0 * integrate(f, iv).value + 2.0 * integrate(g, iv).value
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_splitting_matches_unsplit():
    f = lambda x: math.exp(-x) * math.cos(3.0 * x)
    whole = integrate(f, Interval(0.0, 3.0)).value
    parts = integrate(f, Interval(0.0, 1.1)).value + integrate(f, Interval(1.1, 3.0)).value
    assert parts == pytest.approx(whole, abs=2e-9)


def test_deterministic_repeat():
    f = lambda x: math.sqrt(abs(math.sin(7.0 * x))) + x
    a = integrate(f, Interval(0.0, 5.0))
    b = integrate(f, Interval(0.0, 5.0))
    assert a.value == b.value
    assert a.error_estimate == b.error_estimate
    assert a.subdivisions == b.subdivisions


def test_infinite_endpoint_rejected():
    with pytest.raises(DomainError):
        integrate(lambda x: 1.0, Interval(0.0, math.inf))


def test_nonconvergence_raises(monkeypatch):
    # a discontinuity that bisection can localize but never resolve below tol;
    # a small budget exercises the same signal as the 10^6 default quickly
    monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", 500)
    f = lambda x: 0.0 if x < math.pi / 7.0 else 1.0
    with pytest.raises(NonConvergenceError, match="within 500 subdivisions"):
        integrate(f, Interval(0.0, 1.0), rel_tol=1e-300, abs_tol=1e-300)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_a_non_finite_panel_raises_at_once(value):
    # such a panel never meets the stopping test: without the check the heap
    # bisects it out to MAX_SUBDIVISIONS
    calls = []

    def f(x):
        calls.append(x)
        return value

    with pytest.raises(NonConvergenceError, match=r"panel \(0.0, 1.0\) is not finite"):
        integrate(f, Interval(0.0, 1.0))
    assert len(calls) == 15  # one G7/K15 panel


def test_tail_windows_capture_slow_decay():
    # integral of exp(-x) over (0, inf) = 1; core stops at 5
    f = lambda x: math.exp(-x)
    val = integrate(f, Interval(0.0, 5.0)).value + _tail_sum(f, 5.0, +1, 1e-13)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_tail_that_outlasts_the_window_budget_raises(monkeypatch):
    # 1/x^2 from 1: each doubling window holds half the last one, so the tail
    # neither grows nor settles within two windows
    f = lambda x: 1.0 / (x * x)
    assert _tail_sum(f, 1.0, +1, 1e-13) == pytest.approx(1.0, rel=1e-8)
    monkeypatch.setattr(quadrature, "MAX_TAIL_WINDOWS", 2)
    with pytest.raises(InfiniteIntegralError, match="did not settle within the window budget"):
        _tail_sum(f, 1.0, +1, 1e-13)
    with pytest.raises(InfiniteIntegralError, match="did not settle within the window budget"):
        _tail_sum(lambda x: f(-x), -1.0, -1, 1e-13)


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


@pytest.mark.parametrize("name", sorted(_PANEL_INTEGRANDS))
def test_kronrod_panels_repeat_the_scalar_panel(name):
    f = _PANEL_INTEGRANDS[name]
    rng = np.random.default_rng(5)
    a = rng.uniform(-6.0, 6.0, size=400)
    b = a + 10.0 ** rng.uniform(-6.0, 1.0, size=400)
    values, bounds = kronrod_panels(lambda x, from_a: f(x), a, b)
    floor_binds = 0
    for i in range(a.size):
        value, err = _kronrod_panel(f, float(a[i]), float(b[i]))
        assert values[i] == value
        assert bounds[i] >= err
        floor_binds += bool(bounds[i] <= 51.0 * 2.220446049250313e-16 * value)
    if name == "quartic":
        assert floor_binds > 0
