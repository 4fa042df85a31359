"""Adaptive numerical integration on finite intervals.

One fixed nested rule (Gauss 7 / Kronrod 15) with largest-error-first
bisection. The panel ordering, split points, and summation order are all
deterministic, so identical inputs reproduce identical results bit for bit.
Endpoints are never evaluated, which plays well with half-open intervals and
densities that vanish at a support edge.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, TYPE_CHECKING

import numpy as np

from .errors import DomainError, InfiniteIntegralError, NonConvergenceError
from .intervals import Interval

if TYPE_CHECKING:  # pragma: no cover
    from .density import Density

DEFAULT_REL_TOL = 1e-9
DEFAULT_ABS_TOL = 1e-12
MAX_SUBDIVISIONS = 10**6
MAX_TAIL_WINDOWS = 256  # doubling windows a tail may take before it counts as unsettled

_EPS = 2.220446049250313e-16
_BOUND_MARGIN = 1.0 + 16.0 * _EPS  # the few roundings between 200 e and the scalar estimate

# Kronrod-15 abscissae (positive half) and weights; the odd-indexed abscissae
# together with the midpoint form the embedded Gauss-7 rule.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
)
# the distances of the node pair mid -+ h x from the panel's left end, in units of h
_FROM_LO = tuple((1.0 - x, 1.0 + x) for x in _XGK)
_WGK_CENTER = 0.209482141084727828012999174891714
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
)
_WG_CENTER = 0.417959183673469387755102040816327


@dataclass(frozen=True)
class IntegrationResult:
    value: float
    error_estimate: float
    subdivisions: int


def _kronrod_panel(f: Callable[[float], float], a: float, b: float):
    """One G7/K15 pass over [a, b]: returns (value, error_estimate)."""
    h = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fc = f(mid)
    resg = _WG_CENTER * fc
    resk = _WGK_CENTER * fc
    resabs = _WGK_CENTER * abs(fc)
    pairs = []
    for j in range(7):
        dx = h * _XGK[j]
        f1 = f(mid - dx)
        f2 = f(mid + dx)
        pairs.append((f1, f2))
        s = f1 + f2
        resk += _WGK[j] * s
        resabs += _WGK[j] * (abs(f1) + abs(f2))
        if j % 2 == 1:
            resg += _WG[(j - 1) // 2] * s
    reskh = 0.5 * resk
    resasc = _WGK_CENTER * abs(fc - reskh)
    for j in range(7):
        f1, f2 = pairs[j]
        resasc += _WGK[j] * (abs(f1 - reskh) + abs(f2 - reskh))
    value = resk * h
    resabs *= abs(h)
    resasc *= abs(h)
    err = abs((resk - resg) * h)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    err = max(err, 50.0 * _EPS * resabs)
    return value, err


def kronrod_panels(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray], a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The value of _kronrod_panel over every [a[i], b[i]] at once, and an upper
    bound on its error estimate, for an f >= 0 that maps arrays.

    f is called as f(x, x - a), the distance formed as h (1 -+ xi), not from
    x, so it keeps its relative precision in a panel narrow next to |x|.
    The value repeats the scalar panel's arithmetic, so it is what the scalar
    panel gives for the same f values. The bound is max(200 e, 50 eps value),
    e = |K15 - G7| h, times a margin for rounding: the scalar estimate
    resasc min(1, (200 e / resasc)^1.5) never exceeds 200 e, and for f >= 0
    its resabs is the K15 sum bit for bit, so its floor is 50 eps value.
    """
    h = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fc = f(mid, h)
    resg = _WG_CENTER * fc
    resk = _WGK_CENTER * fc
    for j in range(7):
        dx = h * _XGK[j]
        s = f(mid - dx, h * _FROM_LO[j][0]) + f(mid + dx, h * _FROM_LO[j][1])
        resk = resk + _WGK[j] * s
        if j % 2 == 1:
            resg = resg + _WG[(j - 1) // 2] * s
    value = resk * h
    bound = np.maximum(200.0 * np.abs((resk - resg) * h), 50.0 * _EPS * value)
    return value, bound * _BOUND_MARGIN


def integrate(
    f: Callable[[float], float],
    interval: Interval,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
) -> IntegrationResult:
    """Adaptively integrate f over a finite interval.

    Terminates once the summed per-panel error estimates fall below
    max(rel_tol * |value|, abs_tol); raises NonConvergenceError after
    MAX_SUBDIVISIONS subdivisions. Panels split largest-error-first with a
    deterministic insertion-order tie break.
    """
    a, b = interval.lo, interval.hi
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("integrate requires finite endpoints; truncate the support first")
    value, err = _kronrod_panel(f, a, b)
    # heap of (-error, insertion counter, a, b, value, error)
    heap = [(-err, 0, a, b, value, err)]
    counter = 1
    total_value = value
    total_err = err
    subdivisions = 1
    while True:
        if total_err <= max(rel_tol * abs(total_value), abs_tol):
            break
        if subdivisions >= MAX_SUBDIVISIONS:
            raise NonConvergenceError(
                f"quadrature did not converge within {MAX_SUBDIVISIONS} subdivisions "
                f"(error estimate {total_err:.3e})"
            )
        _, _, wa, wb, wv, we = heapq.heappop(heap)
        mid = 0.5 * (wa + wb)
        lv, le = _kronrod_panel(f, wa, mid)
        rv, re = _kronrod_panel(f, mid, wb)
        heapq.heappush(heap, (-le, counter, wa, mid, lv, le))
        heapq.heappush(heap, (-re, counter + 1, mid, wb, rv, re))
        counter += 2
        total_value += lv + rv - wv
        total_err += le + re - we
        subdivisions += 1
        # incremental totals drift; refresh them exactly now and then
        if subdivisions % 512 == 0:
            total_value = math.fsum(p[4] for p in heap)
            total_err = math.fsum(p[5] for p in heap)
    return IntegrationResult(
        math.fsum(p[4] for p in heap), math.fsum(p[5] for p in heap), subdivisions
    )


def integrate_with_tails(
    f: Callable[[float], float],
    core: Interval,
    extend_left: bool = False,
    extend_right: bool = False,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
    tail_tol: float = 1e-13,
) -> float:
    """Integrate f over the core interval plus geometric tail windows.

    The windows double in width and accumulation stops once a window
    contributes less than tail_tol or less than 1e-9 of the tail summed so
    far; each window is integrated to that same floor. Windows that keep
    growing signal a divergent integral.
    """
    value = integrate(f, core, rel_tol, abs_tol).value
    if extend_right:
        value += _tail_sum(f, core.hi, +1, tail_tol)
    if extend_left:
        value += _tail_sum(f, core.lo, -1, tail_tol)
    return value


def _tail_sum(f, start: float, direction: int, tail_tol: float) -> float:
    total = 0.0
    width = 1.0
    prev = math.inf
    growth_run = 0
    edge = start
    for _ in range(MAX_TAIL_WINDOWS):
        if direction > 0:
            a, b = edge, edge + width
        else:
            a, b = edge - width, edge
        # a window below tail_tol, or below the windows' relative tolerance of
        # the sum so far, ends the tail
        floor = max(tail_tol, 1e-9 * abs(total))
        window = integrate(f, Interval(a, b), rel_tol=1e-9, abs_tol=floor / 8).value
        total += window
        if abs(window) < floor:
            return total
        if abs(window) >= prev:
            growth_run += 1
            if growth_run >= 4:
                raise InfiniteIntegralError(
                    f"tail integral does not converge (window at {a:.3g} "
                    f"contributes {window:.3e})"
                )
        else:
            growth_run = 0
        prev = abs(window)
        edge = b if direction > 0 else a
        width *= 2.0
    raise InfiniteIntegralError("tail integral did not settle within the window budget")


def truncate_support(d: "Density", mass_tol: float) -> Interval:
    """Quantile truncation of a density's support for numerical integration.

    Bounded supports are returned unchanged; otherwise the interval between
    the mass_tol and 1 - mass_tol quantiles is used.
    """
    if not 0.0 < mass_tol < 0.01:
        raise DomainError(f"mass_tol must lie in (0, 0.01), got {mass_tol}")
    support = d.support
    if support.bounded:
        return support
    return Interval(d.quantile(mass_tol), d.isf(mass_tol))
