"""Adaptive Gauss-Kronrod integration of array integrands.

One fixed nested rule (Gauss 7 / Kronrod 15), evaluated over many panels at
once (`kronrod_panels`), and one adaptive loop over them (`settle`) that
every integral of the library runs: the quantizer cells, and through
`integrate` the moments and the mixed predictor integrals. A round is one
panel call over every unsettled piece; a piece whose error bound fails its
stopping test is halved into the next round. A piece with an infinite end,
or lying past the core interval that holds the integrand's mass, becomes
doubling windows out from its finite end, clipped at its other end. The
panel arithmetic, split points and summation order are all deterministic, so
identical inputs reproduce identical results bit for bit. Endpoints are never
evaluated, which plays well with half-open intervals and densities that
vanish at a support edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TYPE_CHECKING

import numpy as np

from .errors import DomainError, InfiniteIntegralError, NonConvergenceError
from .intervals import Interval, REAL_LINE

if TYPE_CHECKING:  # pragma: no cover
    from .density import Density

DEFAULT_REL_TOL = 1e-9
DEFAULT_ABS_TOL = 1e-12
TAIL_WINDOWS = 64  # doubling windows a tail piece becomes, out from its finite end
MAX_HALVINGS = 64  # rounds of halving the pieces whose panel does not settle
_MAX_PIECES = 2**18  # unsettled pieces a round may halve, which bounds the memory a round takes
# a bounded support at least this many times as wide as its quantile window
# integrates over the window, its tails as windows out to the support's ends
_NARROWED = 16.0
# panels up to which kronrod_panels calls f once on all 15 nodes of each: on
# the cell integrand, one call took 34-180 us against 130-310 us for 15 over
# 1-512 panels, and lost from 768 on
_ONE_CALL_PANELS = 512

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
# kronrod_panels' node order, the center, then mid - h x for every x, then
# mid + h x: the nodes' offsets from mid in units of h (mid + (-h x) is
# mid - h x bit for bit), and their distances from the left end
_NODES = np.concatenate(([0.0], -np.array(_XGK), _XGK))
_NODES_FROM_LO = np.concatenate(([1.0], np.array(_FROM_LO).T.ravel()))
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
    error_estimate: float  # the sum of the settled panels' bounds
    subdivisions: int  # the panels evaluated


def kronrod_panels(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray], a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The G7/K15 value over every [a[i], b[i]] at once, and an upper bound on
    QUADPACK's error estimate for it (QK15, Piessens et al. 1983).

    f is called as f(x, x - a), the distance formed as h (1 -+ xi), not from
    x, so it keeps its relative precision in a panel narrow next to |x|. At
    most _ONE_CALL_PANELS panels take one call on the (15, m) arrays of all
    their nodes, the centers first, then mid - h xi and mid + h xi, since
    there the fixed cost of a call outweighs its m; more take one call per
    node. f must map a 2-d array element by element as it maps a 1-d one:
    the node values, and so the results, are the same bits either way.
    The value repeats QK15's arithmetic, so it is what QK15 gives for the
    same f values. The bound is max(200 e, 50 eps |value|), e = |K15 - G7| h,
    times a margin for rounding: QK15's estimate resasc min(1, (200 e /
    resasc)^1.5) never exceeds 200 e, and for f >= 0 its floor 50 eps resabs
    is 50 eps value bit for bit. For a signed f, resabs integrates |f| and
    can pass |value|, so there the bound is the same stopping test as for
    f >= 0, not a bound on QK15's floor.
    """
    h = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    if mid.size <= _ONE_CALL_PANELS:
        fx = f(mid + np.multiply.outer(_NODES, h), np.multiply.outer(_NODES_FROM_LO, h))
        fc, sums = fx[0], fx[1:8] + fx[8:]
    else:
        fc = f(mid, h)
        sums = (f(mid - h * _XGK[j], h * _FROM_LO[j][0]) + f(mid + h * _XGK[j], h * _FROM_LO[j][1])
                for j in range(7))
    resg = _WG_CENTER * fc
    resk = _WGK_CENTER * fc
    for j, s in enumerate(sums):
        resk = resk + _WGK[j] * s
        if j % 2 == 1:
            resg = resg + _WG[(j - 1) // 2] * s
    value = resk * h
    bound = np.maximum(200.0 * np.abs((resk - resg) * h), 50.0 * _EPS * np.abs(value))
    return value, bound * _BOUND_MARGIN


def settle(f, a: np.ndarray, b: np.ndarray, entry: np.ndarray, size: int, floor: float,
           scale: float, center: np.ndarray | None = None, rel_tol: float = DEFAULT_REL_TOL,
           core: Interval = REAL_LINE) -> tuple[np.ndarray, float, int]:
    """Per entry i < size, the integral over the pieces (a[j], b[j]) with
    entry[j] = i; the sum of the settled panels' bounds; the panels evaluated.

    No piece may straddle an end of core. One with an infinite end, or lying
    past core, is a tail: TAIL_WINDOWS windows out from its finite end e, or
    its end nearer core, the first |c - e| wide for its entry's center c
    (scale where c = e or there is no center), each twice the one before,
    clipped at its other end, where the empty ones are dropped; the last
    window of an unbounded tail must add at most floor. Each round is one
    `kronrod_panels` call over every unsettled piece, on the integrand
    f(a, b, entry) gives for them; a piece settles where its bound is at most
    max(rel_tol |value|, floor), the rest are halved into the next round; a
    bound that is not finite raises at once, as do an unsettled piece with no
    double inside it and more than _MAX_PIECES unsettled pieces. An entry
    sums its settled pieces round by round in array order, whatever the batch.
    """
    left = (a == -np.inf) | (b <= core.lo)
    tail = np.flatnonzero(left | (b == np.inf) | (a >= core.hi))
    last = np.empty(0, dtype=int)
    if tail.size:  # each tail's windows, nearest first, after the other pieces
        left = left[tail]
        e, far = np.where(left, b[tail], a[tail]), np.where(left, a[tail], b[tail])
        width = np.zeros(tail.size) if center is None else np.abs(center[entry[tail]] - e)
        width[width == 0.0] = scale
        ends = e[:, None] + (np.where(left, -width, width)[:, None]
                             * (2.0 ** np.arange(TAIL_WINDOWS + 1) - 1.0))
        ends = np.where(left[:, None], np.maximum(ends, far[:, None]), np.minimum(ends, far[:, None]))
        lo, hi = np.minimum(ends[:, :-1], ends[:, 1:]), np.maximum(ends[:, :-1], ends[:, 1:])
        keep, last = (lo < hi).ravel(), np.zeros(lo.shape, dtype=bool)
        last[:, -1] = np.isinf(far)
        last = np.flatnonzero(last.ravel()[keep]) + a.size - tail.size
        a = np.concatenate((np.delete(a, tail), lo.ravel()[keep]))
        b = np.concatenate((np.delete(b, tail), hi.ravel()[keep]))
        entry = np.concatenate((np.delete(entry, tail), np.repeat(entry[tail], TAIL_WINDOWS)[keep]))
    total, error, panels = np.zeros(size), 0.0, 0
    for halvings in range(MAX_HALVINGS + 1):
        values, bounds = kronrod_panels(f(a, b, entry), a, b)
        panels += a.size
        if not np.isfinite(bounds).all():  # such a piece never settles
            k = np.flatnonzero(~np.isfinite(bounds))[0]
            raise NonConvergenceError(
                f"integrand is not finite on the panel ({float(a[k])!r}, {float(b[k])!r})")
        if halvings == 0 and last.size and np.any(np.abs(values[last]) > floor):
            raise InfiniteIntegralError(
                f"tail does not converge: its last window adds {np.abs(values[last]).max():.3e}")
        settled = bounds <= np.maximum(rel_tol * np.abs(values), floor)
        total += np.bincount(entry[settled], weights=values[settled], minlength=size)
        error += float(bounds[settled].sum())
        if settled.all():
            return total, error, panels
        unsettled = ~settled
        a, b, entry = a[unsettled], b[unsettled], entry[unsettled]
        mid = 0.5 * (a + b)
        if a.size > _MAX_PIECES or not ((a < mid) & (mid < b)).all():
            raise NonConvergenceError(f"{a.size} pieces did not settle, one with no double "
                                      f"inside it or more than {_MAX_PIECES}")
        a, b, entry = np.repeat(a, 2), np.repeat(b, 2), np.repeat(entry, 2)
        a[1::2], b[::2] = mid, mid
    raise NonConvergenceError(f"pieces did not settle within {MAX_HALVINGS} halvings")


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    interval: Interval,
    cuts=(),
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
    core: Interval = REAL_LINE,
) -> IntegrationResult:
    """The integral of f, which maps an array element by element, over an
    interval, finite or not, by `settle`: split at every cut and end of core
    inside it (at 0 where nothing splits the real line), each tail's windows
    from 1 wide, and abs_tol the floor of every piece.
    """
    lo, hi = interval.lo, interval.hi
    points = {x for x in (*cuts, core.lo, core.hi) if lo < x < hi}
    if not points and lo == -np.inf and hi == np.inf:
        points = {0.0}
    edges = np.array([lo, *sorted(points), hi], dtype=float)
    total, error, panels = settle(lambda *_: lambda x, _: f(x), edges[:-1], edges[1:],
                                  np.zeros(edges.size - 1, dtype=int), 1, abs_tol, 1.0,
                                  rel_tol=rel_tol, core=core)
    return IntegrationResult(float(total[0]), error, panels)


def truncate_support(d: "Density", mass_tol: float) -> Interval:
    """The interval between the mass_tol and 1 - mass_tol quantiles of d, where
    numerical integration places its panels: for an unbounded support, and
    for a bounded one at least _NARROWED times as wide, where panels placed
    by the support would miss the mass. Any other bounded support, as of the
    uniform and piecewise-linear sources, is returned unchanged.
    """
    if not 0.0 < mass_tol < 0.01:
        raise DomainError(f"mass_tol must lie in (0, 0.01), got {mass_tol}")
    support = d.support
    window = Interval(d.quantile(mass_tol), d.isf(mass_tol))
    if support.bounded and (window.hi - window.lo) * _NARROWED > support.hi - support.lo:
        return support
    return window
