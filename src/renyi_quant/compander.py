"""Companding construction of asymptotically optimal quantizer sequences.

Breakpoints are the k/n quantiles of a point density h; codepoints sit at the
odd quantiles (2k-1)/(2n), i.e. at cell midpoints in the companded domain.
The midpoint rule is what makes the uniform-source normalized distortion hit
the cell constant 1/(2^r (1+r)) exactly at every n.
"""

from __future__ import annotations

import math

import numpy as np

from .density import Density
from .errors import DegenerateCellError, DomainError
from .quantizer import Quantizer, _piece_distortion, cell_probabilities

_BRACKET_MASS = 1e-12  # share of an unbounded cell's mass left outside its search bracket


def optimal_point_density(d: Density, alpha: float, r: float) -> Density:
    """The point density proportional to pdf**(1/beta2) minimizing high-rate cost.

    At alpha = 0 this reduces to the classical fixed-rate point density
    proportional to pdf**(1/(1+r)).
    """
    from .theory import rate_params  # theory imports this module

    return d.tilt(1.0 / rate_params(alpha, r).beta2)


def build_compander(h: Density, n: int) -> Quantizer:
    """Quantizer with n cells of equal h-probability and midpoint codepoints."""
    if n < 2:
        raise DomainError(f"compander needs n >= 2 cells, got {n}")
    # the j/(2n) quantiles: even j are the breakpoints k/n, odd j the codepoints
    x = h.quantile_array(np.arange(1, 2 * n) / (2 * n))
    return Quantizer(tuple(x[1::2].tolist()), tuple(x[0::2].tolist()))


def refine_codepoints(q: Quantizer, d: Density, r: float) -> Quantizer:
    """Replace each codepoint with the minimizer of its cell's distortion.

    Every cell counts whole, tails included. For r = 2 the minimizer is the
    conditional mean (computed in closed form where the family has one);
    otherwise a golden-section search shrinks the bracket, the cell's part of
    the support, to 1e-10, an unbounded end at the point beyond which lies
    1e-12 of the cell's mass. Breakpoints are unchanged and distortion cannot
    increase.
    """
    if r < 1.0:
        raise DomainError(f"refine_codepoints requires r >= 1, got {r}")
    masses = cell_probabilities(q, d)
    new_codepoints = []
    for k in range(q.size):
        cell = q.cell(k)
        mass = masses[k]
        if mass <= 0.0:
            raise DegenerateCellError(f"cell {k} = {cell} has zero probability")
        if r == 2.0:
            c = d.interval_first_moment(cell) / mass
        else:
            bracket = cell.intersect(d.support)
            lo = bracket.lo if math.isfinite(bracket.lo) else d.quantile(_BRACKET_MASS * mass)
            hi = bracket.hi if math.isfinite(bracket.hi) else d.isf(_BRACKET_MASS * mass)
            c = _golden_section(lambda c_: _piece_distortion(d, r, cell.lo, cell.hi, c_), lo, hi)
        # keep strictly inside the open cell interior
        c = min(max(c, math.nextafter(cell.lo, cell.hi)), math.nextafter(cell.hi, cell.lo))
        new_codepoints.append(c)
    return Quantizer(q.breakpoints, tuple(new_codepoints))


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section(fn, a: float, b: float, tol: float = 1e-10) -> float:
    c = b - _INV_PHI * (b - a)
    d_ = a + _INV_PHI * (b - a)
    fc, fd = fn(c), fn(d_)
    while b - a > tol:
        if fc < fd:
            b, d_, fd = d_, c, fc
            c = b - _INV_PHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d_, fd
            d_ = a + _INV_PHI * (b - a)
            fd = fn(d_)
    return 0.5 * (a + b)
