"""Companding construction of asymptotically optimal quantizer sequences.

Breakpoints are the k/n quantiles of a point density h; codepoints sit at the
odd quantiles (2k-1)/(2n), i.e. at cell midpoints in the companded domain.
The midpoint rule is what makes the uniform-source normalized distortion hit
the cell constant 1/(2^r (1+r)) exactly at every n. Where h is symmetric
about its center c, only the quantiles below 1/2 are evaluated: c is the
middle one and the rest are their mirrors 2c - x. `build_companders` builds a
group of rate points from one `quantile_array` call, each quantizer bit-equal
to its own `build_compander`, and checks the group once; the one TwoSum that
finds which companders' mirrors are exact gives each its `Quantizer.center`.
Every library density has a closed-form
quantile, so no build calls the root solver. `refine_codepoints`
can then move each codepoint to its cell's minimizer of the rth-power error,
the root of the error's derivative, for all cells in one `decreasing_roots`
call.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .density import Density, decreasing_roots
from .errors import DegenerateCellError, DomainError
from .quantizer import Quantizer, _UNDECIDED, _batch_distortions, _exact_reflections, cell_probabilities


def optimal_point_density(d: Density, alpha: float, r: float) -> Density:
    """The point density proportional to pdf**(1/beta2) minimizing high-rate cost.

    At alpha = 0 this reduces to the classical fixed-rate point density
    proportional to pdf**(1/(1+r)).
    """
    from .theory import rate_params  # theory imports this module

    return d.tilt(1.0 / rate_params(alpha, r).beta2)


def build_compander(h: Density, n: int) -> Quantizer:
    """Quantizer with n cells of equal h-probability and midpoint codepoints."""
    return build_companders(h, (n,))[0]


def build_companders(h: Density, ns: Sequence[int]) -> list[Quantizer]:
    """build_compander of every n in ns, from one quantile_array call.

    The group is checked once: every compander's j/(2n) quantiles must be
    finite and strictly increasing, which for its interleaved codepoints and
    breakpoints is what `Quantizer` checks, so each compander is built from
    its slices without checking again; where the group fails, each goes
    through `Quantizer`, which raises with its own message. Where h has a
    center c, one TwoSum over the group's leading quantiles finds where
    2c - x is exact, so whether each compander mirrors about c (all of its
    differences exact): its center is c then, and None otherwise, as c is the
    middle value of its breakpoints or codepoints. Where h has none, each
    compander decides its own center when a pass asks for it.
    """
    if min(ns) < 2:
        raise DomainError(f"compander needs n >= 2 cells, got {min(ns)}")
    # the j/(2n) quantiles: even j are the breakpoints k/n, odd j the codepoints;
    # where h is symmetric about c, the j < n ones, c, and their mirrors 2c - x
    c = h.center
    probs = [np.arange(1, 2 * n if c is None else n) / (2 * n) for n in ns]
    quantiles = h.quantile_array(np.concatenate(probs))
    starts = np.cumsum([0] + [p.size for p in probs])
    if c is None:
        joined, offsets, centers = quantiles, starts, [_UNDECIDED] * len(ns)
    else:
        # the verdicts first, so the TwoSum's temporaries are gone before joined
        # is built; a quantile that is not finite fails the group check below
        with np.errstate(invalid="ignore"):
            mirrored = np.logical_and.reduceat(_exact_reflections(quantiles, c), starts[:-1])
        centers = [c if exact else None for exact in mirrored]
        mirrors = 2.0 * c - quantiles
        joined = np.concatenate([part for i, j in zip(starts, starts[1:])
                                 for part in (quantiles[i:j], [c], mirrors[i:j][::-1])])
        offsets = 2 * starts + np.arange(len(starts))  # 2n - 1 quantiles each
    increasing = joined[:-1] < joined[1:]
    increasing[offsets[1:-1] - 1] = True  # one compander's last and the next one's first
    checked = bool(increasing.all() and np.isfinite(joined).all())
    qs = []
    for i, j, center in zip(offsets, offsets[1:], centers):
        x = joined[i:j]
        qs.append(Quantizer._from_checked(x[1::2], x[0::2], center) if checked
                  else Quantizer(x[1::2], x[0::2]))
    return qs


def refine_codepoints(q: Quantizer, d: Density, r: float) -> Quantizer:
    """Replace each codepoint with the minimizer of its cell's distortion.

    Every cell counts whole, tails included. The minimizer is the root in c
    of G(c) = integral over the cell of sign(x - c)|x - c|^(r-1) pdf, which
    decreases in c: the median at r = 1, the conditional mean at r = 2. All
    cells are solved at once by `decreasing_roots` for c / unit, unit a power
    of 2 near the interquartile range, so its steps and QUANTILE_WIDTH scale
    with d, each step two unsigned cell passes (right of c less left of c).
    Breakpoints are unchanged and distortion cannot increase.
    """
    if r < 1.0:
        raise DomainError(f"refine_codepoints requires r >= 1, got {r}")
    dead = np.flatnonzero(cell_probabilities(q, d) <= 0.0)
    if dead.size:
        k = int(dead[0])
        raise DegenerateCellError(f"cell {k} = {q.cell(k)} has zero probability")
    lo, hi = np.maximum(q._edges[:-1], d.support.lo), np.minimum(q._edges[1:], d.support.hi)
    unit = d.quartile_scale[1]
    c = unit * decreasing_roots(  # G(c): each cell's part right of c less its part left of c
        lambda u, idx: _batch_distortions(d, r - 1.0, unit * u, hi[idx], unit * u)
        - _batch_distortions(d, r - 1.0, lo[idx], unit * u, unit * u), lo / unit, hi / unit
    )
    # keep strictly inside the open cell interior
    c = np.clip(c, np.nextafter(q._edges[:-1], np.inf), np.nextafter(q._edges[1:], -np.inf))
    return Quantizer(q._edges[1:-1], c)
