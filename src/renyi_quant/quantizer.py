"""Quantizers over interval cells, with exact entropy and distortion evaluation.

A quantizer with m codepoints partitions the line into half-open cells
(-inf, b1], (b1, b2], ..., (b_{m-1}, +inf); a value sitting exactly on a
breakpoint maps to the cell on its left. Distortion integrals run over the
whole of every cell, the two unbounded outer cells out to the density's tails.

A quantizer's state is two read-only arrays, its cell edges and codepoints.
Cell passes work on them, a block of _BLOCK cells at a time: masses are cdf/sf
differences over the block's edges, each edge evaluated once, and distortions
one batched Gauss-Kronrod panel per piece of a cell. A cell is split only
where its integrand |x - c|^r pdf has a kink: at the codepoint c unless r is
an even integer, so at r = 2 a piece is the whole cell. A piece keeps its
panel's value when an upper bound on the panel's error estimate meets the
adaptive rule's first stopping test, so the value is what the adaptive rule
would return; the rest, the pieces with a kink of the pdf inside, and the
unbounded pieces go through `density.integrate_over`, cut at c and at the
pdf's kinks.

A rate point makes one `cell_table`: one pass of each, and the columns inside
a region from it, evaluating again only the cells a region endpoint cuts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .density import Density, _finite_or, integrate_over
from .errors import DomainError, EmptyConditioningError
from .intervals import Interval
from . import quadrature

_ALPHA_LIMIT_EPS = 1e-6  # alpha this close to an endpoint uses the limit formula
_PIECE_ABS_TOL = 1e-16   # absolute tolerance of every cell distortion integral
_TAIL_TOL = 1e-30        # an unbounded cell's tail ends at a window below this or 1e-9 of the tail
# Cells per array pass: per-call numpy overhead dominates smaller blocks, and a
# split distortion block (2 x 4096 floats) keeps each temporary at 64 KiB, under
# glibc's 128 KiB mmap threshold. Per-cell values do not depend on it.
_BLOCK = 4096


class Quantizer:
    """Cells (-inf, b1], ..., (b_{m-1}, +inf), a codepoint inside each. The state
    is the edges and codepoints as read-only arrays, copied at construction;
    the tuple fields, ==, hash and repr are built from them."""

    __slots__ = ("_edges", "_codepoint_array")

    def __init__(self, breakpoints: Sequence[float], codepoints: Sequence[float]):
        bps = np.asarray(breakpoints, dtype=float)
        cps = np.asarray(codepoints, dtype=float).copy()
        if bps.ndim != 1 or cps.ndim != 1:
            raise DomainError("breakpoints and codepoints must be 1-d sequences")
        if cps.size < 2 or bps.size != cps.size - 1:
            raise DomainError(
                f"need m >= 2 codepoints and m-1 breakpoints, got {cps.size} and {bps.size}"
            )
        if np.any(bps[:-1] >= bps[1:]):
            raise DomainError("breakpoints must be strictly increasing")
        if np.any(cps[:-1] >= cps[1:]):
            raise DomainError("codepoints must be strictly increasing")
        edges = np.concatenate(([-math.inf], bps, [math.inf]))
        outside = np.flatnonzero(~((edges[:-1] < cps) & (cps < edges[1:])))
        if outside.size:
            k = int(outside[0])
            raise DomainError(
                f"codepoint {float(cps[k])} is not interior to cell "
                f"({float(edges[k])}, {float(edges[k + 1])}]"
            )
        edges.flags.writeable = cps.flags.writeable = False
        self._edges, self._codepoint_array = edges, cps

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return tuple(self._edges[1:-1].tolist())

    @property
    def codepoints(self) -> tuple[float, ...]:
        return tuple(self._codepoint_array.tolist())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.breakpoints, self.codepoints) == (other.breakpoints, other.codepoints)

    def __hash__(self) -> int:
        return hash((self.breakpoints, self.codepoints))

    def __repr__(self) -> str:
        return f"Quantizer(breakpoints={self.breakpoints!r}, codepoints={self.codepoints!r})"

    def __reduce__(self):  # pickle and copy go through __init__: validated, read-only
        return (Quantizer, (self._edges[1:-1], self._codepoint_array))

    @property
    def size(self) -> int:
        return self._codepoint_array.size

    def cell(self, k: int) -> Interval:
        return Interval(float(self._edges[k]), float(self._edges[k + 1]))

    def cell_index(self, x: float) -> int:
        return int(np.searchsorted(self._edges[1:-1], x, side="left"))


# --- probability vectors and Renyi entropy ---------------------------------


def renyi_entropy_vec(p: Sequence[float], alpha: float) -> float:
    """Renyi entropy of order alpha in [0, 1] of a probability vector.

    Orders within 1e-6 of the endpoints use the limit formulas (log of the
    number of positive entries at 0, Shannon entropy at 1) since the direct
    expression degenerates there.
    """
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"alpha must lie in [0, 1], got {alpha}")
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError("probability vector must be a nonempty 1-d sequence")
    if np.any(arr < -1e-12):
        raise DomainError("probability vector has negative entries")
    total = float(arr.sum())
    if abs(total - 1.0) > 1e-9:
        raise DomainError(f"probability vector sums to {total!r}, expected 1 within 1e-9")
    arr = np.clip(arr, 0.0, None)
    pos = arr[arr > 0.0]
    if alpha <= _ALPHA_LIMIT_EPS:
        return math.log(pos.size)
    if alpha >= 1.0 - _ALPHA_LIMIT_EPS:
        return float(-np.sum(pos * np.log(pos)))
    return math.log(float(np.sum(pos**alpha))) / (1.0 - alpha)


def power_sum(p: Sequence[float], alpha: float) -> float:
    """Sum of p_i**alpha with the 0**0 := 0 convention."""
    arr = np.asarray(p, dtype=float)
    pos = arr[arr > 0.0]
    if alpha == 0.0:
        return float(pos.size)
    return float(np.sum(pos**alpha))


def _blocks(size: int):
    for start in range(0, size, _BLOCK):
        yield slice(start, min(start + _BLOCK, size))


def cell_probabilities(q: Quantizer, d: Density) -> np.ndarray:
    """Source probability of every cell, bit-equal to `d.interval_mass_array`
    over the cells, but evaluating the cdf once per edge and the sf once per
    edge of a cell on its sf branch, where cdf(lo) > 1/2."""
    masses = np.empty(q.size)
    for block in _blocks(q.size):
        edges = q._edges[block.start:block.stop + 1]
        cdf = _finite_or(d.cdf_array, edges, 1.0)
        cdf[edges == -math.inf] = 0.0
        right = ~(cdf[:-1] <= 0.5)
        sf_edge = np.append(right, False) | np.append(False, right)
        sf = np.zeros(edges.shape)
        sf[sf_edge] = _finite_or(d.sf_array, edges[sf_edge], 0.0)
        masses[block] = np.where(right, sf[:-1] - sf[1:], cdf[1:] - cdf[:-1])
    return np.maximum(masses, 0.0, out=masses)


def quantizer_entropy(q: Quantizer, d: Density, alpha: float) -> float:
    """Renyi entropy of order alpha of the quantizer output."""
    return renyi_entropy_vec(cell_probabilities(q, d), alpha)


# --- distortion --------------------------------------------------------------


def _piece_distortion(d: Density, r: float, lo: float, hi: float, c: float) -> float:
    """Integral of |x - c|^r pdf over (lo, hi), split at c and at the pdf's
    kinks; an unbounded end runs out to the density's tail."""
    return integrate_over(
        lambda x: abs(x - c) ** r * d.pdf(x), (d,), Interval(lo, hi), cuts=(c, *d.kinks),
        abs_tol=_PIECE_ABS_TOL, tail_tol=_TAIL_TOL,
    )


def _batch_distortions(
    d: Density, r: float, lo: np.ndarray, hi: np.ndarray, c: np.ndarray
) -> np.ndarray:
    """Integral of |x - c|^r pdf over every (lo, hi), 0 where lo >= hi.

    The pieces are split only at kinks of the integrand: at c unless r is an
    even integer (then |x - c|^r is a polynomial and the piece stays whole),
    and at the pdf's own kinks. One batched G7/K15 panel settles each finite
    piece with no pdf kink inside whose error bound passes the adaptive rule's
    first stopping test; the others, and the unbounded pieces, go through
    _piece_distortion. A block of _BLOCK entries runs at a time.
    """
    size = lo.size
    if size > _BLOCK:
        parts = [_batch_distortions(d, r, lo[b], hi[b], c[b]) for b in _blocks(size)]
        return np.concatenate(parts)
    split = r % 2.0 != 0.0
    if split:  # both sides of c in one batch; a side the piece does not reach is empty
        lo, hi = np.concatenate((lo, np.maximum(lo, c))), np.concatenate((np.minimum(hi, c), hi))
        c = np.concatenate((c, c))
    pieces = np.zeros(lo.shape)
    todo = lo < hi
    kinks = np.array(d.kinks)
    smooth = np.searchsorted(kinks, lo, side="right") >= np.searchsorted(kinks, hi, side="left")
    panel = np.flatnonzero(todo & smooth & np.isfinite(lo) & np.isfinite(hi))
    # |x - c| in the panel's own coordinates, from the node's offset from lo
    offset = c[panel] - lo[panel]
    values, bounds = quadrature.kronrod_panels(
        lambda x, from_lo: np.abs(from_lo - offset) ** r * d.pdf_array(x),
        lo[panel], hi[panel],
    )
    settled = bounds <= np.maximum(quadrature.DEFAULT_REL_TOL * values, _PIECE_ABS_TOL)
    pieces[panel[settled]] = values[settled]
    todo[panel[settled]] = False
    for i in np.flatnonzero(todo).tolist():
        pieces[i] = _piece_distortion(d, r, float(lo[i]), float(hi[i]), float(c[i]))
    return pieces[:size] + pieces[size:] if split else pieces


def cell_distortions(q: Quantizer, d: Density, r: float) -> np.ndarray:
    """Per-cell distortion contributions, each over the whole cell."""
    if r < 1.0:
        raise DomainError(f"distortion requires r >= 1, got {r}")
    return _batch_distortions(d, r, q._edges[:-1], q._edges[1:], q._codepoint_array)


def distortion(q: Quantizer, d: Density, r: float) -> float:
    """Expected |X - q(X)|^r under the density."""
    return math.fsum(memoryview(cell_distortions(q, d, r)))


# --- the cell table ------------------------------------------------------------


@dataclass(frozen=True)
class RestrictedMetrics:
    entropy_restricted: float
    distortion_restricted: float
    entropy_power_sum: float
    restricted_power_sum: float


@dataclass(frozen=True)
class RegionColumns:
    mass: float              # probability of the region
    masses: np.ndarray       # per-cell mass inside the region
    distortions: np.ndarray  # per-cell distortion inside the region


@dataclass(frozen=True)
class CellTable:
    """Cell masses and distortions of one quantizer, and both inside each region."""

    masses: np.ndarray
    distortions: np.ndarray
    regions: tuple[RegionColumns, ...]

    def metrics(self, region: RegionColumns, alpha: float) -> RestrictedMetrics:
        """Entropy and distortion of the quantizer conditioned on a region."""
        if region.mass <= 0.0:
            raise EmptyConditioningError("conditioning region has zero probability")
        conditional = region.masses / region.mass
        # renormalize away the tiny cdf-difference drift before validation
        conditional = conditional / conditional.sum()
        return RestrictedMetrics(
            entropy_restricted=renyi_entropy_vec(conditional, alpha),
            distortion_restricted=math.fsum(memoryview(region.distortions)) / region.mass,
            entropy_power_sum=power_sum(self.masses, alpha),
            restricted_power_sum=power_sum(region.masses, alpha),
        )


def _restricted_columns(
    q: Quantizer, d: Density, r: float, masses: np.ndarray, distortions: np.ndarray,
    regions: Sequence[Sequence[Interval]],
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The full-pass masses and distortions inside each region.

    A cell wholly inside an interval keeps its full-pass values; a cell an
    interval endpoint cuts is evaluated again over its part of the interval,
    all such cells in one batch, in interval order.
    """
    lows, highs = q._edges[:-1], q._edges[1:]
    columns = [(np.zeros(q.size), np.zeros(q.size)) for _ in regions]
    cuts = []
    for (m, x), region in zip(columns, regions):
        for iv in region:
            start = int(np.searchsorted(lows, iv.lo, side="left"))
            stop = int(np.searchsorted(highs, iv.hi, side="right"))
            m[start:stop] += masses[start:stop]
            x[start:stop] += distortions[start:stop]
            # the cell on either side of that run holds an endpoint or lies outside
            for k in sorted({start - 1, stop} - {-1, q.size}):
                lo, hi = max(lows[k], iv.lo), min(highs[k], iv.hi)
                if lo < hi:
                    cuts.append((m, x, k, lo, hi))
    if cuts:
        _, _, cells, lo, hi = zip(*cuts)
        lo, hi = np.array(lo), np.array(hi)
        cut_masses = d.interval_mass_array(lo, hi).tolist()
        cut_distortions = _batch_distortions(
            d, r, lo, hi, q._codepoint_array[list(cells)]
        ).tolist()
        for (m, x, k, _, _), mass, dist in zip(cuts, cut_masses, cut_distortions):
            m[k] += mass
            x[k] += dist
    return columns


def cell_table(
    q: Quantizer, d: Density, r: float, regions: Sequence[Sequence[Interval]] = ()
) -> CellTable:
    """One cell_probabilities and one cell_distortions pass, and both columns
    inside each region (a union of disjoint intervals), each over the cells'
    parts inside its intervals."""
    masses = cell_probabilities(q, d)
    distortions = cell_distortions(q, d, r)
    columns = _restricted_columns(q, d, r, masses, distortions, regions)
    return CellTable(masses, distortions, tuple(
        RegionColumns(math.fsum(d.interval_mass(iv) for iv in region), m, x)
        for region, (m, x) in zip(regions, columns)
    ))


def restricted_metrics(
    q: Quantizer, d: Density, interval: Interval, alpha: float, r: float
) -> RestrictedMetrics:
    """Entropy and distortion of the quantizer under conditioning on an interval.

    Also returns the raw power sums over all cells and over cell-interval
    intersections, which drive the entropy-contribution ratios.
    """
    return region_metrics(q, d, (interval,), alpha, r)


def region_metrics(
    q: Quantizer, d: Density, region: Sequence[Interval], alpha: float, r: float
) -> RestrictedMetrics:
    """Same as restricted_metrics for a union of disjoint intervals."""
    table = cell_table(q, d, r, (region,))
    return table.metrics(table.regions[0], alpha)
