"""Quantizers over interval cells, with exact entropy and distortion evaluation.

A quantizer with m codepoints partitions the line into half-open cells
(-inf, b1], (b1, b2], ..., (b_{m-1}, +inf); a value sitting exactly on a
breakpoint maps to the cell on its left. Distortion integrals run per cell
over the quantile-truncated support, split at the codepoint where the
integrand has its kink.

Cell passes work on arrays, a fixed-size block of cells at a time: masses are
one cdf/sf difference over the edges, and each half-cell distortion gets one
batched Gauss-Kronrod panel. A half-cell whose panel already meets the
adaptive rule's first stopping test keeps that value, which is what the
adaptive rule would return; the rest go through `quadrature.integrate`.

A rate point makes one `cell_table`: one pass of each, and the columns inside
a region from it, evaluating again only the cells a region endpoint cuts.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .density import Density, TAIL_MASS
from .errors import DomainError, EmptyConditioningError
from .intervals import Interval, REAL_LINE
from . import quadrature

_ALPHA_LIMIT_EPS = 1e-6  # alpha this close to an endpoint uses the limit formula
_PIECE_ABS_TOL = 1e-16   # absolute tolerance of every cell distortion integral
_BLOCK = 1024            # cells per array pass; temporaries stay O(_BLOCK)


@dataclass(frozen=True)
class Quantizer:
    breakpoints: tuple[float, ...]
    codepoints: tuple[float, ...]

    def __post_init__(self):
        bps, cps = self.breakpoints, self.codepoints
        if len(cps) < 2 or len(bps) != len(cps) - 1:
            raise DomainError(
                f"need m >= 2 codepoints and m-1 breakpoints, got {len(cps)} and {len(bps)}"
            )
        bps = np.array(bps, dtype=float)
        cps = np.array(cps, dtype=float)
        if np.any(bps[:-1] >= bps[1:]):
            raise DomainError("breakpoints must be strictly increasing")
        if np.any(cps[:-1] >= cps[1:]):
            raise DomainError("codepoints must be strictly increasing")
        edges = np.concatenate(([-math.inf], bps, [math.inf]))
        outside = np.flatnonzero(~((edges[:-1] < cps) & (cps < edges[1:])))
        if outside.size:
            k = int(outside[0])
            raise DomainError(
                f"codepoint {self.codepoints[k]} is not interior to cell "
                f"({float(edges[k])}, {float(edges[k + 1])}]"
            )
        edges.flags.writeable = False
        cps.flags.writeable = False
        # cached arrays for the cell passes; the public fields stay tuples
        object.__setattr__(self, "_edges", edges)
        object.__setattr__(self, "_codepoint_array", cps)

    @property
    def size(self) -> int:
        return len(self.codepoints)

    def cell(self, k: int) -> Interval:
        return Interval(float(self._edges[k]), float(self._edges[k + 1]))

    def cell_index(self, x: float) -> int:
        return bisect_left(self.breakpoints, x)

    def quantize(self, x: float) -> float:
        return self.codepoints[self.cell_index(x)]

    def codepoint_count_in(self, interval: Interval) -> int:
        return sum(1 for c in self.codepoints if interval.contains(c))

    def to_json(self) -> dict:
        return {"breakpoints": list(self.breakpoints), "codepoints": list(self.codepoints)}

    @classmethod
    def from_json(cls, obj: dict) -> "Quantizer":
        return cls(tuple(obj["breakpoints"]), tuple(obj["codepoints"]))


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
    """Source probability of every cell, in cell order."""
    lows, highs = q._edges[:-1], q._edges[1:]
    masses = np.empty(q.size)
    for block in _blocks(q.size):
        masses[block] = d.interval_mass_array(lows[block], highs[block])
    return masses


def quantizer_entropy(q: Quantizer, d: Density, alpha: float) -> float:
    """Renyi entropy of order alpha of the quantizer output."""
    return renyi_entropy_vec(cell_probabilities(q, d), alpha)


# --- distortion --------------------------------------------------------------


def _integrate_piece(d: Density, r: float, lo: float, hi: float, c: float) -> float:
    """Integral of |x - c|^r pdf over (lo, hi) by the adaptive rule."""

    def f(x: float) -> float:
        return abs(x - c) ** r * d.pdf(x)

    return quadrature.integrate(f, Interval(lo, hi), abs_tol=_PIECE_ABS_TOL).value


def _piece_distortion(d: Density, r: float, lo: float, hi: float, c: float) -> float:
    """Integral of |x - c|^r pdf over (lo, hi), split at the kink."""
    if lo < c < hi:
        return _integrate_piece(d, r, lo, c, c) + _integrate_piece(d, r, c, hi, c)
    return _integrate_piece(d, r, lo, hi, c)


def _clipped_distortions(
    d: Density, r: float, lo: np.ndarray, hi: np.ndarray, c: np.ndarray
) -> np.ndarray:
    """Integral of |x - c|^r pdf over every (lo, hi), 0 where lo >= hi.

    Each piece is split at its codepoint c, where the integrand has its kink.
    One batched G7/K15 panel settles each half whose error estimate passes the
    adaptive rule's first stopping test; the others are integrated adaptively.
    """
    size = lo.size
    # both halves in one batch; a side the piece does not reach is empty
    lo, hi = np.concatenate((lo, np.maximum(lo, c))), np.concatenate((np.minimum(hi, c), hi))
    c = np.concatenate((c, c))
    halves = np.zeros(lo.shape)
    live = np.flatnonzero(lo < hi)
    if live.size:
        lo, hi, c = lo[live], hi[live], c[live]
        values, errors = quadrature.kronrod_panels(
            lambda x: np.abs(x - c) ** r * d.pdf_array(x), lo, hi
        )
        settled = errors <= np.maximum(quadrature.DEFAULT_REL_TOL * np.abs(values), _PIECE_ABS_TOL)
        for i in np.flatnonzero(~settled).tolist():
            values[i] = _integrate_piece(d, r, float(lo[i]), float(hi[i]), float(c[i]))
        halves[live] = values
    return halves[:size] + halves[size:]


def cell_distortions(
    q: Quantizer,
    d: Density,
    r: float,
    region: Interval | Sequence[Interval] | None = None,
) -> np.ndarray:
    """Per-cell distortion contributions, optionally restricted to a region.

    The region may be one interval or several disjoint ones; integration is
    clipped to the truncated support of the density.
    """
    if r < 1.0:
        raise DomainError(f"distortion requires r >= 1, got {r}")
    if region is not None:
        region = (region,) if isinstance(region, Interval) else region
        return cell_table(q, d, r, (region,)).regions[0].distortions
    window = quadrature.truncate_support(d, TAIL_MASS)
    lows, highs = q._edges[:-1], q._edges[1:]
    out = np.zeros(q.size)
    for block in _blocks(q.size):
        lo = np.maximum(lows[block], window.lo)
        hi = np.minimum(highs[block], window.hi)
        out[block] += _clipped_distortions(d, r, lo, hi, q._codepoint_array[block])
    return out


def distortion(q: Quantizer, d: Density, r: float) -> float:
    """Expected |X - q(X)|^r under the density."""
    return float(math.fsum(cell_distortions(q, d, r)))


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
            distortion_restricted=float(math.fsum(region.distortions)) / region.mass,
            entropy_power_sum=power_sum(self.masses, alpha),
            restricted_power_sum=power_sum(region.masses, alpha),
        )


def _restricted_columns(q: Quantizer, full: np.ndarray, window: Interval,
                        regions: Sequence[Sequence[Interval]], piece: Callable) -> list[np.ndarray]:
    """The column full, computed over window, inside each region.

    A cell wholly inside an interval keeps its value in full, as its clip to the
    window is its clip to window ∩ interval; a cell an interval endpoint cuts
    gets piece(lo, hi, c) over that clip, all in one batch, in interval order.
    """
    lows, highs = q._edges[:-1], q._edges[1:]
    columns = [np.zeros(q.size) for _ in regions]
    cuts = []
    for column, region in zip(columns, regions):
        for iv in region:
            part = window.intersect(iv)
            if part is None:
                continue
            start = int(np.searchsorted(lows, iv.lo, side="left"))
            stop = int(np.searchsorted(highs, iv.hi, side="right"))
            column[start:stop] += full[start:stop]
            # the cell on either side of that run holds an endpoint or lies outside
            for k in sorted({start - 1, stop} - {-1, q.size}):
                lo, hi = max(lows[k], part.lo), min(highs[k], part.hi)
                if lo < hi:
                    cuts.append((column, k, lo, hi))
    if cuts:
        _, cells, lo, hi = zip(*cuts)
        values = piece(np.array(lo), np.array(hi), q._codepoint_array[list(cells)])
        for (column, k, _, _), value in zip(cuts, values.tolist()):
            column[k] += value
    return columns


def cell_table(
    q: Quantizer, d: Density, r: float, regions: Sequence[Sequence[Interval]] = ()
) -> CellTable:
    """One cell_probabilities and one cell_distortions pass, and both columns
    inside each region (a union of disjoint intervals): masses over each
    interval, distortions over its part of the truncated support, as in the
    full passes."""
    masses = cell_probabilities(q, d)
    distortions = cell_distortions(q, d, r)
    window = quadrature.truncate_support(d, TAIL_MASS)
    region_masses = _restricted_columns(
        q, masses, REAL_LINE, regions, lambda lo, hi, c: d.interval_mass_array(lo, hi)
    )
    region_distortions = _restricted_columns(
        q, distortions, window, regions, lambda lo, hi, c: _clipped_distortions(d, r, lo, hi, c)
    )
    return CellTable(masses, distortions, tuple(
        RegionColumns(math.fsum(d.interval_mass(iv) for iv in region), m, x)
        for region, m, x in zip(regions, region_masses, region_distortions)
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
