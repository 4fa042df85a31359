"""Quantizers over interval cells, with exact entropy and distortion evaluation.

A quantizer with m codepoints partitions the line into half-open cells
(-inf, b1], (b1, b2], ..., (b_{m-1}, +inf); a value sitting exactly on a
breakpoint maps to the cell on its left. Distortion integrals run over the
whole of every cell, the two unbounded outer cells out to the density's tails.

A quantizer's state is two read-only arrays, its cell edges and codepoints.
Cell passes work on them in near-equal blocks of about _BLOCK cells: masses
are cdf/sf differences over the block's edges, each edge evaluated once, and
distortions the adaptive rule's batched panels over the cells' pieces
(`quadrature.settle`): cut where |x - c|^r pdf has a kink, an unbounded piece
as doubling windows, and every piece whose panel does not settle halved, all
in one batch, until it does. A piece settles at the adaptive rule's relative
tolerance or at an absolute floor on the source's own scale.

A quantizer whose breakpoints and codepoints mirror exactly about a point c
(`Quantizer.center`), as a compander for a source symmetric about c does, has
cell m - 1 - k the mirror image of cell k. Under a source symmetric about the
same c (`Density.center`) the mass and distortion passes evaluate the leading
ceil(m / 2) cells and fill in the rest by reversal (`_evaluated`); any other
pair takes all m cells.

A rate point's `CellTable` holds one mass pass, its distortions and the
columns inside each region, which evaluate again only the cell parts a region
endpoint cuts; a region's `RegionColumns` give the entropy and distortion
conditioned on it. `cell_tables` builds the tables of several quantizers, as a
sweep does for a group of rate points, with one mass pass over all their edges
(`group_probabilities`) and one distortion pass over all their cells and cut
parts: a cell's values do not depend on the batch it rides in.

A column of cell distortions sums exactly (`fsum_array`: math.fsum's double,
from a few array passes), and at r = 2 the integrand squares x - c by a
product, which equals the power bit for bit, unless a piece reaches
|x - c| >= 2^511.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .density import Density, _finite_or
from .errors import DomainError, EmptyConditioningError
from .intervals import Interval, REAL_LINE
from . import quadrature

_ALPHA_LIMIT_EPS = 1e-6  # alpha this close to an endpoint uses the limit formula
_PIECE_ABS_TOL = 1e-16   # absolute tolerance of a cell distortion integral, in units of u^r
# Cells per array pass, near enough, and the evaluated cells a sweep puts in one
# group of rate points: per-call numpy overhead dominates smaller blocks, and a
# split distortion block (2 x 1.5 x 4096 floats at most) keeps each temporary at
# 96 KiB, under glibc's 128 KiB mmap threshold. Per-cell values do not depend on it.
_BLOCK = 4096
_SQUARE_BELOW = 2.0**511  # |x - c| under which the r = 2 integrand squares by a product
_FSUM_MIN_SIZE = 512  # below this many values math.fsum itself is faster than fsum_array
_UNDECIDED = object()  # a Quantizer's center before it is decided


class Quantizer:
    """Cells (-inf, b1], ..., (b_{m-1}, +inf), a codepoint inside each. The state
    is the edges and codepoints as read-only arrays, copied at construction,
    and their `center`; the tuple fields, ==, hash and repr are built from them."""

    __slots__ = ("_edges", "_codepoint_array", "_center")

    def __init__(self, breakpoints: Sequence[float], codepoints: Sequence[float]):
        bps = np.asarray(breakpoints, dtype=float)
        cps = np.asarray(codepoints, dtype=float).copy()
        if bps.ndim != 1 or cps.ndim != 1:
            raise DomainError("breakpoints and codepoints must be 1-d sequences")
        if cps.size < 2 or bps.size != cps.size - 1:
            raise DomainError(
                f"need m >= 2 codepoints and m-1 breakpoints, got {cps.size} and {bps.size}"
            )
        # each codepoint strictly inside its cell: both arrays strictly increasing, all finite
        edges = np.concatenate(([-math.inf], bps, [math.inf]))
        outside = np.flatnonzero(~((edges[:-1] < cps) & (cps < edges[1:])))
        if outside.size:
            k = int(outside[0])
            raise DomainError(
                f"codepoint {float(cps[k])} is not interior to cell "
                f"({float(edges[k])}, {float(edges[k + 1])}]"
            )
        self._store(edges, cps, _UNDECIDED)

    @classmethod
    def _from_checked(cls, breakpoints: np.ndarray, codepoints: np.ndarray,
                      center: object = _UNDECIDED) -> "Quantizer":
        """The quantizer of 1-d float arrays that pass __init__'s checks, which
        its caller has made: codepoints interleaving strictly increasing with
        breakpoints, all finite. They are copied as __init__ copies them, and
        `center` is the caller's verdict on them where it passes one."""
        q = cls.__new__(cls)
        q._store(np.concatenate(([-math.inf], breakpoints, [math.inf])), codepoints.copy(), center)
        return q

    def _store(self, edges: np.ndarray, cps: np.ndarray, center: object) -> None:
        edges.flags.writeable = cps.flags.writeable = False
        self._edges, self._codepoint_array, self._center = edges, cps, center

    @property
    def center(self) -> float | None:
        """The c about which the breakpoints and codepoints mirror exactly, each
        trailing value 2c less its leading mirror, no difference rounded; None
        where there is none. Only the midpoint of the outer codepoints can be
        c: every value lies between them, so no 2c - x overflows. Decided once."""
        if self._center is _UNDECIDED:
            cps = self._codepoint_array
            c = 0.5 * (float(cps[0]) + float(cps[-1]))
            mirrors = math.isfinite(c) and _mirrors(self._edges[1:-1], c) and _mirrors(cps, c)
            self._center = c if mirrors else None
        return self._center

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


def renyi_entropy_vec(p: Sequence[float], alpha: float, power: float | None = None) -> float:
    """Renyi entropy of order alpha in [0, 1] of a probability vector.

    Orders within 1e-6 of the endpoints use the limit formulas (log of the
    number of positive entries at 0, Shannon entropy at 1) since the direct
    expression degenerates there. Entries at or below 0 (down to -1e-12)
    count as 0: one min() finds whether there are any, and only then are the
    positive entries gathered, in their order, so no sum depends on it. A
    caller that has power_sum(p, alpha) already passes it as `power`.
    """
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"alpha must lie in [0, 1], got {alpha}")
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError("probability vector must be a nonempty 1-d sequence")
    low = arr.min()
    if low < -1e-12:
        raise DomainError("probability vector has negative entries")
    total = float(arr.sum())
    if not abs(total - 1.0) <= 1e-9:  # a NaN or an infinity fails here
        raise DomainError(f"probability vector sums to {total!r}, expected 1 within 1e-9")
    if _ALPHA_LIMIT_EPS < alpha < 1.0 - _ALPHA_LIMIT_EPS:
        return math.log(power_sum(arr, alpha) if power is None else power) / (1.0 - alpha)
    pos = arr if low > 0.0 else arr[arr > 0.0]
    if alpha <= _ALPHA_LIMIT_EPS:
        return math.log(pos.size)
    return float(-np.sum(pos * np.log(pos)))


def power_sum(p: Sequence[float], alpha: float) -> float:
    """Sum of p_i**alpha over the positive entries (0**0 := 0), which are
    gathered only where one min() finds an entry that is not."""
    arr = np.asarray(p, dtype=float)
    pos = arr if arr.min(initial=math.inf) > 0.0 else arr[arr > 0.0]
    if alpha == 0.0:
        return float(pos.size)
    return float(np.sum(pos**alpha))


def fsum_array(x: np.ndarray) -> float:
    """math.fsum of a 1-d float array, bit for bit, in a few array passes.

    Rump, Ogita and Oishi's error-free extraction ("Accurate floating-point
    summation, part I", SIAM J. Sci. Comput. 31(1), 2008): with sigma = 2^(m+e),
    2^m >= size + 2 and 2^e > max|x|, q = (sigma + x) - sigma is x rounded to
    a multiple of 2^-53 sigma, and x - q is exact and at most 2^-53 sigma.
    Every partial sum of the q is such a multiple below sigma, so np.sum(q)
    is exact in any order. Each level keeps that sum and goes on with x - q
    and sigma lowered by 2^(m - 52) until x is all zero; math.fsum of the
    levels' sums then rounds the same exact sum as math.fsum of x. Below
    _FSUM_MIN_SIZE values, on an infinity or a NaN, on all zeros (whose sign
    is math.fsum's own) and where sigma would overflow, it is math.fsum
    itself, with its result or its exception.
    """
    x = np.ascontiguousarray(x, dtype=float)
    if x.size < _FSUM_MIN_SIZE:
        return math.fsum(memoryview(x))
    top = float(np.abs(x).max())  # a NaN propagates
    m, e = (x.size + 1).bit_length(), math.frexp(top)[1]
    if not 0.0 < top < math.inf or m + e > 1023:
        return math.fsum(memoryview(x))
    sigma, step = math.ldexp(1.0, m + e), math.ldexp(1.0, m - 52)
    parts, q, rest = [], x + sigma, None
    while True:
        q -= sigma
        parts.append(q.sum())
        rest = x - q if rest is None else np.subtract(rest, q, out=rest)  # x stays the caller's
        if not rest.any():
            return math.fsum(parts)
        sigma *= step
        np.add(rest, sigma, out=q)


def _blocks(size: int) -> list[slice]:
    """range(size) as max(1, round(size / _BLOCK)) near-equal slices."""
    count = max(1, round(size / _BLOCK))
    return [slice(size * i // count, size * (i + 1) // count) for i in range(count)]


def _exact_reflections(x: np.ndarray, c: float) -> np.ndarray:
    """Where 2c - x is exact, for a finite x: the TwoSum error of 2c + (-x) is 0."""
    twice, lead = 2.0 * c, -x
    mirror = twice + lead
    lead_part = mirror - twice
    return (twice - (mirror - lead_part)) + (lead - lead_part) == 0.0


def _mirrors(x: np.ndarray, c: float) -> bool:
    """Whether the trailing half of x is 2c less its leading half reversed,
    with c itself in the middle of an odd size, and no difference rounded."""
    half = x.size // 2
    lead = x[:half][::-1]
    middle = x.size % 2 == 0 or x[half] == c
    return (middle and np.array_equal(x[x.size - half:], 2.0 * c - lead)
            and bool(_exact_reflections(lead, c).all()))


def _evaluated(q: Quantizer, d: Density) -> int:
    """How many leading cells a pass over q evaluates under d: ceil(m / 2) where
    d is symmetric about q's center, as cell m - 1 - k is then cell k's mirror
    image, with its mass and distortion; all m cells otherwise."""
    c = d.center
    return (q.size + 1) // 2 if c is not None and c == q.center else q.size


def _mirrored(values: np.ndarray, size: int) -> np.ndarray:
    """The values of a size-cell quantizer's leading cells, the rest filled in
    by reversal; values itself when it holds every cell."""
    if values.size == size:
        return values
    return np.concatenate((values, values[:size - values.size][::-1]))


def cell_probabilities(q: Quantizer, d: Density) -> np.ndarray:
    """Source probability of every cell: `group_probabilities` of q alone."""
    return group_probabilities((q,), d)[0]


def group_probabilities(qs: Sequence[Quantizer], d: Density) -> list[np.ndarray]:
    """The cell masses of every quantizer in qs, bit-equal to
    `d.interval_mass_array` over the cells `_evaluated` names, the rest their
    mirrors. The edges of all those cells are joined (a view for one
    quantizer), and each block of them evaluates the cdf once per edge and the
    sf once per edge of a cell on its sf branch, where cdf(lo) > 1/2; the cell
    from one quantizer's last edge to the next one's first is dropped."""
    counts = [_evaluated(q, d) for q in qs]
    joined = _joined([q._edges[:k + 1] for q, k in zip(qs, counts)])
    masses = np.empty(joined.size - 1)
    for block in _blocks(masses.size):
        edges = joined[block.start:block.stop + 1]
        cdf = _finite_or(d.cdf_array, edges, 1.0)
        cdf[edges == -math.inf] = 0.0
        right = ~(cdf[:-1] <= 0.5)
        sf_edge = np.append(right, False) | np.append(False, right)
        sf = np.zeros(edges.shape)
        sf[sf_edge] = _finite_or(d.sf_array, edges[sf_edge], 0.0)
        masses[block] = np.where(right, sf[:-1] - sf[1:], cdf[1:] - cdf[:-1])
    np.maximum(masses, 0.0, out=masses)
    starts = np.cumsum([0] + [k + 1 for k in counts])
    return [_mirrored(masses[start:start + k], q.size) for q, k, start in zip(qs, counts, starts)]


def quantizer_entropy(q: Quantizer, d: Density, alpha: float) -> float:
    """Renyi entropy of order alpha of the quantizer output."""
    return renyi_entropy_vec(cell_probabilities(q, d), alpha)


# --- distortion --------------------------------------------------------------


def _batch_distortions(
    d: Density, r: float, lo: np.ndarray, hi: np.ndarray, c: np.ndarray
) -> np.ndarray:
    """Integral of |x - c|^r pdf over every (lo, hi), 0 where lo >= hi.

    Each (lo, hi) is clipped to the support and cut at c, unless r is an even
    integer, at the pdf's kinks and, on a bounded support, at the ends of the
    mass window (`Density.mass_window`), past which a piece is a tail, as an
    unbounded one is. The pieces run through `quadrature.settle`, a tail's
    first window |c - e| wide, or the interquartile range where c = e, at the
    floor _PIECE_ABS_TOL u^r, u the power of 2 at or below that range
    (`d.quartile_scale`). The integrand takes |x - c|^r only where the pdf is
    positive, except at r = 2 with every piece within _SQUARE_BELOW of its c:
    there it is (x - c) (x - c) pdf, the same bits.
    """
    size = lo.size
    blocks = _blocks(size)
    if len(blocks) > 1:
        return np.concatenate([_batch_distortions(d, r, lo[b], hi[b], c[b]) for b in blocks])
    iqr, unit = d.quartile_scale
    core = d.mass_window if d.support.bounded else REAL_LINE
    lo = np.maximum(lo, d.support.lo)
    hi = np.maximum(np.minimum(hi, d.support.hi), lo)  # hi = lo: nothing inside the support
    if r % 2.0 != 0.0:  # both sides of c; a side the entry does not reach is empty
        lo, hi = np.concatenate((lo, np.maximum(lo, c))), np.concatenate((np.minimum(hi, c), hi))
    entry = np.arange(lo.size) % size
    # a piece keeps its part left of a cut inside it; the rest goes last
    for k in (*d.kinks, *((core.lo, core.hi) if d.support.bounded else ())):
        inside = np.flatnonzero((lo < k) & (k < hi))
        lo, entry = np.append(lo, np.full(inside.size, k)), np.append(entry, entry[inside])
        hi = np.append(hi, hi[inside])
        hi[inside] = k
    live = np.flatnonzero(lo < hi)

    def integrand(a, b, entry):
        # x - c from the node's offset from the piece's left end; at r = 2, t * t is |t|^2
        # correctly rounded, as pow gives it, and finite while every |x - c| < _SQUARE_BELOW
        offset = c[entry] - a
        square = r == 2.0 and np.max(b - a + np.abs(offset), initial=0.0) < _SQUARE_BELOW

        def f(x, from_lo):
            pdf = d.pdf_array(x)
            dist = from_lo - offset
            if square:
                dist *= dist
            else:
                np.abs(dist, out=dist)
                np.power(dist, r, out=dist, where=pdf > 0.0)  # far out it overflows where the pdf is 0
            dist *= pdf
            return dist

        return f

    return quadrature.settle(integrand, lo[live], hi[live], entry[live], size,
                             _PIECE_ABS_TOL * unit**r, iqr, c, core=core)[0]


def cell_distortions(q: Quantizer, d: Density, r: float) -> np.ndarray:
    """Per-cell distortion contributions, each over the whole cell: the
    distortion column of `cell_table`."""
    return cell_table(q, d, r).distortions


def distortion(q: Quantizer, d: Density, r: float) -> float:
    """Expected |X - q(X)|^r under the density."""
    return fsum_array(cell_distortions(q, d, r))


# --- the cell table ------------------------------------------------------------


@dataclass(frozen=True)
class RegionColumns:
    """A cell table's columns inside one region, and the quantizer conditioned on it."""

    mass: float              # probability of the region
    masses: np.ndarray       # per-cell mass inside the region
    distortions: np.ndarray  # per-cell distortion inside the region

    def _conditioning_mass(self) -> float:
        if self.mass <= 0.0:
            raise EmptyConditioningError("conditioning region has zero probability")
        return self.mass

    def entropy(self, alpha: float) -> float:
        """Renyi entropy of order alpha of the cells conditioned on the region."""
        conditional = self.masses / self._conditioning_mass()
        # renormalize away the tiny cdf-difference drift before validation
        return renyi_entropy_vec(conditional / conditional.sum(), alpha)

    def distortion(self) -> float:
        """Distortion of the quantizer conditioned on the region."""
        return fsum_array(self.distortions) / self._conditioning_mass()


@dataclass(frozen=True)
class CellTable:
    """Cell masses and distortions of one quantizer, and both inside each region."""

    masses: np.ndarray
    distortions: np.ndarray
    regions: tuple[RegionColumns, ...]


def _region_parts(
    q: Quantizer, regions: Sequence[Sequence[Interval]]
) -> tuple[list[tuple[int, slice]], list[tuple[int, int, float, float]]]:
    """Where each region meets q's cells: the run of cells wholly inside each
    interval as (region, slice), and the part of every cell an interval
    endpoint cuts as (region, cell, lo, hi), both in region and interval order."""
    lows, highs = q._edges[:-1], q._edges[1:]
    runs, cuts = [], []
    for j, region in enumerate(regions):
        for iv in region:
            start = int(np.searchsorted(lows, iv.lo, side="left"))
            stop = int(np.searchsorted(highs, iv.hi, side="right"))
            runs.append((j, slice(start, stop)))
            # the cell on either side of that run holds an endpoint or lies outside
            for k in sorted({start - 1, stop} - {-1, q.size}):
                lo, hi = max(lows[k], iv.lo), min(highs[k], iv.hi)
                if lo < hi:
                    cuts.append((j, k, lo, hi))
    return runs, cuts


def _joined(arrays: list[np.ndarray]) -> np.ndarray:
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def cell_tables(
    qs: Sequence[Quantizer], d: Density, r: float, regions: Sequence[Sequence[Interval]] = ()
) -> list[CellTable]:
    """The cell_table of every quantizer in qs: one mass pass over all of them
    (`group_probabilities`), and one distortion pass over the cells
    `_evaluated` names of all of them, their mirrors filled in, and every cell
    part a region endpoint cuts. An entry's mass and distortion do not depend
    on the batch, so each table is bit-equal to the one its quantizer gets
    alone."""
    if r < 1.0:
        raise DomainError(f"distortion requires r >= 1, got {r}")
    parts = [_region_parts(q, regions) for q in qs]
    counts = [_evaluated(q, d) for q in qs]
    # views: one quantizer with no cut passes no copy
    lows = [q._edges[:k] for q, k in zip(qs, counts)]
    highs = [q._edges[1:k + 1] for q, k in zip(qs, counts)]
    codepoints = [q._codepoint_array[:k] for q, k in zip(qs, counts)]
    cuts = [(lo, hi, q._codepoint_array[k])
            for q, (_, q_cuts) in zip(qs, parts) for _, k, lo, hi in q_cuts]
    if cuts:
        for arrays, column in zip((lows, highs, codepoints), zip(*cuts)):
            arrays.append(np.array(column))
    values = _batch_distortions(d, r, _joined(lows), _joined(highs), _joined(codepoints))
    cells = sum(counts)
    cut_masses = d.interval_mass_array(lows[-1], highs[-1]).tolist() if cuts else []
    cut_values = iter(zip(cut_masses, values[cells:].tolist()))
    bounds = [([iv.lo for iv in region], [iv.hi for iv in region]) for region in regions]
    region_masses = [math.fsum(d.interval_mass_array(lo, hi).tolist()) for lo, hi in bounds]
    tables, start = [], 0
    # each table's region columns, in the parts' order
    for q, k, (runs, q_cuts), masses in zip(qs, counts, parts, group_probabilities(qs, d)):
        distortions = _mirrored(values[start:start + k], q.size)
        start += k
        columns = [(np.zeros(q.size), np.zeros(q.size)) for _ in regions]
        for j, run in runs:  # a cell wholly inside keeps its full-pass values
            columns[j][0][run] += masses[run]
            columns[j][1][run] += distortions[run]
        for (j, k, _, _), (mass, dist) in zip(q_cuts, cut_values):  # takes len(q_cuts) values
            columns[j][0][k] += mass
            columns[j][1][k] += dist
        tables.append(CellTable(masses, distortions, tuple(
            RegionColumns(mass, m, x) for mass, (m, x) in zip(region_masses, columns)
        )))
    return tables


def cell_table(
    q: Quantizer, d: Density, r: float, regions: Sequence[Sequence[Interval]] = ()
) -> CellTable:
    """One cell_probabilities and one distortion pass, and both columns inside
    each region (a union of disjoint intervals), each over the cells' parts
    inside its intervals."""
    return cell_tables((q,), d, r, regions)[0]


def restricted_metrics(q: Quantizer, d: Density, interval: Interval, r: float) -> RegionColumns:
    """The cell table's columns inside an interval, whose `entropy` and
    `distortion` are the quantizer's conditioned on it."""
    return region_metrics(q, d, (interval,), r)


def region_metrics(q: Quantizer, d: Density, region: Sequence[Interval], r: float) -> RegionColumns:
    """Same as restricted_metrics for a union of disjoint intervals."""
    return cell_table(q, d, r, (region,)).regions[0]
