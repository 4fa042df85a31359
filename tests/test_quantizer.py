import copy
import math
import pickle
import warnings
from bisect import bisect_left
from fractions import Fraction

import numpy as np
import pytest

from renyi_quant import (
    Exponential,
    Gaussian,
    Interval,
    Laplacian,
    PiecewiseLinear,
    Quantizer,
    TiltedDensity,
    Uniform,
    build_compander,
    cell_probabilities,
    distortion,
    optimal_point_density,
    quantizer_entropy,
    refine_codepoints,
    renyi_entropy_vec,
    restricted_metrics,
)
from renyi_quant import compander, quadrature
from renyi_quant.intervals import REAL_LINE
from renyi_quant.density import TAIL_MASS, Density
from renyi_quant.errors import (
    DomainError,
    EmptyConditioningError,
    InfiniteIntegralError,
    NonConvergenceError,
)
from renyi_quant import quantizer
from renyi_quant.quantizer import cell_distortions, cell_table, power_sum, region_metrics


def uniform_quantizer(n, lo=0.0, hi=1.0):
    width = (hi - lo) / n
    bps = tuple(lo + k * width for k in range(1, n))
    cps = tuple(lo + (k + 0.5) * width for k in range(n))
    return Quantizer(bps, cps)


# --- construction -------------------------------------------------------------


def test_invariants_enforced():
    with pytest.raises(DomainError):
        Quantizer((), (0.5,))  # m >= 2
    with pytest.raises(DomainError):
        Quantizer((0.5, 0.5), (0.1, 0.6, 0.9))  # strictly increasing breakpoints
    with pytest.raises(DomainError):
        Quantizer((0.5,), (0.6, 0.9))  # codepoint outside its cell
    with pytest.raises(DomainError):
        Quantizer((0.5,), (0.5, 0.9))  # boundary is not interior


def _array_quantizer(n, seed=3):
    """n cells with random breakpoints in (-5, 5) and a codepoint inside each, as arrays."""
    rng = np.random.default_rng(seed)
    bps = np.sort(rng.uniform(-5.0, 5.0, size=n - 1))
    edges = np.concatenate(([bps[0] - 1.0], bps, [bps[-1] + 1.0]))
    return bps, 0.5 * (edges[:-1] + edges[1:])


def test_array_quantizer_equals_tuple_quantizer():
    bps, cps = _array_quantizer(50)
    from_arrays = Quantizer(bps, cps)
    from_tuples = Quantizer(tuple(bps.tolist()), tuple(cps.tolist()))
    assert from_arrays == from_tuples and hash(from_arrays) == hash(from_tuples)
    assert hash(from_arrays) == hash((from_tuples.breakpoints, from_tuples.codepoints))
    assert repr(from_arrays) == repr(from_tuples)
    assert from_arrays != Quantizer(bps, np.nextafter(cps, np.inf))
    for field in (from_arrays.breakpoints, from_arrays.codepoints):
        assert type(field) is tuple and all(type(v) is float for v in field)
    assert from_arrays.breakpoints == tuple(bps.tolist())
    assert from_arrays.codepoints == tuple(cps.tolist())


def test_array_quantizer_copies_its_input_and_is_read_only():
    bps, cps = _array_quantizer(8)
    q = Quantizer(bps, cps)
    before = (q.breakpoints, q.codepoints)
    bps[0] -= 1.0
    cps[:] = 0.0
    assert (q.breakpoints, q.codepoints) == before
    for stored in (q._edges, q._codepoint_array):
        assert not stored.flags.writeable
        with pytest.raises(ValueError):
            stored[1] = 0.0
    with pytest.raises(AttributeError):
        q.breakpoints = ()


def test_pickle_and_copy_rebuild_a_validated_read_only_quantizer():
    q = Quantizer(*_array_quantizer(8))
    for again in (pickle.loads(pickle.dumps(q)), copy.deepcopy(q), copy.copy(q)):
        assert again == q and repr(again) == repr(q)
        for stored in (again._edges, again._codepoint_array):
            assert not stored.flags.writeable
    # state that __init__ would refuse does not survive a round trip
    bad = object.__new__(Quantizer)
    bad._edges = np.array([-math.inf, 0.5, math.inf])
    bad._codepoint_array = np.array([0.6, 0.9])
    for round_trip in (lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy):
        with pytest.raises(DomainError):
            round_trip(bad)


@pytest.mark.parametrize(
    "bps, cps",
    [
        ((0.5, 0.5), (0.1, 0.6, 0.9)),  # breakpoints not strictly increasing
        ((0.5, 0.2), (0.1, 0.3, 0.9)),
        ((0.5,), (0.6, 0.9)),  # a codepoint outside its cell
        ((0.5,), (0.5, 0.9)),  # a codepoint on its cell's edge
        ((0.5, 0.7), (0.1, 0.9)),  # wrong lengths
        ((), (0.5,)),
        (((0.5,),), ((0.25,), (0.75,))),  # 2-D
    ],
)
def test_array_input_raises_as_tuple_input(bps, cps):
    with pytest.raises(DomainError) as from_tuples:
        Quantizer(bps, cps)
    with pytest.raises(DomainError) as from_arrays:
        Quantizer(np.array(bps, dtype=float), np.array(cps, dtype=float))
    assert str(from_arrays.value) == str(from_tuples.value)


# --- cell lookup ---------------------------------------------------------------


def test_quantize_boundary_goes_left():
    q = Quantizer((0.5,), (0.25, 0.75))
    assert q.codepoints[q.cell_index(0.5)] == 0.25
    assert q.codepoints[q.cell_index(0.7)] == 0.75
    assert q.codepoints[q.cell_index(-3.0)] == 0.25


def test_quantize_matches_linear_scan():
    rng = np.random.default_rng(7)
    bps = tuple(sorted(rng.uniform(-3, 3, size=9)))
    cps = []
    edges = (-math.inf, *bps, math.inf)
    for k in range(10):
        lo = edges[k] if math.isfinite(edges[k]) else edges[k + 1] - 1.0
        hi = edges[k + 1] if math.isfinite(edges[k + 1]) else edges[k] + 1.0
        cps.append(0.5 * (lo + hi))
    q = Quantizer(bps, tuple(cps))
    for x in rng.uniform(-5, 5, size=200):
        expected = None
        for k in range(q.size):
            if q.cell(k).contains(x):
                assert expected is None
                expected = q.codepoints[k]
        assert q.codepoints[q.cell_index(float(x))] == expected


def test_cell_index_matches_bisect_left():
    bps, cps = _array_quantizer(40, seed=11)
    q = Quantizer(bps, cps)
    rng = np.random.default_rng(12)
    xs = [*bps.tolist(), *cps.tolist(), *rng.uniform(-7.0, 7.0, size=200).tolist(),
          -math.inf, math.inf, float(np.nextafter(bps[3], np.inf))]
    for x in xs:
        assert q.cell_index(x) == bisect_left(q.breakpoints, x)


# --- cell probabilities ----------------------------------------------------------


def test_cell_probabilities_examples():
    u = Uniform(0.0, 1.0)
    p = cell_probabilities(Quantizer((0.25, 0.5, 0.75), (0.1, 0.3, 0.6, 0.9)), u)
    assert np.allclose(p, 0.25, atol=1e-15)
    g = Gaussian(0.0, 1.0)
    p = cell_probabilities(Quantizer((0.0,), (-1.0, 1.0)), g)
    assert np.allclose(p, 0.5, atol=1e-15)
    p = cell_probabilities(Quantizer((0.1,), (0.05, 0.5)), u)
    assert p[0] == pytest.approx(0.1, abs=1e-15)
    assert p[1] == pytest.approx(0.9, abs=1e-15)


def test_cell_probabilities_sum_to_one():
    g = Gaussian(0.3, 1.7)
    q = uniform_quantizer(64, -8.0, 8.0)
    assert cell_probabilities(q, g).sum() == pytest.approx(1.0, abs=1e-9)


ORACLE_SOURCES = [
    Gaussian(0.3, 1.7),
    Laplacian(-0.5, 0.8),
    Exponential(1.5, 0.25),
    Uniform(-1.0, 2.0),
    PiecewiseLinear([(0.0, 0.0), (1.0, 2.0), (3.0, 0.5), (4.0, 0.0)]),
    PiecewiseLinear([(0.0, 0.2), (1.0, 1.0), (3.0, 0.0)]).tilt(0.6),
]


def _compander_for(d, n, r=2.0):
    if d.support.bounded:
        return build_compander(Uniform(d.support.lo, d.support.hi), n)
    return build_compander(optimal_point_density(d, 0.5, r), n)


@pytest.mark.parametrize("d", ORACLE_SOURCES, ids=lambda d: repr(d))
def test_cell_probabilities_match_interval_mass(d):
    q = _compander_for(d, 64)
    want = np.array([d.interval_mass(q.cell(k)) for k in range(q.size)])
    got = cell_probabilities(q, d)
    # both branches of interval_mass: cdf differences left of the median, sf right of it
    lows = [q.cell(k).lo for k in range(q.size)]
    assert any(d.cdf(lo) > 0.5 for lo in lows[1:]) and d.cdf(lows[1]) <= 0.5
    if isinstance(d, (Laplacian, Exponential)):
        # np.exp/np.expm1 may differ from math's by an ulp of the cdf
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=4e-16)
    else:
        np.testing.assert_array_equal(got, want)


# each source with a span of edges reaching past its median on both sides
EDGE_SOURCES = [
    (Gaussian(0.3, 1.7), (-15.0, 14.0)),
    (Laplacian(-0.5, 0.8), (-40.0, 30.0)),
    (Exponential(1.5, 0.25), (-1.0, 30.0)),
    (Uniform(0.0, 1.0), (-0.5, 1.5)),  # edges outside the support
    (PiecewiseLinear([(0.0, 0.0), (1.0, 2.0), (3.0, 0.5), (4.0, 0.0)]), (-0.5, 4.5)),
    (Gaussian(0.0, 1.0).restrict(Interval(-1.0, 2.0)), (-2.0, 3.0)),
    (TiltedDensity(PiecewiseLinear([(0.0, 0.2), (1.0, 1.0), (3.0, 0.0)]), 0.6), (-0.5, 3.5)),
]


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("block", [3, 4096])
@pytest.mark.parametrize("n", [2, 3, 5000])
@pytest.mark.parametrize("d, span", EDGE_SOURCES, ids=[repr(d) for d, _ in EDGE_SOURCES])
def test_edge_masses_bit_equal_interval_mass_array(monkeypatch, d, span, n, block):
    """Each edge's cdf (and sf) is evaluated once and shared by the cells on
    both sides of it, also across block boundaries; the masses stay those of
    interval_mass_array over the cells, bit for bit."""
    monkeypatch.setattr(quantizer, "_BLOCK", block)
    q = uniform_quantizer(n, *span)
    want = d.interval_mass_array(q._edges[:-1], q._edges[1:])
    np.testing.assert_array_equal(_bits(cell_probabilities(q, d)), _bits(want))
    if n == 5000:  # both branches: cdf differences left of the median, sf right of it
        cdf_lo = d.cdf_array(q._edges[1:-1])
        assert (cdf_lo <= 0.5).any() and (cdf_lo > 0.5).any()


@pytest.mark.parametrize("block", [7, 4096])
@pytest.mark.parametrize("d, span", EDGE_SOURCES, ids=[repr(d) for d, _ in EDGE_SOURCES])
def test_group_masses_bit_equal_each_quantizers_own(monkeypatch, d, span, block):
    """One mass pass over a group, its members' evaluated edges joined, gives
    each member the masses of its own cell_probabilities and of
    interval_mass_array over its cells, bit for bit: mirrored and unmirrored
    members side by side, and blocks that cut across members."""
    monkeypatch.setattr(quantizer, "_BLOCK", block)
    qs = [uniform_quantizer(n, *span) for n in (2, 3, 64)]
    qs += [build_compander(d, n) for n in (16, 5, 32)]
    mirrored = [quantizer._evaluated(q, d) < q.size for q in qs]
    # the uniform and the Laplacian mirror their own companders exactly; 2c - x
    # rounds for N(0.3, 1.7), and the other sources have no center
    assert any(mirrored) == isinstance(d, (Uniform, Laplacian)) and not all(mirrored)
    for q, got in zip(qs, quantizer.group_probabilities(qs, d), strict=True):
        np.testing.assert_array_equal(_bits(got), _bits(cell_probabilities(q, d)))
        want = d.interval_mass_array(q._edges[:-1], q._edges[1:])
        if quantizer._evaluated(q, d) == q.size:
            np.testing.assert_array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("r", [2.0, 3.0])
@pytest.mark.parametrize("n", [2, 3, 5000])
@pytest.mark.parametrize("d, span", EDGE_SOURCES, ids=[repr(d) for d, _ in EDGE_SOURCES])
def test_cell_distortions_do_not_depend_on_the_block_size(monkeypatch, d, span, n, r):
    q = uniform_quantizer(n, *span)
    got = []
    for block in (3, 4096):
        monkeypatch.setattr(quantizer, "_BLOCK", block)
        got.append(_bits(cell_distortions(q, d, r)))
    np.testing.assert_array_equal(*got)


# --- Renyi entropy of vectors ------------------------------------------------------


def test_renyi_entropy_vec_examples():
    assert renyi_entropy_vec((0.25, 0.25, 0.25, 0.25), 0.5) == pytest.approx(
        math.log(4.0), abs=1e-12
    )
    assert renyi_entropy_vec((0.5, 0.5, 0.0), 0.0) == pytest.approx(math.log(2.0), abs=1e-12)
    # frozen high-precision value of 2 log(sqrt(0.75) + sqrt(0.25))
    assert renyi_entropy_vec((0.75, 0.25), 0.5) == pytest.approx(
        0.6238107163648714, abs=1e-12
    )


def test_renyi_entropy_vec_validation():
    with pytest.raises(DomainError):
        renyi_entropy_vec((0.5, 0.4), 0.5)  # sums to 0.9
    with pytest.raises(DomainError):
        renyi_entropy_vec((1.5, -0.5), 0.5)
    with pytest.raises(DomainError):
        renyi_entropy_vec((0.5, 0.5), 1.5)


def test_renyi_entropy_vec_nonincreasing_in_alpha():
    rng = np.random.default_rng(42)
    alphas = np.linspace(0.0, 1.0, 21)
    for _ in range(100):
        k = int(rng.integers(2, 12))
        p = rng.dirichlet(np.ones(k))
        vals = [renyi_entropy_vec(p, float(a)) for a in alphas]
        assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))


def test_renyi_entropy_vec_bounds_and_uniform_max():
    rng = np.random.default_rng(3)
    for _ in range(50):
        k = int(rng.integers(2, 10))
        p = rng.dirichlet(np.ones(k))
        for alpha in (0.0, 0.3, 0.7, 1.0):
            h = renyi_entropy_vec(p, alpha)
            assert -1e-12 <= h <= math.log(k) + 1e-9
    for alpha in (0.0, 0.25, 0.5, 1.0):
        assert renyi_entropy_vec(np.full(8, 0.125), alpha) == pytest.approx(
            math.log(8.0), abs=1e-9
        )
    # the maximum is attained only by the uniform vector
    lopsided = np.array([0.2, 0.1, 0.1, 0.1, 0.1, 0.1, 0.15, 0.15])
    assert renyi_entropy_vec(lopsided, 0.5) < math.log(8.0) - 1e-9


def test_entropy_shannon_branch_continuity():
    p = (0.5, 0.3, 0.2)
    shannon = renyi_entropy_vec(p, 1.0)
    just_below = renyi_entropy_vec(p, 1.0 - 2e-6)
    assert abs(just_below - shannon) < 1e-4


# --- quantizer entropy ----------------------------------------------------------------


def test_quantizer_entropy_examples():
    u = Uniform(0.0, 1.0)
    assert quantizer_entropy(uniform_quantizer(4), u, 0.3) == pytest.approx(
        math.log(4.0), abs=1e-12
    )
    g = Gaussian(0.0, 1.0)
    for alpha in (0.0, 0.4, 1.0):
        assert quantizer_entropy(Quantizer((0.0,), (-1.0, 1.0)), g, alpha) == pytest.approx(
            math.log(2.0), abs=1e-12
        )
    assert quantizer_entropy(Quantizer((0.75,), (0.3, 0.9)), u, 0.5) == pytest.approx(
        0.6238107163648714, abs=1e-12
    )


def test_quantizer_entropy_invariant_under_cell_reordering():
    p = np.array([0.1, 0.4, 0.2, 0.3])
    rng = np.random.default_rng(0)
    base = renyi_entropy_vec(p, 0.5)
    for _ in range(5):
        assert renyi_entropy_vec(rng.permutation(p), 0.5) == pytest.approx(base, abs=1e-12)


# --- distortion ----------------------------------------------------------------------


def test_distortion_uniform_midpoint():
    u = Uniform(0.0, 1.0)
    for n in (2, 4, 8):
        assert distortion(uniform_quantizer(n), u, 2.0) == pytest.approx(
            1.0 / (12.0 * n * n), abs=1e-10
        )


def test_distortion_uniform_r1():
    u = Uniform(0.0, 1.0)
    q = Quantizer((0.5,), (0.25, 0.75))
    assert distortion(q, u, 1.0) == pytest.approx(0.125, abs=1e-12)


def test_distortion_gaussian_two_cell():
    g = Gaussian(0.0, 1.0)
    c = math.sqrt(2.0 / math.pi)
    q = Quantizer((0.0,), (-c, c))
    # conditional-mean algebra: 1 - 2/pi
    assert distortion(q, g, 2.0) == pytest.approx(0.36338022763241866, abs=1e-9)


def test_distortion_shift_invariance():
    g = Gaussian(0.0, 1.0)
    q = Quantizer((-0.6, 0.4), (-1.0, 0.0, 1.1))
    shifted_q = Quantizer(
        tuple(b + 3.0 for b in q.breakpoints), tuple(c + 3.0 for c in q.codepoints)
    )
    assert distortion(shifted_q, Gaussian(3.0, 1.0), 2.0) == pytest.approx(
        distortion(q, g, 2.0), abs=1e-9
    )


# --- conditional metrics of a region's columns ---------------------------------------------


def test_restricted_metrics_uniform_half():
    u = Uniform(0.0, 1.0)
    q = uniform_quantizer(4)
    region = restricted_metrics(q, u, Interval(0.0, 0.5), 2.0)
    assert region.entropy(0.5) == pytest.approx(math.log(2.0), abs=1e-12)
    assert power_sum(region.masses, 0.5) == pytest.approx(1.0, abs=1e-12)
    assert power_sum(cell_probabilities(q, u), 0.5) == pytest.approx(2.0, abs=1e-12)


def test_restricted_metrics_whole_support_matches_entropy():
    g = Gaussian(0.0, 1.0)
    q = uniform_quantizer(16, -6.0, 6.0)
    region = restricted_metrics(q, g, Interval(-40.0, 40.0), 2.0)
    assert region.entropy(0.5) == pytest.approx(quantizer_entropy(q, g, 0.5), abs=1e-12)


def test_restricted_metrics_empty_region():
    u = Uniform(0.0, 1.0)
    region = restricted_metrics(uniform_quantizer(4), u, Interval(2.0, 3.0), 2.0)
    assert region.mass == 0.0
    with pytest.raises(EmptyConditioningError):
        region.entropy(0.5)
    with pytest.raises(EmptyConditioningError):
        region.distortion()


@pytest.mark.parametrize(
    "d", [Uniform(0.0, 1.0), Gaussian(0.0, 1.0), Laplacian(0.0, 1.0)], ids=lambda d: repr(d)
)
def test_partition_distortion_identity(d):
    # mu(A1) D_1 + mu(A2) D_2 = D for the two-set partition
    q = uniform_quantizer(8, -4.0, 4.0)
    interval = Interval(-0.5, 0.75)
    inside = restricted_metrics(q, d, interval, 2.0)
    outside = region_metrics(q, d, interval.complement(), 2.0)
    mass1 = d.interval_mass(interval)
    total = mass1 * inside.distortion() + (1.0 - mass1) * outside.distortion()
    assert total == pytest.approx(distortion(q, d, 2.0), abs=1e-9)


def test_restricted_metrics_interval_over_the_whole_support():
    u = Uniform(0.0, 1.0)
    q = uniform_quantizer(4)
    region = restricted_metrics(q, u, Interval(-1.0, 2.0), 2.0)
    assert region.entropy(0.5) == pytest.approx(math.log(4.0), abs=1e-12)
    assert region.distortion() == pytest.approx(distortion(q, u, 2.0), rel=1e-12)
    # the empty complement raises only when it is read
    table = cell_table(q, u, 2.0, ((Interval(-1.0, 2.0),), Interval(-1.0, 2.0).complement()))
    inside, outside = table.regions
    assert inside.mass == region.mass
    assert np.array_equal(inside.masses, region.masses)
    assert np.array_equal(inside.distortions, region.distortions)
    assert outside.mass == 0.0 and not outside.masses.any() and not outside.distortions.any()
    with pytest.raises(EmptyConditioningError):
        outside.entropy(0.5)
    with pytest.raises(EmptyConditioningError):
        outside.distortion()


# --- the cell table against the per-region passes it replaces --------------------------


def _oracle_region_masses(q, d, region):
    """Per-cell mass inside a region: every cell clipped to every interval."""
    lows, highs = q._edges[:-1], q._edges[1:]
    masses = np.zeros(q.size)
    for block in quantizer._blocks(q.size):
        for iv in region:
            lo = np.maximum(lows[block], iv.lo)
            hi = np.minimum(highs[block], iv.hi)
            live = np.flatnonzero(lo < hi)
            piece = np.zeros(lo.shape)
            piece[live] = d.interval_mass_array(lo[live], hi[live])
            masses[block] += piece
    return masses


def _split(r):
    """Whether the cell layer splits a cell at its codepoint: unless r is an
    even integer, |x - c|^r has its kink there."""
    return r % 2.0 != 0.0


def _settles(values, bounds, d, r):
    """The cell layer's stopping test for a batched panel's value and bound:
    the absolute floor is 1e-16 u^r, u the power of 2 at or below d's
    interquartile range."""
    unit = 2.0 ** math.floor(math.log2(d.quantile(0.75) - d.quantile(0.25)))
    return bounds <= np.maximum(quadrature.DEFAULT_REL_TOL * values, 1e-16 * unit**r)


def _oracle_region_distortions(q, d, r, region):
    """Per-cell distortion inside a region: a full pass per interval, every
    cell clipped to the interval, added in interval order."""
    lows, highs = q._edges[:-1], q._edges[1:]
    out = np.zeros(q.size)
    for part in region:
        out += quantizer._batch_distortions(
            d, r, np.maximum(lows, part.lo), np.minimum(highs, part.hi), q._codepoint_array
        )
    return out


def _mirrored_runs(q, d, region, want, full):
    """want, but with every cell past the ones q evaluates under d that lies
    wholly inside the region holding its full-pass value, its mirror's."""
    lows, highs = q._edges[:-1], q._edges[1:]
    inside = np.zeros(q.size, dtype=bool)
    for iv in region:
        inside |= (iv.lo <= lows) & (highs <= iv.hi)
    inside[:quantizer._evaluated(q, d)] = False
    return np.where(inside, full, want)


def _oracle_region_metrics(q, d, region, alpha, masses_in, distortions_in):
    """The conditional entropy and distortion of a region, then the power sums
    over all cells and over the region's masses."""
    mass_total = math.fsum(d.interval_mass(iv) for iv in region)
    conditional = masses_in / mass_total
    conditional = conditional / conditional.sum()
    dist_in = float(math.fsum(distortions_in))
    return (
        renyi_entropy_vec(conditional, alpha),
        dist_in / mass_total,
        power_sum(cell_probabilities(q, d), alpha),
        power_sum(masses_in, alpha),
    )


def _region_metrics(table, columns, alpha):
    """What the oracle gives, read from a table and one region's columns."""
    return (
        columns.entropy(alpha),
        columns.distortion(),
        power_sum(table.masses, alpha),
        power_sum(columns.masses, alpha),
    )


TABLE_SOURCES = [
    Gaussian(0.3, 1.7),
    Laplacian(-0.5, 0.8),
    Uniform(-1.0, 2.0),
    Exponential(1.5, 0.25),
    PiecewiseLinear([(0.0, 0.0), (1.0, 2.0), (3.0, 0.5), (4.0, 0.0)]),
]


def _table_intervals(d, q):
    """Interval cases named by what they test, for a quantizer q of d."""
    window = quadrature.truncate_support(d, TAIL_MASS)
    bps = q.breakpoints
    k = q.size // 2
    lo, hi = (bps[k - 1], bps[k]) if q.size > 2 else (bps[0] - 1.0, bps[0])
    return {
        "interior": Interval(d.quantile(0.3), d.quantile(0.8)),
        "on_breakpoints": Interval(bps[0], bps[-1]),
        "one_end_on_breakpoint": Interval(bps[k - 1], 0.5 * (bps[k - 1] + bps[-1])),
        "inside_one_cell": Interval(lo + 0.25 * (hi - lo), lo + 0.5 * (hi - lo)),
        "wider_than_window": Interval(window.lo - 1.0, window.hi + 1.0),
        "left_half_infinite": Interval(-math.inf, d.quantile(0.4)),
        "right_half_infinite": Interval(d.quantile(0.6), math.inf),
    }


@pytest.mark.parametrize("n", [4, 16, 257, 2048])
@pytest.mark.parametrize("d", TABLE_SOURCES, ids=lambda d: repr(d))
def test_cell_table_is_bit_equal_to_the_per_region_passes(d, n):
    """Bit-equal on the cells the table evaluates and on every cut cell part;
    a mirrored cell holds its mirror's value. Gaussian(0.3, 1.7), on which
    2c - x rounds, and the asymmetric sources evaluate every cell."""
    r = 3.0 if isinstance(d, Laplacian) else 2.0
    q = _compander_for(d, n, r)
    k = quantizer._evaluated(q, d)
    mirrors = isinstance(d, Laplacian) or (isinstance(d, Uniform) and n != 257)
    assert k == ((q.size + 1) // 2 if mirrors else q.size)
    cases = _table_intervals(d, q)
    regions = [region for iv in cases.values() for region in ((iv,), iv.complement())]
    table = cell_table(q, d, r, regions)
    assert np.array_equal(table.masses, cell_probabilities(q, d))
    full = _oracle_region_distortions(q, d, r, [REAL_LINE])
    assert np.array_equal(table.distortions[:k], full[:k])
    assert np.array_equal(table.distortions[k:], table.distortions[:q.size - k][::-1])
    for region, columns in zip(regions, table.regions):
        masses = _mirrored_runs(q, d, region, _oracle_region_masses(q, d, region), table.masses)
        distortions = _mirrored_runs(
            q, d, region, _oracle_region_distortions(q, d, r, region), table.distortions
        )
        assert np.array_equal(columns.masses, masses), region
        assert np.array_equal(columns.distortions, distortions), region
        assert columns.mass == math.fsum(d.interval_mass(iv) for iv in region)
        if columns.mass > 0.0:
            assert _region_metrics(table, columns, 0.5) == _oracle_region_metrics(
                q, d, region, 0.5, masses, distortions
            )
        alone = region_metrics(q, d, region, r)
        assert alone.mass == columns.mass
        assert np.array_equal(alone.masses, columns.masses)
        assert np.array_equal(alone.distortions, columns.distortions)


def test_cell_table_interval_cases_cover_what_they_name():
    d = Gaussian(0.3, 1.7)
    q = _compander_for(d, 4)
    cases = _table_intervals(d, q)
    assert q.cell_index(cases["inside_one_cell"].lo) == q.cell_index(cases["inside_one_cell"].hi)
    assert cases["on_breakpoints"].lo in q.breakpoints
    window = quadrature.truncate_support(d, TAIL_MASS)
    assert window.intersect(cases["wider_than_window"]) == window


def test_cell_table_reevaluates_only_the_cut_cells(monkeypatch):
    g = Gaussian(0.0, 1.0)
    q = _compander_for(g, 1024)
    interval = Interval(-0.3, 0.7)
    table = cell_table(q, g, 2.0)
    pieces = []
    original = quantizer._batch_distortions

    def recording(d, r, lo, hi, c):
        pieces.append(lo.size)
        return original(d, r, lo, hi, c)

    monkeypatch.setattr(quantizer, "_batch_distortions", recording)
    sides = cell_table(q, g, 2.0, ((interval,), interval.complement()))
    # one batch: the leading half of the cells, whose mirrors fill in the
    # rest, and the cells the two endpoints cut, once for the interval and
    # once for its complement
    assert pieces == [(q.size + 1) // 2 + 4]
    assert np.array_equal(sides.distortions, table.distortions)


@pytest.mark.parametrize("r", [2.0, 3.0])
@pytest.mark.parametrize(
    "d, evaluated",
    [
        # 2c - x rounds for c = 0.3: no quantizer mirrors exactly
        (Gaussian(0.3, 1.7), (4, 37, 256)),
        (Laplacian(-0.5, 0.8), (2, 19, 128)),  # a kink; every quantizer mirrors
        (Exponential(1.5, 0.25), (4, 37, 256)),  # a support end
        (Uniform(-1.0, 2.0), (2, 37, 128)),  # at n = 37, 2c - x rounds
        (PiecewiseLinear([(0.0, 0.2), (1.0, 1.0), (3.0, 0.0)]).tilt(0.6), (4, 37, 256)),
    ],
    ids=repr,
)
def test_cell_tables_are_bit_equal_to_one_cell_table_each(monkeypatch, d, evaluated, r):
    qs = [_compander_for(d, n, r) for n in (4, 37, 256)]
    assert [quantizer._evaluated(q, d) for q in qs] == list(evaluated)
    interval = Interval(d.quantile(0.3), d.quantile(0.8))
    regions = ((interval,), interval.complement())
    assert all(interval.lo not in q.breakpoints and interval.hi not in q.breakpoints for q in qs)
    passes = []
    original = quantizer._batch_distortions

    def recording(d, r, lo, hi, c):
        passes.append(lo.size)
        return original(d, r, lo, hi, c)

    monkeypatch.setattr(quantizer, "_batch_distortions", recording)
    tables = quantizer.cell_tables(qs, d, r, regions)
    # one pass over the cells each quantizer evaluates (the leading half of
    # one that mirrors) and every cut cell part: two per endpoint, one inside
    # the interval and one inside its complement, one fewer where both
    # endpoints cut the same cell
    cuts = [len(quantizer._region_parts(q, regions)[1]) for q in qs]
    assert all(3 <= k <= 4 for k in cuts)
    assert passes == [sum(evaluated) + sum(cuts)]
    for q, table in zip(qs, tables, strict=True):
        alone = cell_table(q, d, r, regions)
        assert np.array_equal(_bits(table.masses), _bits(alone.masses))
        assert np.array_equal(_bits(table.distortions), _bits(alone.distortions))
        for got, want in zip(table.regions, alone.regions, strict=True):
            assert got.mass == want.mass
            assert np.array_equal(_bits(got.masses), _bits(want.masses))
            assert np.array_equal(_bits(got.distortions), _bits(want.distortions))


# (source, n) where the compander mirrors exactly: for Uniform(-1, 2) at odd
# n > 5, 2c - x rounds
MIRROR_CASES = [
    *((d, n) for d in (Gaussian(0.0, 1.0), Laplacian(-0.5, 0.8), Uniform(-1.0, 2.0))
      for n in (4, 5, 64, 4096)),
    (Gaussian(0.0, 1.0), 1025),
    (Laplacian(-0.5, 0.8), 1025),
]


@pytest.mark.parametrize("r", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("d, n", MIRROR_CASES, ids=repr)
def test_a_mirrored_table_agrees_with_every_cell_evaluated(d, n, r):
    """A mirrored cell's mass and distortion differ from its own evaluation
    only by the rounding of each: the cells are the same up to the sign."""
    q = build_compander(optimal_point_density(d, 0.5, r), n)
    k = quantizer._evaluated(q, d)
    assert k == (n + 1) // 2
    table = cell_table(q, d, r)
    lows, highs, codepoints = q._edges[:-1], q._edges[1:], q._codepoint_array
    distortions = quantizer._batch_distortions(d, r, lows, highs, codepoints)
    np.testing.assert_allclose(table.distortions, distortions, rtol=4e-15, atol=0.0)
    np.testing.assert_allclose(table.masses, d.interval_mass_array(lows, highs), rtol=2e-13, atol=0.0)
    assert math.fsum(table.distortions) == pytest.approx(math.fsum(distortions), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("d, n", MIRROR_CASES, ids=repr)
def test_mirrored_cells_hold_their_mirrors_values_bit_for_bit(monkeypatch, d, n):
    q = build_compander(optimal_point_density(d, 0.5, 3.0), n)
    rows = []
    original = quantizer._batch_distortions

    def recording(d, r, lo, hi, c):
        rows.append((lo, hi, c))
        return original(d, r, lo, hi, c)

    monkeypatch.setattr(quantizer, "_batch_distortions", recording)
    values = cell_distortions(q, d, 3.0)
    masses = cell_probabilities(q, d)
    k = (n + 1) // 2
    # the leading cells, up to the middle one of an odd n, once each
    [(lo, hi, c)] = rows
    assert np.array_equal(lo, q._edges[:k]) and np.array_equal(hi, q._edges[1:k + 1])
    assert np.array_equal(c, q._codepoint_array[:k])
    for got in (values, masses):
        assert np.array_equal(_bits(got[k:]), _bits(got[:n - k][::-1]))
    assert np.array_equal(_bits(masses[:k]), _bits(d.interval_mass_array(lo, hi)))


@pytest.mark.parametrize(
    "d, refined, evaluated",
    [
        (Gaussian(0.0, 1.0), False, 32),
        (Exponential(1.0), False, 64),
        (PiecewiseLinear([(0.0, 0.2), (1.0, 1.0), (3.0, 0.0)]).tilt(0.6), False, 64),
        (Gaussian(0.0, 1.0), True, 64),  # refined codepoints do not mirror exactly
    ],
    ids=repr,
)
def test_a_pass_evaluates_half_the_cells_of_a_mirrored_quantizer(monkeypatch, d, refined, evaluated):
    q = _compander_for(d, 64, 3.0)
    if refined:
        q = refine_codepoints(q, d, 3.0)
    interval = Interval(d.quantile(0.3), d.quantile(0.8))
    regions = ((interval,), interval.complement())
    cuts = len(quantizer._region_parts(q, regions)[1])
    assert cuts >= 3
    rows = []
    original = quantizer._batch_distortions

    def recording(d, r, lo, hi, c):
        rows.append(lo.size)
        return original(d, r, lo, hi, c)

    monkeypatch.setattr(quantizer, "_batch_distortions", recording)
    cell_table(q, d, 3.0, regions)
    assert rows == [evaluated + cuts]


def test_blocks_are_near_equal():
    block = quantizer._BLOCK
    sizes = {size: [s.stop - s.start for s in quantizer._blocks(size)]
             for size in (0, 5, block + 4, 3 * block // 2 - 1, 3 * block // 2 + 1, 5 * block)}
    assert sizes == {
        0: [0], 5: [5], block + 4: [block + 4], 3 * block // 2 - 1: [3 * block // 2 - 1],
        3 * block // 2 + 1: [3 * block // 4, 3 * block // 4 + 1], 5 * block: [block] * 5,
    }


def test_a_block_and_its_cut_parts_share_one_panel_call(monkeypatch):
    """Exponential(1) at n = _BLOCK has no mirror: its cells and the cell parts
    an interval cuts go to one block, not a block of their own."""
    d = Exponential(1.0)
    q = build_compander(optimal_point_density(d, 0.5, 2.0), quantizer._BLOCK)
    interval = Interval(d.quantile(0.3), d.quantile(0.8))
    regions = ((interval,), interval.complement())
    assert len(quantizer._region_parts(q, regions)[1]) == 4
    calls = _record_panels(monkeypatch)
    cell_table(q, d, 2.0, regions)
    assert len(calls) == 1


def test_power_sum_zero_convention():
    assert power_sum((0.5, 0.5, 0.0), 0.0) == 2.0
    assert power_sum((0.25, 0.75), 0.5) == pytest.approx(0.5 + math.sqrt(0.75), abs=1e-15)


# --- batched cell distortion against the per-cell adaptive rule ----------------------


def _cell_parts(q, region):
    """(cell, part) of every cell's part inside each interval of the region."""
    parts = [REAL_LINE] if region is None else region
    for k in range(q.size):
        for part in parts:
            piece = q.cell(k).intersect(part)
            if piece is not None:
                yield k, piece


def _integrate_piece(d, r, c, lo, hi):
    """The adaptive rule over a finite piece with c outside it, in the offset t
    from its end nearer c: |x - c| = gap + t keeps its relative precision in a
    narrow cell."""
    if c <= lo:
        gap, start, sign = lo - c, lo, 1.0
    else:
        gap, start, sign = c - hi, hi, -1.0
    return quadrature.integrate(
        lambda t: (gap + t) ** r * d.pdf_array(start + sign * t), Interval(0.0, hi - lo),
        abs_tol=1e-16,
    )


def _adaptive_piece(d, r, c, lo, hi):
    """The adaptive rule over one piece within the support, cut at c, at the
    pdf's kinks and at the ends of its mass window, an unbounded end out to
    the tail."""
    piece = Interval(lo, hi).intersect(d.support)
    if piece is None:
        return 0.0
    window = d.mass_window
    return quadrature.integrate(
        lambda x: np.abs(x - c) ** r * d.pdf_array(x), piece,
        (c, *d.kinks, window.lo, window.hi), abs_tol=1e-16, core=window,
    ).value


def _oracle_cell_distortions(q, d, r, region):
    """The per-cell adaptive loop, one call per piece between the codepoint and
    the pdf's kinks: quadrature.integrate over a finite piece, in the offset
    from its end nearer c, and over the support out to the tail for an
    unbounded one.

    An unbounded cell part that the support clips to a finite one takes the
    cell layer's own value. On the tilted piecewise-linear source, whose pdf
    falls like (3 - x)^0.6 to the support end 3, the adaptive rule and the
    layer differ there by up to 3.9e-20, more than 1e-13 of that cell, and a
    40-digit value lies further from the adaptive rule than from the layer.
    """
    out = np.zeros(q.size)
    for k, piece in _cell_parts(q, region):
        c = q.codepoints[k]
        clipped = piece.intersect(d.support)
        if not piece.bounded and clipped is not None and clipped.bounded:
            out[k] += quantizer._batch_distortions(
                d, r, np.array([piece.lo]), np.array([piece.hi]), np.array([c])
            )[0]
            continue
        cuts = sorted({x for x in (c, *d.kinks) if piece.lo < x < piece.hi})
        edges = [piece.lo, *cuts, piece.hi]
        for lo, hi in zip(edges, edges[1:]):
            if math.isfinite(lo) and math.isfinite(hi):
                out[k] += _integrate_piece(d, r, c, lo, hi).value
            else:
                out[k] += _adaptive_piece(d, r, c, lo, hi)
    return out


def _regions(d):
    interval = Interval(d.quantile(0.3), d.quantile(0.8))
    return {"none": None, "interval": [interval], "complement": list(interval.complement())}


@pytest.mark.parametrize("region", ["none", "interval", "complement"])
@pytest.mark.parametrize("n", [4, 64, 1024])
@pytest.mark.parametrize("r", [2.0, 3.0])
@pytest.mark.parametrize("d", ORACLE_SOURCES, ids=lambda d: repr(d))
def test_cell_distortions_match_per_cell_quadrature(d, r, n, region):
    q = _compander_for(d, n, r)
    regions = _regions(d)[region]
    if regions is None:
        got = cell_distortions(q, d, r)
    else:
        got = cell_table(q, d, r, (regions,)).regions[0].distortions
    want = _oracle_cell_distortions(q, d, r, regions)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def _count_integrate_calls(monkeypatch):
    calls = []
    original = quadrature.integrate

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(quadrature, "integrate", counting)
    return calls


def _record_panels(monkeypatch):
    """(a, b, values, bounds) of every batched panel call."""
    calls = []
    original = quadrature.kronrod_panels

    def recording(f, a, b):
        values, bounds = original(f, a, b)
        calls.append((a, b, values, bounds))
        return values, bounds

    monkeypatch.setattr(quadrature, "kronrod_panels", recording)
    return calls


@pytest.mark.parametrize("m", [1, 2, "crossover", "past it"])
@pytest.mark.parametrize("r", [2.0, 3.0])
@pytest.mark.parametrize(
    "d, span",
    [
        (Gaussian(0.0, 1.0), (-3.0, 3.0)),
        # right of its kink at 1, up to the support end the pdf falls to as (3 - x)^0.6
        (PiecewiseLinear([(0.0, 0.2), (1.0, 1.0), (3.0, 0.0)]).tilt(0.6), (1.0, 3.0)),
    ],
    ids=repr,
)
def test_one_call_panels_are_the_per_node_panels_bit_for_bit(monkeypatch, d, span, r, m):
    """Every panel call of a distortion pass over m pieces, its halving rounds
    included, gives the same values and bounds with f called once on all the
    nodes as with f called once per node; up to the crossover it takes the
    one call."""
    crossover = quadrature._ONE_CALL_PANELS
    m = {"crossover": crossover, "past it": crossover + 1}.get(m, m)
    edges = np.linspace(*span, m + 1)
    lo, hi = edges[:-1], edges[1:]  # the codepoint at each cell's left end: one piece a cell
    original = quadrature.kronrod_panels
    calls = []

    def both(f, a, b):
        def counted(x, from_lo):
            calls[-1][1] += 1
            return f(x, from_lo)

        results = []
        for limit in (math.inf, -1):  # one call, then one call per node
            monkeypatch.setattr(quadrature, "_ONE_CALL_PANELS", limit)
            results.append(original(f, a, b))
        monkeypatch.setattr(quadrature, "_ONE_CALL_PANELS", crossover)
        for one, per_node in zip(*results, strict=True):
            assert np.array_equal(_bits(one), _bits(per_node))
        calls.append([a.size, 0])
        return original(counted, a, b)

    monkeypatch.setattr(quadrature, "kronrod_panels", both)
    values = quantizer._batch_distortions(d, r, lo, hi, lo)
    assert calls[0][0] == m and np.all(values > 0.0)
    assert all(f_calls == (1 if size <= crossover else 15) for size, f_calls in calls)
    assert m > 2 or calls[0][1] == 1  # a call on a few pieces pays one integrand call
    if m == 1 and isinstance(d, PiecewiseLinear):
        assert len(calls) > 5  # the halving rounds at the support end


def test_cell_distortions_batch_settles_almost_every_cell(monkeypatch):
    g = Gaussian(0.0, 1.0)
    n = 16384
    q = _compander_for(g, n)
    calls = _count_integrate_calls(monkeypatch)
    cell_distortions(q, g, 2.0)
    assert len(calls) < 0.01 * n


@pytest.mark.parametrize("n", [4, 64])
@pytest.mark.parametrize("r", [2.0, 3.0])
@pytest.mark.parametrize("d", ORACLE_SOURCES[:4], ids=lambda d: repr(d))
def test_cell_distortions_halve_the_pieces_a_panel_does_not_settle(monkeypatch, d, r, n):
    q = _compander_for(d, n, r)
    calls = _record_panels(monkeypatch)
    got = cell_distortions(q, d, r)
    # no panel straddles a kink of the pdf, nor a codepoint unless r is even
    cuts = np.array([*d.kinks, *(q.codepoints if _split(r) else ())])
    for a, b, _, _ in calls:
        assert not np.any((a[:, None] < cuts) & (cuts < b[:, None]))
    # the next call is the halves of every piece this one did not settle, in
    # order, and the last call settles all of its pieces
    for (a, b, values, bounds), (next_a, next_b, _, _) in zip(calls, calls[1:]):
        failed = ~_settles(values, bounds, d, r)
        mid = 0.5 * (a[failed] + b[failed])
        assert np.array_equal(next_a, np.column_stack((a[failed], mid)).ravel())
        assert np.array_equal(next_b, np.column_stack((mid, b[failed])).ravel())
    assert _settles(*calls[-1][2:], d, r).all()
    np.testing.assert_allclose(got, _oracle_cell_distortions(q, d, r, None), rtol=1e-13, atol=0.0)


_LN4 = 2.0 * math.log(2.0)  # the interquartile range of Laplacian(0, 1)


@pytest.mark.parametrize(
    "r, pieces, left, right",
    [
        # the cell (-1, 1.5] holds the pdf's kink at 0; each tail doubles out
        # from its piece's finite end e, the first window |c - e| wide
        (
            2.0,
            [(-1.0, 0.0), (0.0, 1.5)],
            [(-2.0, -1.0), (-4.0, -2.0), (-8.0, -4.0)],
            [(1.5, 3.0), (3.0, 6.0), (6.0, 12.0)],
        ),
        # so does its side (-1, 0.5) of the codepoint; the tails start at the
        # codepoints, as wide as the interquartile range 2 ln 2
        (
            3.0,
            [(-2.0, -1.0), (-1.0, 0.0), (0.0, 0.5), (0.5, 1.5), (1.5, 3.0)],
            [(-2.0 - _LN4, -2.0), (-2.0 - 3 * _LN4, -2.0 - _LN4), (-2.0 - 7 * _LN4, -2.0 - 3 * _LN4)],
            [(3.0, 3.0 + _LN4), (3.0 + _LN4, 3.0 + 3 * _LN4), (3.0 + 3 * _LN4, 3.0 + 7 * _LN4)],
        ),
    ],
)
def test_cell_distortions_cut_at_kinks_and_run_the_tails_as_windows(
    monkeypatch, r, pieces, left, right
):
    d = Laplacian(0.0, 1.0)
    q = Quantizer((-1.0, 1.5), (-2.0, 0.5, 3.0))
    calls = _record_panels(monkeypatch)
    got = cell_distortions(q, d, r)
    first = list(zip(calls[0][0].tolist(), calls[0][1].tolist()))
    windows = quadrature.TAIL_WINDOWS
    assert len(first) == len(pieces) + 2 * windows
    assert sorted(first[:len(pieces)]) == pieces
    np.testing.assert_allclose(first[len(pieces):][:3], left, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(first[-windows:][:3], right, rtol=1e-15, atol=0.0)
    assert len(calls) > 1  # some windows are halved
    np.testing.assert_allclose(got, _oracle_cell_distortions(q, d, r, None), rtol=1e-13, atol=0.0)


@pytest.mark.parametrize(
    "d, n, rows_r2, rows_r3",
    [
        # the 32 cells left of the mean, which the right ones mirror: one row
        # per finite cell at r = 2; two at r = 3, and one for the finite side
        # of the outer cell; then its tail's windows
        (Gaussian(0.0, 1.0), 64, 31 + 64, 63 + 64),
        # the 33 cells up to the middle one, whose codepoint is the mean, the
        # pdf's kink: that cell is cut there at r = 2 too
        (Laplacian(0.0, 1.0), 65, 33 + 64, 65 + 64),
        # equal-width cells, the outer two clipped to the support: the knots 1
        # and 3 lie inside cells 12 and 36, on the left and right side of the
        # codepoint, and cut them
        (PiecewiseLinear([(0.0, 0.0), (1.0, 2.0), (3.0, 0.5), (4.0, 0.0)]), 49, 51, 100),
    ],
    ids=repr,
)
@pytest.mark.parametrize("r", [2.0, 3.0])
def test_cell_distortions_panel_once_per_smooth_piece(monkeypatch, r, d, n, rows_r2, rows_r3):
    q = _compander_for(d, n, r)
    calls = _record_panels(monkeypatch)
    cell_distortions(q, d, r)
    assert calls[0][0].size == (rows_r2 if r == 2.0 else rows_r3)


class _SlowTails(Density):
    """pdf (1 + |x|)^-2 / 2: the mean of |X - c|^r diverges for r >= 1."""

    support = REAL_LINE
    kinks = (0.0,)

    def pdf_array(self, x):
        return 0.5 / (1.0 + np.abs(x)) ** 2

    def cdf_array(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.0, 0.5 / (1.0 - np.minimum(x, 0.0)),
                        1.0 - 0.5 / (1.0 + np.maximum(x, 0.0)))

    def quantile_array(self, p):
        p = np.asarray(p, dtype=float)
        return np.where(p < 0.5, 1.0 - 0.5 / p, 0.5 / (1.0 - p) - 1.0)


@pytest.mark.parametrize("r", [1.0, 2.0])
def test_cell_distortions_raise_where_a_tail_diverges(r):
    q = Quantizer((-1.0, 1.0), (-2.0, 0.5, 2.0))
    with pytest.raises(InfiniteIntegralError, match="does not converge"):
        cell_distortions(q, _SlowTails(), r)


def test_cell_distortions_raise_where_halving_does_not_settle(monkeypatch):
    # the pdf falls like (3 - x)^0.6 to the support end 3: the last cell's
    # piece there is halved 27 times
    d = ORACLE_SOURCES[-1]
    q = _compander_for(d, 4)
    calls = _record_panels(monkeypatch)
    cell_distortions(q, d, 2.0)
    assert len(calls) > 2
    monkeypatch.setattr(quadrature, "MAX_HALVINGS", 1)
    with pytest.raises(NonConvergenceError, match="within 1 halvings"):
        cell_distortions(q, d, 2.0)


@pytest.mark.parametrize("r", [20.0, 40.0])
@pytest.mark.parametrize("d", [Gaussian(0.0, 1.0), Laplacian(0.0, 1.0), Exponential(1.0)], ids=repr)
def test_high_powers_stay_finite_in_far_windows(d, r):
    q = _compander_for(d, 64, r)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = distortion(q, d, r)
    assert math.isfinite(value) and value > 0.0


def test_an_overflowing_integrand_raises_at_once():
    # |x - c|^150 overflows far short of |x| = 745, where the Laplacian pdf
    # underflows: such a piece never settles, and halving it would not help
    q = _compander_for(Laplacian(0.0, 1.0), 16, 2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonConvergenceError, match="not finite"):
            cell_distortions(q, Laplacian(0.0, 1.0), 150.0)


@pytest.mark.parametrize("scale", [1e-5, 1e5])
@pytest.mark.parametrize("n", [16, 64])
def test_cells_and_refinement_scale_with_the_source(n, scale):
    """Gaussian(0, s) and a quantizer scaled by s: each cell distortion is s^r
    times the unit one, and each refined codepoint s times the unit one, to the
    root finder's stopping width. The tails from c start on the density's scale."""
    for r in (1.5, 2.0, 3.0):
        q = build_compander(optimal_point_density(Gaussian(0.0, 1.0), 0.5, r), n)
        scaled = Quantizer(np.multiply(q.breakpoints, scale), np.multiply(q.codepoints, scale))
        d = Gaussian(0.0, scale)
        np.testing.assert_allclose(
            cell_distortions(scaled, d, r) / scale**r,
            cell_distortions(q, Gaussian(0.0, 1.0), r), rtol=1e-12, atol=0.0,
        )
        refined = refine_codepoints(scaled, d, r)
        np.testing.assert_allclose(
            np.divide(refined.codepoints, scale),
            refine_codepoints(q, Gaussian(0.0, 1.0), r).codepoints, rtol=0.0, atol=1e-12,
        )
        assert distortion(refined, d, r) <= distortion(scaled, d, r)


# --- whole-cell distortion and entropy against closed-form cells at 40 digits -----------


def _closed_form_cells(mpmath, d, q):
    """Mass and distortion (r = 2) of every cell from closed-form antiderivatives
    of pdf and (x - c)^2 pdf: M(x) and A(x, c), continuous in x."""
    mpf, inf = mpmath.mpf, mpmath.inf
    edges = [-inf, *map(mpf, q.breakpoints), inf]
    if isinstance(d, Gaussian):  # N(0, 1): A = (1 + c^2) cdf - (x - 2c) pdf
        cdf = [mpmath.erfc(-x / mpmath.sqrt(2)) / 2 for x in edges]
        pdf = [mpmath.exp(-x * x / 2) / mpmath.sqrt(2 * mpmath.pi) for x in edges]

        def M(i):
            return cdf[i]

        def A(i, c):
            tail = (edges[i] - 2 * c) * pdf[i] if pdf[i] else 0
            return (1 + c * c) * cdf[i] - tail
    elif isinstance(d, Uniform):  # U(0, 1)
        ys = [min(max(x, mpf(0)), mpf(1)) for x in edges]

        def M(i):
            return ys[i]

        def A(i, c):
            return ((ys[i] - c) ** 3 + c**3) / 3
    else:  # Laplacian(0, 1) or Exponential(1), through e^{-|x|}
        laplacian = isinstance(d, Laplacian)
        decay = [mpmath.exp(-abs(x)) for x in edges]

        def poly(i, c, sign):
            return ((edges[i] - c) ** 2 + sign * 2 * (edges[i] - c) + 2) if decay[i] else 0

        def M(i):
            if edges[i] <= 0:
                return decay[i] / 2 if laplacian else mpf(0)
            return 1 - (decay[i] / 2 if laplacian else decay[i])

        def A(i, c):
            if laplacian:
                if edges[i] <= 0:
                    return decay[i] / 2 * poly(i, c, -1)
                return c * c + 2 - decay[i] / 2 * poly(i, c, +1)
            if edges[i] <= 0:
                return mpf(0)
            return c * c - 2 * c + 2 - decay[i] * poly(i, c, +1)

    masses, dists = [], []
    for k, c in enumerate(map(mpf, q.codepoints)):
        masses.append(M(k + 1) - M(k))
        dists.append(A(k + 1, c) - A(k, c))
    return masses, dists


@pytest.mark.parametrize(
    "d, n",
    [
        (Gaussian(0.0, 1.0), 4096),
        (Laplacian(0.0, 1.0), 4096),
        (Exponential(1.0), 4096),
        (Uniform(0.0, 1.0), 4096),
        (Gaussian(0.0, 1.0), 16384),
        # |x - c| formed from absolute nodes loses -2.2e-12 of D here, growing like n
        (Uniform(0.0, 1.0), 65536),
    ],
    ids=repr,
)
def test_distortion_and_entropy_match_closed_form_cells(d, n):
    mpmath = pytest.importorskip("mpmath")
    from renyi_quant import quantization_coefficient

    q = build_compander(optimal_point_density(d, 0.5, 2.0), n)
    got_d, got_h = distortion(q, d, 2.0), quantizer_entropy(q, d, 0.5)
    with mpmath.workdps(40):
        masses, dists = _closed_form_cells(mpmath, d, q)
        want_d = mpmath.fsum(dists)
        want_h = 2 * mpmath.log(mpmath.fsum(mpmath.sqrt(p) for p in masses))
        assert abs((got_d - want_d) / want_d) <= (1e-14 if n == 65536 else 1e-12)
        assert abs(got_h - want_h) <= 1e-14
        if n == 16384:
            # the deviation from the limit is +3.5e-8 here; clipping the tails
            # to the quantile window read -1.5e-8
            coefficient = quantization_coefficient(d, 0.5, 2.0)
            assert mpmath.exp(2 * want_h) * want_d / coefficient > 1
            assert math.exp(2 * got_h) * got_d / coefficient > 1


GENERAL_SOURCE = PiecewiseLinear([(0.0, 0.0), (1.0, 2.0), (3.0, 0.5), (4.0, 0.0)])


def _piecewise_linear_cells(mpmath, d, q, r):
    """Distortion of every cell of a piecewise-linear source from the closed
    form: where pdf = a + s (x - c) is linear, |x - c|^r pdf has the
    antiderivative sign(u) a |u|^(r+1)/(r+1) + s |u|^(r+2)/(r+2), u = x - c."""
    mpf = mpmath.mpf
    xs, ys = zip(*((mpf(x), mpf(y)) for x, y in d.knots))
    edges = [xs[0], *(mpf(b) for b in q.breakpoints), xs[-1]]
    dists = []
    for k, c in enumerate(map(mpf, q.codepoints)):
        total = mpf(0)
        for i in range(len(xs) - 1):
            lo, hi = max(edges[k], xs[i]), min(edges[k + 1], xs[i + 1])
            if not lo < hi:
                continue
            s = (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
            a = ys[i] + s * (c - xs[i])

            def F(x):
                u = x - c
                return mpmath.sign(u) * a * abs(u) ** (r + 1) / (r + 1) + s * abs(u) ** (r + 2) / (r + 2)

            total += F(hi) - F(lo)
        dists.append(total)
    return dists


@pytest.mark.parametrize("n", [64, 512, 1024])
@pytest.mark.parametrize("r", [2.0, 3.0])
def test_kinked_source_distortion_matches_closed_form_cells(r, n):
    """The piecewise-linear source of the general-source sweeps, on its own
    compander: no panel may straddle a knot."""
    mpmath = pytest.importorskip("mpmath")
    d = GENERAL_SOURCE
    q = build_compander(optimal_point_density(d, 0.5, r), n)
    got = cell_distortions(q, d, r)
    got_d = distortion(q, d, r)
    with mpmath.workdps(40):
        want = _piecewise_linear_cells(mpmath, d, q, r)
        want_d = mpmath.fsum(want)
        assert abs((got_d - want_d) / want_d) <= 1e-15
        assert max(abs((g - w) / w) for g, w in zip(got, want)) <= 1e-12


def test_fractional_power_refinement_matches_closed_form_cells():
    """At r = 1.5 the refinement's derivative integrates |x - c|^0.5 pdf, whose
    slope is unbounded at c: the pieces next to c are halved until they settle."""
    mpmath = pytest.importorskip("mpmath")
    d, r = GENERAL_SOURCE, 1.5
    q = build_compander(optimal_point_density(d, 0.5, r), 256)
    refined = refine_codepoints(q, d, r)
    for quant in (q, refined):
        got_d = distortion(quant, d, r)
        with mpmath.workdps(40):
            want_d = mpmath.fsum(_piecewise_linear_cells(mpmath, d, quant, r))
            assert abs((got_d - want_d) / want_d) <= 1e-14
    assert distortion(refined, d, r) < distortion(q, d, r)


def test_cell_passes_and_refinement_make_no_adaptive_quadrature_call(monkeypatch):
    d = GENERAL_SOURCE
    q = build_compander(optimal_point_density(d, 0.5, 2.0), 64)
    regions = [(Interval(0.5, 3.5),), Interval(0.5, 3.5).complement()]

    def refuse(*args, **kwargs):
        raise AssertionError("quadrature.integrate called")

    monkeypatch.setattr(quadrature, "integrate", refuse)
    for r in (1.5, 3.0):
        table = cell_table(q, d, r, regions)
        assert all(np.isfinite(columns.distortions).all() for columns in table.regions)
        refine_codepoints(q, d, r)
    table = cell_table(q, Gaussian(0.0, 1.0), 3.0, ((Interval(-0.3, 0.7),),))
    assert table.regions[0].distortions.sum() > 0.0


@pytest.mark.parametrize("n", [5, 257, 4097])
def test_laplacian_with_its_kink_on_a_codepoint_matches_closed_form_cells(n):
    mpmath = pytest.importorskip("mpmath")
    d = Laplacian(0.0, 1.0)
    q = build_compander(optimal_point_density(d, 0.5, 2.0), n)
    assert q.codepoints[n // 2] == 0.0
    got = cell_distortions(q, d, 2.0)
    got_d = distortion(q, d, 2.0)
    with mpmath.workdps(40):
        _, want = _closed_form_cells(mpmath, d, q)
        want_d = mpmath.fsum(want)
        assert abs((got_d - want_d) / want_d) <= 1e-15
        assert max(abs((g - w) / w) for g, w in zip(got, want)) <= 1e-12


# --- the hot path bit for bit: exact array sums, the r = 2 product, the mirror memo --------


def _assert_fsum_equal(x):
    """fsum_array(x) is math.fsum's result or exception, and leaves x alone."""
    x = np.asarray(x, dtype=float)
    kept = x.copy()
    assert _fsum_outcome(quantizer.fsum_array, x) == _fsum_outcome(math.fsum, x.tolist())
    assert np.array_equal(_bits(x), _bits(kept))


def _fsum_outcome(fn, x):
    """fn(x) as a float's hex, or the type and message of what it raised."""
    try:
        return float(fn(x)).hex()
    except (OverflowError, ValueError) as exc:
        return (type(exc), str(exc))


@pytest.mark.parametrize("size", [0, 1, 511, 512, 513, 4096, 20_000])
def test_fsum_array_fixed_cases(size):
    tiny = math.ldexp(1.0, -1074)
    big = math.ldexp(1.0, 1022 - (size + 1).bit_length())  # the largest power of 2 extracted
    cases = [
        np.zeros(size), np.full(size, -0.0), np.full(size, tiny), np.full(size, 0.1),
        np.resize([1e300, 1e-300, -1e300, tiny], size),  # every exponent between
        np.resize([1.0, -1.0, 1e-16, -1e-16], size),  # sums to an exact zero
        np.resize([1.0, 2.0**-53, 2.0**-105], size),  # just past a halfway point
        np.full(size, big), np.full(size, 2.0 * big), np.full(size, 1e308),  # 2 big on: math.fsum
        np.resize([1e308, 1e308, -1e308], size),  # an intermediate overflow
    ]
    for x in cases:
        _assert_fsum_equal(x)
    for bad in (math.inf, -math.inf, math.nan):
        for at in {0, size // 2, size - 1} if size else ():
            x = np.full(size, 1.0)
            x[at] = bad
            _assert_fsum_equal(x)
    if size >= 2:
        _assert_fsum_equal(np.resize([math.inf, -math.inf], size))  # fsum's ValueError


def test_fsum_array_takes_the_extraction_past_the_switch(monkeypatch):
    calls = []
    monkeypatch.setattr(quantizer.math, "fsum", lambda xs: calls.append(len(xs)) or 0.0)
    quantizer.fsum_array(np.full(quantizer._FSUM_MIN_SIZE, 0.1))
    quantizer.fsum_array(np.full(quantizer._FSUM_MIN_SIZE - 1, 0.1))
    assert calls[0] <= 8 and calls[1] == quantizer._FSUM_MIN_SIZE - 1  # the levels' sums, then x


R2_SOURCES = [
    Gaussian(0.0, 1.0),
    Gaussian(0.3, 1.7),
    Laplacian(0.0, 1.0),
    Laplacian(-0.5, 0.8),
    Exponential(1.5, 0.25),
    Uniform(-1.0, 2.0),
    PiecewiseLinear([(0.0, 0.2), (1.0, 1.0), (3.0, 0.0)]).tilt(0.6),
]


@pytest.mark.parametrize("n", [4, 64, 1025])
@pytest.mark.parametrize("d", R2_SOURCES, ids=repr)
def test_r2_product_is_the_masked_power_bit_for_bit(monkeypatch, d, n):
    """At r = 2 the integrand t * t * pdf gives what |t|^2 * pdf, the power
    taken only where the pdf is positive, gives: over whole cells with their
    tails and kinks, over a refined quantizer's cells, and over the cell parts
    an interval cuts."""
    q = _compander_for(d, n)
    interval = Interval(d.quantile(0.3), d.quantile(0.8))
    regions = ((interval,), interval.complement())
    tables = []
    for below in (quantizer._SQUARE_BELOW, 0.0, math.inf):  # the default, masked, product
        monkeypatch.setattr(quantizer, "_SQUARE_BELOW", below)
        table = cell_table(q, d, 2.0, regions)
        tables.append(np.concatenate([table.distortions] + [
            region.distortions for region in table.regions]))
    default, masked, product = tables
    assert np.array_equal(_bits(default), _bits(masked))
    assert np.array_equal(_bits(product), _bits(masked))


@pytest.mark.parametrize("d", [Gaussian(0.0, 1e150), Laplacian(0.0, 1e150), Exponential(1e-150)],
                         ids=repr)
def test_huge_scales_keep_the_masked_power(monkeypatch, d):
    """The tail windows of these sources reach |x - c| >= 2^511, where t * t
    overflows: their cells take the masked power, silently, and only it."""
    q = build_compander(optimal_point_density(d, 0.5, 2.0), 64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = cell_distortions(q, d, 2.0)
        monkeypatch.setattr(quantizer, "_SQUARE_BELOW", 0.0)
        masked = cell_distortions(q, d, 2.0)
    assert np.array_equal(_bits(values), _bits(masked))
    assert np.all(np.isfinite(values)) and values.sum() > 0.0
    monkeypatch.setattr(quantizer, "_SQUARE_BELOW", math.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonConvergenceError, match="not finite"):
            cell_distortions(q, d, 2.0)


def test_the_mirror_is_decided_once_per_quantizer_and_center(monkeypatch):
    """A compander carries its builder's center and makes no _mirrors call. A
    quantizer built by hand, copied or unpickled decides its center once, from
    its own arrays, under any number of source centers; only a source
    symmetric about that center halves a pass."""
    q = build_compander(optimal_point_density(Gaussian(0.0, 1.0), 0.5, 2.0), 64)
    calls = []
    original = quantizer._mirrors
    monkeypatch.setattr(quantizer, "_mirrors", lambda x, c: calls.append(c) or original(x, c))
    fresh = Quantizer(q._edges[1:-1], q._codepoint_array)
    assert fresh._center is quantizer._UNDECIDED and calls == []
    for quant, decided in ((q, []), (fresh, [0.0, 0.0])):
        cell_table(quant, Gaussian(0.0, 1.0), 2.0)
        cell_probabilities(quant, Laplacian(0.0, 2.0))  # the same center
        assert calls == decided  # the breakpoints and the codepoints, once
        assert quantizer._evaluated(quant, Laplacian(0.5, 1.0)) == 64  # mirrors about 0 only
        assert quantizer._evaluated(quant, Exponential(1.0)) == 64  # no center
        assert quantizer._evaluated(quant, Gaussian(-0.0, 3.0)) == 32  # -0.0 == 0.0
        assert calls == decided and quant.center == 0.0
        calls.clear()
    lopsided = Quantizer((0.0, 1.0, 3.0), (-1.0, 0.5, 2.0, 4.0))  # mirrors about no center
    assert calls == []
    for d in (Laplacian(0.5, 1.0), Gaussian(0.0, 1.0), Laplacian(1.5, 2.0), Exponential(1.0)):
        assert quantizer._evaluated(lopsided, d) == 4
    assert calls == [1.5] and lopsided.center is None  # the midpoint, refused by the breakpoints
    assert q == fresh and hash(q) == hash(fresh) and repr(q) == repr(fresh)
    for again in (pickle.loads(pickle.dumps(q)), copy.deepcopy(q), copy.copy(q)):
        assert again == q and again._center is quantizer._UNDECIDED
    assert pickle.dumps(q) == pickle.dumps(fresh)


@pytest.mark.parametrize("cps", [(-1.7e308, -1.0, 1.0, 1.7e308), (-1.7e308, 0.0, 1e308),
                                 (1e308, 1.5e308, 1.7e308), (-1.7e308, -1.6e308, -1e308)])
def test_a_quantizer_at_the_float_range_decides_without_overflow(cps):
    """Outer codepoints near +-1.7e308 decide with no RuntimeWarning, which the
    suite raises: the midpoint sum overflows only where no center can be, and
    every 2c - x lies between the outer codepoints."""
    bps = [np.nextafter(a, math.inf) for a in cps[:-1]]
    q = Quantizer(bps, cps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        center = q.center
    mirrored = Quantizer([-b for b in bps[::-1]], [-a for a in cps[::-1]])
    assert center is None and mirrored.center is None
    symmetric = Quantizer((-1e308, 0.0, 1e308), (-1.7e308, -1.0, 1.0, 1.7e308))
    assert symmetric.center == 0.0


def _companders(d, ns):
    """The companders of one build_companders call for d's optimal point density."""
    return compander.build_companders(optimal_point_density(d, 0.5, 2.0), ns)


@pytest.mark.parametrize("r", [2.0, 3.0])
@pytest.mark.parametrize("d", [Gaussian(0.0, 1.0), Laplacian(-0.5, 0.8), Gaussian(0.3, 1.7)],
                         ids=repr)
def test_a_copied_or_unpickled_compander_gives_the_same_cell_table(d, r):
    """A copy decides its center itself, from its own arrays, and agrees with
    the center its original was built with: its table is the same bits."""
    interval = Interval(d.quantile(0.3), d.quantile(0.8))
    regions = ((interval,), interval.complement())
    for q in _companders(d, (16, 37, 64)):
        want = cell_table(q, d, r, regions)
        for again in (pickle.loads(pickle.dumps(q)), copy.deepcopy(q), copy.copy(q)):
            assert again._center is quantizer._UNDECIDED
            got = cell_table(again, d, r, regions)
            assert again.center == q.center
            for a, b in ((got.masses, want.masses), (got.distortions, want.distortions)):
                assert np.array_equal(_bits(a), _bits(b))
            for a, b in zip(got.regions, want.regions, strict=True):
                assert a.mass == b.mass
                assert np.array_equal(_bits(a.masses), _bits(b.masses))
                assert np.array_equal(_bits(a.distortions), _bits(b.distortions))


def _levels(monkeypatch, x):
    """The level sums fsum_array hands math.fsum for x."""
    handed = []
    monkeypatch.setattr(quantizer.math, "fsum", lambda xs: handed.append(list(xs)) or 0.0)
    quantizer.fsum_array(x)
    monkeypatch.undo()
    return handed[0]


@pytest.mark.parametrize("m", [10, 14])
def test_fsum_array_levels_add_up_exactly(monkeypatch, m):
    """Each level's np.sum is exact: the levels add up to the sum of x as
    rationals. The adversarial x leaves every first-level remainder just short
    of -2^-53 sigma with 54 - m bits more, so the second level's partial sums
    reach 2^(1 - m) sigma' n, where an extraction that lowered sigma too far
    would round them."""
    rng = np.random.default_rng(m)
    size, e = 2**m - 2, 7
    unit = math.ldexp(1.0, m + e - 52)  # the first level's rounding unit, 2^-52 sigma
    x = 0.5 * unit + np.ldexp(rng.integers(1, 2**52, size - 1).astype(float), m + e - 105)
    for x in (np.append(math.ldexp(1.0, e - 1), x),
              np.ldexp(rng.uniform(-1.0, 1.0, size), rng.integers(-60, 60, size))):
        levels = _levels(monkeypatch, x)
        assert len(levels) >= 2
        assert sum(map(Fraction, levels)) == sum(map(Fraction, x.tolist()))


@pytest.mark.parametrize("hi", [1e6, 1e308])
@pytest.mark.parametrize("r", [2.0, 3.0])
def test_a_support_far_wider_than_its_mass_keeps_its_tail_cell(r, hi):
    """On a half-normal cut at hi, past its mass window, the last cell runs as
    the tail of the one on (0, inf), its windows clipped at hi: the n = 64
    compander's distortion is that source's to 1e-12, not short of its last
    cell, whose panel placed by the support would miss the mass."""
    wide, half = (Gaussian(0.0, 1.0).restrict(Interval(0.0, end)) for end in (hi, math.inf))
    q = build_compander(optimal_point_density(half, 0.5, 2.0), 64)
    assert q == build_compander(optimal_point_density(wide, 0.5, 2.0), 64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, want = cell_distortions(q, wide, r), cell_distortions(q, half, r)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    assert abs(distortion(q, wide, r) - distortion(q, half, r)) <= 1e-12 * distortion(q, half, r)
    if r == 2.0:
        assert distortion(q, half, r) == pytest.approx(2.0631251410216313e-4, rel=1e-12)
