import copy
import math
import pickle
from bisect import bisect_left

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
    renyi_entropy_vec,
    restricted_metrics,
)
from renyi_quant import quadrature
from renyi_quant.intervals import REAL_LINE
from renyi_quant.density import TAIL_MASS, integrate_over
from renyi_quant.errors import DomainError, EmptyConditioningError
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
        # equal-width cells; a numerically tilted point density is slow to invert
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


# --- restricted metrics ------------------------------------------------------------------


def test_restricted_metrics_uniform_half():
    u = Uniform(0.0, 1.0)
    q = uniform_quantizer(4)
    m = restricted_metrics(q, u, Interval(0.0, 0.5), 0.5, 2.0)
    assert m.entropy_restricted == pytest.approx(math.log(2.0), abs=1e-12)
    assert m.restricted_power_sum == pytest.approx(1.0, abs=1e-12)
    assert m.entropy_power_sum == pytest.approx(2.0, abs=1e-12)


def test_restricted_metrics_whole_support_matches_entropy():
    g = Gaussian(0.0, 1.0)
    q = uniform_quantizer(16, -6.0, 6.0)
    m = restricted_metrics(q, g, Interval(-40.0, 40.0), 0.5, 2.0)
    assert m.entropy_restricted == pytest.approx(quantizer_entropy(q, g, 0.5), abs=1e-12)


def test_restricted_metrics_empty_region():
    u = Uniform(0.0, 1.0)
    with pytest.raises(EmptyConditioningError):
        restricted_metrics(uniform_quantizer(4), u, Interval(2.0, 3.0), 0.5, 2.0)


@pytest.mark.parametrize(
    "d", [Uniform(0.0, 1.0), Gaussian(0.0, 1.0), Laplacian(0.0, 1.0)], ids=lambda d: repr(d)
)
def test_partition_distortion_identity(d):
    # mu(A1) D_1 + mu(A2) D_2 = D for the two-set partition
    q = uniform_quantizer(8, -4.0, 4.0)
    interval = Interval(-0.5, 0.75)
    m1 = restricted_metrics(q, d, interval, 0.5, 2.0)
    m2 = region_metrics(q, d, interval.complement(), 0.5, 2.0)
    mass1 = d.interval_mass(interval)
    total = mass1 * m1.distortion_restricted + (1.0 - mass1) * m2.distortion_restricted
    assert total == pytest.approx(distortion(q, d, 2.0), abs=1e-9)


def test_restricted_metrics_interval_over_the_whole_support():
    u = Uniform(0.0, 1.0)
    q = uniform_quantizer(4)
    m = restricted_metrics(q, u, Interval(-1.0, 2.0), 0.5, 2.0)
    assert m.entropy_restricted == pytest.approx(math.log(4.0), abs=1e-12)
    assert m.distortion_restricted == pytest.approx(distortion(q, u, 2.0), rel=1e-12)
    # the empty complement raises only when it is read
    table = cell_table(q, u, 2.0, ((Interval(-1.0, 2.0),), Interval(-1.0, 2.0).complement()))
    inside, outside = table.regions
    assert table.metrics(inside, 0.5) == m
    assert outside.mass == 0.0 and not outside.masses.any() and not outside.distortions.any()
    with pytest.raises(EmptyConditioningError):
        table.metrics(outside, 0.5)


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


def _piece_panels(d, r, lo, hi, c):
    """The batched panel's value and error bound of |x - c|^r pdf over every
    finite, nonempty (lo, hi), |x - c| measured from the node's offset from lo."""
    offset = c - lo
    return quadrature.kronrod_panels(
        lambda x, from_lo: np.abs(from_lo - offset) ** r * d.pdf_array(x), lo, hi,
    )


def _settles(values, bounds):
    return bounds <= np.maximum(quadrature.DEFAULT_REL_TOL * values, 1e-16)


def _has_kink(d, lo, hi):
    return any(lo < k < hi for k in d.kinks)


def _oracle_pieces(d, r, lo, hi, c):
    """Integral of |x - c|^r pdf over every (lo, hi), 0 where lo >= hi: one
    batched panel for a finite piece with no kink of the pdf inside, kept when
    its error bound passes the adaptive rule's first stopping test, else the
    adaptive rule cut at c and the kinks, out to the tails."""
    out = np.zeros(lo.shape)
    live = lo < hi
    smooth = np.array([not _has_kink(d, a, b) for a, b in zip(lo, hi)], dtype=bool)
    finite = np.flatnonzero(live & smooth & np.isfinite(lo) & np.isfinite(hi))
    values, bounds = _piece_panels(d, r, lo[finite], hi[finite], c[finite])
    settled = _settles(values, bounds)
    out[finite[settled]] = values[settled]
    for i in sorted(set(np.flatnonzero(live).tolist()) - set(finite[settled].tolist())):
        out[i] = _adaptive_piece(d, r, float(c[i]), float(lo[i]), float(hi[i]))
    return out


def _oracle_region_distortions(q, d, r, region):
    """Per-cell distortion inside a region: a full pass per interval, every
    cell clipped to the interval, each side of the codepoint integrated alone
    unless r is an even integer."""
    lows, highs = q._edges[:-1], q._edges[1:]
    out = np.zeros(q.size)
    for block in quantizer._blocks(q.size):
        c = q._codepoint_array[block]
        for part in region:
            lo = np.maximum(lows[block], part.lo)
            hi = np.minimum(highs[block], part.hi)
            if _split(r):
                left = _oracle_pieces(d, r, lo, np.minimum(hi, c), c)
                right = _oracle_pieces(d, r, np.maximum(lo, c), hi, c)
                out[block] += left + right
            else:
                out[block] += _oracle_pieces(d, r, lo, hi, c)
    return out


def _oracle_region_metrics(q, d, region, alpha, r):
    mass_total = math.fsum(d.interval_mass(iv) for iv in region)
    masses_in = _oracle_region_masses(q, d, region)
    conditional = masses_in / mass_total
    conditional = conditional / conditional.sum()
    dist_in = float(math.fsum(_oracle_region_distortions(q, d, r, region)))
    return quantizer.RestrictedMetrics(
        entropy_restricted=renyi_entropy_vec(conditional, alpha),
        distortion_restricted=dist_in / mass_total,
        entropy_power_sum=power_sum(cell_probabilities(q, d), alpha),
        restricted_power_sum=power_sum(masses_in, alpha),
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
    r = 3.0 if isinstance(d, Laplacian) else 2.0
    q = _compander_for(d, n, r)
    cases = _table_intervals(d, q)
    regions = [region for iv in cases.values() for region in ((iv,), iv.complement())]
    table = cell_table(q, d, r, regions)
    assert np.array_equal(table.masses, cell_probabilities(q, d))
    assert np.array_equal(table.distortions, _oracle_region_distortions(q, d, r, [REAL_LINE]))
    for region, columns in zip(regions, table.regions):
        assert np.array_equal(columns.masses, _oracle_region_masses(q, d, region)), region
        assert np.array_equal(
            columns.distortions, _oracle_region_distortions(q, d, r, region)
        ), region
        assert columns.mass == math.fsum(d.interval_mass(iv) for iv in region)
        if columns.mass > 0.0:
            assert table.metrics(columns, 0.5) == _oracle_region_metrics(q, d, region, 0.5, r)
            assert region_metrics(q, d, region, 0.5, r) == table.metrics(columns, 0.5)


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
    # one batch for the full pass, one for the cells the two endpoints cut,
    # once for the interval and once for its complement
    assert pieces == [q.size, 4]
    assert np.array_equal(sides.distortions, table.distortions)


def test_power_sum_zero_convention():
    assert power_sum((0.5, 0.5, 0.0), 0.0) == 2.0
    assert power_sum((0.25, 0.75), 0.5) == pytest.approx(0.5 + math.sqrt(0.75), abs=1e-15)


# --- batched cell distortion against the per-cell adaptive rule ----------------------


def _smooth_pieces(q, d, region):
    """(cell, lo, hi) of every cell piece inside the region, split at its
    codepoint and at the pdf's kinks."""
    parts = [REAL_LINE] if region is None else region
    for k in range(q.size):
        c = q.codepoints[k]
        for part in parts:
            piece = q.cell(k).intersect(part)
            if piece is None:
                continue
            cuts = sorted({x for x in (c, *d.kinks) if piece.lo < x < piece.hi})
            edges = [piece.lo, *cuts, piece.hi]
            for lo, hi in zip(edges, edges[1:]):
                yield k, lo, hi


def _integrate_piece(d, r, c, lo, hi):
    """The adaptive rule over a finite piece with c outside it, in the offset t
    from its end nearer c: |x - c| = gap + t keeps its relative precision in a
    narrow cell."""
    if c <= lo:
        gap, start, sign = lo - c, lo, 1.0
    else:
        gap, start, sign = c - hi, hi, -1.0
    return quadrature.integrate(
        lambda t: (gap + t) ** r * d.pdf(start + sign * t), Interval(0.0, hi - lo), abs_tol=1e-16
    )


def _adaptive_piece(d, r, c, lo, hi):
    """The adaptive rule over one piece, cut at c and at the pdf's kinks, an
    unbounded end out to the tail."""
    return integrate_over(
        lambda x: abs(x - c) ** r * d.pdf(x), (d,), Interval(lo, hi), cuts=(c, *d.kinks),
        abs_tol=1e-16, tail_tol=1e-30,
    )


def _oracle_cell_distortions(q, d, r, region):
    """The per-cell adaptive loop, one call per piece between the codepoint and
    the pdf's kinks: quadrature.integrate over a finite piece, integrate_over
    out to the tail for an unbounded one."""
    out = np.zeros(q.size)
    for k, lo, hi in _smooth_pieces(q, d, region):
        c = q.codepoints[k]
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


def _record_piece_calls(monkeypatch):
    """{(lo, hi): value} of every _piece_distortion call."""
    calls = {}
    original = quantizer._piece_distortion

    def recording(d, r, lo, hi, c):
        calls[lo, hi] = original(d, r, lo, hi, c)
        return calls[lo, hi]

    monkeypatch.setattr(quantizer, "_piece_distortion", recording)
    return calls


def test_cell_distortions_batch_settles_almost_every_cell(monkeypatch):
    g = Gaussian(0.0, 1.0)
    n = 16384
    q = _compander_for(g, n)
    calls = _count_integrate_calls(monkeypatch)
    cell_distortions(q, g, 2.0)
    assert len(calls) < 0.01 * n


def _panel_pieces(q, r):
    """(cell, lo, hi) of every piece the cell layer integrates: the cell, or
    its two sides of the codepoint unless r is an even integer."""
    for k in range(q.size):
        cell, c = q.cell(k), q.codepoints[k]
        if _split(r):
            yield k, cell.lo, c
            yield k, c, cell.hi
        else:
            yield k, cell.lo, cell.hi


@pytest.mark.parametrize("n", [4, 64])
@pytest.mark.parametrize("r", [2.0, 3.0])
@pytest.mark.parametrize("d", ORACLE_SOURCES[:4], ids=lambda d: repr(d))
def test_cell_distortions_fall_back_where_one_panel_does_not_settle(monkeypatch, d, r, n):
    q = _compander_for(d, n, r)
    pieces = list(_panel_pieces(q, r))
    unbounded = {(lo, hi) for _, lo, hi in pieces if not (math.isfinite(lo) and math.isfinite(hi))}
    kinked = {(lo, hi) for _, lo, hi in pieces if _has_kink(d, lo, hi)} - unbounded
    finite = [(k, lo, hi) for k, lo, hi in pieces if (lo, hi) not in unbounded | kinked]
    cells, lo, hi = (np.array(column) for column in zip(*finite))
    values, bounds = _piece_panels(d, r, lo, hi, q._codepoint_array[cells])
    settled = _settles(values, bounds)
    calls = _record_piece_calls(monkeypatch)
    cell_distortions(q, d, r)
    # the two outer pieces run out to the tails; a finite one falls back only
    # when a kink of the pdf lies inside or its panel's error bound does not
    # settle it
    assert len(unbounded) == 2
    assert sorted(calls) == sorted(
        unbounded | kinked | {(lo[i], hi[i]) for i in np.flatnonzero(~settled)}
    )
    # where the adaptive rule's own first panel settles a side of c, the
    # fallback keeps the value the bound turned down
    for i in np.flatnonzero(~settled).tolist():
        c = q.codepoints[cells[i]]
        if not lo[i] < c < hi[i] and _integrate_piece(d, r, c, lo[i], hi[i]).subdivisions == 1:
            assert calls[lo[i], hi[i]] == pytest.approx(values[i], rel=1e-13, abs=0.0)


@pytest.mark.parametrize(
    "r, pieces",
    [
        # the cell (-1, 1.5] holds the pdf's kink at 0
        (2.0, [(-math.inf, -1.0), (-1.0, 1.5), (1.5, math.inf)]),
        # so does its side (-1, 0.5) of the codepoint
        (3.0, [(-math.inf, -2.0), (-1.0, 0.5), (3.0, math.inf)]),
    ],
)
def test_cell_distortions_fall_back_on_a_kink_inside_a_piece(monkeypatch, r, pieces):
    d = Laplacian(0.0, 1.0)
    q = Quantizer((-1.0, 1.5), (-2.0, 0.5, 3.0))
    calls = _record_piece_calls(monkeypatch)
    got = cell_distortions(q, d, r)
    assert sorted(calls) == pieces
    np.testing.assert_allclose(got, _oracle_cell_distortions(q, d, r, None), rtol=1e-13, atol=0.0)


@pytest.mark.parametrize(
    "d, n, rows_r2, rows_r3",
    [
        # one row per finite cell at r = 2; two at r = 3, and one for the
        # finite side of each outer cell
        (Gaussian(0.0, 1.0), 64, 62, 126),
        # the mean, the pdf's kink, is the codepoint of the middle cell: that
        # cell falls back whole, its two sides do not
        (Laplacian(0.0, 1.0), 65, 62, 128),
        # equal-width cells: the knots 1 and 3 lie inside cells 12 and 36, on
        # the left and right side of the codepoint
        (PiecewiseLinear([(0.0, 0.0), (1.0, 2.0), (3.0, 0.5), (4.0, 0.0)]), 49, 45, 94),
    ],
    ids=repr,
)
@pytest.mark.parametrize("r", [2.0, 3.0])
def test_cell_distortions_panel_once_per_smooth_piece(monkeypatch, r, d, n, rows_r2, rows_r3):
    q = _compander_for(d, n, r)
    rows = []
    original = quadrature.kronrod_panels

    def counting(f, a, b):
        rows.append(a.size)
        return original(f, a, b)

    monkeypatch.setattr(quadrature, "kronrod_panels", counting)
    cell_distortions(q, d, r)
    assert rows == [rows_r2 if r == 2.0 else rows_r3]


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
