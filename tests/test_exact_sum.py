"""Property tests: quantizer.fsum_array is math.fsum bit for bit, or raises
what math.fsum raises, on any float array (the fixed cases are in
test_quantizer.py); the entropy sums skip no entry they must not."""

import math

import numpy as np
import pytest

from renyi_quant.quantizer import fsum_array, power_sum, renyi_entropy_vec

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def _outcome(fn, x):
    try:
        return float(fn(x)).hex()
    except (OverflowError, ValueError) as exc:
        return (type(exc), str(exc))


def _assert_fsum_equal(x):
    x = np.asarray(x, dtype=float)
    kept = x.copy()
    assert _outcome(fsum_array, x) == _outcome(math.fsum, x.tolist())
    assert np.array_equal(x.view(np.int64), kept.view(np.int64))  # the caller's x is left alone


@settings(max_examples=300, deadline=None)
@given(
    size=st.integers(0, 20_000),
    seed=st.integers(0, 2**32 - 1),
    low=st.integers(-1074, 1023),
    span=st.integers(0, 2100),
    signs=st.sampled_from(["+", "-", "mixed"]),
    zeros=st.floats(0.0, 1.0),
)
def test_fsum_array_is_math_fsum_bit_for_bit(size, seed, low, span, signs, zeros):
    """Sizes on both sides of the switch to math.fsum, exponents from
    subnormal up to overflow, either sign, and some entries +-0."""
    rng = np.random.default_rng(seed)
    exponents = rng.integers(low, min(low + span, 1023) + 1, size)
    x = np.ldexp(rng.uniform(0.5, 1.0, size), exponents)
    if signs != "+":
        x[rng.uniform(size=size) < (1.0 if signs == "-" else 0.5)] *= -1.0
    zero = rng.uniform(size=size) < zeros
    x[zero] = np.where(rng.uniform(size=zero.sum()) < 0.5, 0.0, -0.0)
    _assert_fsum_equal(x)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=1500),
       st.integers(0, 3))
def test_fsum_array_is_math_fsum_on_any_finite_floats(values, copies):
    """Hypothesis' own floats, repeated past the switch: huge values, whose
    sums overflow in the middle, subnormals, +-0 and exact cancellations."""
    _assert_fsum_equal(values * (copies + 1))


def _clipped_entropy(p, alpha):
    """renyi_entropy_vec as a clip of p at 0 and a gather of its positive
    entries, for every p."""
    arr = np.clip(np.asarray(p, dtype=float), 0.0, None)
    pos = arr[arr > 0.0]
    if 1e-6 < alpha < 1.0 - 1e-6:
        return math.log(float(np.sum(pos**alpha))) / (1.0 - alpha)
    if alpha <= 1e-6:
        return math.log(pos.size)
    return float(-np.sum(pos * np.log(pos)))


@settings(max_examples=300, deadline=None)
@given(
    size=st.integers(1, 3000),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.sampled_from([0.0, 0.01, 0.5]),
    negatives=st.sampled_from([0.0, 0.01, 0.5]),
    alpha=st.sampled_from([0.0, 1e-7, 0.2, 0.5, 1.0 - 1e-7, 1.0]),
)
def test_entropy_skips_only_the_clip_and_gather_it_does_not_need(size, seed, zeros, negatives,
                                                                 alpha):
    """All positive entries, some +-0, some tiny negatives above -1e-12: the
    entropy and power_sum equal the clip-and-gather forms bit for bit."""
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.0, 1.0, size) ** 8
    u = rng.uniform(size=size)
    p[u < zeros] = np.where(rng.uniform(size=(u < zeros).sum()) < 0.5, 0.0, -0.0)
    p[(zeros <= u) & (u < zeros + negatives)] = -1e-13
    hypothesis.assume((p > 0.0).any())
    p[p > 0.0] /= p[p > 0.0].sum()
    assert float(renyi_entropy_vec(p, alpha)).hex() == float(_clipped_entropy(p, alpha)).hex()
    pos = p[p > 0.0]
    want = float(pos.size) if alpha == 0.0 else float(np.sum(pos**alpha))
    assert float(power_sum(p, alpha)).hex() == want.hex()
