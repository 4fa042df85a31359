"""Property tests: quantizer.fsum_array is math.fsum bit for bit, or raises
what math.fsum raises, on any float array (the fixed cases are in
test_quantizer.py)."""

import math

import numpy as np
import pytest

from renyi_quant.quantizer import fsum_array

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
