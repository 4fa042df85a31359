"""Property test of `Quantizer.center` on dyadic grids, where every 2c - x is exact."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from renyi_quant import Quantizer  # noqa: E402


_DYADIC = st.integers(-2**20, 2**20).map(lambda k: k / 1024.0)


@settings(max_examples=200, deadline=None)
@given(
    c=_DYADIC,
    steps=st.lists(st.integers(1, 2**10), min_size=1, max_size=40),
    odd=st.booleans(),
    spoil=st.integers(0, 2**16),
    up=st.booleans(),
)
def test_a_quantizer_decides_the_center_it_mirrors_about(c, steps, odd, spoil, up):
    """A half-quantizer on a dyadic grid mirrored about a dyadic c has center c;
    moving any one value by an ulp leaves it none."""
    # the leading values, interleaved codepoint, breakpoint, ..., left of c;
    # the middle one is c itself, a breakpoint for even m and a codepoint for odd m
    lead = c - np.cumsum(steps[::-1])[::-1] / 1024.0
    if len(lead) % 2 == odd:
        lead = lead[1:] if len(lead) > 1 else np.array([c - 1.0, c - 0.5])
    x = np.concatenate((lead, [c], 2.0 * c - lead[::-1]))
    q = Quantizer(x[1::2], x[0::2])
    assert q.center == c and q.size % 2 == odd
    k = spoil % x.size
    x[k] = np.nextafter(x[k], math.inf if up else -math.inf)
    assert Quantizer(x[1::2], x[0::2]).center is None
