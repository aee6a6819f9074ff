"""Root solver values and step counts that must not drift."""

import pytest

from edgebalance.polynomials import (
    BalanceProblem,
    RootSolverError,
    knacci_constant,
    positive_root,
)

# knacci_constant(k).value for k = 1..64; `constant` and `table` print these
KNACCI_HEX = (
    "0x1.0000000000000p+0", "0x1.9e3779b97f4a8p+0", "0x1.d6db7f2d9c5c1p+0", "0x1.ed74b39db65a8p+0",
    "0x1.f7486236056f4p+0", "0x1.fbcc15d16a071p+0", "0x1.fdf15d9738b6dp+0", "0x1.fefbe63ec2891p+0",
    "0x1.ff7edbff38818p+0", "0x1.ffbfaf6395a32p+0", "0x1.ffdfe9e882305p+0", "0x1.ffeff9fc8599bp+0",
    "0x1.fff7fe5f7dcf8p+0", "0x1.fffbff8fed2c4p+0", "0x1.fffdffe1fd4dbp+0", "0x1.fffefff7ff9e0p+0",
    "0x1.ffff7ffddff23p+0", "0x1.ffffbfff6ffe1p+0", "0x1.ffffdfffd9ffcp+0", "0x1.ffffeffff5fffp+0",
    "0x1.fffff7fffd600p+0", "0x1.fffffbffff500p+0", "0x1.fffffdffffd20p+0", "0x1.fffffefffff40p+0",
    "0x1.ffffff7ffffcep+0", "0x1.ffffffbfffff3p+0", "0x1.ffffffdfffffdp+0", "0x1.ffffffeffffffp+0",
    "0x1.fffffff800000p+0", "0x1.fffffffc00000p+0", "0x1.fffffffe00000p+0", "0x1.ffffffff00000p+0",
    "0x1.ffffffff80000p+0", "0x1.ffffffffc0000p+0", "0x1.ffffffffe0000p+0", "0x1.fffffffff0000p+0",
    "0x1.fffffffff8000p+0", "0x1.fffffffffc000p+0", "0x1.fffffffffe000p+0", "0x1.ffffffffff000p+0",
    "0x1.ffffffffff800p+0", "0x1.ffffffffffc00p+0", "0x1.ffffffffffe00p+0", "0x1.fffffffffff00p+0",
    "0x1.fffffffffff80p+0", "0x1.fffffffffffc0p+0", "0x1.fffffffffffe0p+0", "0x1.ffffffffffff0p+0",
    "0x1.ffffffffffff8p+0", "0x1.ffffffffffffcp+0", "0x1.ffffffffffffep+0", "0x1.fffffffffffffp+0",
    "0x1.fffffffffffffp+0", "0x1.0000000000000p+1", "0x1.0000000000000p+1", "0x1.0000000000000p+1",
    "0x1.0000000000000p+1", "0x1.0000000000000p+1", "0x1.0000000000000p+1", "0x1.0000000000000p+1",
    "0x1.0000000000000p+1", "0x1.0000000000000p+1", "0x1.0000000000000p+1", "0x1.0000000000000p+1",
)


def test_knacci_constants_keep_their_bits():
    assert tuple(knacci_constant(k).value.hex() for k in range(1, 65)) == KNACCI_HEX


def test_root_beyond_the_float_range_is_refused():
    for k in (1, 2, 64):
        with pytest.raises(RootSolverError, match="overflows"):
            positive_root(BalanceProblem(k=k, beta=5e-324))


def test_a_few_steps_per_root():
    # Newton steps, the gap step and widenings, over k = 1..64 and a beta grid
    steps = [
        positive_root(BalanceProblem(k=k, beta=(j + 0.5) / 64)).iterations
        for k in range(1, 65)
        for j in range(64)
    ]
    assert max(steps) <= 12
    assert sum(steps) / len(steps) <= 6.0
