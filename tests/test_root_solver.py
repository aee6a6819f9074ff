"""Root solver values and step counts that must not drift."""

import copy
import dataclasses
import math
import pickle
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from edgebalance import sequences
from edgebalance.polynomials import (
    MAX_DIMENSION,
    BalanceProblem,
    RootResult,
    RootSolverError,
    _BRACKET_WIDTH,
    _closed_step,
    _concave_step,
    _signs,
    build_general,
    evaluate,
    knacci_constant,
    physicality_threshold,
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


@pytest.mark.parametrize("k, beta", [(1, 0.5), (2, 0.5), (3, 0.75), (10, 1e-300), (64, 0.9999)])
def test_solver_result_is_a_constructed_result(k, beta):
    # positive_root builds its result without the constructor
    root = positive_root(BalanceProblem(k=k, beta=beta))
    built = RootResult(**dataclasses.asdict(root))
    assert root == built and built == root
    assert repr(root) == repr(built)
    assert hash(root) == hash(built)
    assert dataclasses.replace(root) == built
    assert dataclasses.replace(root, iterations=0) == dataclasses.replace(built, iterations=0)
    for twin in (copy.deepcopy(root), copy.copy(root), pickle.loads(pickle.dumps(root))):
        assert type(twin) is RootResult
        assert twin == built and repr(twin) == repr(built) and hash(twin) == hash(built)
    with pytest.raises(dataclasses.FrozenInstanceError):
        root.value = 1.0


@st.composite
def offsets(draw):
    """(k, beta) for k in 1..64 and any beta in (0, 1) whose 1/beta is finite,
    often within a few thousand floats of the threshold k/(k+1)."""
    k = draw(st.integers(1, MAX_DIMENSION))
    steps = draw(st.integers(-3000, 3000))
    near = physicality_threshold(k)
    for _ in range(abs(steps)):
        near = math.nextafter(near, 1.0 if steps > 0 else 0.0)
    beta = draw(st.just(near) | st.floats(sys.float_info.min, 1.0, exclude_max=True))
    assume(1.0 / beta < math.inf)
    return k, beta


@given(offsets())
@settings(max_examples=2000, deadline=None)
def test_the_one_bracket_shows_the_sign_change(case):
    # positive_root certifies every root in one bracket, 1e-13 * value / 4 wide
    # and at least eight floats: no root is known that needs a wider one
    k, beta = case
    root = positive_root(BalanceProblem(k=k, beta=beta))
    x = root.value
    half = max(_BRACKET_WIDTH * x / 8.0, 4.0 * math.ulp(x))
    assert root.bracket == (x - half, x + half)
    p_lo, _, p_hi = _signs(beta, k, x - half, x, x + half)
    assert p_lo < 0.0 < p_hi


def test_a_few_steps_per_root():
    # Newton steps and the gap step, over k = 1..64 and a beta grid
    steps = [
        positive_root(BalanceProblem(k=k, beta=(j + 0.5) / 64)).iterations
        for k in range(1, 65)
        for j in range(64)
    ]
    assert max(steps) <= 12
    assert sum(steps) / len(steps) <= 6.0


def exact_value(k: int, beta: float, x: float) -> Fraction:
    beta, x = Fraction(beta), Fraction(x)
    acc = beta
    for _ in range(k):
        acc = acc * x + (beta - 1)
    return acc


@pytest.mark.parametrize("beta", [1e-9, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0 - 1e-9])
def test_closed_form_step_agrees_with_horner_about_the_switch(beta):
    # positive_root switches from Horner to the closed form at |x - 1| * k = 1;
    # where the step itself is tiny (next to the root) both lose the same
    # digits to the cancellation in q, hence the few floats of x
    for k in range(2, MAX_DIMENSION + 1):
        for c in (-8.0, -2.0, -1.01, -1.0, -0.99, -0.5, 0.5, 0.99, 1.0, 1.01, 2.0, 8.0, 1e3, 1e6):
            x = 1.0 + c / k
            if x <= 0.0:
                continue
            closed, horner = _closed_step(beta, k, x), _concave_step(beta, k, x)
            assert abs(closed - horner) <= 1e-12 * abs(horner) + 8.0 * math.ulp(x), (k, x)


def test_extreme_offsets_give_certified_roots():
    # every one of these has a root; a step that formed x*x or (x - 1)**2
    # would overflow at the tiny offsets, whose roots are near 1/beta
    for k in range(1, MAX_DIMENSION + 1):
        threshold = physicality_threshold(k)
        for beta in (
            5.7e-306, 1e-300, 1e-160, 1e-155, 1e-20,
            math.nextafter(threshold, 0.0), threshold, math.nextafter(threshold, 1.0),
            1.0 - 1e-12,
        ):
            result = positive_root(BalanceProblem(k=k, beta=beta))
            poly = build_general(BalanceProblem(k=k, beta=beta))
            lo, hi = result.bracket
            assert lo <= result.value <= hi
            assert evaluate(poly, lo) < 0.0 < evaluate(poly, hi), (k, beta)
            assert exact_value(k, beta, lo) < 0 < exact_value(k, beta, hi), (k, beta)
            assert result.residual == abs(evaluate(poly, result.value))
            assert result.physical == (Fraction(beta) * (k + 1) < k)


def exact_knacci_gap(k: int) -> Fraction:
    """``2 - G(n)/G(n-1)`` from the all-ones order-k sequence, converged far below a float."""
    terms = sequences.generate(k, [1] * k, 4 * k + 200).terms
    return Fraction(2 * terms[-2] - terms[-1], terms[-2])


def test_gap_matches_the_integer_sequence_and_falls():
    gaps = [knacci_constant(k).gap for k in range(1, MAX_DIMENSION + 1)]
    assert gaps[0] == 1.0
    for k, gap in enumerate(gaps[1:], start=2):
        exact = exact_knacci_gap(k)
        assert abs(Fraction(gap) - exact) <= 4 * k * Fraction(math.ulp(float(exact))), k
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


@pytest.mark.parametrize("k, beta", [(2, 1e-200), (3, 1e-120), (4, 1e-80)])
def test_gap_does_not_underflow_where_the_power_would(k, beta):
    # value^-k is 1e-400, 1e-360 and 1e-320 here: zero, zero and subnormal
    result = positive_root(BalanceProblem(k=k, beta=beta))
    exact = (1 - Fraction(beta)) / Fraction(beta) * Fraction(result.value) ** -k
    assert abs(Fraction(result.gap) - exact) <= 4 * Fraction(math.ulp(float(exact)))
