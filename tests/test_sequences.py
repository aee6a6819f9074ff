import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgebalance.polynomials import knacci_constant
from edgebalance.sequences import (
    ConvergenceError,
    converged_ratio,
    doubling_prefix,
    generate,
    ratio,
)

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


@st.composite
def sequence_inputs(draw):
    k = draw(st.integers(min_value=1, max_value=8))
    seeds = draw(
        st.lists(st.integers(min_value=0, max_value=50), min_size=k, max_size=k).filter(any)
    )
    count = draw(st.integers(min_value=k + 1, max_value=k + 40))
    return k, seeds, count


class TestGenerate:
    def test_fibonacci(self):
        seq = generate(2, [1, 1], 9)
        assert seq.terms == (1, 1, 2, 3, 5, 8, 13, 21, 34)

    def test_tribonacci_with_zero_seeds(self):
        seq = generate(3, [0, 0, 1], 9)
        assert seq.terms == (0, 0, 1, 1, 2, 4, 7, 13, 24)

    def test_rejects_wrong_seed_length(self):
        with pytest.raises(ValueError, match="seeds"):
            generate(3, [0, 0, 0, 1], 9)

    def test_rejects_all_zero_seeds(self):
        with pytest.raises(ValueError, match="zero"):
            generate(3, [0, 0, 0], 9)

    def test_rejects_negative_seeds(self):
        with pytest.raises(ValueError):
            generate(2, [1, -1], 9)

    def test_rejects_non_integer_seeds(self):
        with pytest.raises(ValueError):
            generate(2, [1.0, 1], 9)

    def test_rejects_count_below_order(self):
        with pytest.raises(ValueError):
            generate(3, [1, 1, 1], 2)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            generate(0, [], 5)

    def test_exact_large_terms(self):
        # stays exact far beyond binary64 range
        seq = generate(2, [1, 1], 400)
        assert seq.terms[-1] == seq.terms[-2] + seq.terms[-3]
        assert seq.terms[-1] > 10**80

    @given(sequence_inputs())
    @settings(max_examples=150)
    def test_recurrence_holds_everywhere(self, inputs):
        k, seeds, count = inputs
        seq = generate(k, seeds, count)
        assert seq.terms[:k] == tuple(seeds)
        for n in range(k, count):
            assert seq.terms[n] == sum(seq.terms[n - k : n])

    @given(sequence_inputs())
    @settings(max_examples=150)
    def test_ratio_bounds_past_first_positive_window(self, inputs):
        k, seeds, count = inputs
        if k == 1:
            return
        seq = generate(k, seeds, count)
        first = next(
            (n for n in range(k, count) if all(t > 0 for t in seq.terms[n - k : n])),
            None,
        )
        if first is None:
            return
        # at index `first` itself the upper bound can be met with equality
        # (0, 1 -> 1, 2); strictly past it both bounds are strict, checked
        # in exact integer arithmetic
        for n in range(first + 1, count):
            assert seq.terms[n - 1] < seq.terms[n] < 2 * seq.terms[n - 1]

    @given(sequence_inputs())
    @settings(max_examples=100)
    def test_monotone_growth_past_seed_window(self, inputs):
        k, seeds, count = inputs
        seq = generate(k, seeds, count)
        for n in range(k + 1, count):
            assert seq.terms[n] >= seq.terms[n - 1]
            if k > 1 and all(t > 0 for t in seq.terms[n - k : n]):
                assert seq.terms[n] > seq.terms[n - 1]


class TestDoublingPrefix:
    def test_order_four_prefix(self):
        seq = doubling_prefix(4, 9)
        assert seq.terms == (0, 0, 0, 1, 1, 2, 4, 8, 16)
        assert seq.doubling_span == (5, 8)

    def test_every_term_is_sum_of_all_previous(self):
        seq = doubling_prefix(4, 12)
        for n in range(4, 12):
            assert seq.terms[n] == sum(seq.terms[:n])

    def test_order_two_prefix(self):
        assert doubling_prefix(2, 6).terms == (0, 1, 1, 2, 4, 8)

    def test_order_one_prefix(self):
        seq = doubling_prefix(1, 5)
        assert seq.terms == (1, 1, 2, 4, 8)
        assert seq.doubling_span == (2, 4)

    def test_short_prefix_has_no_doubling_span(self):
        assert doubling_prefix(3, 4).doubling_span is None

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            doubling_prefix(3, 0)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7])
    def test_span_ratios_are_exactly_two(self, k):
        seq = doubling_prefix(k, k + 10)
        lo, hi = seq.doubling_span
        for i in range(lo, hi + 1):
            assert seq.terms[i] == 2 * seq.terms[i - 1]


class TestRatio:
    def test_fibonacci_late_ratio(self):
        seq = generate(2, [1, 1], 9)
        assert ratio(seq, 8) == pytest.approx(34 / 21, abs=0.0)
        assert ratio(seq, 8) == float(Fraction(34, 21))

    def test_fibonacci_early_ratio(self):
        seq = generate(2, [1, 1], 9)
        assert ratio(seq, 2) == 2.0

    def test_tribonacci_ratio(self):
        seq = generate(3, [0, 0, 1], 9)
        assert ratio(seq, 8) == pytest.approx(24 / 13, abs=0.0)

    def test_zero_denominator(self):
        seq = generate(3, [0, 0, 1], 9)
        with pytest.raises(ValueError, match="zero"):
            ratio(seq, 1)

    def test_index_out_of_range(self):
        seq = generate(2, [1, 1], 5)
        with pytest.raises(ValueError, match="ratio index n must be at most 4, got 5"):
            ratio(seq, 5)
        with pytest.raises(ValueError, match="ratio index n must be at least 1, got 0"):
            ratio(seq, 0)


class TestConvergedRatio:
    def test_golden_ratio(self):
        assert converged_ratio(2, 1e-12) == pytest.approx(GOLDEN, abs=1e-11)

    def test_tribonacci_matches_root_solver(self):
        r = converged_ratio(3, 1e-10)
        assert r == pytest.approx(1.8392867, abs=1e-6)
        assert abs(r - knacci_constant(3).value) < 1e-9

    def test_order_one_is_constant(self):
        assert converged_ratio(1, 1e-12) == 1.0

    @pytest.mark.parametrize(
        "tol, message",
        [
            (0.0, "tol must be positive, got 0.0"),
            (-1e-12, "tol must be positive, got -1e-12"),
            (math.inf, "tol must be a finite number, got inf"),
            (math.nan, "tol must be a finite number, got nan"),
        ],
    )
    def test_rejects_bad_tol(self, tol, message):
        # an infinite tol once returned 1.8 for the tribonacci constant 1.839...
        with pytest.raises(ValueError, match=re.escape(message)):
            converged_ratio(3, tol)

    def test_non_convergence_raises(self):
        # six terms stop short of the limit; a budget of no more terms than
        # seeds leaves no ratio at all
        for k, max_terms in ((2, 6), (5, 5), (5, 3), (5, 0)):
            with pytest.raises(ConvergenceError):
                converged_ratio(k, 1e-15, max_terms=max_terms)
        # a negative budget is refused, not read as no terms at all
        with pytest.raises(ValueError, match="max_terms must be at least 0, got -1"):
            converged_ratio(3, 1e-15, max_terms=-1)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_agrees_with_root_solver(self, k):
        # the sequence side never touches the polynomial arithmetic
        assert abs(converged_ratio(k, 1e-12) - knacci_constant(k).value) < 1e-9

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_limit_is_seed_independent(self, k):
        base = converged_ratio(k, 1e-12)
        for seeds in ([3] + [1] * (k - 1), [7] * k, list(range(1, k + 1))):
            seq = generate(k, seeds, 120)
            assert ratio(seq, 119) == pytest.approx(base, abs=1e-9)
