"""Generalized Fibonacci sequences over exact integers.

An order-k sequence starts from k seed values and continues with each term
equal to the sum of its k predecessors.  Successive-term ratios converge to
the same constant that solves the order-k balance polynomial at offset 1/2,
which makes these sequences an independent numeric oracle for the root
solver: the two never share any arithmetic.

Everything runs on Python's arbitrary-precision integers; a ratio is the
true division of two of them, which CPython rounds correctly once, so
convergence measurements carry no accumulated rounding.

Of ``edgebalance.polynomials`` this module takes only the input readers
(``_as_integer``, ``_as_list``, ``_as_number``), and no arithmetic, so the
oracle stays independent of the solver it checks.  Orders and indices
are integers up to ``sys.maxsize``, the largest a Python sequence holds;
the count of a materialized sequence is at most ``DEFAULT_MAX_TERMS``,
since the size of a term grows with its index, and the total size as the
count squared; seeds are non-negative integers of any size.
"""

import sys
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice, pairwise

from .polynomials import _as_integer, _as_list, _as_number

DEFAULT_MAX_TERMS = 10_000


class ConvergenceError(RuntimeError):
    """Ratio convergence was not reached within the term budget."""


@dataclass(frozen=True)
class KnacciSequence:
    """Materialized order-k generalized Fibonacci sequence.

    Invariant: every term with index >= k is the sum of the k terms before
    it.  Once the look-back window contains only positive terms, consecutive
    ratios satisfy 1 < F(n)/F(n-1) < 2 for k > 1.
    """

    k: int
    seeds: tuple[int, ...]
    terms: tuple[int, ...]


@dataclass(frozen=True)
class DoublingSequence:
    """The boundless-memory doubling sequence: k-1 zeros, a one, then every
    term equal to the sum of all previous terms.

    After the repeated 1 each term is exactly twice its predecessor, which
    is the cleanest illustration of why the order-k ratio limits approach 2
    as k grows.  Note this is not an order-k windowed recurrence: a bounded
    window eventually drops the leading 1 and the doubling breaks (the
    order-4 sequence runs 1, 1, 2, 4, 8, 15, ...).

    ``doubling_span`` is the inclusive index range over which
    ``terms[i] == 2 * terms[i-1]`` holds exactly, or None if the prefix is
    too short to contain any doubling step.
    """

    k: int
    terms: tuple[int, ...]
    doubling_span: tuple[int, int] | None


def _terms(seeds: tuple[int, ...]) -> Iterator[int]:
    """The seeds, then without end each term the sum of the k before it, the
    window sum kept up to date in O(1) integer operations a term."""
    window, window_sum = deque(seeds), sum(seeds)
    yield from seeds
    while True:
        yield window_sum
        window.append(window_sum)
        window_sum += window_sum - window.popleft()


def generate(k: int, seeds: list[int] | tuple[int, ...], count: int) -> KnacciSequence:
    """Generate the first ``count`` terms from ``k`` seed values.

    Seeds must be non-negative integers, exactly k of them, not all zero
    (an all-zero sequence has no ratio limit).  Arithmetic is exact at any
    count; ``count`` runs from k to ``DEFAULT_MAX_TERMS``.
    """
    k = _as_integer(k, "order k", 1, sys.maxsize)
    seeds = tuple([_as_integer(s, "seed", 0, None) for s in _as_list(seeds, "seeds")])
    if len(seeds) != k:
        raise ValueError(f"expected {k} seeds, got {len(seeds)}")
    if not any(seeds):
        raise ValueError("seeds must not all be zero")
    count = _as_integer(count, "count", k, DEFAULT_MAX_TERMS)

    return KnacciSequence(k=k, seeds=seeds, terms=tuple(islice(_terms(seeds), count)))


def doubling_prefix(k: int, count: int) -> DoublingSequence:
    """Doubling sequence starting from k-1 zeros and a single one.

    Each term after the seed block is the sum of every term before it,
    so the values run 1, 1, 2, 4, 8, 16, ... with ratios exactly 2 from the
    second nonzero term on: term k + j is 2^j, and the doubling runs from
    index k + 1 to the end.  ``count`` runs from 1 to ``DEFAULT_MAX_TERMS``.
    """
    k = _as_integer(k, "order k", 1, sys.maxsize)
    count = _as_integer(count, "count", 1, DEFAULT_MAX_TERMS)
    terms = ([0] * (k - 1) + [1] + [1 << j for j in range(count - k)])[:count]
    span = (k + 1, count - 1) if count > k + 1 else None
    return DoublingSequence(k=k, terms=tuple(terms), doubling_span=span)


def ratio(seq: KnacciSequence | DoublingSequence, n: int) -> float:
    """Ratio terms[n] / terms[n-1] as a correctly rounded float.

    Integer true division rounds the exact quotient once, however large the
    terms; a quotient beyond binary64 raises ValueError.  Indices are
    0-based; ``n`` must be in 1..len(terms) - 1.
    """
    n = _as_integer(n, "ratio index n", 1, len(seq.terms) - 1)
    if seq.terms[n - 1] == 0:
        raise ValueError(f"term {n - 1} is zero, ratio undefined")
    try:
        return seq.terms[n] / seq.terms[n - 1]
    except OverflowError:  # a huge seed: the exact quotient is beyond any float
        raise ValueError(f"term {n} divided by term {n - 1} overflows a float") from None


def converged_ratio(k: int, tol: float, max_terms: int = DEFAULT_MAX_TERMS) -> float:
    """Successive-term ratio limit of the order-k sequence with unit seeds.

    Terms are generated until the ratio difference stays below ``tol`` for
    two consecutive steps (a single small difference can be an oscillation
    artifact when the subdominant recurrence roots are complex).  The limit
    does not depend on the seed values, only on k.
    """
    k = _as_integer(k, "order k", 1, sys.maxsize)
    tol = _as_number(tol, "tol")  # inf would stop at the second ratio
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    max_terms = _as_integer(max_terms, "max_terms", 0, sys.maxsize)
    prev_ratio = None
    small_streak = 0
    # the ratio of each term past the seeds to the one before, within max_terms
    for prev, term in pairwise(islice(_terms((1,) * k), k - 1, max_terms)):
        r = term / prev
        if prev_ratio is not None:
            if abs(r - prev_ratio) < tol:
                small_streak += 1
                if small_streak >= 2:
                    return r
            else:
                small_streak = 0
        prev_ratio = r
    raise ConvergenceError(
        f"ratio did not converge to {tol} within {max_terms} terms for order {k}"
    )
