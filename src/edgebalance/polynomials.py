"""Balance polynomials, their unique positive roots, and the k-nacci constants.

Excising a scaled-down, internally tangent copy of a uniform convex body
shifts the centroid of what remains.  Demanding that the shifted centroid
land exactly on the cavity edge fixes the body-to-cavity scale ratio as the
unique positive root of a small polynomial.  The polynomial depends only on
the dimension ``k`` and on ``beta``, the fraction of the construction chord
at which the body centroid sits.  For ``beta = 1/2`` the roots are the
golden ratio and its higher-order relatives (tribonacci constant,
tetranacci constant, ...), here called the k-nacci constants.

All numeric work is plain binary64.  ``positive_root`` climbs to the simple
positive root by Newton's method on ``p(x) / x^k``, increasing and concave
for ``x > 0``, at O(1) a step, and certifies it by the signs of ``p`` at the
ends of a fixed bracket of about 1e-13 relative.
"""

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

MAX_DIMENSION = 64


class RootSolverError(RuntimeError):
    """The root solver could not certify a root by a sign change."""


class PhysicalityError(ValueError):
    """An excision was requested whose balance ratio admits no cavity
    strictly smaller than the body (scale ratio not above 1)."""


def physicality_threshold(k: int) -> float:
    """Float nearest ``k/(k + 1)``, the bound on offsets with a scale ratio above 1.

    The balance polynomial evaluates to ``(k + 1)*beta - k`` at ``x = 1``,
    so a root greater than 1 exists exactly when ``beta < k/(k + 1)``.
    The float itself may lie on either side; ``positive_root`` decides it
    exactly.
    """
    if k < 1:
        raise ValueError(f"dimension must be a positive integer, got {k}")
    return k / (k + 1)


@dataclass(frozen=True)
class BalanceProblem:
    """Dimension ``k`` and centroid offset ``beta`` of one balance equation.

    ``beta`` is the ratio of the centroid's distance from the tangency end
    of the chord to the full chord length; it must lie strictly between
    0 and 1.  Rational inputs (``fractions.Fraction``) are accepted and
    converted to the nearest float on their own side of ``k/(k+1)``.
    """

    k: int
    beta: float

    def __post_init__(self):
        if not isinstance(self.k, int) or isinstance(self.k, bool):
            raise TypeError(f"dimension must be an integer, got {self.k!r}")
        if self.k < 1:
            raise ValueError(f"dimension must be >= 1, got {self.k}")
        if self.k > MAX_DIMENSION:
            raise ValueError(
                f"dimension capped at {MAX_DIMENSION}; beyond that the root is "
                f"indistinguishable from its limit in binary64"
            )
        beta = self.beta
        if isinstance(beta, Fraction):
            # round to the float on the rational's side of k/(k+1), so that the
            # root's ``physical`` flag describes the offset as given
            physical = beta * (self.k + 1) < self.k
            beta = float(beta)
            if (Fraction(beta) * (self.k + 1) < self.k) != physical:
                beta = math.nextafter(beta, 0.0 if physical else 1.0)
        if not isinstance(beta, (int, float)):
            raise TypeError(f"beta must be a real number, got {self.beta!r}")
        beta = float(beta)
        if not 0.0 < beta < 1.0 or math.isnan(beta):
            raise ValueError(f"beta must lie strictly in (0, 1), got {beta}")
        object.__setattr__(self, "beta", beta)


@dataclass(frozen=True)
class BalancePolynomial:
    """Dense polynomial ``beta*x^k + (beta-1)*(x^(k-1) + ... + x + 1)``.

    ``coefficients`` are ordered leading first: one leading ``beta``
    followed by ``k`` trailing copies of ``beta - 1``.  The trivial root
    at ``x = 1`` of the raw centroid equation is already factored out
    symbolically, never deflated numerically.
    """

    degree: int
    coefficients: tuple[float, ...]

    def __call__(self, x: float) -> float:
        return evaluate(self, x)


def build_general(problem: BalanceProblem) -> BalancePolynomial:
    """Build the balance polynomial for a dimension/offset pair."""
    beta = problem.beta
    return BalancePolynomial(
        degree=problem.k,
        coefficients=(beta,) + (beta - 1.0,) * problem.k,
    )


def evaluate(poly: BalancePolynomial, x: float) -> float:
    """Horner evaluation.  At ``x = 1`` the value is ``(k+1)*beta - k``."""
    acc = 0.0
    for c in poly.coefficients:
        acc = acc * x + c
    return acc


@dataclass(frozen=True)
class RootResult:
    """The unique positive root of a balance polynomial.

    ``bracket`` is an interval certified (by evaluated sign change) to
    contain the root.  ``residual`` is the absolute polynomial value at
    ``value``; for steep high-degree cases it is floored by the polynomial's
    coefficient scale times machine epsilon even at the best representable
    root, so accuracy guarantees live in the bracket, not the residual.
    ``physical`` is true exactly when ``beta < k/(k+1)`` in exact arithmetic,
    the condition for the root to exceed 1 (a cavity strictly smaller than
    the body); at the float nearest ``k/(k+1)`` such a root may still round
    to 1.0.
    ``iterations`` counts the steps that moved the value: Newton steps and
    the closing gap step of ``positive_root``.
    ``gap`` is ``1/beta - value`` by the gap identity, ``(1 - beta) *
    value^-k / beta`` (exactly 1 at k = 1).  It keeps about ``k`` floats of
    relative accuracy where ``1/beta`` and the value are equal or adjacent
    floats, and their difference says nothing, and it stays a normal float
    where ``value^-k`` alone would underflow (tiny ``beta``).
    """

    value: float
    residual: float
    bracket: tuple[float, float]
    physical: bool
    iterations: int
    gap: float


_BRACKET_WIDTH = 1e-13
_MAX_NEWTON = 100


def _concave_step(beta: float, k: int, x: float) -> float:
    """Newton step ``q(x) / q'(x)`` on ``q(x) = p(x) / x^k``, by Horner.

    ``q = beta - (1 - beta) * S`` with ``S = sum_{j=1..k} y^j`` and
    ``y = 1/x``.  ``S`` and ``dS/dy`` are built by Horner in ``y``, so no
    power of ``x`` is formed.  Its cost is O(k); ``positive_root`` uses it
    only near ``x = 1``, where ``_closed_step`` cancels.
    """
    y = 1.0 / x
    s = ds = 0.0
    for _ in range(k):
        ds = ds * y + s + 1.0
        s = (s + 1.0) * y
    return (beta - (1.0 - beta) * s) * x * x / ((1.0 - beta) * ds)


def _closed_step(beta: float, k: int, x: float) -> float:
    """The same Newton step in closed form, in O(1).

    With ``t = x^-k`` and ``d = x - 1``, ``q = beta - (1 - beta)(1 - t)/d``
    and ``q' = (1 - beta)(1 - (k + 1)t + k t/x) / d^2``.  Both lose all
    their digits to cancellation as ``x`` nears 1, so it is used only where
    ``|x - 1| * k >= 1``.  The numerator is multiplied by ``d`` before the
    division, and no square of ``x`` or ``d`` is formed, so the step stays
    finite for every ``x`` up to ``1/beta``.
    """
    t = x**-k
    d = x - 1.0
    return (beta * d - (1.0 - beta) * (1.0 - t)) * d / ((1.0 - beta) * (1.0 - (k + 1) * t + k * t / x))


def _gap(beta: float, k: int, x: float) -> float:
    """``1/beta - x`` by the gap identity, ``(1 - beta) * x^-k / beta``.

    Where ``x^-k`` falls below the normal floats (roots near ``1/beta`` for
    tiny ``beta``) it loses digits or underflows to 0, so the gap is formed
    there as ``(1 - beta) / (beta x) * x^(1 - k)``, whose first factor is
    about 1.
    """
    t = x**-k
    if t < sys.float_info.min:
        return (1.0 - beta) / (beta * x) * x ** (1 - k)
    return (1.0 - beta) * t / beta


def _signs(beta: float, k: int, lo: float, x: float, hi: float) -> tuple[float, float, float]:
    """``evaluate`` at ``lo``, ``x`` and ``hi`` in one loop, bit for bit."""
    c = beta - 1.0
    p_lo = p_x = p_hi = beta
    for _ in range(k):
        p_lo = p_lo * lo + c
        p_x = p_x * x + c
        p_hi = p_hi * hi + c
    return p_lo, p_x, p_hi


def positive_root(problem: BalanceProblem) -> RootResult:
    """Find the unique positive root of the balance polynomial.

    The coefficient signs (one positive, then ``k`` negatives) give exactly
    one positive root.  Times ``x - 1`` the polynomial is ``beta x^(k+1) -
    x^k + (1 - beta)``, so the root obeys the gap identity ``1/beta - x =
    (1 - beta) x^(-k) / beta``: it lies below ``1/beta``, and above 1 when
    physical, else above ``(1 - beta)^(1/k)``, where ``p`` is negative.

    Degree 1 is solved in closed form; otherwise in three stages:

    1. Newton's method on ``q(x) = p(x) / x^k``, increasing and concave on
       ``x > 0``: every step lands left of the root, and from there the
       steps climb to it monotonically.  A step costs O(1) (``_closed_step``)
       except within ``1/k`` of ``x = 1``, where it is taken by Horner
       (``_concave_step``).  The first step is taken from ``1/beta``; the
       climb starts from the larger of where it lands and the lower bound,
       and stops when a step no longer increases ``x``.
    2. One more Newton step, ``p / (p' - k p / x)`` with ``p`` and ``p'`` by
       Horner in ``x``, resolves the root to about the float spacing.  It
       is skipped where ``p`` or ``p'`` overflows, which happens only where
       the root is far within a float of ``1/beta``.
    3. Where the gap identity contracts strongly (``8 k gap <= x``), ``x =
       1/beta - gap``: one common ``1/beta`` less a gap that shrinks with
       ``k`` keeps the roots in order of ``k`` where they are within a
       float of each other.

    The value is certified by the signs of ``p``, evaluated exactly as
    ``evaluate`` does in one loop, at the ends of a fixed bracket about it,
    ``1e-13 * value / 4`` wide and never narrower than eight floats, above
    the rounding noise of Horner's rule.  Raises RootSolverError if the
    bracket shows no sign change (no root in k = 1..64 is known to), or if
    ``1/beta`` overflows.
    """
    beta, k = problem.beta, problem.k
    ceiling = 1.0 / beta
    if ceiling == math.inf:
        raise RootSolverError(f"the root for beta={beta!r}, just below 1/beta, overflows a float")
    # beta == threshold is the float nearest k/(k+1): physical if it lies below
    threshold = physicality_threshold(k)
    physical = beta < threshold or (beta == threshold and Fraction(threshold) * (k + 1) < k)
    iterations = 0
    if k == 1:
        x, gap = (1.0 - beta) / beta, 1.0
    else:
        lower = 1.0 if physical else (1.0 - beta) ** (1.0 / k)
        # one loop takes the first step, from the ceiling, kept wherever it
        # lands (``below`` starts at -inf), and then the climb, which stops once
        # a step no longer rises; a step raised to ``lower`` stops it just the same
        x, below = ceiling, -math.inf
        while iterations < _MAX_NEWTON:
            if -1.0 < (x - 1.0) * k < 1.0:
                x_next = x - _concave_step(beta, k, x)
            else:
                x_next = x - _closed_step(beta, k, x)
            if not x_next >= lower:
                x_next = lower
            if not x_next > below:
                break
            x = below = x_next
            iterations += 1
        c = beta - 1.0
        fx, dfx = beta, 0.0
        for _ in range(k):
            dfx = dfx * x + fx
            fx = fx * x + c
        slope = dfx - k * fx / x
        if 0.0 < slope < math.inf:
            x -= fx / slope
            iterations += 1
        gap = _gap(beta, k, x)
        if 8.0 * k * gap <= x:
            x = ceiling - gap
            iterations += 1
            gap = _gap(beta, k, x)
    half = max(_BRACKET_WIDTH * x / 8.0, 4.0 * math.ulp(x))
    lo, hi = x - half, x + half
    p_lo, p_x, p_hi = _signs(beta, k, lo, x, hi)
    if not p_lo < 0.0 < p_hi:
        raise RootSolverError(f"p changes sign nowhere within {half!r} of {x!r}")
    return RootResult(
        value=x,
        residual=abs(p_x),
        bracket=(lo, hi),
        physical=physical,
        iterations=iterations,
        gap=gap,
    )


def knacci_constant(k: int) -> RootResult:
    """Root of the ``beta = 1/2`` balance polynomial of dimension ``k``.

    This is the asymptotic term ratio of the order-k generalized Fibonacci
    sequence: the golden ratio at k=2, the tribonacci constant at k=3, and
    so on, rising toward 2 as k grows.  k=1 degenerates to exactly 1.
    In binary64 they reach one float below 2 at k=52 and 53; from k=54 on
    the root is less than half a float below 2 and rounds to 2.0.
    """
    return positive_root(BalanceProblem(k=k, beta=0.5))
