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

The physicality threshold ``beta < k/(k+1)`` is the Minkowski–Radon bound:
the centroid divides every chord through it in a ratio of at most k : 1
(Grünbaum 1963), so every centroid chord of a convex body has beta in
``[1/(k+1), k/(k+1)]``, with equality only at the apex of a cone.

This module is also the one home of caller-input reading.  Every public
entry of the package reads each number and point a caller gives through
one of three readers, which name the parameter or field they refuse:
``_as_number`` (any real number, ``numbers.Real``: Python and numpy ints
and floats, fractions, as a finite Python float), ``_as_integer`` (any
integer, ``numbers.Integral``: Python and numpy ints, in a range, as a
Python int) and ``_as_point`` (a list, tuple or numpy array of such real
numbers, as a tuple of Python floats).  A string (even ``"1"``), a boolean,
None, a list where a number belongs, a nested list, NaN, an infinity, an
integer beyond binary64 and a float where an integer belongs (``5.0``) are
refused with ValueError, never read character by character or as 0 or 1.
The module imports no numpy, so ``shapes``, ``planar``, ``sequences`` and
the number commands of the CLI all read through it.
"""

import math
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction

MAX_DIMENSION = 64


def _as_number(x, what: str) -> float:
    """A caller's number as a finite Python float, else ValueError naming ``what``.

    Any real number (``numbers.Real``: Python and numpy ints and floats,
    fractions) is read; a boolean, a string, None, a list, an integer beyond
    binary64, inf and NaN are refused.
    """
    value = x
    if type(x) is not float:
        try:
            value = float(x) if isinstance(x, numbers.Real) and not isinstance(x, bool) else math.nan
        except OverflowError:  # an integer or fraction beyond binary64
            value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{what} must be a finite number, got {x!r}")
    return value


def _as_integer(x, what: str, lo: int, hi: int | None) -> int:
    """A caller's integer in ``lo..hi`` as a Python int, else ValueError naming ``what``.

    Any integer (``numbers.Integral``: Python and numpy ints) is read; a
    boolean, a float (even ``5.0``), a string, None and a list are refused.
    ``hi`` None leaves the integer unbounded above, as exact integer
    arithmetic takes it.
    """
    if type(x) is not int:
        if not isinstance(x, numbers.Integral) or isinstance(x, bool):
            raise ValueError(f"{what} must be an integer, got {x!r}")
        x = int(x)
    if x < lo or hi is not None and x > hi:
        raise ValueError(f"{what} must be {f'at least {lo}' if x < lo else f'at most {hi}'}, got {x}")
    return x


def _as_list(items, what: str) -> list:
    """A caller's list, else ValueError naming ``what``: any iterable but a
    string or a mapping (a JSON object), so that a string is never read
    character by character."""
    if not isinstance(items, (str, bytes, dict)):
        try:
            return list(items)
        except TypeError:
            pass
    raise ValueError(f"{what} must be a list, got {items!r}")


def _as_point(p, what: str, dim: int | None = None) -> tuple[float, ...]:
    """A caller's point as a tuple of finite Python floats, else ValueError
    naming ``what``: a list of numbers (each read as ``_as_number`` reads it),
    ``dim`` of them, or 1 to ``MAX_DIMENSION`` where ``dim`` is None."""
    coordinate = f"{what} coordinate"
    # floats (numpy's float64 among them) are taken inline, other numbers read
    # one by one; the tuple is built from a list, at its final length: one built
    # from an iterator starts at 10 slots and is resized, so each call would move
    # one tuple between CPython's per-size free lists until they hold thousands idle
    point = tuple([x if type(x) is float else float(x) if isinstance(x, float) else _as_number(x, coordinate)
                   for x in _as_list(p, what)])
    # a sum of floats is finite only where every term is; where it is not, or
    # overflows, the terms are read one by one
    if not math.isfinite(sum(point)):
        for x in point:
            _as_number(x, coordinate)
    if not (len(point) == dim if dim else 1 <= len(point) <= MAX_DIMENSION):
        raise ValueError(f"{what} must be {dim or f'1 to {MAX_DIMENSION}'} numbers, got {len(point)}")
    return point


def _unchecked(cls, **values):
    """An instance of the frozen dataclass ``cls`` holding ``values`` as given,
    without ``__post_init__``: for objects built from others already checked.

    ``positive_root`` builds its ``RootResult`` this way, ``ConvexBody.scaled_about``
    the image of a body, and ``planar._centroid_chord`` and
    ``planar._chords_with_offset`` the chords they read off a body's exits.
    ``values`` name every field, in field order, so the instance compares,
    hashes, copies and pickles as one built by the constructor.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(values)
    return obj


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
    exactly.  ``k`` is read by ``_as_integer``, in 1..64.
    """
    k = _as_integer(k, "dimension k", 1, MAX_DIMENSION)
    return k / (k + 1)


@dataclass(frozen=True)
class BalanceProblem:
    """Dimension ``k`` and centroid offset ``beta`` of one balance equation.

    ``beta`` is the ratio of the centroid's distance from the tangency end
    of the chord to the full chord length; it must lie strictly between
    0 and 1.  A Python ``int`` k in 1..64 and a Python ``float`` beta in
    (0, 1) are taken after two ``type(...) is`` tests.  Any other k is read
    by ``_as_integer`` and stored as a Python ``int``, and any other beta by
    ``_as_number`` and stored as a float, so numpy integers and floats build
    the problem Python ones do; anything else raises ValueError naming
    ``dimension k`` or ``beta``.  Rational inputs (``fractions.Fraction``)
    are converted to the nearest float on their own side of ``k/(k+1)``.
    """

    k: int
    beta: float

    def __post_init__(self):
        k, beta = self.k, self.beta
        if type(k) is int and type(beta) is float and 0 < k <= MAX_DIMENSION and 0.0 < beta < 1.0:
            return
        k = _as_integer(k, "dimension k", 1, MAX_DIMENSION)
        beta = _as_number(self.beta, "beta")
        if isinstance(self.beta, Fraction):
            # round to the float on the rational's side of k/(k+1), so that the
            # root's ``physical`` flag describes the offset as given
            physical = self.beta * (k + 1) < k
            if (Fraction(beta) * (k + 1) < k) != physical:
                beta = math.nextafter(beta, 0.0 if physical else 1.0)
        if not 0.0 < beta < 1.0:
            raise ValueError(f"beta must lie strictly in (0, 1), got {beta}")
        object.__setattr__(self, "k", k)
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

    ``positive_root`` builds it without the constructor (``_unchecked``); it
    compares, hashes, copies and pickles like one built by the constructor.
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
    return _unchecked(RootResult, value=x, residual=abs(p_x), bracket=(lo, hi),
                      physical=physical, iterations=iterations, gap=gap)


def knacci_constant(k: int) -> RootResult:
    """Root of the ``beta = 1/2`` balance polynomial of dimension ``k``.

    This is the asymptotic term ratio of the order-k generalized Fibonacci
    sequence: the golden ratio at k=2, the tribonacci constant at k=3, and
    so on, rising toward 2 as k grows.  k=1 degenerates to exactly 1.
    In binary64 they reach one float below 2 at k=52 and 53; from k=54 on
    the root is less than half a float below 2 and rounds to 2.0.
    """
    return positive_root(BalanceProblem(k=k, beta=0.5))
