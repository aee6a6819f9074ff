"""The balanced self-similar excision, in any dimension, and the planar chord search.

The construction: pick a boundary point O of a convex body, draw the chord
from O through the body centroid C to the opposite boundary point Q, and cut
out a copy of the body scaled about O so that it stays internally tangent at
O with the same orientation.  The centroid offset fraction beta = |OC|/|OQ|
and the dimension k feed the balance polynomial; its positive root x is the
unique ratio for which the centroid of body-minus-cavity lands exactly on
the cavity boundary, at the image P of Q under the scaling.

One pipeline serves every body of every dimension, through the geometry
protocol of ``edgebalance.shapes``: a dimension-generic ``Chord``, one
``ExcisionPlan``, ``plan_excision``, ``excision_with_ratio``,
``composite_centroid`` and ``verify_balance``.  ``edgebalance.ndim`` only adds
the k-dimensional way to pick a chord from a tangency point.

The chord search is planar: it rotates the chord about the centroid and
bisects on beta(theta), with ``_bisect_sign_change`` as the one bisection
loop of the package.  Shapes are validated where they are built (see
``edgebalance.shapes``), so nothing here re-checks their numbers.  Geometric
predicates use absolute tolerances around 1e-12 and assume unit-scale
coordinates; areas and centroids are computed relative to a vertex, so
translating a shape far from the origin costs no accuracy.
"""

import math
from dataclasses import dataclass

import numpy as np

from .polynomials import (
    BalanceProblem,
    PhysicalityError,
    build_general,
    evaluate,
    physicality_threshold,
    positive_root,
)
from .shapes import (  # the planar shape API is re-exported from here
    Circle,
    Ellipse,
    Point,
    Polygon,
    Shape,
    Shape2D,
    _as_point,
    regular_polygon,
    shape_from_dict,
    shape_to_dict,
)

_COLLINEAR_RTOL = 1e-12
_BOUNDARY_RTOL = 1e-9
_MIN_EXCISION_MARGIN = 1e-9  # scale ratios this close to 1 leave no usable cavity
_BISECTION_STEPS = 256


def area(shape: Shape) -> float:
    """Exact area (volume for k > 2): the shape's ``measure``."""
    return shape.measure()


def centroid(shape: Shape) -> Point:
    return shape.centroid()


def _extent(shape: Shape) -> float:
    lo, hi = shape.bbox()
    return float(np.max(hi - lo))


@dataclass(frozen=True)
class Chord:
    """Chord through the centroid: tangency end O, centroid C, far end Q.

    ``beta`` is |OC|/|OQ|.  The three points, of any common dimension, are
    collinear by construction; C lies strictly between the ends.
    """

    tangent_point: Point
    far_point: Point
    centroid: Point
    beta: float

    def __post_init__(self):
        o, q, c = _as_point(self.tangent_point), _as_point(self.far_point), _as_point(self.centroid)
        object.__setattr__(self, "tangent_point", o)
        object.__setattr__(self, "far_point", q)
        object.__setattr__(self, "centroid", c)
        if not len(o) == len(q) == len(c):
            raise ValueError("chord points must share one dimension")
        d = math.dist(q, o)
        if d == 0.0:
            raise ValueError("chord endpoints coincide")
        along = math.dist(c, o) / d
        if not 0.0 < along < 1.0:
            raise ValueError("centroid must lie strictly between the chord ends")
        # C - O equals along * (Q - O) only when C is on the chord, up to the
        # rounding of coordinates as large as C's
        off_line = math.hypot(*[(z - a) - along * (b - a) for a, b, z in zip(o, q, c)])
        if off_line > _COLLINEAR_RTOL * max(d, *map(abs, c)):
            raise ValueError("centroid is not on the chord line")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must be in (0, 1), got {self.beta}")
        if abs(self.beta - along) > 1e-9:
            raise ValueError("beta inconsistent with the stored points")

    @property
    def length(self) -> float:
        return math.dist(self.tangent_point, self.far_point)


def chord_through_centroid(shape: Shape2D, theta: float) -> Chord:
    """Chord through the centroid of a planar shape along direction ``theta``.

    The tangency end O is the boundary crossing opposite the direction, the
    far end Q the crossing along it.  Centrally symmetric shapes have beta
    exactly 1/2.
    """
    c = shape.centroid()
    u = (math.cos(theta), math.sin(theta))
    t_far = shape.exit_parameter(c, u)
    if shape.centrally_symmetric:
        t_back, beta = t_far, 0.5
    else:
        t_back = shape.exit_parameter(c, (-u[0], -u[1]))
        beta = t_back / (t_far + t_back)
    return Chord(
        tangent_point=(c[0] - t_back * u[0], c[1] - t_back * u[1]),
        far_point=(c[0] + t_far * u[0], c[1] + t_far * u[1]),
        centroid=c,
        beta=beta,
    )


def beta_complement(shape: Shape2D, theta: float) -> tuple[float, float]:
    """Offsets of the same chord traversed both ways; the pair sums to 1."""
    return (
        chord_through_centroid(shape, theta).beta,
        chord_through_centroid(shape, theta + math.pi).beta,
    )


def _bisect_sign_change(g, lo: float, hi: float, g_lo: float, tol: float):
    """Bisect [lo, hi], across which ``g`` changes sign, until |g| <= tol.

    ``g(x)`` returns ``(result, value)``; the result at the first midpoint
    whose value is within ``tol`` of zero is returned.  ``g_lo`` is the value
    at ``lo`` and only its sign matters.
    """
    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        result, g_mid = g(mid)
        if abs(g_mid) <= tol:
            return result
        if (g_mid > 0.0) == (g_lo > 0.0):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    raise RuntimeError(f"bisection did not reach tolerance {tol} in [{lo!r}, {hi!r}]")


def _chord_offset(shape: Shape2D, target: float):
    """``g`` for ``_bisect_sign_change``: the chord at theta and its offset error."""

    def g(theta: float) -> tuple[Chord, float]:
        chord = chord_through_centroid(shape, theta)
        return chord, chord.beta - target

    return g


def _vertex_direction(shape: Shape2D) -> float:
    """Direction from the centroid to vertex 0, where every search starts."""
    c, v0 = shape.centroid(), shape.vertices[0]
    return math.atan2(v0[1] - c[1], v0[0] - c[0])


def find_balanced_chord(shape: Shape2D, tol: float = 1e-12) -> Chord:
    """Chord with beta within ``tol`` of 1/2, found by rotating about the centroid.

    Reversing a chord complements beta, so beta - 1/2 changes sign somewhere
    on any half-turn unless it is identically zero; bisection on the angle
    then converges regardless of the kinks a polygon boundary puts into
    beta(theta).  Centrally symmetric shapes return the horizontal chord.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if shape.centrally_symmetric:
        return chord_through_centroid(shape, 0.0)
    theta0 = _vertex_direction(shape)
    g = _chord_offset(shape, 0.5)
    first, g_lo = g(theta0)
    if abs(g_lo) <= tol:
        return first
    return _bisect_sign_change(g, theta0, theta0 + math.pi, g_lo, tol)


def find_chord_with_beta(
    shape: Shape2D, beta_target: float, tol: float = 1e-12, samples: int = 256
) -> Chord:
    """Chord whose centroid offset matches ``beta_target`` within ``tol``.

    Scans a full turn of chord directions (each geometric chord appears
    twice, with complementary offsets) for a sign change of
    beta(theta) - target and bisects it.  Raises ValueError when no chord
    with the requested offset exists: convex planar bodies only admit
    offsets in [1/3, 2/3] (the centroid cuts every chord through it no more
    unevenly than 2:1), and round shapes admit an even narrower band.
    """
    if not 0.0 < beta_target < 1.0:
        raise ValueError(f"beta target must be in (0, 1), got {beta_target}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if shape.centrally_symmetric:
        if abs(beta_target - 0.5) <= tol:
            return chord_through_centroid(shape, 0.0)
        raise ValueError("centrally symmetric shapes only admit beta = 1/2")

    theta0 = _vertex_direction(shape)
    thetas = [theta0 + 2.0 * math.pi * i / samples for i in range(samples + 1)]
    g = _chord_offset(shape, beta_target)
    gs = [g(t)[1] for t in thetas]
    for theta, value in zip(thetas, gs):
        if abs(value) <= tol:
            return chord_through_centroid(shape, theta)
    for i in range(samples):
        if (gs[i] > 0.0) != (gs[i + 1] > 0.0):
            return _bisect_sign_change(g, thetas[i], thetas[i + 1], gs[i], tol)
    raise ValueError(
        f"no chord with offset {beta_target} found; attainable offsets on this "
        f"shape span [{min(b + beta_target for b in gs):.4f}, "
        f"{max(b + beta_target for b in gs):.4f}] on the sampled grid"
    )


def scan_balanced_chords(
    shape: Shape2D, samples: int = 720, tol: float = 1e-12
) -> list[Chord]:
    """All beta = 1/2 chords detected on a half-turn grid, each refined.

    Complements mean a full turn carries the same chords twice, so the scan
    covers [theta0, theta0 + pi).  For centrally symmetric shapes every
    direction balances; the horizontal chord is returned alone.
    """
    if shape.centrally_symmetric:
        return [chord_through_centroid(shape, 0.0)]
    theta0 = _vertex_direction(shape)
    thetas = [theta0 + math.pi * i / samples for i in range(samples + 1)]
    g = _chord_offset(shape, 0.5)
    gs = [g(t)[1] for t in thetas]
    found: list[Chord] = []
    i = 0
    while i <= samples:
        if abs(gs[i]) <= tol:
            found.append(chord_through_centroid(shape, thetas[i]))
            while i <= samples and abs(gs[i]) <= tol:
                i += 1
            continue
        if i < samples and abs(gs[i + 1]) > tol and (gs[i] > 0.0) != (gs[i + 1] > 0.0):
            found.append(_bisect_sign_change(g, thetas[i], thetas[i + 1], gs[i], tol))
        i += 1
    return found


@dataclass(frozen=True)
class ExcisionPlan:
    """A concrete excision: the body, the chord, the solved scale ratio,
    the cavity (the body scaled by 1/ratio about the tangency point), and
    the predicted balance point P on the cavity edge.

    For convex bodies the cavity is automatically contained: each cavity
    point is a convex combination of the tangency point and a body point.
    """

    shape: Shape
    chord: Chord
    scale_ratio: float
    cavity: Shape
    balance_point: Point

    @property
    def beta(self) -> float:
        return self.chord.beta

    @property
    def tangent_point(self) -> Point:
        return self.chord.tangent_point

    @property
    def far_point(self) -> Point:
        return self.chord.far_point


def excision_with_ratio(shape: Shape, chord: Chord, scale_ratio: float) -> ExcisionPlan:
    """Build a plan with an explicit scale ratio (no balance solve).

    Useful for what-if checks; ``verify_balance`` will fail unless the ratio
    solves the balance polynomial for the chord's beta.
    """
    if not scale_ratio > 1.0 + _MIN_EXCISION_MARGIN:
        raise PhysicalityError(
            f"scale ratio {scale_ratio} leaves no cavity strictly inside the body"
        )
    inv = 1.0 / scale_ratio
    o = chord.tangent_point
    return ExcisionPlan(
        shape=shape,
        chord=chord,
        scale_ratio=scale_ratio,
        cavity=shape.scaled_about(o, inv),
        balance_point=tuple(a + (b - a) * inv for a, b in zip(o, chord.far_point)),
    )


def plan_excision(shape: Shape, chord: Chord, tol: float = 1e-12) -> ExcisionPlan:
    """Solve the balance equation for the chord and build the excision.

    Requires ``chord.beta < k/(k+1)`` (2/3 in the plane); at or above that
    threshold the balance root does not exceed 1 and no physical cavity
    exists.
    """
    scale = max(_extent(shape), 1.0)
    if math.dist(chord.centroid, shape.centroid()) > _BOUNDARY_RTOL * scale:
        raise ValueError("chord centroid does not match the shape centroid")
    for p in (chord.tangent_point, chord.far_point):
        if not shape.on_boundary(p, _BOUNDARY_RTOL * scale):
            raise ValueError(f"chord endpoint {p} is not on the shape boundary")
    return _solve_excision(shape, chord, tol)


def _solve_excision(shape: Shape, chord: Chord, tol: float) -> ExcisionPlan:
    """``plan_excision`` for a chord already known to belong to the shape."""
    k = shape.dim
    root = positive_root(BalanceProblem(k=k, beta=chord.beta), tol=tol)
    if not root.physical:
        raise PhysicalityError(
            f"beta = {chord.beta} at dimension {k} is at or above "
            f"{physicality_threshold(k)!r}; no balance ratio above 1 exists"
        )
    return excision_with_ratio(shape, chord, root.value)


def composite_centroid(plan: ExcisionPlan) -> Point:
    """Centroid of body minus cavity, by exact measure-weighted subtraction."""
    a = plan.shape.measure()
    a_cav = plan.cavity.measure()
    if a - a_cav <= 0.0:
        raise ValueError("cavity measure must be strictly smaller than the body measure")
    inv = 1.0 / (a - a_cav)
    return tuple(
        (a * c - a_cav * c_cav) * inv
        for c, c_cav in zip(plan.shape.centroid(), plan.cavity.centroid())
    )


@dataclass(frozen=True)
class BalanceReport:
    """Outcome of checking a plan's remainder centroid against its balance point.

    ``passed`` compares the chord-relative distance against ``tolerance``;
    ``polynomial_residual`` is the balance polynomial evaluated at the
    plan's scale ratio (zero exactly when the ratio solves the equation).
    """

    distance: float
    chord_length: float
    relative_distance: float
    tolerance: float
    passed: bool
    polynomial_residual: float
    composite_centroid: tuple[float, ...]
    balance_point: tuple[float, ...]
    dimension: int = 2


def balance_residual(plan: ExcisionPlan) -> float:
    """The balance polynomial of the plan's dimension and offset at its ratio."""
    poly = build_general(BalanceProblem(k=plan.shape.dim, beta=plan.beta))
    return evaluate(poly, plan.scale_ratio)


def verify_balance(plan: ExcisionPlan, tol: float = 1e-10) -> BalanceReport:
    """Measure how far the remainder centroid is from the balance point."""
    com = composite_centroid(plan)
    dist = math.dist(com, plan.balance_point)
    length = plan.chord.length
    rel = dist / length
    return BalanceReport(
        distance=dist,
        chord_length=length,
        relative_distance=rel,
        tolerance=tol,
        passed=rel <= tol,
        polynomial_residual=balance_residual(plan),
        composite_centroid=com,
        balance_point=plan.balance_point,
        dimension=plan.shape.dim,
    )


def regular_polygon_betas(n: int) -> tuple[float, float]:
    """Centroid offsets of an odd regular n-gon's two symmetric excisions.

    Tangency at a vertex gives beta = 1/(1 + cos(pi/n)); tangency at the
    midpoint of the opposite side gives the complement cos(pi/n)/(1 + cos(pi/n)).
    Even n is rejected: every vertex-to-vertex chord there already has
    beta = 1/2.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"defined for odd n >= 3, got {n}")
    c = math.cos(math.pi / n)
    return (1.0 / (1.0 + c), c / (1.0 + c))


def boundary_points(shape: Shape2D, count: int) -> list[Point]:
    """``count`` points along the boundary (arc-length spaced for polygons)."""
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    return shape.boundary_points(count)


def random_convex_polygon(
    n_vertices: int, rng: np.random.Generator, scale: float = 1.0
) -> Polygon:
    """Random strictly convex polygon with exactly ``n_vertices`` vertices.

    Valtr's construction: draw coordinate pools, split each into two
    monotone chains, pair the resulting displacement components at random,
    and sort the displacement vectors by angle.  The angular sort makes the
    cumulative path convex and counterclockwise.
    """
    if n_vertices < 3:
        raise ValueError(f"need at least 3 vertices, got {n_vertices}")
    while True:
        def deltas(values: np.ndarray) -> np.ndarray:
            values = np.sort(values)
            lo, hi = values[0], values[-1]
            interior = values[1:-1]
            mask = rng.random(interior.size) < 0.5
            up = np.concatenate(([lo], interior[mask], [hi]))
            down = np.concatenate(([lo], interior[~mask], [hi]))
            return np.concatenate((np.diff(up), -np.diff(down)))

        dx = deltas(rng.random(n_vertices))
        dy = deltas(rng.random(n_vertices))
        rng.shuffle(dy)
        order = np.argsort(np.arctan2(dy, dx))
        xs = np.cumsum(dx[order]) * scale
        ys = np.cumsum(dy[order]) * scale
        xs -= xs.mean()
        ys -= ys.mean()
        try:
            return Polygon(tuple(zip(xs.tolist(), ys.tolist())))
        except ValueError:
            continue  # angular ties are measure zero but cheap to resample
