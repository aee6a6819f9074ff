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

The chord search is planar and exact.  On a polygon, beta(theta) is a ratio of
two linear forms in (cos theta, sin theta) between consecutive directions from
the centroid to a vertex or away from one.  The sweep frame of these intervals is
kept with the shape; a search solves each root in closed form and reads its chord,
or a fallback bisection, off the edges of its interval and the two beside it.
Input is checked where it enters: shapes in their constructors (see
``edgebalance.shapes``), chords in ``Chord(...)`` and ``plan_excision``.  What
the library derives from checked input trusts those checks: the chords the
searches build from a body's own exits skip ``Chord``'s checks, and a cavity
has only its moments checked.  The chord search refuses a body that is not
planar, and ``boundary_points`` one that is not a polygon, an ellipse or a
circle.  Tolerances on points are relative to the body's extent, the largest
side of its bounding box, so scaling a body and its points by a power of two
changes no verdict and no bit of a plan; areas and centroids are computed
relative to a vertex, so translating a shape far from the origin costs no
accuracy, but planning refuses a chord shorter than 1e9 times the rounding of
its largest coordinate.
"""

import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .polynomials import (
    BalanceProblem,
    PhysicalityError,
    _as_integer,
    _as_number,
    _as_point,
    _unchecked,
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
    Simplex,
    _edge_array,
    regular_polygon,
    shape_from_dict,
    shape_to_dict,
)

_COLLINEAR_RTOL = 1e-12
_BETA_ATOL = 1e-9  # how far a chord's beta may sit from the ratio of its points
_BOUNDARY_RTOL = 1e-9
_MIN_EXCISION_MARGIN = 1e-9  # scale ratios this close to 1 leave no usable cavity
_BISECTION_STEPS = 256
_POLYGON_DRAWS = 8  # no draw at scale 1 was refused in 3,600 polygons of 3 to 2,000 vertices


def area(shape: Shape) -> float:
    """Exact area (volume for k > 2): the shape's ``measure``."""
    return shape.measure()


def centroid(shape: Shape) -> Point:
    return shape.centroid()


def _rounding_note(chord: "Chord") -> str:
    """'' when the chord's coordinates resolve its length, else why they do not.

    Rounding a coordinate of magnitude M moves it by up to about M * eps, so
    ratios along a chord of length L are off by about M * eps / L; beyond
    the tolerance ``Chord`` allows beta, rounding alone decides its checks.
    """
    magnitude = max(map(abs, chord.tangent_point + chord.far_point + chord.centroid))
    rounding = magnitude * sys.float_info.epsilon
    length = chord.length
    if rounding <= _BETA_ATOL * length:
        return ""
    shift = rounding / length if length else math.inf
    return (
        f"; the chord is {length:.3g} long but coordinates reach {magnitude:.3g}, and "
        f"rounding them ({rounding:.2g}) moves ratios along it by {shift:.2g}: "
        "translate the shape toward the origin"
    )


def _extent(shape: Shape) -> float:
    """The largest side of the body's bounding box, kept with the body from its first use."""
    if "_extent" not in shape.__dict__:
        lo, hi = shape.bbox()
        shape.__dict__["_extent"] = float(np.max(hi - lo))
    return shape.__dict__["_extent"]


def _require_planar(shape: Shape) -> None:
    if shape.dim != 2:
        raise ValueError(f"a planar shape is needed, got a {shape.kind} of dimension {shape.dim}")


@dataclass(frozen=True)
class Chord:
    """Chord through the centroid: tangency end O, centroid C, far end Q.

    ``beta`` is |OC|/|OQ|.  The three points, of any common dimension, are
    collinear by construction; C lies strictly between the ends.  The
    constructor checks all of this; the chords the library builds from a
    body's exits hold it by construction and skip the checks.
    """

    tangent_point: Point
    far_point: Point
    centroid: Point
    beta: float

    def __post_init__(self):
        o = _as_point(self.tangent_point, "chord tangent_point")
        q = _as_point(self.far_point, "chord far_point", len(o))
        c = _as_point(self.centroid, "chord centroid", len(o))
        beta = _as_number(self.beta, "chord beta")
        object.__setattr__(self, "tangent_point", o)
        object.__setattr__(self, "far_point", q)
        object.__setattr__(self, "centroid", c)
        object.__setattr__(self, "beta", beta)
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
            raise ValueError("centroid is not on the chord line" + _rounding_note(self))
        if not 0.0 < beta < 1.0:
            raise ValueError(f"chord beta must be in (0, 1), got {beta}")
        if abs(beta - along) > _BETA_ATOL:
            raise ValueError("beta inconsistent with the stored points" + _rounding_note(self))

    @property
    def length(self) -> float:
        return math.dist(self.tangent_point, self.far_point)


def _centroid_chord(shape: Shape, u) -> Chord:
    """Chord through the centroid along the unit vector ``u``, in any dimension.

    The tangency end O is where the ray along -u leaves the body, the far end
    Q where the ray along u does.  Centrally symmetric bodies have beta
    exactly 1/2, both ends from the ray along u; polygons and simplices take
    both ends from one pass over their facets.  The chord is collinear and
    its beta the ratio of its points by construction, so it is built without
    ``Chord``'s checks; a chord too short to resolve at its coordinates is
    refused where it is planned.
    """
    c = shape.centroid()
    if shape.centrally_symmetric:
        t_far = t_back = shape.exit_parameter(c, u)
        beta = 0.5
    else:
        t_far, t_back = shape._centroid_exits(u)
        beta = t_back / (t_far + t_back)
    return _unchecked(
        Chord,
        tangent_point=tuple([a - t_back * b for a, b in zip(c, u)]),
        far_point=tuple([a + t_far * b for a, b in zip(c, u)]),
        centroid=c,
        beta=beta,
    )


def chord_through_centroid(shape: Shape2D, theta: float) -> Chord:
    """Chord through the centroid of a planar shape along direction ``theta``
    (a finite number, in radians): the tangency end is the boundary crossing
    opposite the direction."""
    theta = _as_number(theta, "theta")
    _require_planar(shape)
    return _centroid_chord(shape, (math.cos(theta), math.sin(theta)))


def beta_complement(shape: Shape2D, theta: float) -> tuple[float, float]:
    """Offsets of the same chord traversed both ways; the pair sums to 1."""
    theta = _as_number(theta, "theta")
    return (
        chord_through_centroid(shape, theta).beta,
        chord_through_centroid(shape, theta + math.pi).beta,
    )


def _bisect_chord(rows: list, target: float, lo: float, hi: float, g_lo: float, tol: float) -> float:
    """The first midpoint of the sweep interval [lo, hi], across which beta - target
    changes sign (only that of ``g_lo``, at ``lo``, is read), whose beta by
    ``_exit_distances`` on the interval's ``rows`` is within ``tol`` of ``target``.
    Raises RuntimeError once the midpoint no longer falls strictly between the
    ends (float spacing exhausted) or after 256 steps.
    """
    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        _, _, t_far, t_back = _exit_distances(rows, mid)
        g_mid = t_back / (t_far + t_back) - target
        if abs(g_mid) <= tol:
            return mid
        if (g_mid > 0.0) == (g_lo > 0.0):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    raise RuntimeError(f"bisection did not reach tolerance {tol} in [{lo!r}, {hi!r}]")


def _exit_distances(rows: list, theta: float) -> tuple[float, float, float, float]:
    """(u_x, u_y, t_far, t_back) along theta: the nearest crossings along +u and -u of
    the edges in the sweep ``rows`` that face each way, as ``exit_parameter`` takes them."""
    ux, uy = math.cos(theta), math.sin(theta)
    far = [d / f for d, ex, ey, *_ in rows if (f := ux * ey - uy * ex) > 0.0]
    back = [d / f for *_, d, fx, fy in rows if (f := -ux * fy + uy * fx) > 0.0]
    return ux, uy, min(far, default=math.inf), min(back, default=math.inf)


def _sweep_frame(shape: Shape2D) -> tuple:
    """The target-independent part of the offset sweep, over a full turn from theta0.

    theta0 is the direction from the centroid C to vertex 0.  The breakpoints
    are the directions from C to every vertex and their opposites; between
    two of them the ray along u = (cos theta, sin theta) leaves through one
    edge i and the ray along -u through one edge j.  With edge i written as
    n_i . x = d_i relative to C (outward normal n_i),

        beta = d_j (n_i . u) / (d_j (n_i . u) - d_i (n_j . u)),

    a ratio of two linear forms in u: monotone on the interval, and equal
    to a target only where [(1 - target) d_j n_i + target d_i n_j] . u = 0.
    Returns the breakpoint directions (theta0 first, theta0 + 2 pi last), beta at
    both ends of each interval by its edges, each interval's mid-direction and edges
    as rows (d_i, e_i, d_j, e_j), and the index of theta0 + pi, where a half turn
    ends: 10 read-only floats a breakpoint, kept with the shape from its first search.
    """
    if "_sweep_frame" in shape.__dict__:
        return shape.__dict__["_sweep_frame"]
    v = shape.vertex_array
    if isinstance(shape, Simplex) and np.linalg.det(v[1:] - v[0]) < 0.0:
        v = v[[0, 2, 1]]  # its edges walked counterclockwise, as a polygon's are
    e = _edge_array(v)
    p = v - np.asarray(shape.centroid())
    d = p[:, 0] * e[:, 1] - p[:, 1] * e[:, 0]  # d_i, with n_i = (e_y, -e_x)
    theta0 = math.atan2(p[0, 1], p[0, 0])
    # vertex directions relative to theta0, increasing counterclockwise
    r = np.mod(np.arctan2(p[:, 1], p[:, 0]) - theta0, 2.0 * math.pi)
    r[0] = 0.0  # so pi, opposite vertex 0, is a breakpoint
    s = np.sort(np.concatenate((r, np.mod(r + math.pi, 2.0 * math.pi))))
    # distinct breakpoints (np.unique would import numpy.ma, ~10 ms, on first use)
    keep = np.concatenate(([True], s[1:] > s[:-1])) & (s < 2.0 * math.pi)
    s = np.concatenate((s[keep], [2.0 * math.pi]))
    mid = 0.5 * (s[:-1] + s[1:])
    i = np.searchsorted(r, mid, side="right") - 1
    j = np.searchsorted(r, np.mod(mid + math.pi, 2.0 * math.pi), side="right") - 1
    thetas = theta0 + s
    # beta at the start (row 0) and end (row 1) of each interval, by its own edges
    ux, uy = (np.stack((w[:-1], w[1:])) for w in (np.cos(thetas), np.sin(thetas)))
    t_far = d[i] / (ux * e[i, 1] - uy * e[i, 0])
    t_back = d[j] / (-ux * e[j, 1] + uy * e[j, 0])
    arrays = (thetas, t_back / (t_far + t_back), theta0 + mid,
              np.column_stack((d[i], e[i], d[j], e[j])))
    for a in arrays:
        a.flags.writeable = False
    return shape.__dict__.setdefault("_sweep_frame", (*arrays, int(np.searchsorted(s, math.pi))))


def _chords_with_offset(shape: Shape2D, target: float, tol: float, turn: float) -> Iterator[Chord]:
    """One chord per root of beta(theta) - target in [theta0, theta0 + turn), in order.

    ``turn`` is pi or 2 pi; a half turn is a prefix of the shape's ``_sweep_frame``.
    A breakpoint within tol/2 of the target is a root; a run of them (beta
    constant at the target, as on an even regular polygon) counts once, at its
    first breakpoint.  Otherwise each interval whose ends differ in sign holds one
    root, in closed form and clipped into it; no interval does both, so interval
    order is angular order.  ``_exit_distances`` reads each chord off the rows of its
    interval and the two beside it, since within rounding of a breakpoint the exit
    edge may be a neighbour's.  A chord rounding left outside ``tol`` is bisected
    on those rows; a root no floating-point angle resolves (beta can change faster
    than ``tol`` between neighbouring angles on a very thin polygon) is left out.
    With no root at all, or none resolved, raises ValueError; the first names the
    offsets at the breakpoints a chord can start from.  Centrally symmetric shapes
    yield the horizontal chord.  A body that is not planar raises ValueError.
    """
    _require_planar(shape)
    tol = _as_number(tol, "tol")  # inf would pass any chord as a root
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if shape.centrally_symmetric:
        if abs(target - 0.5) > tol:
            raise ValueError("centrally symmetric shapes only admit beta = 1/2")
        yield chord_through_centroid(shape, 0.0)
        return
    thetas, ends, mids, edges, half = _sweep_frame(shape)
    m = half if turn < 2.0 * math.pi else len(mids)  # the intervals swept
    # each breakpoint reads the interval after it, the last one the interval before
    thetas, g = thetas[:m + 1], np.concatenate((ends[0, :m], ends[1, m - 1:m])) - target
    hit = np.abs(g) <= 0.5 * tol
    begins = hit[:-1] & ~np.concatenate(([False], hit[:-2]))
    crosses = ~hit[:-1] & ~hit[1:] & ((g[:-1] > 0.0) != (g[1:] > 0.0))
    candidates = np.flatnonzero(begins | crosses).tolist()
    if not candidates:
        raise ValueError(
            f"no chord with offset {target} exists; attainable offsets on this shape "
            f"span [{float(g[:-1].min()) + target!r}, {float(g[:-1].max()) + target!r}]"
        )
    resolved = False
    cx, cy = shape.centroid()
    for k in candidates:
        rows = [edges[i].tolist() for i in (k - 1, k, (k + 1) % len(edges))]
        (lo, hi), mid = thetas[k:k + 2].tolist(), float(mids[k])
        theta = lo
        if not hit[k]:
            # n = (e_y, -e_x), so the root u is parallel to the same combination
            # of edge vectors; of its two orientations, take the one inside the interval
            d_i, eix, eiy, d_j, ejx, ejy = rows[1]
            rx = (1.0 - target) * d_j * eix + target * d_i * ejx
            ry = (1.0 - target) * d_j * eiy + target * d_i * ejy
            mx, my = math.cos(mid), math.sin(mid)
            along, across = mx * rx + my * ry, mx * ry - my * rx
            side = -1.0 if along < 0.0 else 1.0
            theta = min(max(mid + float(np.arctan2(side * across, side * along)), lo), hi)
        ux, uy, t_far, t_back = _exit_distances(rows, theta)
        if not abs(t_back / (t_far + t_back) - target) <= tol:
            try:
                theta = _bisect_chord(rows, target, lo, hi, float(g[k]), tol)
            except RuntimeError:
                continue
            ux, uy, t_far, t_back = _exit_distances(rows, theta)
        resolved = True
        # as in _centroid_chord, built without Chord's checks
        yield _unchecked(Chord, tangent_point=(cx - t_back * ux, cy - t_back * uy),
                         far_point=(cx + t_far * ux, cy + t_far * uy), centroid=(cx, cy),
                         beta=t_back / (t_far + t_back))
    if not resolved:
        raise ValueError(
            f"no angle gives a chord with offset within {tol} of {target} on this shape: "
            "beta changes by more than that between neighbouring floating-point angles"
        )


def find_balanced_chord(shape: Shape2D, tol: float = 1e-12) -> Chord:
    """The first chord counterclockwise from vertex 0 with beta within ``tol`` of 1/2.

    Reversing a chord complements beta, so beta - 1/2 changes sign on any
    half-turn unless it is zero there; the angular sweep about the centroid
    finds the first root in [theta0, theta0 + pi), theta0 being the direction
    of vertex 0, that some floating-point angle resolves within ``tol``
    (ValueError if none does).  Centrally symmetric shapes return the
    horizontal chord.
    """
    return next(_chords_with_offset(shape, 0.5, tol, math.pi))


def find_chord_with_beta(shape: Shape2D, beta_target: float, tol: float = 1e-12) -> Chord:
    """Chord whose centroid offset matches ``beta_target`` within ``tol``.

    Returns the first root of beta(theta) - target in [theta0, theta0 + 2 pi)
    (each geometric chord appears twice there, with complementary offsets),
    found by the exact angular sweep.  Raises ValueError when no chord has
    the requested offset, naming the exact range of offsets the shape
    attains: convex planar bodies only admit offsets in [1/3, 2/3] (the
    centroid cuts every chord through it no more unevenly than 2:1), and
    round shapes a narrower band.  Roots no
    floating-point angle resolves within ``tol`` are passed over, as in
    ``scan_balanced_chords``; if that leaves none, ValueError says so.
    """
    beta_target = _as_number(beta_target, "beta target")
    if not 0.0 < beta_target < 1.0:
        raise ValueError(f"beta target must be in (0, 1), got {beta_target}")
    return next(_chords_with_offset(shape, beta_target, tol, 2.0 * math.pi))


def scan_balanced_chords(shape: Shape2D, *, tol: float = 1e-12) -> list[Chord]:
    """Every beta = 1/2 chord, one per root in [theta0, theta0 + pi), by angle.

    Complements mean a full turn carries the same chords twice, so the
    sweep covers a half-turn from the direction of vertex 0.  Since
    beta(theta + pi) = 1 - beta(theta), beta - 1/2 changes sign an odd number
    of times on it, so the count is odd wherever the roots are simple.  On very thin
    polygons beta can change by more than ``tol`` between neighbouring
    floating-point angles; such roots are left out, and ValueError is raised
    if every root is.  For centrally symmetric shapes every direction
    balances; the horizontal chord is returned alone.
    """
    return list(_chords_with_offset(shape, 0.5, tol, math.pi))


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
    solves the balance polynomial for the chord's beta.  ``scale_ratio`` is
    read as a finite number before it is tested for a cavity.
    """
    scale_ratio = _as_number(scale_ratio, "scale ratio")
    if not scale_ratio > 1.0 + _MIN_EXCISION_MARGIN:
        raise PhysicalityError(
            f"scale ratio {scale_ratio} leaves no cavity strictly inside the body"
        )
    if not chord.length > 0.0:  # a search's chord on a body too small for its coordinates
        raise ValueError("chord endpoints coincide" + _rounding_note(chord))
    inv = 1.0 / scale_ratio
    o = chord.tangent_point
    return ExcisionPlan(
        shape=shape,
        chord=chord,
        scale_ratio=scale_ratio,
        cavity=shape.scaled_about(o, inv),
        balance_point=tuple([a + (b - a) * inv for a, b in zip(o, chord.far_point)]),
    )


def _tangency_chord(shape: Shape, o: Point, given: Chord | None = None) -> Chord:
    """The centroid chord whose tangency end is the boundary point O.

    The chord is built from the centroid C along u = (C - O)/|OC|
    (``_centroid_chord``).  On a convex body the ray from C through a boundary
    point leaves the body there, so O is refused unless it lies within
    ``_BOUNDARY_RTOL`` times the body's extent of the rebuilt tangency end,
    and as coinciding with C within 1e-12 times the extent.  A ``given`` chord
    is refused unless its centroid and far end lie within the same distance
    of C and of the rebuilt far end.  Every tolerance is relative to the
    extent alone, with no floor, so scaling the body and O by a power of two
    changes no verdict.  Each distance is taken along the ray from C, not at
    right angles to the boundary: a
    point d from the boundary lies about d / sin(a) from the rebuilt end where
    the ray meets the boundary at angle a, so on a thin body a point is held
    to sin(a) times the tolerance.
    """
    c = shape.centroid()
    scale = _extent(shape)
    tol = _BOUNDARY_RTOL * scale
    if given is not None and math.dist(given.centroid, c) > tol:
        raise ValueError("chord centroid does not match the shape centroid")
    oc = math.dist(c, o)
    if oc <= 1e-12 * scale:
        raise ValueError("tangency point coincides with the centroid")
    chord = _centroid_chord(shape, tuple([(b - a) / oc for a, b in zip(o, c)]))
    if math.dist(chord.tangent_point, o) > tol:
        raise ValueError(f"tangency point {o} is not on the shape boundary")
    if given is not None and math.dist(chord.far_point, given.far_point) > tol:
        raise ValueError(f"chord endpoint {given.far_point} is not on the shape boundary")
    return chord


def plan_excision(shape: Shape, chord: Chord) -> ExcisionPlan:
    """Solve the balance equation for the chord and build the excision.

    The chord must belong to the shape, by the one check that
    ``plan_excision_kd`` also makes (``_tangency_chord``): the chord rebuilt
    from the shape's centroid C through the tangency end O must end at O and
    at the chord's far end, and the chord's centroid must be C, each within
    ``_BOUNDARY_RTOL`` times the shape's extent, however small, the ends
    measured along the ray from C, not at right angles to the boundary, and
    so held closer to it on a thin body.  The chord given, not the rebuilt
    one, is then planned, so the plan keeps its bits.  The scale ratio is the
    ``positive_root`` value for ``k`` and ``chord.beta``, which no tolerance
    moves.  Requires ``chord.beta < k/(k+1)`` (2/3 in the plane); at or above
    that threshold the balance root does not exceed 1 and no physical cavity
    exists.
    """
    _tangency_chord(shape, chord.tangent_point, chord)
    return _solve_excision(shape, chord)


def _solve_excision(shape: Shape, chord: Chord) -> ExcisionPlan:
    """``plan_excision`` for a chord already known to belong to the shape."""
    note = _rounding_note(chord)
    if note:
        raise ValueError("chord too short to resolve at its coordinates" + note)
    k = shape.dim
    root = positive_root(BalanceProblem(k=k, beta=chord.beta))
    if not root.physical:
        raise PhysicalityError(
            f"beta = {chord.beta} at dimension {k} is at or above "
            f"{physicality_threshold(k)!r}; no balance ratio above 1 exists"
        )
    return excision_with_ratio(shape, chord, root.value)


def composite_centroid(plan: ExcisionPlan) -> Point:
    """Centroid of body minus cavity, by exact measure-weighted subtraction.

    Where a measure times a coordinate overflows (a square of circumradius
    1e103, say), the subtraction is redone with both measures scaled below 1
    by one power of two; that scaling is exact, so wherever both are finite
    they give the same floats.
    """
    a = plan.shape.measure()
    a_cav = plan.cavity.measure()
    if a - a_cav <= 0.0:
        raise ValueError("cavity measure must be strictly smaller than the body measure")
    for e in (0, math.frexp(a)[1]):
        w, w_cav = math.ldexp(a, -e), math.ldexp(a_cav, -e)
        inv = 1.0 / (w - w_cav)
        com = tuple([
            (w * c - w_cav * c_cav) * inv
            for c, c_cav in zip(plan.shape.centroid(), plan.cavity.centroid())
        ])
        if all(map(math.isfinite, com)):
            break
    return com


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

    @property
    def dimension(self) -> int:
        return len(self.balance_point)


def balance_residual(plan: ExcisionPlan) -> float:
    """The balance polynomial of the plan's dimension and offset at its ratio:
    ``evaluate``'s Horner loop over the coefficients of ``build_general``, bit
    for bit, without building either."""
    beta, x = plan.beta, plan.scale_ratio
    c = beta - 1.0
    acc = 0.0 * x + beta  # evaluate's first step, from 0.0: NaN at an infinite ratio
    for _ in range(plan.shape.dim):
        acc = acc * x + c
    return acc


def verify_balance(plan: ExcisionPlan, tol: float = 1e-10) -> BalanceReport:
    """Measure how far the remainder centroid is from the balance point.

    The plan's moments are the ones that built it, so ``relative_distance``
    is the rounding noise of the check, not a bound on the error of the
    exact geometry; Monte Carlo checks the moments independently.
    """
    tol = _as_number(tol, "tol")  # inf would pass every plan, NaN none
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
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
    )


def regular_polygon_betas(n: int) -> tuple[float, float]:
    """Centroid offsets of an odd regular n-gon's two symmetric excisions.

    Tangency at a vertex gives beta = 1/(1 + cos(pi/n)); tangency at the
    midpoint of the opposite side gives the complement cos(pi/n)/(1 + cos(pi/n)).
    Even n is rejected: every vertex-to-vertex chord there already has
    beta = 1/2.
    """
    n = _as_integer(n, "n", 3, sys.maxsize)
    if n % 2 == 0:
        raise ValueError(f"defined for odd n >= 3, got {n}")
    c = math.cos(math.pi / n)
    return (1.0 / (1.0 + c), c / (1.0 + c))


def boundary_points(shape: Shape2D, count: int) -> list[Point]:
    """``count`` points along the boundary (arc-length spaced for polygons) of a
    polygon, an ellipse or a circle; any other body raises ValueError."""
    if not isinstance(shape, Shape2D):
        raise ValueError(f"boundary points are drawn on a polygon, an ellipse or a circle, "
                         f"got a {shape.kind} of dimension {shape.dim}")
    return shape.boundary_points(_as_integer(count, "count", 1, sys.maxsize))


def random_convex_polygon(
    n_vertices: int, rng: "np.random.Generator", scale: float = 1.0
) -> Polygon:
    """Random strictly convex polygon with exactly ``n_vertices`` vertices.

    Valtr's construction: draw coordinate pools, split each into two
    monotone chains, pair the resulting displacement components at random,
    and sort the displacement vectors by angle.  The angular sort makes the
    cumulative path convex and counterclockwise.  ``n_vertices`` must be an
    integer of at least 3, and ``scale`` a finite nonzero number.  A draw the
    polygon check refuses (an angular tie, which has measure zero) is
    redrawn, up to ``_POLYGON_DRAWS`` draws in all; the last refusal is
    raised, as for a scale at which every polygon's area is beyond binary64.
    """
    n_vertices = _as_integer(n_vertices, "n_vertices", 3, sys.maxsize)
    scale = _as_number(scale, "scale")
    if scale == 0.0:
        raise ValueError(f"scale must be nonzero, got {scale!r}")

    def deltas(values: np.ndarray) -> np.ndarray:
        values = np.sort(values)
        lo, hi = values[0], values[-1]
        interior = values[1:-1]
        mask = rng.random(interior.size) < 0.5
        up = np.concatenate(([lo], interior[mask], [hi]))
        down = np.concatenate(([lo], interior[~mask], [hi]))
        return np.concatenate((np.diff(up), -np.diff(down)))

    for draw in range(_POLYGON_DRAWS):
        dx = deltas(rng.random(n_vertices))
        dy = deltas(rng.random(n_vertices))
        rng.shuffle(dy)
        order = np.argsort(np.arctan2(dy, dx))
        xs = np.cumsum(dx[order]) * scale
        ys = np.cumsum(dy[order]) * scale
        xs -= xs.mean()
        ys -= ys.mean()
        try:
            return Polygon(list(zip(xs.tolist(), ys.tolist())))
        except ValueError:
            if draw == _POLYGON_DRAWS - 1:
                raise
