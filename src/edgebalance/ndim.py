"""The excision construction in k dimensions.

The balance argument is dimension generic: chord offset beta and dimension k
fix the scale ratio through the order-k balance polynomial, independent of
the body's shape constant.  The bodies (``edgebalance.shapes``) and the
excision pipeline (``edgebalance.planar``) are the same for every k; this
module adds the k-dimensional entry point, which takes a tangency point
instead of a chord direction, and keeps the k-dimensional names of the
shared pipeline as aliases.  Any body works here, planar ones included;
hyperballs, axis-aligned hypercubes and simplices are the k-dimensional
families with closed-form volume and centroid, so verification stays
exact; general convex polytopes (which would need k-dim triangulation) are
out of scope.  Bodies are validated where they are built (finite numbers,
positive sizes, non-degenerate simplices, 1 <= k <= 64); the tangency point
must lie on the boundary.

Balls and cubes are centrally symmetric, so every chord through the centroid
has beta = 1/2.  Simplices are not; ``balanced_boundary_point`` finds a
beta = 1/2 tangency for them by bisecting along a boundary path from a facet
centroid (offset 1/(k+1)) to a vertex of that facet (offset k/(k+1)).  A
balanced-chord search for arbitrary k-dimensional convex bodies is not
implemented.

Dimensions are capped at 64: beyond that the beta = 1/2 ratio is one ulp
from 2 in binary64 and the geometry adds nothing.
"""

import numpy as np

from .planar import (
    Chord,
    ExcisionPlan,
    _bisect_sign_change,
    _extent,
    _solve_excision,
    area,
    centroid,
    composite_centroid,
    excision_with_ratio,
    verify_balance,
)
from .shapes import (  # the k-dimensional shape API is re-exported from here
    Hyperball,
    Hypercube,
    Point,
    ShapeKd,
    Simplex,
    _as_point,
    shape_from_dict,
    shape_to_dict,
)

ExcisionPlanKd = ExcisionPlan
volume_kd = area
centroid_kd = centroid
composite_centroid_kd = composite_centroid
verify_balance_kd = verify_balance
shape_kd_from_dict = shape_from_dict
shape_kd_to_dict = shape_to_dict
barycentric_coordinates = Simplex.barycentric


def _exit_parameter(shape: ShapeKd, origin, u) -> float:
    """Largest t with origin + t*u still in the shape, for unit u pointing inward."""
    return shape.exit_parameter(origin, u)


def excision_with_ratio_kd(
    shape: ShapeKd, tangent_point, far_point, scale_ratio: float
) -> ExcisionPlan:
    """Plan with an explicit ratio; verification fails unless it solves the
    balance equation for the chord's offset."""
    o, q, c = (np.asarray(p, dtype=float) for p in (tangent_point, far_point, shape.centroid()))
    beta = float(np.linalg.norm(c - o) / np.linalg.norm(q - o))
    return excision_with_ratio(shape, Chord(o, q, c, beta), scale_ratio)


def plan_excision_kd(
    shape: ShapeKd, tangent_point, direction=None, tol: float = 1e-12
) -> ExcisionPlan:
    """Excision tangent at a boundary point, chord through the centroid.

    The chord direction is forced by the construction (it must contain the
    centroid); a ``direction`` argument, when given, is only checked for
    agreement.  Requires ``beta < k/(k+1)``, otherwise the balance root does
    not exceed 1 and PhysicalityError is raised.
    """
    k = shape.dim
    tangent_point = _as_point(tangent_point)
    if len(tangent_point) != k:
        raise ValueError(f"tangency point has dimension {len(tangent_point)}, shape has {k}")
    scale = max(_extent(shape), 1.0)
    if not shape.on_boundary(tangent_point, 1e-9 * scale):
        raise ValueError(f"tangency point {tangent_point} is not on the shape boundary")
    o = np.asarray(tangent_point)
    c = np.asarray(shape.centroid())
    oc = np.linalg.norm(c - o)
    if oc <= 1e-12 * scale:
        raise ValueError("tangency point coincides with the centroid")
    u = (c - o) / oc
    if direction is not None:
        d = np.asarray(_as_point(direction))
        norm = np.linalg.norm(d)
        if norm == 0.0:
            raise ValueError("direction must be a nonzero vector")
        if float(np.dot(d / norm, u)) < 1.0 - 1e-9:
            raise ValueError(
                "direction must point from the tangency point through the centroid"
            )
    t_exit = shape.exit_parameter(o, u)
    if t_exit <= oc:
        raise ValueError("centroid chord leaves the body before the centroid")
    chord = Chord(tangent_point=o, far_point=o + t_exit * u, centroid=c, beta=float(oc / t_exit))
    return _solve_excision(shape, chord, tol)


def balanced_boundary_point(shape: ShapeKd, tol: float = 1e-12) -> Point:
    """A tangency point whose centroid chord has offset 1/2.

    On a centrally symmetric body every boundary point works; the one
    returned is where the centroid ray along -x_0 leaves the body.  On a
    simplex the offset varies from 1/(k+1) at a facet centroid to k/(k+1)
    at a vertex; walking the boundary segment between those two and
    bisecting on the measured offset lands on 1/2 (within ``tol``).
    """
    c = np.asarray(shape.centroid())
    if shape.centrally_symmetric:
        u = -np.eye(shape.dim)[0]
        return _as_point(c + shape.exit_parameter(c, u) * u)
    if len(shape.vertices) != shape.dim + 1:
        raise ValueError("balanced_boundary_point needs a centrally symmetric body or a simplex")
    facet_centroid = np.asarray(shape.vertices[1:]).mean(axis=0)  # facet opposite vertex 0
    vertex = np.asarray(shape.vertices[1])  # stays on that facet

    def offset(s: float) -> tuple[np.ndarray, float]:
        o = facet_centroid + s * (vertex - facet_centroid)
        oc = np.linalg.norm(c - o)
        return o, oc / shape.exit_parameter(o, (c - o) / oc) - 0.5

    o, g_lo = offset(0.0)  # = 1/(k+1) - 1/2 <= 0
    if abs(g_lo) > tol:
        o = _bisect_sign_change(offset, 0.0, 1.0, g_lo, tol)
    return _as_point(o)
