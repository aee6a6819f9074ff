"""The excision construction in k dimensions.

The balance argument is dimension generic: chord offset beta and dimension k
fix the scale ratio through the order-k balance polynomial, independent of
the body's shape constant.  The bodies (``edgebalance.shapes``) and the
excision pipeline (``edgebalance.planar``), chord constructor included, are
the same for every k; this module adds the k-dimensional entry point, which
takes a tangency point instead of a chord direction, and keeps the
k-dimensional names of the shared pipeline as aliases.  Any body works here,
planar ones included; hyperballs, axis-aligned hypercubes and simplices are
the k-dimensional families with closed-form volume and centroid, so
verification stays exact; general convex polytopes (which would need k-dim
triangulation) are out of scope.  Bodies are checked where they enter, in
their constructors (finite numbers, positive sizes, simplices whose edge
matrix has its least singular value above 1e-12 times its greatest, so that
no rotation, scale or shift changes the verdict, 1 <= k <= 64).  The
tangency point O fixes the whole chord, which runs from O through the
centroid C and is built from C; O is refused unless it lies, within 1e-9
times the body's extent, where the ray from C through O leaves the body.
That is the one check every plan makes, here and in ``plan_excision``
(``planar._tangency_chord``).

Balls and cubes are centrally symmetric, so every chord through the centroid
has beta exactly 1/2, as in the plane.  Simplices are not;
``balanced_boundary_point`` gives them the closed-form tangency
O = C + (V1 - V0)/(k+1), barycentric coordinates (0, 2, 1, ..., 1)/(k+1): its
reflection 2C - O through the centroid C, (2, 0, 1, ..., 1)/(k+1), is on the
boundary too, so beta is 1/2 up to rounding.  A balanced-chord search for
arbitrary k-dimensional convex bodies is not implemented.

Dimensions are capped at 64: beyond that the beta = 1/2 ratio is one ulp
from 2 in binary64 and the geometry adds nothing.
"""

import numpy as np

from .planar import (
    Chord,
    ExcisionPlan,
    _solve_excision,
    _tangency_chord,
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


def excision_with_ratio_kd(
    shape: ShapeKd, tangent_point, far_point, scale_ratio: float
) -> ExcisionPlan:
    """Plan with an explicit ratio; verification fails unless it solves the
    balance equation for the chord's offset."""
    o = _as_point(tangent_point, "tangency point", shape.dim)
    q = _as_point(far_point, "far point", shape.dim)
    c = shape.centroid()
    beta = float(np.linalg.norm(np.subtract(c, o)) / np.linalg.norm(np.subtract(q, o)))
    return excision_with_ratio(shape, Chord(o, q, c, beta), scale_ratio)


def plan_excision_kd(shape: ShapeKd, tangent_point) -> ExcisionPlan:
    """Excision tangent at a boundary point, chord through the centroid.

    O fixes the direction u = (C - O)/|OC| towards the centroid C.  The chord
    is built from C by the one check ``plan_excision`` also makes,
    ``planar._tangency_chord``: O is refused unless it lies within 1e-9
    times the body's extent (the largest side of its bounding box) of the
    chord's tangency end (on a convex body the ray from C through a boundary
    point leaves there).  The tolerance scales with the body, so a circle
    of radius 1e-12 refuses a point 100 radii out, as a unit circle does.  As
    in ``plan_excision``, the scale ratio is the ``positive_root`` value for
    ``k`` and the chord's beta.  Requires ``beta < k/(k+1)``, otherwise the balance root does not
    exceed 1 and PhysicalityError is raised.
    """
    o = _as_point(tangent_point, "tangency point", shape.dim)
    return _solve_excision(shape, _tangency_chord(shape, o))


def balanced_boundary_point(shape: ShapeKd) -> Point:
    """A tangency point whose centroid chord has offset 1/2.

    On a centrally symmetric body every boundary point works; the one
    returned is where the centroid ray along -x_0 leaves the body.  On a
    simplex it is C + (V1 - V0)/(k+1), on the facet opposite V0, whose
    reflection through the centroid C lies on the facet opposite V1.
    """
    c = shape.centroid()
    if shape.centrally_symmetric:
        x0, *rest = c
        return (x0 - shape.exit_parameter(c, (-1.0,) + (0.0,) * len(rest)), *rest)
    if len(shape.vertex_array) != shape.dim + 1:
        raise ValueError("balanced_boundary_point needs a centrally symmetric body or a simplex")
    v0, v1 = shape.vertex_array[:2]
    return tuple((np.asarray(c) + (v1 - v0) / (shape.dim + 1)).tolist())
