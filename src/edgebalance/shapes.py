"""Convex bodies in any dimension, all behind one geometry protocol.

Every body class implements the same methods, so the excision pipeline
never asks which shape it holds:

``dim``                    the dimension k
``measure()``              exact area (k = 2) or volume
``centroid()``             exact centroid, as a tuple; both moments are computed
                           and checked once, where the body is built, and kept
``bbox()``                 (lower, upper) corners of the axis-aligned bounding box
``contains(points, work=None)``
                           membership mask for an (m, k) float array, boundary inside;
                           it reads the array column by column, so column-major
                           (Fortran-ordered) input is the fast layout.  ``work``, a
                           flat float64 block of at least 2 m k floats, is scratch
                           that the ball, cube and simplex kernels work their (k, m)
                           arrays in, in whole-array calls, writing before they read
                           it; the Monte Carlo sampler lends one block, two floats per
                           coordinate of a chunk of 2 * CHUNK_ROWS coordinates, to
                           every call.  Without it a kernel allocates its own.
``exit_parameter(o, u)``   largest t with o + t*u in the body, for o in the body
``scaled_about(o, f)``     the image under the homothety about o with factor f > 0
``to_dict()``              the JSON form that ``shape_from_dict`` reads back
``centrally_symmetric``    True when every chord through the centroid has offset 1/2

Polygons, simplices and cubes are polytopes: one half-space base gives them
``exit_parameter`` from each facet's distance and rate.  It also gives them
a two-sided exit for chords through the centroid: the facet distances at
the centroid are kept with the body, and one evaluation of the rates along
u yields both ends, the exit along u from the facets of negative rate and
the exit along -u from those of positive rate, each the same float as
``exit_parameter`` gives.
Polygons and simplices hold their vertices as ``vertex_array``, one
read-only float64 array built once, which their methods read.  Two facts are
derived from it on first read, and kept: ``vertices``, the same numbers as
tuples of Python floats, and a polygon's read-only ``edge_array``, row i
being vertex i + 1 minus vertex i (a polygon built from input keeps the
edges its validation forms).  Every array a body holds, its caches
included, is read-only, and so is every array of a copy (``copy``,
``pickle``).

A polygon of at least ``PREFILTER_MIN_VERTICES`` vertices screens the
points of ``contains`` before its edge test, with a table of
``PREFILTER_SECTORS`` equal angular sectors about its centroid built on
first use in O(n + sectors).  Each sector has an inner and an outer squared
radius, each ``PREFILTER_MARGIN`` of the diameter clear of every edge line:
a point inside the inner one is inside, beyond the outer one outside, by a
depth far above the edge test's rounding.  Each point between its sector's
two radii is located in its wedge, between the rays from the centroid to two
consecutive vertices, by a search over the vertex angles, and tested with the
edge loop's arithmetic against that wedge's edge alone.  It is outside where
that test fails, since the loop fails the same edge; inside where it passes
by a depth that leaves every other edge passing too (``_sectors``); and the
few points between take the loop itself.  So every decision is the loop's,
and every polygon with a table takes the one route.

Input is checked where it enters, in each class's constructor.  Every
point and number a caller gives, from Python or from a JSON shape file, is
read by the readers of ``edgebalance.polynomials`` (``_as_point``,
``_as_number``, ``_as_integer``), which name the body and field they
refuse, and stored as Python floats.  Every coordinate and size must be a
finite number, sizes positive, polygons strictly convex, counterclockwise
and winding exactly once (checked in vectorised form on the array),
simplices affinely independent (the least singular value of the edges out
of vertex 0 above 1e-12 times the greatest, a numerical rank that
rotation, scale and shift leave alone), dimensions in
1..64, the measure a positive normal float and the centroid finite.  A body
derived from a checked one trusts that check: ``scaled_about`` checks only
its origin and factor, since a positive homothety keeps a body convex,
counterclockwise and non-degenerate, and builds the image without the
constructor.  Only the image's moments, and a ball's radius squared, are
checked, computed by formula as at construction, so that a measure the
scaling takes out of binary64 is still refused.  A polygon's or simplex's
image holds only its vertex array, and planning and verification read
neither its tuples nor its edges.

Where a ball's r^k or a simplex's determinant overflows, its measure is taken
in logarithms (``math.lgamma``, ``np.linalg.slogdet``); where a polygon's fan
overflows, it is redone on offsets scaled by a power of two, and where an
ellipse's pi * a does, the area is pi * (a * b).  So every measure that
binary64 holds builds, but for a 1-D ball whose radius squared does not fit,
which its membership and exit tests would overflow; every other measure is
the direct formula's float.
"""

import math
import sys
from dataclasses import MISSING, dataclass, fields
from functools import cached_property
from typing import ClassVar, NamedTuple

import numpy as np

from .polynomials import MAX_DIMENSION, _as_integer, _as_list, _as_number, _as_point, _unchecked

# Polygons with at least this many vertices screen points by angular sectors
# about the centroid before the edge loop; below it the loop alone is cheaper.
PREFILTER_MIN_VERTICES = 12
# Depth, as a fraction of the polygon's diameter, of the band about the
# boundary that the sector screen leaves to the edge test: a point it decides
# lies at least this far inside every edge line, or outside one.  Rounding
# moves an edge test by about 1e-15 of the diameter, so such a point lies far
# beyond it.
PREFILTER_MARGIN = 1e-9
# Equal angular sectors of the screen's table, each with its own two radii.
PREFILTER_SECTORS = 256

Point = tuple[float, ...]


def _scale_point(p: Point, origin, factor: float) -> Point:
    return tuple([o + (x - o) * factor for x, o in zip(p, origin)])


def _scratch(work: np.ndarray | None, shape: tuple[int, ...], dtype=float) -> np.ndarray:
    """An uninitialised ``dtype`` array of ``shape``: the front of the flat
    float64 block ``work``, viewed as ``dtype``, where one is lent, else a new
    one.  A block too small for it raises ValueError."""
    if work is None:
        return np.empty(shape, dtype)
    return work.view(dtype)[: math.prod(shape)].reshape(shape)


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only: every array a body holds, cached ones included, is."""
    a.flags.writeable = False
    return a


def _vertex_array(body, vertices: list, width: int) -> np.ndarray:
    """Store ``vertices``, the list read from the input ``body.vertices``, as
    the read-only (n, width) float64 ``body.vertex_array`` in its place, each
    vertex read by ``_as_point``."""
    del body.__dict__["vertices"]
    v = np.array([_as_point(p, f"{body.kind} vertex", width) for p in vertices])
    object.__setattr__(body, "vertex_array", _read_only(v))
    return v


class _VertexTuples:
    """The ``vertices`` field of a polygon or simplex: tuples of Python floats
    made from ``vertex_array``, and kept, the first time they are read, by
    every body, built or scaled.  A non-data descriptor: once kept, the tuples
    are read from the instance without calling it."""

    def __get__(self, body, owner=None):
        if body is None:  # read on the class: the dataclass field has no default
            raise AttributeError("vertices")
        vertices = body.__dict__["vertices"] = tuple([tuple(p) for p in body.vertex_array.tolist()])
        return vertices


def _refuse_unread_keys(kind: str, data: dict, names) -> None:
    """A key the loader does not read would otherwise be dropped without a word."""
    unread = [key for key in data if key != "type" and key not in names]
    if unread:
        raise ValueError(f"{kind} shape does not take {', '.join(map(repr, unread))}")


def _plain(value):
    """Tuples as JSON lists, recursively."""
    return [_plain(v) for v in value] if isinstance(value, tuple) else value


class ConvexBody:
    """Base of the six body classes: the JSON round trip, the moments and the
    homothety they share.

    Each class gives ``_moments()``, its measure and centroid by formula;
    ``_require_moments`` evaluates it once, at construction, and keeps both.
    Each also gives ``_scaled(o, f)``, its fields and arrays under the
    homothety, from which ``scaled_about`` builds the image.
    """

    kind: ClassVar[str]
    centrally_symmetric: ClassVar[bool] = False

    def __setstate__(self, state: dict) -> None:
        """Restore a copy (``copy``, ``pickle``).  numpy hands the copy's arrays
        back writeable; each one it holds, alone or in a tuple (a cache such as
        the sweep frame), is made read-only again, as every array a body holds
        is in the original."""
        for value in state.values():
            for a in value if isinstance(value, tuple) else (value,):
                if isinstance(a, np.ndarray):
                    _read_only(a)
        self.__dict__.update(state)

    def _require_moments(self) -> None:
        """Compute the measure and centroid once and keep them; refuse a measure
        that is not a positive normal float, or a centroid not finite."""
        try:
            measure, centroid = self._moments()
        except OverflowError:  # a power, an exponential, or a polygon's area scaled back
            measure, centroid = math.inf, ()
        if not sys.float_info.min <= measure < math.inf:
            raise ValueError(f"{self.kind} measure {measure!r} is not a positive normal float")
        if not all(map(math.isfinite, centroid)):
            raise ValueError(f"{self.kind} centroid is not finite in binary64")
        object.__setattr__(self, "_measure", measure)
        object.__setattr__(self, "_centroid", centroid)

    def measure(self) -> float:
        """Exact area (k = 2) or volume, as computed where the body was built."""
        return self._measure

    def centroid(self) -> Point:
        """Exact centroid, as computed where the body was built."""
        return self._centroid

    def scaled_about(self, origin, factor: float) -> "ConvexBody":
        """The image under the homothety about ``origin`` with ``factor`` > 0.

        Only the two arguments are checked: the image of a checked body under
        a positive homothety is valid, so it is built from the body's scaled
        fields (``_scaled``) without the constructor.  Its moments are computed
        by formula and refused as at construction.
        """
        o = _as_point(origin, "homothety origin", self.dim)
        f = _as_number(factor, "homothety factor")
        if not f > 0.0:
            raise ValueError(f"homothety factor must be positive, got {f}")
        body = _unchecked(type(self), **self._scaled(o, f))
        body._require_moments()
        return body

    def to_dict(self) -> dict:
        return {"type": self.kind, **{f.name: _plain(getattr(self, f.name)) for f in fields(self)}}

    @classmethod
    def from_dict(cls, data: dict) -> "ConvexBody":
        _refuse_unread_keys(cls.kind, data, [f.name for f in fields(cls)])
        return cls(
            **{f.name: data[f.name] for f in fields(cls) if f.name in data or f.default is MISSING}
        )


class _Polytope(ConvexBody):
    """Base of the bodies cut out by finitely many half-spaces (facets).

    A subclass gives ``_facet_distances(p)``, how far p lies inside each
    facet (negative outside), and ``_facet_rates(u)``, how fast those
    distances change along u; the exits follow from them.  The
    vertex polytopes (polygons, simplices) share ``bbox`` and ``_scaled``
    over their ``vertex_array``; the cube keeps its own.
    """

    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        v = self.vertex_array
        return v.min(axis=0), v.max(axis=0)

    def _scaled(self, o: Point, f: float) -> dict:
        return {"vertex_array": _read_only(np.add(o, (self.vertex_array - o) * f))}

    def exit_parameter(self, origin, u) -> float:
        """The nearest crossing among the facets the ray faces.  From the
        centroid itself (``origin is centroid()``) the facet distances are
        the kept ``_centroid_distances``, the same floats, not formed again."""
        rate = self._facet_rates(u)
        leaving = rate < 0.0
        distance = self._centroid_distances if origin is self._centroid else self._facet_distances(origin)
        with np.errstate(over="ignore"):  # a facet the ray nearly runs along
            return self._nearest_exit(-distance[leaving] / rate[leaving])

    @cached_property
    def _centroid_distances(self) -> np.ndarray:
        return _read_only(self._facet_distances(self.centroid()))

    def _centroid_exits(self, u) -> tuple[float, float]:
        """``exit_parameter`` from the centroid along u and along -u, from one
        evaluation of the facet rates: the ray along -u leaves through the
        facets whose rate along u is positive, at distance / rate."""
        rate, distance = self._facet_rates(u), self._centroid_distances
        leaving, entering = rate < 0.0, rate > 0.0
        with np.errstate(over="ignore"):
            return (self._nearest_exit(-distance[leaving] / rate[leaving]),
                    self._nearest_exit(distance[entering] / rate[entering]))

    def _nearest_exit(self, t: np.ndarray) -> float:
        best = float(t.min(initial=math.inf))
        if not (math.isfinite(best) and best > 0.0):
            raise ValueError(f"ray has no finite positive exit from the {self.kind}")
        return best


def _edge_array(v: np.ndarray) -> np.ndarray:
    """The read-only edges of a polygon's vertex array, row i vertex i + 1 minus vertex i."""
    return _read_only(np.concatenate((v[1:], v[:1])) - v)


def _sector_index(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """The sector of each offset (dx, dy) from a polygon's centroid, in
    0..PREFILTER_SECTORS - 1: angle pi joins the last sector, and so does NaN."""
    s = np.arctan2(dy, dx)
    s += math.pi
    s *= PREFILTER_SECTORS / (2.0 * math.pi)
    return np.fmin(s, PREFILTER_SECTORS - 1, out=s).astype(np.intp)


class _SectorTable(NamedTuple):
    """A screened polygon's table; see ``Polygon._sectors``."""

    cx: float
    cy: float
    inner_sq: np.ndarray
    outer_sq: np.ndarray
    angle: np.ndarray
    wrap: int
    lines: np.ndarray


def _fan(d: np.ndarray) -> tuple[float, float, float]:
    """Area of the triangle fan from the origin over the rows of ``d``, and its
    centroid.  Each sum is ``np.add.accumulate``'s last partial, added left to
    right as a loop adds; a pairwise sum (``np.sum``) would round differently."""
    p, q = d[:-1], d[1:]
    terms = np.empty((3, len(p)))
    f = np.multiply(p[:, 0], q[:, 1], out=terms[0])
    f -= q[:, 0] * p[:, 1]
    np.multiply((p + q).T, f, out=terms[1:])
    acc, ax, ay = np.add.accumulate(terms, axis=1)[:, -1].tolist()
    scale = 1.0 / (3.0 * acc) if acc else math.nan  # a zero area is refused at build
    return 0.5 * acc, ax * scale, ay * scale


@dataclass(frozen=True)
class Polygon(_Polytope):
    """Strictly convex polygon, vertices ordered counterclockwise."""

    kind = "polygon"
    vertices: tuple[Point, ...] = _VertexTuples()

    def __post_init__(self):
        vertices = _as_list(self.vertices, "polygon vertices")
        if len(vertices) < 3:
            raise ValueError(f"polygon needs at least 3 vertices, got {len(vertices)}")
        v = _vertex_array(self, vertices, 2)
        e = _edge_array(v)
        object.__setattr__(self, "edge_array", e)  # the cached property, seeded
        f = np.concatenate((e[1:], e[:1]))  # edge i + 1, meeting edge i at vertex i + 1
        with np.errstate(over="ignore", invalid="ignore"):  # finite but huge coordinates
            turn = e[:, 0] * f[:, 1] - e[:, 1] * f[:, 0]
            turning = float(np.arctan2(turn, e[:, 0] * f[:, 0] + e[:, 1] * f[:, 1]).sum())
        bad = turn <= 0.0
        if bad.any() and turn[bad.argmax()] == 0.0:
            raise ValueError(f"degenerate or collinear vertices around index {bad.argmax()}")
        if bad.any():
            raise ValueError("vertices must be strictly convex and wind counterclockwise")
        # every turn is a left turn, so the total is 2*pi times the winding number
        if not abs(turning - 2.0 * math.pi) < math.pi:
            raise ValueError(
                f"vertices must wind around once, total turning is {turning!r} radians"
            )
        self._require_moments()

    @property
    def dim(self) -> int:
        return 2

    @cached_property
    def edge_array(self) -> np.ndarray:
        """Row i is vertex i + 1 minus vertex i, read-only."""
        return _edge_array(self.vertex_array)

    def _moments(self) -> tuple[float, Point]:
        """Area and centroid from a triangle fan at vertex 0, on arrays.

        Working relative to vertex 0 keeps the products small when the
        polygon sits far from the origin.  The fan's three sums are taken
        left to right (``np.add.accumulate``), so they are the floats a loop
        over the triangles in order gives.  Where the fan's cubic terms
        overflow (offsets from about 1e103), it is redone on the offsets
        scaled below 1 by a power of two; that scaling is exact, so wherever
        both fans are finite they give the same floats.
        """
        v = self.vertex_array
        x0, y0 = v[0].tolist()
        with np.errstate(over="ignore", invalid="ignore"):  # a fan that overflows is redone
            d = v[1:] - v[0]
            area, gx, gy = _fan(d)
            if not all(map(math.isfinite, (area, gx, gy))):
                _, e = math.frexp(float(np.abs(d).max()))
                area, gx, gy = _fan(d * math.ldexp(1.0, -e))
                area, gx, gy = math.ldexp(area, 2 * e), math.ldexp(gx, e), math.ldexp(gy, e)
        return area, (x0 + gx, y0 + gy)

    @cached_property
    def _edge_lengths(self) -> np.ndarray:
        e = self.edge_array
        return _read_only(np.hypot(e[:, 0], e[:, 1]))

    def _facet_distances(self, p) -> np.ndarray:
        a, e = self.vertex_array, self.edge_array
        return (e[:, 0] * (p[1] - a[:, 1]) - e[:, 1] * (p[0] - a[:, 0])) / self._edge_lengths

    def _facet_rates(self, u) -> np.ndarray:
        e = self.edge_array
        return (e[:, 0] * u[1] - e[:, 1] * u[0]) / self._edge_lengths

    @cached_property
    def _sectors(self) -> _SectorTable | None:
        """The screen's table: the centroid C; per sector the squared radii
        inside and outside of which the edge test is certain; for the points
        between them the vertex angles about C, rotated to rise from the
        vertex after their one drop of about 2 pi; and per wedge the line that
        the edge loop tests for its edge, with the depth past which that test
        decides alone.  None where the table cannot be trusted, and the edge
        loop tests every point.

        Sector s holds the directions whose angle about C lies in
        [-pi + s w, -pi + (s + 1) w), w = 2 pi / PREFILTER_SECTORS.  The
        boundary's distance from C along such a direction is least and
        greatest at the sector's end rays, at the vertices inside it, or
        (least only) at the point of an edge nearest C, so those candidates
        give its exact range in O(n + sectors).  A point a radial distance d
        inside or outside the boundary lies at least ``d * rho / R`` from an
        edge line, where R is the largest vertex radius and rho the smallest
        distance from C to an edge line, so the radii move by the margin times
        ``R / rho``.  Where that leaves no sector a positive inner radius, the
        screen would decide no point inside: no table.

        The points between the radii are located by wedge (Shamos 1975;
        Preparata and Shamos 1985, 2.2.1): wedge i, between the rays from C to
        V_i and V_i+1, meets the polygon in the triangle (C, V_i, V_i+1), and
        one search over the rotated angles finds a point's wedge.  A point p
        takes the loop's own arithmetic on edge i alone, c = e_i x (p - V_i)
        rounded as the loop rounds it.  Where c < 0, or NaN, the loop fails
        that edge with the same floats: outside, whatever wedge p truly lies
        in.  Where c >= delta |e_i|, with delta = 32 eps R^2 / rho and
        eps = 2**-52, the loop passes every edge: inside.  The points between
        take the loop itself.

        Why that depth suffices, for points within 2R of C, as these are (an
        inner radius is positive, so the margin is below R, and rho above
        2e-9 R).  An angle is computed within 2.5 eps.  The search brackets
        p's computed angle by the computed angles of its wedge's two vertices,
        also where rounding leaves two of those out of order, since the one
        drop of 2 pi that the angles start from is never in doubt.  So p lies
        within 5 eps of the cone of its wedge, and within 10 eps R of a point
        q of the cone.  The loop's c errs by at most 1.5 eps |p - V| |e|, that
        is 4.5 eps R |e|, so p lies at least delta - 4.5 eps R inside line i,
        and q at least d = delta - 14.5 eps R.  The cone's points that deep
        form the triangle (C, P_i, P_i+1), P_k on the ray from C to V_k; V_i
        is on line i and V_i+1 within eps R of it, so P_k = C + t (V_k - C)
        with 1 - t >= (d - eps R) / R.  Every line that the loop tests passes
        at least rho from C (up to a relative 1e-6) and leaves every vertex
        within eps R of its inner side: it runs through V_j along the stored
        e_j, whose direction is within eps / 2 of that of V_j+1 - V_j, and the
        vertices are convex.  So it passes q at least
        (d - eps R) rho / R - eps R = 31 eps R - 15.5 eps rho >= 15.5 eps R
        inside, and p at least 5.5 eps R: more than the 4.5 eps R by which
        the loop's c can err, and the rounding of delta |e_i| is far below the
        difference.  Neither the turns nor the spacing of the angles enter.
        """
        cx, cy = self.centroid()
        v, e, length = self.vertex_array - (cx, cy), self.edge_array, self._edge_lengths
        radius = np.hypot(v[:, 0], v[:, 1])
        big = float(radius.max())
        # no table where a product of two offsets (at most 4 R^2) could overflow,
        # the centroid included, or where the rounded centroid is on or beyond
        # an edge line
        if not big < 1e150:
            return None
        rho = float(self._centroid_distances.min())
        if not rho > 0.0:
            return None
        # the angles rotated to rise counterclockwise from the vertex after
        # their one drop of about 2 pi, on edge wrap, which rounding cannot
        # hide as it can the order of two close angles
        angle = np.arctan2(v[:, 1], v[:, 0])
        wrap = int(np.argmin(np.roll(angle, -1) - angle))
        angle = np.roll(angle, -1 - wrap)
        margin = PREFILTER_MARGIN * 2.0 * big * (big / rho)  # 2 x radius >= diameter
        # each end ray meets the edge whose vertices' angles span its own
        ray = -math.pi + (2.0 * math.pi / PREFILTER_SECTORS) * np.arange(PREFILTER_SECTORS)
        edge = (np.searchsorted(angle, ray, side="right") + wrap) % len(v)
        a, d = v[edge], e[edge]
        # a + s d = t u, crossed with d: t = (a x d) / (u x d)
        facing = np.cos(ray) * d[:, 1] - np.sin(ray) * d[:, 0]
        hit = (a[:, 0] * d[:, 1] - a[:, 1] * d[:, 0]) / facing
        low, high = np.minimum(hit, np.roll(hit, -1)), np.maximum(hit, np.roll(hit, -1))
        # the vertices, and the point of each edge nearest the centroid, in their sectors
        t = np.clip(-(v * e).sum(axis=1) / (length * length), 0.0, 1.0)
        near = v + t[:, None] * e
        np.maximum.at(high, _sector_index(v[:, 0], v[:, 1]), radius)
        np.minimum.at(low, _sector_index(near[:, 0], near[:, 1]), np.hypot(near[:, 0], near[:, 1]))
        inner, outer = low - margin, high + margin
        if not (inner > 0.0).any():
            return None
        with np.errstate(over="ignore"):  # a margin so wide that the outer square is inf
            outer_sq = outer * outer
        inner_sq = np.where(inner > 0.0, inner * inner, -1.0)
        # each edge's vertex and direction, as the loop reads them, and its depth
        depth = 32.0 * sys.float_info.epsilon * big * (big / rho) * length
        lines = np.column_stack((self.vertex_array, e, depth))
        inner_sq, outer_sq, angle, lines = map(_read_only, (inner_sq, outer_sq, angle, lines))
        return _SectorTable(cx, cy, inner_sq, outer_sq, angle, wrap, lines)

    def _edge_test(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # one half-plane per edge, ex * (y - ay) - ey * (x - ax) >= 0, worked
        # in place in two buffers: memory stays at O(m) for m points; an
        # infinite point gives inf - inf or inf * 0, NaN, which fails the test
        inside = np.ones(len(x), dtype=bool)
        cross, term, ok = np.empty(len(x)), np.empty(len(x)), np.empty(len(x), dtype=bool)
        with np.errstate(invalid="ignore"):
            for (ax, ay), (ex, ey) in zip(self.vertex_array.tolist(), self.edge_array.tolist()):
                np.subtract(y, ay, out=cross)
                cross *= ex
                np.subtract(x, ax, out=term)
                term *= ey
                cross -= term
                inside &= np.greater_equal(cross, 0.0, out=ok)
        return inside

    def _wedge_test(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # _edge_test's arithmetic on the edge of each point's wedge: outside
        # where it fails, inside where it passes by the edge's depth, and the
        # loop itself for the points between; see _sectors
        table = self._sectors
        wedge = np.searchsorted(table.angle, np.arctan2(y - table.cy, x - table.cx), side="right")
        ax, ay, ex, ey, depth = np.take(table.lines, wedge + table.wrap, axis=0, mode="wrap").T
        cross = (y - ay) * ex - (x - ax) * ey
        inside = cross >= depth
        near = np.flatnonzero((cross >= 0.0) & ~inside)
        if near.size:
            inside[near] = self._edge_test(x[near], y[near])
        return inside

    def contains(self, points: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
        x, y = points[:, 0], points[:, 1]
        table = None if len(self.vertex_array) < PREFILTER_MIN_VERTICES else self._sectors
        if table is None:
            return self._edge_test(x, y)
        d2 = np.subtract(x, table.cx)
        dy = np.subtract(y, table.cy)
        sector = _sector_index(d2, dy)
        d2 *= d2
        dy *= dy
        d2 += dy
        inside = d2 <= np.take(table.inner_sq, sector)
        ring = np.flatnonzero((d2 <= np.take(table.outer_sq, sector)) & ~inside)
        if ring.size:
            inside[ring] = self._wedge_test(x[ring], y[ring])
        return inside

    def boundary_points(self, count: int) -> list[Point]:
        """``count`` points spaced by arc length from vertex 0."""
        edges = self.edge_array.tolist()
        lengths = [math.hypot(ex, ey) for ex, ey in edges]
        perimeter = sum(lengths)
        pts = []
        edge = 0
        start = 0.0
        for i in range(count):
            target = perimeter * i / count
            while target > start + lengths[edge]:
                start += lengths[edge]
                edge += 1
            frac = (target - start) / lengths[edge]
            (ax, ay), (ex, ey) = self.vertices[edge], edges[edge]
            pts.append((ax + ex * frac, ay + ey * frac))
        return pts


@dataclass(frozen=True)
class Ellipse(ConvexBody):
    """Axis lengths ``semi_axes = (a, b)``, rotated by ``rotation`` radians."""

    kind = "ellipse"
    centrally_symmetric = True
    center: Point
    semi_axes: tuple[float, float]
    rotation: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "center", _as_point(self.center, "ellipse center", 2))
        object.__setattr__(self, "semi_axes", _as_point(self.semi_axes, "ellipse semi_axes", 2))
        object.__setattr__(self, "rotation", _as_number(self.rotation, "ellipse rotation"))
        if not (self.semi_axes[0] > 0.0 and self.semi_axes[1] > 0.0):
            raise ValueError(f"semi-axes must be positive, got {self.semi_axes}")
        self._require_moments()

    @property
    def dim(self) -> int:
        return 2

    def _frame(self, dx, dy):
        """Offsets in the ellipse's own axes, scaled so the boundary is the unit circle."""
        cr, sr = math.cos(self.rotation), math.sin(self.rotation)
        a, b = self.semi_axes
        return (cr * dx + sr * dy) / a, (-sr * dx + cr * dy) / b

    def _moments(self) -> tuple[float, Point]:
        a, b = self.semi_axes
        area = math.pi * a * b
        if area == math.inf:  # pi * a overflows, although the area may not
            area = math.pi * (a * b)
        return area, self.center

    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        a, b = self.semi_axes
        cr, sr = math.cos(self.rotation), math.sin(self.rotation)
        half = np.array([math.hypot(a * cr, b * sr), math.hypot(a * sr, b * cr)])
        c = np.asarray(self.center)
        return c - half, c + half

    def contains(self, points: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
        # _frame's arithmetic in place, operation for operation
        cr, sr = math.cos(self.rotation), math.sin(self.rotation)
        a, b = self.semi_axes
        dx = np.subtract(points[:, 0], self.center[0])
        dy = np.subtract(points[:, 1], self.center[1])
        ex = np.multiply(dx, cr)
        term = np.multiply(dy, sr)
        ex += term
        ex /= a
        ey = np.multiply(dx, -sr, out=dx)
        dy *= cr
        ey += dy
        ey /= b
        ex *= ex
        ey *= ey
        ex += ey
        return ex <= 1.0

    def exit_parameter(self, origin, u) -> float:
        px, py = self._frame(origin[0] - self.center[0], origin[1] - self.center[1])
        qx, qy = self._frame(u[0], u[1])
        qq, pq = qx * qx + qy * qy, px * qx + py * qy
        return (-pq + math.sqrt(pq * pq - qq * (px * px + py * py - 1.0))) / qq

    def _scaled(self, o: Point, f: float) -> dict:
        a, b = self.semi_axes
        return {"center": _scale_point(self.center, o, f), "semi_axes": (a * f, b * f),
                "rotation": self.rotation}

    def boundary_points(self, count: int) -> list[Point]:
        cr, sr = math.cos(self.rotation), math.sin(self.rotation)
        a, b = self.semi_axes
        cx, cy = self.center
        pts = []
        for i in range(count):
            ang = 2.0 * math.pi * i / count
            ex, ey = a * math.cos(ang), b * math.sin(ang)
            pts.append((cx + cr * ex - sr * ey, cy + sr * ex + cr * ey))
        return pts


@dataclass(frozen=True)
class Hyperball(ConvexBody):
    kind = "hyperball"
    centrally_symmetric = True
    _center_dim: ClassVar[int | None] = None  # any dimension in 1..MAX_DIMENSION
    center: Point
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _as_point(self.center, f"{self.kind} center", self._center_dim))
        object.__setattr__(self, "radius", _as_number(self.radius, f"{self.kind} radius"))
        if not self.radius > 0.0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        self._require_moments()

    @property
    def dim(self) -> int:
        return len(self.center)

    def _require_moments(self) -> None:
        super()._require_moments()
        # contains and exit_parameter square the radius; only at k = 1 does a
        # measure that binary64 holds leave room for a square that it does not
        if self.radius * self.radius == math.inf:
            raise ValueError(f"{self.kind} radius {self.radius!r} squared overflows binary64")

    def _moments(self) -> tuple[float, Point]:
        """pi^(k/2) r^k / Gamma(k/2 + 1), in logarithms where r^k or the product
        overflows although the measure may not."""
        k = self.dim
        try:
            measure = math.pi ** (k / 2.0) * self.radius**k / math.gamma(k / 2.0 + 1.0)
        except OverflowError:
            measure = math.inf
        if measure == math.inf:
            measure = math.exp(
                0.5 * k * math.log(math.pi) + k * math.log(self.radius) - math.lgamma(0.5 * k + 1.0)
            )
        return measure, self.center

    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        c = np.asarray(self.center)
        return c - self.radius, c + self.radius

    def contains(self, points: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
        # the squared offsets as a (k, m) array, summed over the rows in
        # coordinate order, as a loop over the coordinates adds them
        x = points.T
        k, m = x.shape
        block = _scratch(work, (k + 1, m))
        d, dist_sq = block[:k], block[k]
        np.subtract(x, np.asarray(self.center)[:, None], out=d)
        d *= d
        np.add.reduce(d, axis=0, out=dist_sq)
        return dist_sq <= self.radius**2

    def exit_parameter(self, origin, u) -> float:
        """The root t >= 0 of ``|origin + t*u - c|^2 = r^2``, origin inside or
        on the sphere.  From the centre itself (``origin is centroid()``) the
        offset is zero, and the formula reduces to ``sqrt(r^2)``, the same float."""
        if origin is self._centroid:
            return math.sqrt(self.radius**2)
        w = np.asarray(origin, dtype=float) - np.asarray(self.center)
        b = float(np.dot(w, u))
        disc = b * b - (float(np.dot(w, w)) - self.radius**2)
        if disc < 0.0:
            raise ValueError("ray does not meet the sphere")
        return -b + math.sqrt(disc)

    def _scaled(self, o: Point, f: float) -> dict:
        return {"center": _scale_point(self.center, o, f), "radius": self.radius * f}


@dataclass(frozen=True)
class Circle(Hyperball):
    """The 2-D ball."""

    kind = "circle"
    _center_dim = 2

    def boundary_points(self, count: int) -> list[Point]:
        cx, cy = self.center
        return [
            (cx + self.radius * math.cos(2.0 * math.pi * i / count),
             cy + self.radius * math.sin(2.0 * math.pi * i / count))
            for i in range(count)
        ]


@dataclass(frozen=True)
class Hypercube(_Polytope):
    kind = "hypercube"
    centrally_symmetric = True
    min_corner: Point
    side: float

    def __post_init__(self):
        object.__setattr__(self, "min_corner", _as_point(self.min_corner, "hypercube min_corner"))
        object.__setattr__(self, "side", _as_number(self.side, "hypercube side"))
        if not self.side > 0.0:
            raise ValueError(f"side must be positive, got {self.side}")
        self._require_moments()

    @property
    def dim(self) -> int:
        return len(self.min_corner)

    def _moments(self) -> tuple[float, Point]:
        half = 0.5 * self.side
        return self.side**self.dim, tuple([c + half for c in self.min_corner])

    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.asarray(self.min_corner)
        return lo, lo + self.side

    def contains(self, points: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
        # both bounds of every coordinate as a (2k, m) array of flags
        x = points.T
        k, m = x.shape
        lo, hi = self.bbox()
        flags = _scratch(work, (2 * k, m), bool)
        np.greater_equal(x, lo[:, None], out=flags[:k])
        np.less_equal(x, hi[:, None], out=flags[k:])
        return np.logical_and.reduce(flags, axis=0)

    def _facet_distances(self, p) -> np.ndarray:
        lo, hi = self.bbox()
        p = np.asarray(p, dtype=float)
        return np.concatenate((p - lo, hi - p))

    def _facet_rates(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return np.concatenate((u, -u))

    def _scaled(self, o: Point, f: float) -> dict:
        # positive scaling keeps the box axis-aligned with the same min corner ordering
        return {"min_corner": _scale_point(self.min_corner, o, f), "side": self.side * f}


@dataclass(frozen=True)
class Simplex(_Polytope):
    """k+1 affinely independent vertices in k dimensions."""

    kind = "simplex"
    vertices: tuple[Point, ...] = _VertexTuples()

    def __post_init__(self):
        vertices = _as_list(self.vertices, "simplex vertices")
        k = len(vertices) - 1
        if not 1 <= k <= MAX_DIMENSION:
            raise ValueError(f"simplex vertices must be 2 to {MAX_DIMENSION + 1} points, got {k + 1}")
        _vertex_array(self, vertices, k)
        # numerical rank (Golub and Van Loan, 5.4), which rotation, scale and
        # shift leave alone; a product, so that a singular matrix divides nothing
        s = np.linalg.svd(self._edge_matrix(), compute_uv=False)
        if not s[-1] > 1e-12 * s[0]:
            raise ValueError("simplex vertices are affinely dependent")
        self._require_moments()

    @property
    def dim(self) -> int:
        return len(self.vertex_array) - 1

    def _edge_matrix(self) -> np.ndarray:
        v = self.vertex_array
        return (v[1:] - v[0]).T  # columns are edges out of vertex 0

    def barycentric(self, p) -> np.ndarray:
        """All k+1 barycentric weights of ``p`` (sum to 1, inside iff all >= 0).

        ``p`` is read by ``_as_point`` as the "barycentric point": a list of k
        real numbers.  A string, a boolean, None, NaN, an infinity, a nested
        list or a point of another dimension raises ValueError naming it.
        """
        p = _as_point(p, "barycentric point", self.dim)
        lam = np.linalg.solve(self._edge_matrix(), np.subtract(p, self.vertex_array[0]))
        return np.concatenate(([1.0 - lam.sum()], lam))

    def _moments(self) -> tuple[float, Point]:
        """|det| / k! of the edge matrix and the vertex mean; log |det|
        (``slogdet``) where the determinant overflows although the measure
        may not."""
        k, edges = self.dim, self._edge_matrix()
        with np.errstate(over="ignore"):
            det = abs(float(np.linalg.det(edges)))
        if det == math.inf:
            measure = math.exp(float(np.linalg.slogdet(edges)[1]) - math.lgamma(k + 1.0))
        else:
            measure = det / math.factorial(k)
        return measure, tuple(self.vertex_array.mean(axis=0).tolist())

    @cached_property
    def _inverse_edges(self) -> np.ndarray:
        return _read_only(np.linalg.inv(self._edge_matrix()))

    @cached_property
    def _heights(self) -> np.ndarray:
        """Distance from each vertex to its opposite facet, 1 / |grad lambda_i|:
        the rows of ``_inverse_edges`` are the gradients of lambda_1..lambda_k,
        and minus their sum is that of lambda_0."""
        g = self._inverse_edges
        return _read_only(1.0 / np.linalg.norm(np.vstack((g.sum(axis=0), g)), axis=1))

    def _facet_distances(self, p) -> np.ndarray:
        return self.barycentric(p) * self._heights

    def _facet_rates(self, u) -> np.ndarray:
        rate = self._inverse_edges @ np.asarray(u, dtype=float)
        return np.concatenate(([-rate.sum()], rate)) * self._heights

    def contains(self, points: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
        # offsets from vertex 0 and their weights lambda_1..lambda_k, each a
        # (k, m) array, one row per coordinate
        x = points.T
        k, m = x.shape
        block = _scratch(work, (2 * k, m))
        d, lam = block[:k], block[k:]
        np.subtract(x, self.vertex_array[0][:, None], out=d)
        np.matmul(self._inverse_edges, d, out=lam)
        # lambda_0 >= 0 is a weight sum <= 1; d's first row, free now, takes
        # the sum and then the least weight (NaN where a weight is NaN)
        inside = np.add.reduce(lam, axis=0, out=d[0]) <= 1.0
        inside &= np.minimum.reduce(lam, axis=0, out=d[0]) >= 0.0
        return inside


Shape2D = Polygon | Circle | Ellipse
ShapeKd = Hyperball | Hypercube | Simplex
Shape = Polygon | Ellipse | Hyperball | Hypercube | Simplex


MAX_REGULAR_POLYGON_SIDES = 100_000  # bounds the time and memory one shape file can ask for


def regular_polygon(
    n: int, circumradius: float, orientation: float = 0.0, center: Point = (0.0, 0.0)
) -> Polygon:
    """Regular n-gon as an explicit vertex list, first vertex at ``orientation``.

    ``n``, an integer, is capped at ``MAX_REGULAR_POLYGON_SIDES``.
    """
    n = _as_integer(n, "regular polygon n", 3, MAX_REGULAR_POLYGON_SIDES)
    circumradius = _as_number(circumradius, "regular polygon circumradius")
    orientation = _as_number(orientation, "regular polygon orientation")
    if not circumradius > 0.0:
        raise ValueError(f"regular polygon circumradius must be positive, got {circumradius}")
    cx, cy = _as_point(center, "regular polygon center", 2)
    step = 2.0 * math.pi / n
    return Polygon(
        [
            (cx + circumradius * math.cos(orientation + step * i),
             cy + circumradius * math.sin(orientation + step * i))
            for i in range(n)
        ]
    )


def _regular_polygon_from_dict(data: dict) -> Polygon:
    _refuse_unread_keys("regular_polygon", data, ("n", "circumradius", "orientation"))
    return regular_polygon(
        n=data["n"], circumradius=data["circumradius"], orientation=data.get("orientation", 0.0)
    )


SHAPE_LOADERS = {
    **{
        cls.kind: cls.from_dict
        for cls in (Polygon, Circle, Ellipse, Hyperball, Hypercube, Simplex)
    },
    "regular_polygon": _regular_polygon_from_dict,
}


def shape_from_dict(data: dict) -> Shape:
    """Load any shape from its JSON dictionary form.

    Accepted forms::

        {"type": "polygon", "vertices": [[x, y], ...]}
        {"type": "circle", "center": [x, y], "radius": r}
        {"type": "ellipse", "center": [x, y], "semi_axes": [a, b], "rotation": t}
        {"type": "regular_polygon", "n": n, "circumradius": r, "orientation": t}
        {"type": "hyperball", "center": [...], "radius": r}
        {"type": "hypercube", "min_corner": [...], "side": s}
        {"type": "simplex", "vertices": [[...], ...]}

    ``rotation`` and ``orientation`` default to 0.  Regular polygons load as
    explicit vertex lists of at most ``MAX_REGULAR_POLYGON_SIDES`` vertices.
    A key that is not listed for the type is refused.
    """
    if not isinstance(data, dict) or "type" not in data:
        raise ValueError("shape dictionary needs a 'type' key")
    kind = data["type"]
    if not isinstance(kind, str) or kind not in SHAPE_LOADERS:
        raise ValueError(f"unknown shape type {kind!r}")
    try:
        return SHAPE_LOADERS[kind](data)
    except KeyError as exc:
        raise ValueError(f"malformed {kind} shape: missing {exc}") from exc


def shape_to_dict(shape: Shape) -> dict:
    return shape.to_dict()
