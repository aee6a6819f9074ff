"""Convex bodies in any dimension, all behind one geometry protocol.

Every body class implements the same methods, so the excision pipeline
never asks which shape it holds:

``dim``                    the dimension k
``measure()``              exact area (k = 2) or volume
``centroid()``             exact centroid, as a tuple
``bbox()``                 (lower, upper) corners of the axis-aligned bounding box
``contains(points)``       membership mask for an (m, k) float array, boundary inside;
                           it reads the array column by column, so column-major
                           (Fortran-ordered) input is the fast layout
``on_boundary(p, tol)``    whether p lies within ``tol`` of the boundary
``exit_parameter(o, u)``   largest t with o + t*u in the body, for o in the body
``scaled_about(o, f)``     the image under the homothety about o with factor f
``to_dict()``              the JSON form that ``shape_from_dict`` reads back
``centrally_symmetric``    True when every chord through the centroid has offset 1/2

Bodies that are not centrally symmetric (polygons, simplices) are polytopes
and also carry ``vertices``.

Shapes are validated where they are built: every coordinate and size must be
a finite number, sizes positive, polygons strictly convex, counterclockwise
and winding exactly once, simplices non-degenerate, dimensions in 1..64.
"""

import math
from dataclasses import MISSING, dataclass, fields
from functools import cached_property
from typing import ClassVar

import numpy as np

from .polynomials import MAX_DIMENSION

# Polygons with at least this many vertices screen points with two circles
# about the centroid before the edge loop; below it the loop alone is cheaper.
PREFILTER_MIN_VERTICES = 12
# Width of the band, as a fraction of the polygon's diameter, that the circle
# test leaves to the edge loop.  Rounding moves an edge test by about 1e-15
# of the diameter, so a point decided by the circles lies far beyond it.
PREFILTER_MARGIN = 1e-9

Point = tuple[float, ...]


def _as_point(p) -> Point:
    return tuple(map(float, p))


def _require_finite(what: str, *values: float) -> None:
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{what} must be finite numbers")


def _check_dim(k: int) -> None:
    if k < 1:
        raise ValueError(f"dimension must be >= 1, got {k}")
    if k > MAX_DIMENSION:
        raise ValueError(f"dimension capped at {MAX_DIMENSION}, got {k}")


def _scale_point(p: Point, origin, factor: float) -> Point:
    return tuple(o + (x - o) * factor for x, o in zip(p, origin))


def _plain(value):
    """Tuples as JSON lists, recursively."""
    return [_plain(v) for v in value] if isinstance(value, tuple) else value


class ConvexBody:
    """Base of the six body classes: the JSON round trip they share."""

    kind: ClassVar[str]
    centrally_symmetric: ClassVar[bool] = False

    def to_dict(self) -> dict:
        return {"type": self.kind, **{f.name: _plain(getattr(self, f.name)) for f in fields(self)}}

    @classmethod
    def from_dict(cls, data: dict) -> "ConvexBody":
        return cls(
            **{f.name: data[f.name] for f in fields(cls) if f.name in data or f.default is MISSING}
        )


@dataclass(frozen=True)
class Polygon(ConvexBody):
    """Strictly convex polygon, vertices ordered counterclockwise."""

    kind = "polygon"
    vertices: tuple[Point, ...]

    def __post_init__(self):
        vertices = tuple(_as_point(v) for v in self.vertices)
        object.__setattr__(self, "vertices", vertices)
        n = len(vertices)
        if n < 3:
            raise ValueError(f"polygon needs at least 3 vertices, got {n}")
        if any(len(v) != 2 for v in vertices):
            raise ValueError("polygon vertices must be 2-D points")
        _require_finite("polygon vertices", *(x for v in vertices for x in v))
        turning = 0.0
        for i in range(n):
            (ax, ay), (bx, by), (cx, cy) = vertices[i], vertices[(i + 1) % n], vertices[(i + 2) % n]
            ex, ey, fx, fy = bx - ax, by - ay, cx - bx, cy - by
            turn = ex * fy - ey * fx
            if turn == 0.0:
                raise ValueError(f"degenerate or collinear vertices around index {i}")
            if turn < 0.0:
                raise ValueError(
                    "vertices must be strictly convex and wind counterclockwise"
                )
            turning += math.atan2(turn, ex * fx + ey * fy)
        # every turn is a left turn, so the total is 2*pi times the winding number
        if not abs(turning - 2.0 * math.pi) < math.pi:
            raise ValueError(
                f"vertices must wind around once, total turning is {turning!r} radians"
            )

    @property
    def dim(self) -> int:
        return 2

    @cached_property
    def _edges(self) -> tuple[tuple[Point, Point], ...]:
        """(start vertex, edge vector) per edge."""
        v = self.vertices
        return tuple(
            (a, (b[0] - a[0], b[1] - a[1])) for a, b in zip(v, v[1:] + v[:1])
        )

    @cached_property
    def _moments(self) -> tuple[float, Point]:
        """Area and centroid from a triangle fan at vertex 0.

        Working relative to vertex 0 keeps the products small when the
        polygon sits far from the origin.
        """
        (x0, y0), *rest = self.vertices
        acc = ax = ay = 0.0
        for (px, py), (qx, qy) in zip(rest, rest[1:]):
            px, py, qx, qy = px - x0, py - y0, qx - x0, qy - y0
            f = px * qy - qx * py
            acc += f
            ax += (px + qx) * f
            ay += (py + qy) * f
        scale = 1.0 / (3.0 * acc)
        return 0.5 * acc, (x0 + ax * scale, y0 + ay * scale)

    def measure(self) -> float:
        return self._moments[0]

    def centroid(self) -> Point:
        return self._moments[1]

    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        v = np.asarray(self.vertices)
        return v.min(axis=0), v.max(axis=0)

    @cached_property
    def _circles(self) -> tuple[float, float, float, float]:
        """Centroid, and squared radii inside and outside of which the edge test is certain.

        The inner circle is the inscribed one shrunk by the margin: its
        points are at least the margin inside every edge line.  The outer
        circle holds every point at most the margin outside every edge line:
        that region's corners are the vertices pushed out by margin / cos(turn / 2).
        """
        cx, cy = self.centroid()
        v = np.asarray(self.vertices) - (cx, cy)
        e = np.roll(v, -1, axis=0) - v
        length = np.hypot(e[:, 0], e[:, 1])
        radius = np.hypot(v[:, 0], v[:, 1])
        margin = PREFILTER_MARGIN * 2.0 * float(radius.max())  # 2 x radius >= diameter
        inner = float(np.min((e[:, 1] * v[:, 0] - e[:, 0] * v[:, 1]) / length)) - margin
        unit = e / length[:, None]
        bisector = unit + np.roll(unit, 1, axis=0)  # its length is 2 cos(turn / 2)
        with np.errstate(divide="ignore"):
            miter = 2.0 * margin / np.hypot(bisector[:, 0], bisector[:, 1])
        outer = float(np.max(radius + miter))
        return cx, cy, inner * inner if inner > 0.0 else -1.0, outer * outer

    def _edge_test(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # one half-plane per edge keeps memory at O(m) for m points
        inside = np.ones(len(x), dtype=bool)
        for (ax, ay), (ex, ey) in self._edges:
            inside &= ex * (y - ay) - ey * (x - ax) >= 0.0
        return inside

    def contains(self, points: np.ndarray) -> np.ndarray:
        x, y = points[:, 0], points[:, 1]
        if len(self.vertices) < PREFILTER_MIN_VERTICES:
            return self._edge_test(x, y)
        cx, cy, inner_sq, outer_sq = self._circles
        dx = x - cx
        dy = y - cy
        d2 = dx * dx + dy * dy
        inside = d2 <= inner_sq
        ring = np.flatnonzero((d2 <= outer_sq) & ~inside)
        inside[ring] = self._edge_test(x[ring], y[ring])
        return inside

    def on_boundary(self, p, tol: float) -> bool:
        best = math.inf
        for (ax, ay), (ex, ey) in self._edges:
            s = ((p[0] - ax) * ex + (p[1] - ay) * ey) / (ex * ex + ey * ey)
            s = min(1.0, max(0.0, s))
            best = min(best, math.hypot(p[0] - (ax + s * ex), p[1] - (ay + s * ey)))
        return best <= tol

    def exit_parameter(self, origin, u) -> float:
        # the exit is the nearest crossing among the edges the ray faces
        ox, oy, ux, uy = origin[0], origin[1], u[0], u[1]
        best = math.inf
        for (ax, ay), (ex, ey) in self._edges:
            denom = ux * ey - uy * ex
            if denom > 0.0:
                t = ((ax - ox) * ey - (ay - oy) * ex) / denom
                if t < best:
                    best = t
        if not math.isfinite(best):
            raise ValueError("ray never leaves the polygon")
        return best

    def scaled_about(self, origin, factor: float) -> "Polygon":
        return Polygon(tuple(_scale_point(v, origin, factor) for v in self.vertices))

    def boundary_points(self, count: int) -> list[Point]:
        """``count`` points spaced by arc length from vertex 0."""
        lengths = [math.hypot(ex, ey) for _, (ex, ey) in self._edges]
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
            (ax, ay), (ex, ey) = self._edges[edge]
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
        center = _as_point(self.center)
        if len(center) != 2:
            raise ValueError(f"ellipse center must be a 2-D point, got {center}")
        a, b = self.semi_axes
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "semi_axes", (float(a), float(b)))
        object.__setattr__(self, "rotation", float(self.rotation))
        _require_finite(
            "ellipse center, semi-axes and rotation", *center, *self.semi_axes, self.rotation
        )
        if not (self.semi_axes[0] > 0.0 and self.semi_axes[1] > 0.0):
            raise ValueError(f"semi-axes must be positive, got {self.semi_axes}")

    @property
    def dim(self) -> int:
        return 2

    def _frame(self, dx, dy):
        """Offsets in the ellipse's own axes, scaled so the boundary is the unit circle."""
        cr, sr = math.cos(self.rotation), math.sin(self.rotation)
        a, b = self.semi_axes
        return (cr * dx + sr * dy) / a, (-sr * dx + cr * dy) / b

    def measure(self) -> float:
        return math.pi * self.semi_axes[0] * self.semi_axes[1]

    def centroid(self) -> Point:
        return self.center

    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        a, b = self.semi_axes
        cr, sr = math.cos(self.rotation), math.sin(self.rotation)
        half = np.array([math.hypot(a * cr, b * sr), math.hypot(a * sr, b * cr)])
        c = np.asarray(self.center)
        return c - half, c + half

    def contains(self, points: np.ndarray) -> np.ndarray:
        ex, ey = self._frame(points[:, 0] - self.center[0], points[:, 1] - self.center[1])
        return ex * ex + ey * ey <= 1.0

    def on_boundary(self, p, tol: float) -> bool:
        q = math.hypot(*self._frame(p[0] - self.center[0], p[1] - self.center[1]))
        return abs(q - 1.0) <= tol / min(self.semi_axes)

    def exit_parameter(self, origin, u) -> float:
        px, py = self._frame(origin[0] - self.center[0], origin[1] - self.center[1])
        qx, qy = self._frame(u[0], u[1])
        qq, pq = qx * qx + qy * qy, px * qx + py * qy
        return (-pq + math.sqrt(pq * pq - qq * (px * px + py * py - 1.0))) / qq

    def scaled_about(self, origin, factor: float) -> "Ellipse":
        a, b = self.semi_axes
        return Ellipse(
            center=_scale_point(self.center, origin, factor),
            semi_axes=(a * factor, b * factor),
            rotation=self.rotation,
        )

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
    center: Point
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _as_point(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        _check_dim(self.dim)
        _require_finite(f"{self.kind} center and radius", *self.center, self.radius)
        if not self.radius > 0.0:
            raise ValueError(f"radius must be positive, got {self.radius}")

    @property
    def dim(self) -> int:
        return len(self.center)

    def measure(self) -> float:
        """pi^(k/2) r^k / Gamma(k/2 + 1)."""
        k = self.dim
        return math.pi ** (k / 2.0) * self.radius**k / math.gamma(k / 2.0 + 1.0)

    def centroid(self) -> Point:
        return self.center

    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        c = np.asarray(self.center)
        return c - self.radius, c + self.radius

    def contains(self, points: np.ndarray) -> np.ndarray:
        dist_sq = np.zeros(len(points))
        for j, c in enumerate(self.center):
            d = points[:, j] - c
            dist_sq += d * d
        return dist_sq <= self.radius**2

    def on_boundary(self, p, tol: float) -> bool:
        return abs(math.dist(p, self.center) - self.radius) <= tol

    def exit_parameter(self, origin, u) -> float:
        # |origin + t*u - c|^2 = r^2 with origin inside or on the sphere
        w = np.asarray(origin, dtype=float) - np.asarray(self.center)
        b = float(np.dot(w, u))
        disc = b * b - (float(np.dot(w, w)) - self.radius**2)
        if disc < 0.0:
            raise ValueError("ray does not meet the sphere")
        return -b + math.sqrt(disc)

    def scaled_about(self, origin, factor: float) -> "Hyperball":
        return type(self)(
            center=_scale_point(self.center, origin, factor), radius=self.radius * factor
        )


@dataclass(frozen=True)
class Circle(Hyperball):
    """The 2-D ball."""

    kind = "circle"

    def __post_init__(self):
        super().__post_init__()
        if self.dim != 2:
            raise ValueError(f"circle center must be a 2-D point, got {self.center}")

    def boundary_points(self, count: int) -> list[Point]:
        cx, cy = self.center
        return [
            (cx + self.radius * math.cos(2.0 * math.pi * i / count),
             cy + self.radius * math.sin(2.0 * math.pi * i / count))
            for i in range(count)
        ]


@dataclass(frozen=True)
class Hypercube(ConvexBody):
    kind = "hypercube"
    centrally_symmetric = True
    min_corner: Point
    side: float

    def __post_init__(self):
        object.__setattr__(self, "min_corner", _as_point(self.min_corner))
        object.__setattr__(self, "side", float(self.side))
        _check_dim(self.dim)
        _require_finite("hypercube corner and side", *self.min_corner, self.side)
        if not self.side > 0.0:
            raise ValueError(f"side must be positive, got {self.side}")

    @property
    def dim(self) -> int:
        return len(self.min_corner)

    def measure(self) -> float:
        return self.side**self.dim

    def centroid(self) -> Point:
        half = 0.5 * self.side
        return tuple(c + half for c in self.min_corner)

    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.asarray(self.min_corner)
        return lo, lo + self.side

    def contains(self, points: np.ndarray) -> np.ndarray:
        inside = np.ones(len(points), dtype=bool)
        for j, lo in enumerate(self.min_corner):
            column = points[:, j]
            inside &= (column >= lo) & (column <= lo + self.side)
        return inside

    def on_boundary(self, p, tol: float) -> bool:
        lo, side = self.min_corner, self.side
        inside = all(lo[i] - tol <= p[i] <= lo[i] + side + tol for i in range(self.dim))
        on_face = any(
            abs(p[i] - lo[i]) <= tol or abs(p[i] - lo[i] - side) <= tol
            for i in range(self.dim)
        )
        return inside and on_face

    def exit_parameter(self, origin, u) -> float:
        lo, hi = self.bbox()
        best = math.inf
        for i in range(self.dim):
            if u[i] > 0.0:
                best = min(best, (hi[i] - origin[i]) / u[i])
            elif u[i] < 0.0:
                best = min(best, (lo[i] - origin[i]) / u[i])
        if not math.isfinite(best) or best <= 0.0:
            raise ValueError("ray exits the cube immediately")
        return float(best)

    def scaled_about(self, origin, factor: float) -> "Hypercube":
        # positive scaling keeps the box axis-aligned with the same min corner ordering
        return Hypercube(
            min_corner=_scale_point(self.min_corner, origin, factor), side=self.side * factor
        )


@dataclass(frozen=True)
class Simplex(ConvexBody):
    """k+1 affinely independent vertices in k dimensions."""

    kind = "simplex"
    vertices: tuple[Point, ...]

    def __post_init__(self):
        vertices = tuple(_as_point(v) for v in self.vertices)
        object.__setattr__(self, "vertices", vertices)
        k = len(vertices) - 1
        _check_dim(k)
        if any(len(v) != k for v in vertices):
            raise ValueError(f"a {k}-simplex needs {k + 1} vertices of dimension {k}")
        _require_finite("simplex vertices", *(x for v in vertices for x in v))
        edges = self._edge_matrix()
        scale = float(np.max(np.abs(edges))) or 1.0
        if not abs(np.linalg.det(edges / scale)) >= 1e-12:
            raise ValueError("simplex vertices are affinely dependent")

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    def _edge_matrix(self) -> np.ndarray:
        v = np.asarray(self.vertices)
        return (v[1:] - v[0]).T  # columns are edges out of vertex 0

    def barycentric(self, p) -> np.ndarray:
        """All k+1 barycentric weights of ``p`` (sum to 1, inside iff all >= 0)."""
        lam = np.linalg.solve(
            self._edge_matrix(), np.asarray(p, dtype=float) - np.asarray(self.vertices[0])
        )
        return np.concatenate(([1.0 - lam.sum()], lam))

    def measure(self) -> float:
        """|det| / k!."""
        return abs(float(np.linalg.det(self._edge_matrix()))) / math.factorial(self.dim)

    def centroid(self) -> Point:
        return _as_point(np.asarray(self.vertices).mean(axis=0))

    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        v = np.asarray(self.vertices)
        return v.min(axis=0), v.max(axis=0)

    @cached_property
    def _inverse_edges(self) -> np.ndarray:
        return np.linalg.inv(self._edge_matrix())

    def contains(self, points: np.ndarray) -> np.ndarray:
        # offsets from vertex 0 as a (k, m) array, one row per coordinate
        d = np.empty((self.dim, len(points)))
        for j, v0 in enumerate(self.vertices[0]):
            np.subtract(points[:, j], v0, out=d[j])
        lam = self._inverse_edges @ d
        return np.all(lam >= 0.0, axis=0) & (lam.sum(axis=0) <= 1.0)

    def on_boundary(self, p, tol: float) -> bool:
        lam = self.barycentric(p)
        slack = max(tol, 1e-12 * max(1.0, float(np.max(np.abs(lam)))))
        return bool(np.all(lam >= -slack) and np.min(lam) <= slack)

    def exit_parameter(self, origin, u) -> float:
        origin = np.asarray(origin, dtype=float)
        lam0 = self.barycentric(origin)
        dlam = self.barycentric(origin + u) - lam0
        best = math.inf
        for li, dli in zip(lam0, dlam):
            if dli < 0.0:
                t = -li / dli
                if t > 1e-12:
                    best = min(best, t)
        if not math.isfinite(best):
            raise ValueError("ray never leaves the simplex")
        return float(best)

    def scaled_about(self, origin, factor: float) -> "Simplex":
        return Simplex(vertices=tuple(_scale_point(v, origin, factor) for v in self.vertices))


Shape2D = Polygon | Circle | Ellipse
ShapeKd = Hyperball | Hypercube | Simplex
Shape = Polygon | Ellipse | Hyperball | Hypercube | Simplex


MAX_REGULAR_POLYGON_SIDES = 100_000  # bounds the time and memory one shape file can ask for


def regular_polygon(
    n: int, circumradius: float, orientation: float = 0.0, center: Point = (0.0, 0.0)
) -> Polygon:
    """Regular n-gon as an explicit vertex list, first vertex at ``orientation``.

    ``n`` is capped at ``MAX_REGULAR_POLYGON_SIDES``.
    """
    if n < 3:
        raise ValueError(f"need at least 3 sides, got {n}")
    if n > MAX_REGULAR_POLYGON_SIDES:
        raise ValueError(f"at most {MAX_REGULAR_POLYGON_SIDES} sides, got {n}")
    if not circumradius > 0.0:
        raise ValueError(f"circumradius must be positive, got {circumradius}")
    cx, cy = _as_point(center)
    step = 2.0 * math.pi / n
    return Polygon(
        tuple(
            (cx + circumradius * math.cos(orientation + step * i),
             cy + circumradius * math.sin(orientation + step * i))
            for i in range(n)
        )
    )


def _regular_polygon_from_dict(data: dict) -> Polygon:
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
    """
    if not isinstance(data, dict) or "type" not in data:
        raise ValueError("shape dictionary needs a 'type' key")
    kind = data["type"]
    if not isinstance(kind, str) or kind not in SHAPE_LOADERS:
        raise ValueError(f"unknown shape type {kind!r}")
    try:
        return SHAPE_LOADERS[kind](data)
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed {kind} shape: {exc}") from exc


def shape_to_dict(shape: Shape) -> dict:
    return shape.to_dict()
