import math
import tracemalloc

import numpy as np
import pytest

from edgebalance.montecarlo import (
    bounding_box,
    contains,
    point_in_shape,
    sample_region_centroid,
)
from edgebalance.ndim import (
    Hyperball,
    Hypercube,
    Simplex,
    balanced_boundary_point,
    composite_centroid_kd,
    plan_excision_kd,
)
from edgebalance.planar import (
    Circle,
    Ellipse,
    Polygon,
    chord_through_centroid,
    composite_centroid,
    find_balanced_chord,
    plan_excision,
    random_convex_polygon,
)
from edgebalance.shapes import PREFILTER_MIN_VERTICES

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

UNIT_SQUARE = Polygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
SIMPLEX_3 = Simplex(
    vertices=((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
)


class TestMembership:
    def test_square_inside(self):
        assert point_in_shape(UNIT_SQUARE, (0.5, 0.5))

    def test_square_outside(self):
        assert not point_in_shape(UNIT_SQUARE, (1.5, 0.5))

    def test_square_boundary_counts_inside(self):
        assert point_in_shape(UNIT_SQUARE, (1.0, 0.5))

    def test_simplex_interior(self):
        assert point_in_shape(SIMPLEX_3, (0.1, 0.1, 0.1))

    def test_simplex_exterior(self):
        assert not point_in_shape(SIMPLEX_3, (0.5, 0.5, 0.5))

    def test_circle_and_ellipse(self):
        assert point_in_shape(Circle(center=(1.0, 1.0), radius=0.5), (1.2, 1.0))
        assert not point_in_shape(Circle(center=(1.0, 1.0), radius=0.5), (1.6, 1.0))
        ell = Ellipse(center=(0.0, 0.0), semi_axes=(2.0, 1.0), rotation=math.pi / 2.0)
        assert point_in_shape(ell, (0.0, 1.9))
        assert not point_in_shape(ell, (1.9, 0.0))

    def test_ball_and_cube(self):
        assert point_in_shape(Hyperball(center=(0.0, 0.0, 0.0, 0.0), radius=1.0), (0.5, 0, 0, 0))
        assert not point_in_shape(Hyperball(center=(0.0,) * 4, radius=1.0), (0.6, 0.6, 0.6, 0.6))
        cube = Hypercube(min_corner=(0.0, 0.0), side=2.0)
        assert point_in_shape(cube, (1.0, 2.0))
        assert not point_in_shape(cube, (2.1, 1.0))

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(-1.5, 1.5, size=(200, 2))
        ell = Ellipse(center=(0.1, -0.2), semi_axes=(1.2, 0.6), rotation=0.8)
        mask = contains(ell, pts)
        for p, m in zip(pts, mask):
            assert point_in_shape(ell, p) == bool(m)


class TestBoundingBox:
    def test_ellipse_box_is_tight(self):
        ell = Ellipse(center=(0.0, 0.0), semi_axes=(2.0, 1.0), rotation=0.6)
        lo, hi = bounding_box(ell)
        # every boundary point inside the box, extreme points close to it
        from edgebalance.planar import boundary_points

        pts = np.asarray(boundary_points(ell, 4096))
        assert np.all(pts >= lo - 1e-12) and np.all(pts <= hi + 1e-12)
        assert np.max(pts[:, 0]) == pytest.approx(hi[0], abs=1e-5)
        assert np.max(pts[:, 1]) == pytest.approx(hi[1], abs=1e-5)

    def test_cube_box(self):
        lo, hi = bounding_box(Hypercube(min_corner=(1.0, 2.0, 3.0), side=0.5))
        assert lo.tolist() == [1.0, 2.0, 3.0]
        assert hi.tolist() == [1.5, 2.5, 3.5]


class TestSampling:
    def test_square_without_cavity(self):
        est = sample_region_centroid(UNIT_SQUARE, None, 1_000_000, seed=42)
        assert est.samples_accepted == est.samples_total  # box equals shape
        for coord, se in zip(est.centroid_estimate, est.std_error):
            assert abs(coord - 0.5) <= 4.0 * se

    def test_deterministic_for_fixed_seed(self):
        a = sample_region_centroid(UNIT_SQUARE, None, 50_000, seed=7)
        b = sample_region_centroid(UNIT_SQUARE, None, 50_000, seed=7)
        assert a == b

    def test_different_seeds_differ(self):
        a = sample_region_centroid(UNIT_SQUARE, None, 50_000, seed=7)
        b = sample_region_centroid(UNIT_SQUARE, None, 50_000, seed=8)
        assert a.centroid_estimate != b.centroid_estimate

    def test_multi_batch_equals_known_composition(self):
        # spanning a batch boundary stays deterministic and seed-derived
        est = sample_region_centroid(UNIT_SQUARE, None, 1_200_000, seed=3)
        assert est.samples_total == 1_200_000
        assert est.samples_accepted == 1_200_000

    def test_rejects_small_n_and_bad_seed(self):
        with pytest.raises(ValueError):
            sample_region_centroid(UNIT_SQUARE, None, 10, seed=1)
        with pytest.raises(ValueError):
            sample_region_centroid(UNIT_SQUARE, None, 5000, seed=-1)

    def test_zero_acceptance_raises(self):
        ring_cavity = Circle(center=(0.0, 0.0), radius=10.0)  # swallows the square
        with pytest.raises(ValueError, match="accepted"):
            sample_region_centroid(UNIT_SQUARE, ring_cavity, 5000, seed=1)

    def test_crescent_estimate_hits_exact_centroid(self):
        circle = Circle(center=(GOLDEN / 2.0, 0.0), radius=GOLDEN / 2.0)
        plan = plan_excision(circle, chord_through_centroid(circle, 0.0))
        exact = composite_centroid(plan)
        est = sample_region_centroid(circle, plan.cavity, 2_000_000, seed=42)
        for e, x, se in zip(est.centroid_estimate, exact, est.std_error):
            assert abs(e - x) <= 4.0 * se
        assert est.std_error[0] < 1e-3

    def test_four_dim_ball_excision(self):
        ball = Hyperball(center=(0.0,) * 4, radius=1.0)
        plan = plan_excision_kd(ball, balanced_boundary_point(ball))
        exact = composite_centroid_kd(plan)
        est = sample_region_centroid(ball, plan.cavity, 2_000_000, seed=11)
        for e, x, se in zip(est.centroid_estimate, exact, est.std_error):
            assert abs(e - x) <= 4.0 * se

    def test_coverage_of_error_bars(self):
        # 3 sigma per coordinate should cover the truth in nearly all runs
        hits = 0
        for seed in range(50):
            est = sample_region_centroid(UNIT_SQUARE, None, 20_000, seed=seed)
            if all(
                abs(c - 0.5) <= 3.0 * se
                for c, se in zip(est.centroid_estimate, est.std_error)
            ):
                hits += 1
        assert hits >= 47

    def test_acceptance_ratio_estimates_area(self):
        circle = Circle(center=(0.0, 0.0), radius=1.0)
        est = sample_region_centroid(circle, None, 1_000_000, seed=21)
        p = est.acceptance_fraction
        se_area = est.box_volume * math.sqrt(p * (1.0 - p) / est.samples_total)
        assert abs(est.region_measure - math.pi) <= 5.0 * se_area

    def test_simplex_region_measure(self):
        est = sample_region_centroid(SIMPLEX_3, None, 1_000_000, seed=13)
        p = est.acceptance_fraction
        se = est.box_volume * math.sqrt(p * (1.0 - p) / est.samples_total)
        assert abs(est.region_measure - 1.0 / 6.0) <= 5.0 * se


def _squashed(poly, factor):
    """``poly`` squashed in y, then turned so that the thin direction mixes both axes."""
    c, s = math.cos(0.5), math.sin(0.5)
    return Polygon(tuple((c * x - s * y * factor, s * x + c * y * factor) for x, y in poly.vertices))


def _needle(width, scale=1.0):
    """A 16-gon whose tip, 1 from a half circle of radius ``width``, is its sharpest vertex."""
    arc = np.linspace(0.5 * math.pi, 1.5 * math.pi, 15)
    pts = [(1.0, 0.0)] + [(width * math.cos(a), width * math.sin(a)) for a in arc]
    c, s = math.cos(0.5), math.sin(0.5)
    return Polygon(tuple((scale * (c * x - s * y), scale * (s * x + c * y)) for x, y in pts))


POLY_5 = random_convex_polygon(5, np.random.default_rng(5))
POLY_50 = random_convex_polygon(50, np.random.default_rng(50))
POLY_100 = random_convex_polygon(100, np.random.default_rng(100))


def _all_edges(poly, pts):
    """Every point against every edge at once, the polygon kernel's arithmetic."""
    v = np.asarray(poly.vertices)
    edges = np.roll(v, -1, axis=0) - v
    masks = []
    for i in range(0, len(pts), 10_000):
        rel = pts[i : i + 10_000, None, :] - v[None, :, :]
        cross = edges[None, :, 0] * rel[:, :, 1] - edges[None, :, 1] * rel[:, :, 0]
        masks.append(np.all(cross >= 0.0, axis=1))
    return np.concatenate(masks)


def _whole_batch_reference(shape, cavity, n, seed):
    """The sampler as one draw per batch: accepted count and raw-moment centroid."""

    def inside(body, pts):
        if isinstance(body, Polygon):
            return _all_edges(body, pts)
        if isinstance(body, Simplex):
            # the barycentric weights of every point in one solve
            v = np.asarray(body.vertices)
            lam = np.linalg.solve((v[1:] - v[0]).T, (pts - v[0]).T)
            return np.all(lam >= 0.0, axis=0) & (lam.sum(axis=0) <= 1.0)
        if isinstance(body, Hypercube):
            lo, hi = body.bbox()
            return np.all((pts >= lo) & (pts <= hi), axis=1)
        if isinstance(body, Ellipse):
            d = pts - np.asarray(body.center)
            ex, ey = body._frame(d[:, 0], d[:, 1])
            return ex * ex + ey * ey <= 1.0
        d = pts - np.asarray(body.center)
        return np.einsum("ij,ij->i", d, d) <= body.radius**2

    lo, hi = shape.bbox()
    accepted, total = 0, np.zeros(lo.size)
    for index, start in enumerate(range(0, n, 1_000_000)):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, index))))
        pts = lo + rng.random((min(1_000_000, n - start), lo.size)) * (hi - lo)
        keep = inside(shape, pts)
        if cavity is not None:
            keep &= ~inside(cavity, pts)
        accepted += int(keep.sum())
        total += pts[keep].sum(axis=0)
    return accepted, total / accepted


def _with_cavity(body):
    if body.dim == 2 and not isinstance(body, Hyperball):
        return body, plan_excision(body, find_balanced_chord(body)).cavity
    return body, plan_excision_kd(body, balanced_boundary_point(body)).cavity


class TestChunkedStream:
    @pytest.mark.parametrize(
        "shape, cavity, n",
        [
            (*_with_cavity(POLY_5), 150_000),
            (*_with_cavity(POLY_50), 150_000),
            (POLY_100, None, 150_000),
            (*_with_cavity(Ellipse(center=(0.3, -0.2), semi_axes=(1.5, 0.7), rotation=0.4)), 150_000),
            (*_with_cavity(Hyperball(center=(0.2, -0.1, 0.4), radius=1.3)), 150_000),
            (*_with_cavity(Hypercube(min_corner=(-0.5, 0.1, 0.2, 0.0, 1.0), side=1.5)), 150_000),
            (*_with_cavity(SIMPLEX_3), 150_000),
            # spans the batch boundary and a short chunk in the second batch
            (*_with_cavity(Circle(center=(0.5, 0.5), radius=0.5)), 1_070_000),
        ],
        ids=["polygon5", "polygon50", "polygon100", "ellipse", "ball3", "cube5", "simplex3", "circle"],
    )
    def test_reproduces_whole_batch_draws(self, shape, cavity, n):
        est = sample_region_centroid(shape, cavity, n, seed=9)
        accepted, centroid = _whole_batch_reference(shape, cavity, n, 9)
        assert est.samples_accepted == accepted
        assert est.centroid_estimate == pytest.approx(tuple(centroid), rel=1e-12, abs=1e-12)


class TestBadArguments:
    @pytest.mark.parametrize(
        "n, cavity, message",
        [
            (1e6, None, "sample count must be an integer"),
            (2000.5, None, "sample count must be an integer"),
            (True, None, "sample count must be an integer"),
            ("5000", None, "sample count must be an integer"),
            (5000, SIMPLEX_3, "cavity dimension 3 differs from the body's dimension 2"),
        ],
        ids=["float-1e6", "float-fraction", "bool", "string", "cavity-dimension"],
    )
    def test_refused_with_a_value_error(self, n, cavity, message):
        with pytest.raises(ValueError, match=message):
            sample_region_centroid(UNIT_SQUARE, cavity, n, seed=1)

    def test_numpy_integer_count_is_accepted(self):
        est = sample_region_centroid(UNIT_SQUARE, None, np.int64(5000), seed=1)
        assert est.samples_total == 5000 and isinstance(est.samples_total, int)


class TestFarFromOrigin:
    @pytest.mark.parametrize("offset", [1e3, 1e6, 1e7, 1e8])
    def test_shifted_ball_matches_the_ball_at_the_origin(self, offset):
        home = sample_region_centroid(Hyperball(center=(0.0,) * 3, radius=1.0), None, 100_000, 1)
        centre = (offset, -offset, offset)
        far = sample_region_centroid(Hyperball(center=centre, radius=1.0), None, 100_000, 1)
        assert far.samples_accepted == home.samples_accepted
        assert far.std_error == pytest.approx(home.std_error, rel=1e-9)
        for e, c, h, se in zip(far.centroid_estimate, centre, home.centroid_estimate, home.std_error):
            assert abs((e - c) - h) <= 1e-4 * se


def _layouts(pts):
    return [np.ascontiguousarray(pts), np.asfortranarray(pts)]


class TestKernels:
    """Column-wise ``contains`` against per-point references, for C and F input."""

    def test_simplex_matches_barycentric(self):
        rng = np.random.default_rng(3)
        for k in (2, 3, 6, 10):
            base = np.vstack([np.zeros(k), np.eye(k)]) + rng.uniform(-0.1, 0.1, (k + 1, k))
            simplex = Simplex(vertices=tuple(map(tuple, base * 2.0 + 5.0)))
            # points of the simplex scaled about its centroid by 0.5 to 1.5
            v = np.asarray(simplex.vertices)
            c = v.mean(axis=0)
            scale = rng.uniform(0.5, 1.5, (2000, 1))
            pts = c + scale * (rng.dirichlet(np.ones(k + 1), 2000) @ v - c)
            expected = np.array([bool(np.all(simplex.barycentric(p) >= 0.0)) for p in pts])
            assert 0 < expected.sum() < len(pts)
            for layout in _layouts(pts):
                assert np.array_equal(simplex.contains(layout), expected)

    def test_ball_and_cube_match_direct_formulas(self):
        rng = np.random.default_rng(4)
        for k in (2, 3, 10):
            ball = Hyperball(center=tuple(rng.uniform(-1.0, 1.0, k)), radius=0.75)
            cube = Hypercube(min_corner=tuple(rng.uniform(-1.0, 1.0, k)), side=0.75)
            for body in (ball, cube):
                lo, hi = body.bbox()
                pts = np.vstack([
                    lo + rng.random((2000, k)) * (hi - lo),
                    lo + np.eye(k) * (hi - lo),  # boundary of the cube, outside the ball
                    0.5 * (lo + hi) + np.eye(k) * 0.75,  # boundary of the ball
                ])
                if body is ball:
                    expected = []
                    for p in pts:
                        dist_sq = 0.0
                        for x, c in zip(p, ball.center):
                            dist_sq += (x - c) * (x - c)
                        expected.append(dist_sq <= 0.75**2)
                else:
                    expected = [all(a <= x <= a + 0.75 for x, a in zip(p, cube.min_corner)) for p in pts]
                for layout in _layouts(pts):
                    assert body.contains(layout).tolist() == expected

    @pytest.mark.parametrize(
        "poly",
        [
            POLY_100,
            _squashed(POLY_50, 1e-5),
            _squashed(POLY_50, 1e-9),
            _needle(1e-9),
            _needle(1e-9, scale=1e9),
        ],
        ids=["polygon100", "squashed1e-5", "squashed1e-9", "needle", "needle-x1e9"],
    )
    def test_polygon_matches_all_edges(self, poly):
        assert len(poly.vertices) >= PREFILTER_MIN_VERTICES
        rng = np.random.default_rng(6)
        v = np.asarray(poly.vertices)
        c = np.asarray(poly.centroid())
        e = np.roll(v, -1, axis=0) - v
        # the feet of the perpendiculars from the centroid (the nearest lies on
        # the inscribed circle), the vertices (the farthest lies on the
        # circumscribed one) and the edge midpoints, each also moved toward
        # and away from the centroid by 1e-16 to 1e-3 of its distance
        foot = v + e * (np.einsum("ij,ij->i", c - v, e) / np.einsum("ij,ij->i", e, e))[:, None]
        targets = np.vstack([foot, v, 0.5 * (v + np.roll(v, -1, axis=0))])
        rel = np.concatenate([[0.0], np.geomspace(1e-16, 1e-3, 66)])
        factors = np.concatenate([1.0 - rel, 1.0 + rel])
        near = c + (targets[:, None, :] - c) * factors[None, :, None]
        # clouds about each target, 1e-17 to 1e-7 of the diameter across
        lo, hi = poly.bbox()
        diameter = float(np.max(np.hypot(*(v[:, None, :] - v[None, :, :]).T)))
        angle = rng.uniform(0.0, 2.0 * math.pi, (len(targets), 100))
        radius = diameter * 10.0 ** rng.uniform(-17.0, -7.0, angle.shape)
        cloud = targets[:, None, :] + radius[..., None] * np.stack([np.cos(angle), np.sin(angle)], -1)
        pts = np.vstack([
            near.reshape(-1, 2),
            cloud.reshape(-1, 2),
            targets,
            lo + rng.random((20_000, 2)) * (hi - lo),
        ])
        expected = _all_edges(poly, pts)
        assert 0 < expected.sum() < len(pts)
        for layout in _layouts(pts):
            assert np.array_equal(poly.contains(layout), expected)


def test_sampler_memory_is_bounded():
    ball = Hyperball(center=(0.0,) * 10, radius=1.0)
    cavity = plan_excision_kd(ball, balanced_boundary_point(ball)).cavity
    tracemalloc.start()
    try:
        est = sample_region_centroid(ball, cavity, 1_000_000, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.samples_accepted > 0
    assert peak < 32_000_000
