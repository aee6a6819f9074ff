import math
import os
import subprocess
import sys

import numpy as np
import pytest

from edgebalance import planar
from edgebalance.planar import (
    Chord,
    Circle,
    Ellipse,
    Polygon,
    area,
    beta_complement,
    boundary_points,
    centroid,
    chord_through_centroid,
    composite_centroid,
    excision_with_ratio,
    find_balanced_chord,
    find_chord_with_beta,
    plan_excision,
    random_convex_polygon,
    regular_polygon,
    regular_polygon_betas,
    scan_balanced_chords,
    shape_from_dict,
    shape_to_dict,
    verify_balance,
)
from edgebalance.polynomials import PhysicalityError
from edgebalance.shapes import Hyperball, Hypercube, Simplex

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

UNIT_SQUARE = Polygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
TRIANGLE = Polygon(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))


def inside_convex(shape, p, slack=1e-9):
    """Membership oracle used only by these tests."""
    if isinstance(shape, Polygon):
        v = shape.vertices
        for i in range(len(v)):
            a, b = v[i], v[(i + 1) % len(v)]
            cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
            if cross < -slack:
                return False
        return True
    if isinstance(shape, Circle):
        return math.dist(p, shape.center) <= shape.radius + slack
    cr, sr = math.cos(shape.rotation), math.sin(shape.rotation)
    dx, dy = p[0] - shape.center[0], p[1] - shape.center[1]
    ex = (cr * dx + sr * dy) / shape.semi_axes[0]
    ey = (-sr * dx + cr * dy) / shape.semi_axes[1]
    return math.hypot(ex, ey) <= 1.0 + slack


class TestShapes:
    def test_rejects_clockwise_vertices(self):
        with pytest.raises(ValueError, match="counterclockwise"):
            Polygon(((0.0, 0.0), (0.0, 1.0), (1.0, 0.0)))

    def test_rejects_collinear_vertices(self):
        with pytest.raises(ValueError, match="collinear"):
            Polygon(((0.0, 0.0), (0.5, 0.0), (1.0, 0.0), (0.0, 1.0)))

    def test_rejects_too_few_vertices(self):
        with pytest.raises(ValueError):
            Polygon(((0.0, 0.0), (1.0, 0.0)))

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            Circle(center=(0.0, 0.0), radius=0.0)

    def test_rejects_bad_semi_axes(self):
        with pytest.raises(ValueError):
            Ellipse(center=(0.0, 0.0), semi_axes=(1.0, -2.0))

    def test_regular_polygon_vertex_count_and_radius(self):
        pent = regular_polygon(5, 2.0)
        assert len(pent.vertices) == 5
        assert all(math.hypot(*v) == pytest.approx(2.0, abs=1e-12) for v in pent.vertices)


class TestAreaAndCentroid:
    def test_unit_square(self):
        assert area(UNIT_SQUARE) == 1.0
        assert centroid(UNIT_SQUARE) == (0.5, 0.5)

    def test_circle_quarter_pi(self):
        # diameter 1 gives area pi/4
        assert area(Circle(center=(0.0, 0.0), radius=0.5)) == math.pi / 4.0

    def test_triangle(self):
        assert area(TRIANGLE) == 0.5
        assert centroid(TRIANGLE) == pytest.approx((1.0 / 3.0, 1.0 / 3.0), abs=1e-15)

    def test_circle_centroid_is_center(self):
        assert centroid(Circle(center=(2.0, 3.0), radius=1.0)) == (2.0, 3.0)

    def test_ellipse_area(self):
        assert area(Ellipse(center=(0.0, 0.0), semi_axes=(3.0, 2.0))) == math.pi * 6.0

    def test_polygon_area_matches_numpy_shoelace(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            poly = random_convex_polygon(int(rng.integers(3, 30)), rng)
            v = np.array(poly.vertices)
            x, y = v[:, 0], v[:, 1]
            oracle = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
            assert area(poly) == pytest.approx(oracle, rel=1e-12)
            assert area(poly) > 0.0


class TestChords:
    @pytest.mark.parametrize("theta", [0.0, 0.3, 1.57, 2.9, -1.1])
    def test_circle_beta_is_exactly_half(self, theta):
        chord = chord_through_centroid(Circle(center=(1.0, -2.0), radius=3.0), theta)
        assert chord.beta == 0.5

    @pytest.mark.parametrize("theta", [0.0, 0.7, 2.0])
    def test_ellipse_beta_is_half_and_ends_on_boundary(self, theta):
        shape = Ellipse(center=(0.5, 0.5), semi_axes=(2.0, 1.0), rotation=0.4)
        chord = chord_through_centroid(shape, theta)
        assert chord.beta == 0.5
        for p in (chord.tangent_point, chord.far_point):
            assert inside_convex(shape, p, slack=1e-12)
            cr, sr = math.cos(0.4), math.sin(0.4)
            dx, dy = p[0] - 0.5, p[1] - 0.5
            q = math.hypot((cr * dx + sr * dy) / 2.0, (-sr * dx + cr * dy) / 1.0)
            assert q == pytest.approx(1.0, abs=1e-12)

    def test_pentagon_vertex_chord_matches_closed_form(self):
        pent = regular_polygon(5, 1.0, orientation=math.pi / 2.0)
        # tangency at the top vertex: chord points straight down through the centroid
        chord = chord_through_centroid(pent, -math.pi / 2.0)
        assert chord.beta == pytest.approx(1.0 / (1.0 + math.cos(math.pi / 5.0)), abs=1e-12)
        assert chord.tangent_point == pytest.approx((0.0, 1.0), abs=1e-12)

    def test_equilateral_triangle_vertex_chord(self):
        tri = regular_polygon(3, 1.0, orientation=math.pi / 2.0)
        chord = chord_through_centroid(tri, -math.pi / 2.0)
        assert chord.beta == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_square_diagonal_chord(self):
        chord = chord_through_centroid(UNIT_SQUARE, math.pi / 4.0)
        assert chord.tangent_point == pytest.approx((0.0, 0.0), abs=1e-12)
        assert chord.far_point == pytest.approx((1.0, 1.0), abs=1e-12)
        assert chord.beta == pytest.approx(0.5, abs=1e-12)

    def test_chord_validation_rejects_off_line_centroid(self):
        with pytest.raises(ValueError, match="chord"):
            Chord(
                tangent_point=(0.0, 0.0),
                far_point=(1.0, 0.0),
                centroid=(0.5, 0.3),
                beta=0.5,
            )

    def test_complement_pairs_sum_to_one(self):
        pent = regular_polygon(5, 1.0, orientation=math.pi / 2.0)
        b1, b2 = beta_complement(pent, -math.pi / 2.0)
        assert b1 == pytest.approx(0.5527864045000421, abs=1e-12)
        assert b2 == pytest.approx(0.4472135954999579, abs=1e-12)
        assert b1 + b2 == pytest.approx(1.0, abs=1e-12)

    def test_complement_on_circle(self):
        assert beta_complement(Circle(center=(0.0, 0.0), radius=1.0), 0.2) == (0.5, 0.5)

    def test_scan_on_a_circle_returns_the_horizontal_chord_alone(self):
        # every direction balances a round body, so the scan gives one chord
        circle = Circle(center=(1.0, 2.0), radius=0.5)
        assert scan_balanced_chords(circle) == [chord_through_centroid(circle, 0.0)]

    def test_complement_identity_on_random_polygons(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            poly = random_convex_polygon(int(rng.integers(3, 25)), rng)
            for theta in rng.uniform(0.0, 2.0 * math.pi, size=100):
                b1, b2 = beta_complement(poly, float(theta))
                assert abs(b1 + b2 - 1.0) <= 1e-12


class TestBalancedChordSearch:
    def test_circle_returns_horizontal_chord(self):
        chord = find_balanced_chord(Circle(center=(0.0, 0.0), radius=2.0))
        assert chord.beta == 0.5
        assert chord.tangent_point == pytest.approx((-2.0, 0.0), abs=1e-12)

    def test_pentagon_balanced_chord(self):
        pent = regular_polygon(5, 1.0, orientation=math.pi / 2.0)
        chord = find_balanced_chord(pent, tol=1e-12)
        assert abs(chord.beta - 0.5) <= 1e-12
        # neither through a vertex nor an edge midpoint: strictly between
        # the vertex offset and the midpoint offset
        v_beta, m_beta = regular_polygon_betas(5)
        assert m_beta < chord.beta + 0.1  # sanity on ordering only

    def test_scalene_triangle_bisection_vs_dense_scan(self):
        tri = Polygon(((0.0, 0.0), (4.0, 0.0), (1.0, 2.0)))
        chord = find_balanced_chord(tri, tol=1e-12)
        assert abs(chord.beta - 0.5) < 1e-10
        # dense scan oracle: the sign of beta(theta) - 1/2 flips inside a
        # grid cell whose endpoints bracket the chord the search returned
        c = centroid(tri)
        thetas = np.linspace(0.0, math.pi, 20001)
        betas = np.array([chord_through_centroid(tri, t).beta for t in thetas])
        flips = np.nonzero(np.diff(np.sign(betas - 0.5)))[0]
        assert flips.size > 0
        mid = chord.tangent_point
        found = math.atan2(c[1] - mid[1], c[0] - mid[0]) % math.pi
        assert any(
            thetas[i] - 1e-3 <= found <= thetas[i + 1] + 1e-3 for i in flips
        )

    def test_even_regular_polygon_any_vertex_direction_balances(self):
        hexagon = regular_polygon(6, 1.0)
        chord = find_balanced_chord(hexagon, tol=1e-12)
        assert abs(chord.beta - 0.5) <= 1e-12

    def test_regular_hexagon_has_one_balanced_chord(self):
        # beta is 1/2 in every direction, which is one run of roots
        chords = scan_balanced_chords(regular_polygon(6, 1.0))
        assert len(chords) == 1
        assert abs(chords[0].beta - 0.5) <= 1e-12

    def test_clockwise_simplex_searches_like_the_same_triangle(self):
        # a 2-D simplex may list its vertices clockwise; vertex 0 stays the start
        simplex = Simplex(((0.0, 0.0), (1.0, 2.0), (3.0, 0.0)))
        triangle = Polygon(((0.0, 0.0), (3.0, 0.0), (1.0, 2.0)))
        for a, b in zip(scan_balanced_chords(simplex), scan_balanced_chords(triangle), strict=True):
            assert a.far_point == pytest.approx(b.far_point, abs=1e-12)

    def test_random_polygons_all_find_balanced_chord(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            poly = random_convex_polygon(int(rng.integers(4, 40)), rng)
            chord = find_balanced_chord(poly, tol=1e-12)
            assert abs(chord.beta - 0.5) <= 1e-12

    def test_scan_finds_balanced_chords(self):
        tri = Polygon(((0.0, 0.0), (4.0, 0.0), (1.0, 2.0)))
        chords = scan_balanced_chords(tri, tol=1e-12)
        assert len(chords) >= 1
        assert all(abs(ch.beta - 0.5) <= 1e-12 for ch in chords)

    def test_scan_takes_tol_by_keyword_only(self):
        # the second positional argument used to be a grid size; 720 must not
        # become a tolerance
        with pytest.raises(TypeError):
            scan_balanced_chords(TRIANGLE, 720)

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, math.inf])
    @pytest.mark.parametrize(
        "search",
        [
            find_balanced_chord,
            lambda shape, tol: find_chord_with_beta(shape, 0.45, tol),
            lambda shape, tol: scan_balanced_chords(shape, tol=tol),
        ],
        ids=["find_balanced_chord", "find_chord_with_beta", "scan_balanced_chords"],
    )
    def test_searches_refuse_a_tolerance_that_is_not_positive(self, search, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            search(Polygon(((0.0, 0.0), (4.0, 0.0), (1.0, 2.0))), tol)

    def test_targeted_offset_search(self):
        tri = regular_polygon(3, 1.0)
        for target in (0.4, 0.5, 0.6, 0.65):
            chord = find_chord_with_beta(tri, target, tol=1e-12)
            assert abs(chord.beta - target) <= 1e-12

    def test_target_between_sampled_directions_is_found(self):
        # a 256-direction scan saw no offset below 0.4580 on this 22-gon and
        # refused the target, which the chord it was taken from attains
        rng = np.random.default_rng(417)
        poly = random_convex_polygon(int(rng.integers(3, 120)), rng)
        target = chord_through_centroid(poly, float(rng.uniform(0.0, 2.0 * math.pi))).beta
        assert len(poly.vertices) == 22 and target < 0.4573
        chord = find_chord_with_beta(poly, target, tol=1e-12)
        assert abs(chord.beta - target) <= 1e-12

    def test_thin_polygon_leaves_out_roots_no_angle_resolves(self):
        # near the long axis beta changes by more than 1e-12 between
        # neighbouring angles, so some roots cannot be met (2 of 5 here); the
        # search returns the others instead of failing
        base = random_convex_polygon(12, np.random.default_rng(1))
        thin = Polygon(tuple((x, 1e-5 * y) for x, y in base.vertices))
        chords = scan_balanced_chords(thin)
        assert chords and all(abs(ch.beta - 0.5) <= 1e-12 for ch in chords)
        assert abs(find_balanced_chord(thin).beta - 0.5) <= 1e-12

    def test_unresolvable_root_costs_few_chord_builds(self, monkeypatch):
        # the fallback bisection stops once float spacing runs out instead of
        # rebuilding the same chord until its step cap
        base = random_convex_polygon(12, np.random.default_rng(1))
        thin = Polygon(tuple((x, 1e-5 * y) for x, y in base.vertices))
        calls = 0
        build = planar.chord_through_centroid

        def counted(shape, theta):
            nonlocal calls
            calls += 1
            return build(shape, theta)

        monkeypatch.setattr(planar, "chord_through_centroid", counted)
        assert scan_balanced_chords(thin)
        assert calls < 150

    @pytest.mark.parametrize(
        "search",
        [scan_balanced_chords, find_balanced_chord, lambda s: find_chord_with_beta(s, 0.53)],
        ids=["scan", "balanced", "beta"],
    )
    def test_search_builds_no_chord_through_the_shape(self, monkeypatch, search):
        # every chord and every fallback bisection step is read off the sweep
        # rows of its interval and the two beside it, never found by walking the boundary
        base = random_convex_polygon(12, np.random.default_rng(1))
        thin = Polygon(tuple((x, 1e-5 * y) for x, y in base.vertices))
        calls = 0
        for cls in (Polygon, Simplex):
            for name in ("exit_parameter", "_centroid_exits"):

                def counted(self, *args, exit=getattr(cls, name)):
                    nonlocal calls
                    calls += 1
                    return exit(self, *args)

                monkeypatch.setattr(cls, name, counted)
        assert chord_through_centroid(thin, 0.3) and calls == 1  # the counters count
        calls = 0
        assert search(thin)
        assert calls == 0

    def test_targeted_offset_unattainable(self):
        # offsets below 1/3 do not exist on any convex planar body
        with pytest.raises(ValueError, match="offset"):
            find_chord_with_beta(regular_polygon(3, 1.0), 0.2, tol=1e-12)
        with pytest.raises(ValueError, match="beta = 1/2"):
            find_chord_with_beta(Circle(center=(0.0, 0.0), radius=1.0), 0.4)


class TestExcisionPlanning:
    def test_circle_diameter_gives_golden_ratio(self):
        circle = Circle(center=(0.0, 0.0), radius=1.0)
        plan = plan_excision(circle, chord_through_centroid(circle, 0.0))
        assert plan.scale_ratio == pytest.approx(GOLDEN, abs=1e-12)

    def test_square_diagonal_golden_plan(self):
        chord = chord_through_centroid(UNIT_SQUARE, math.pi / 4.0)
        plan = plan_excision(UNIT_SQUARE, chord)
        assert plan.scale_ratio == pytest.approx(GOLDEN, abs=1e-11)
        assert plan.balance_point == pytest.approx((0.6180, 0.6180), abs=1e-4)
        assert plan.balance_point == pytest.approx((1 / GOLDEN, 1 / GOLDEN), abs=1e-11)

    def test_triangle_vertex_chord_refused(self):
        tri = regular_polygon(3, 1.0, orientation=math.pi / 2.0)
        chord = chord_through_centroid(tri, -math.pi / 2.0)
        assert chord.beta == pytest.approx(2.0 / 3.0, abs=1e-12)
        with pytest.raises(PhysicalityError):
            plan_excision(tri, chord)

    def test_rejects_foreign_chord(self):
        chord = chord_through_centroid(Circle(center=(5.0, 5.0), radius=1.0), 0.0)
        with pytest.raises(ValueError):
            plan_excision(UNIT_SQUARE, chord)

    @pytest.mark.parametrize(
        "body",
        [
            random_convex_polygon(9, np.random.default_rng(3)),
            Ellipse(center=(0.3, -0.2), semi_axes=(2.0, 0.5), rotation=0.6),
            Simplex(vertices=((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.2, 1.0, 0.0), (0.1, 0.3, 1.5))),
            Hypercube(min_corner=(0.5, -1.0, 0.0, 2.0), side=1.5),
        ],
        ids=["polygon", "ellipse", "simplex3", "cube4"],
    )
    @pytest.mark.parametrize("move", ["shrink", "push"])
    def test_rejects_chord_with_ends_off_the_boundary(self, body, move):
        # a chord through the body's own centroid with its ends moved along it:
        # its line, centroid and beta still fit, its ends do not
        u = np.arange(1.0, body.dim + 1.0)
        chord = planar._centroid_chord(body, tuple(u / np.linalg.norm(u)))
        o, q, c = map(np.asarray, (chord.tangent_point, chord.far_point, chord.centroid))
        if move == "shrink":  # about the centroid, by 0.9
            o, q = c + 0.9 * (o - c), c + 0.9 * (q - c)
        else:  # the far end out by 1e-6 of the chord's length
            q = q + 1e-6 * (q - o)
        beta = float(np.linalg.norm(c - o) / np.linalg.norm(q - o))
        with pytest.raises(ValueError, match="not on the shape boundary"):
            plan_excision(body, Chord(tuple(o), tuple(q), tuple(c), beta))

    def test_explicit_ratio_must_exceed_one(self):
        chord = chord_through_centroid(UNIT_SQUARE, math.pi / 4.0)
        with pytest.raises(PhysicalityError):
            excision_with_ratio(UNIT_SQUARE, chord, 1.0)

    def test_cavity_is_scaled_copy(self):
        chord = chord_through_centroid(UNIT_SQUARE, math.pi / 4.0)
        plan = plan_excision(UNIT_SQUARE, chord)
        o = chord.tangent_point
        inv = 1.0 / plan.scale_ratio
        for outer, inner in zip(plan.shape.vertices, plan.cavity.vertices):
            assert inner[0] == pytest.approx(o[0] + (outer[0] - o[0]) * inv, abs=1e-13)
            assert inner[1] == pytest.approx(o[1] + (outer[1] - o[1]) * inv, abs=1e-13)

    def test_conic_cavity_similarity_on_sampled_boundary(self):
        shape = Ellipse(center=(0.2, -0.1), semi_axes=(2.0, 1.0), rotation=0.3)
        chord = chord_through_centroid(shape, 1.1)
        plan = plan_excision(shape, chord)
        o = chord.tangent_point
        inv = 1.0 / plan.scale_ratio
        for outer, inner in zip(boundary_points(shape, 64), boundary_points(plan.cavity, 64)):
            assert inner[0] == pytest.approx(o[0] + (outer[0] - o[0]) * inv, abs=1e-12)
            assert inner[1] == pytest.approx(o[1] + (outer[1] - o[1]) * inv, abs=1e-12)

    def test_cavity_contained_in_shape(self):
        rng = np.random.default_rng(3)
        shapes = [
            Circle(center=(0.0, 0.0), radius=1.0),
            Ellipse(center=(1.0, 2.0), semi_axes=(1.5, 0.5), rotation=1.0),
            random_convex_polygon(17, rng),
        ]
        for shape in shapes:
            plan = plan_excision(shape, find_balanced_chord(shape))
            for p in boundary_points(plan.cavity, 1000):
                assert inside_convex(shape, p, slack=1e-9)

    def test_tangency_point_shared(self):
        plan = plan_excision(UNIT_SQUARE, chord_through_centroid(UNIT_SQUARE, math.pi / 4.0))
        o = plan.chord.tangent_point
        assert plan.cavity.vertices[0] == pytest.approx(o, abs=1e-15)


class TestCompositeCentroid:
    def test_square_golden_excision_balances_exactly(self):
        chord = chord_through_centroid(UNIT_SQUARE, math.pi / 4.0)
        plan = plan_excision(UNIT_SQUARE, chord)
        com = composite_centroid(plan)
        assert math.dist(com, plan.balance_point) < 1e-12

    def test_huge_ratio_leaves_centroid_at_body_centroid(self):
        chord = chord_through_centroid(UNIT_SQUARE, math.pi / 4.0)
        plan = excision_with_ratio(UNIT_SQUARE, chord, 1e6)
        com = composite_centroid(plan)
        assert math.dist(com, (0.5, 0.5)) < 1e-5

    def test_crescent_centroid_is_on_inner_circle(self):
        # golden circle of diameter phi with unit-diameter cavity tangent at
        # the origin: the remainder centroid lands at (1, 0), the image of
        # the far end under the scaling
        circle = Circle(center=(GOLDEN / 2.0, 0.0), radius=GOLDEN / 2.0)
        plan = plan_excision(circle, chord_through_centroid(circle, 0.0))
        assert plan.cavity.radius == pytest.approx(0.5, abs=1e-12)
        assert plan.cavity.center == pytest.approx((0.5, 0.0), abs=1e-12)
        com = composite_centroid(plan)
        assert com == pytest.approx((1.0, 0.0), abs=1e-12)
        assert com == pytest.approx(plan.balance_point, abs=1e-12)


class TestVerifyBalance:
    def test_golden_square_plan_passes(self):
        plan = plan_excision(UNIT_SQUARE, chord_through_centroid(UNIT_SQUARE, math.pi / 4.0))
        report = verify_balance(plan, tol=1e-10)
        assert report.passed
        assert report.distance < 1e-12
        assert abs(report.polynomial_residual) < 1e-12

    def test_wrong_ratio_fails(self):
        chord = chord_through_centroid(UNIT_SQUARE, math.pi / 4.0)
        report = verify_balance(excision_with_ratio(UNIT_SQUARE, chord, 1.5), tol=1e-10)
        assert not report.passed
        assert report.distance > 1e-3
        assert abs(report.polynomial_residual) > 1e-3

    @pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0, 0.0])
    def test_rejects_tol_that_is_not_finite_and_positive(self, tol):
        # inf would pass every plan, and NaN or a tol <= 0 fail every one
        plan = plan_excision(UNIT_SQUARE, chord_through_centroid(UNIT_SQUARE, math.pi / 4.0))
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            verify_balance(plan, tol=tol)

    def test_circle_plan_passes(self):
        circle = Circle(center=(0.0, 0.0), radius=1.0)
        report = verify_balance(plan_excision(circle, chord_through_centroid(circle, 0.0)))
        assert report.passed

    def test_balance_identity_on_random_polygons_and_chords(self):
        rng = np.random.default_rng(101)
        for _ in range(60):
            poly = random_convex_polygon(int(rng.integers(4, 30)), rng)
            chord = chord_through_centroid(poly, float(rng.uniform(0.0, 2.0 * math.pi)))
            if chord.beta >= 0.65:
                chord = Chord(
                    tangent_point=chord.far_point,
                    far_point=chord.tangent_point,
                    centroid=chord.centroid,
                    beta=1.0 - chord.beta,
                )
            plan = plan_excision(poly, chord)
            report = verify_balance(plan, tol=1e-10)
            assert report.passed, (poly, chord.beta, report.relative_distance)

    def test_shape_independence_of_ratio(self):
        # same offset on very different shapes gives the same ratio;
        # triangles attain the full offset band up to 2/3
        target = 0.55
        a = Polygon(((0.0, 0.0), (4.0, 0.0), (1.0, 2.0)))
        b = regular_polygon(3, 2.5, orientation=0.3)
        plan_a = plan_excision(a, find_chord_with_beta(a, target, tol=1e-13))
        plan_b = plan_excision(b, find_chord_with_beta(b, target, tol=1e-13))
        assert plan_a.scale_ratio == pytest.approx(plan_b.scale_ratio, abs=1e-11)


class TestRegularPolygonBetas:
    def test_triangle(self):
        assert regular_polygon_betas(3) == pytest.approx((2.0 / 3.0, 1.0 / 3.0), abs=1e-15)

    def test_pentagon(self):
        v, m = regular_polygon_betas(5)
        assert v == pytest.approx(0.5527864045000421, abs=1e-15)
        assert m == pytest.approx(0.4472135954999579, abs=1e-15)

    def test_pair_sums_to_one(self):
        for n in (3, 5, 7, 9, 101):
            v, m = regular_polygon_betas(n)
            assert v + m == pytest.approx(1.0, abs=1e-15)

    def test_limit_approaches_half(self):
        v, m = regular_polygon_betas(100001)
        assert v == pytest.approx(0.5, abs=1e-8)
        assert m == pytest.approx(0.5, abs=1e-8)

    def test_rejects_even_or_small(self):
        with pytest.raises(ValueError):
            regular_polygon_betas(4)
        with pytest.raises(ValueError):
            regular_polygon_betas(1)

    def test_matches_measured_chords(self):
        for n in (3, 5, 7):
            poly = regular_polygon(n, 1.0, orientation=math.pi / 2.0)
            chord = chord_through_centroid(poly, -math.pi / 2.0)
            v_beta, m_beta = regular_polygon_betas(n)
            assert chord.beta == pytest.approx(v_beta, abs=1e-12)
            reverse = chord_through_centroid(poly, math.pi / 2.0)
            assert reverse.beta == pytest.approx(m_beta, abs=1e-12)


class TestShapeJson:
    @pytest.mark.parametrize(
        "shape",
        [
            UNIT_SQUARE,
            Circle(center=(1.0, 2.0), radius=0.5),
            Ellipse(center=(0.0, 0.0), semi_axes=(2.0, 1.0), rotation=0.7),
        ],
    )
    def test_round_trip(self, shape):
        assert shape_from_dict(shape_to_dict(shape)) == shape

    def test_regular_polygon_loads_as_polygon(self):
        shape = shape_from_dict({"type": "regular_polygon", "n": 5, "circumradius": 1.0})
        assert isinstance(shape, Polygon)
        assert len(shape.vertices) == 5

    @pytest.mark.parametrize(
        "data",
        [
            {},
            {"type": "blob"},
            {"type": "circle", "center": [0, 0]},
            {"type": "polygon"},
        ],
    )
    def test_rejects_malformed(self, data):
        with pytest.raises(ValueError):
            shape_from_dict(data)


class TestBoundaryPoints:
    def test_polygon_points_lie_on_boundary(self):
        pts = boundary_points(UNIT_SQUARE, 40)
        assert len(pts) == 40
        for p in pts:
            on_edge = (
                p[0] in (0.0, 1.0)
                and 0.0 <= p[1] <= 1.0
                or p[1] in (0.0, 1.0)
                and 0.0 <= p[0] <= 1.0
            )
            assert on_edge, p

    def test_circle_points_on_radius(self):
        for p in boundary_points(Circle(center=(1.0, 1.0), radius=2.0), 17):
            assert math.dist(p, (1.0, 1.0)) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize(
        "body",
        [Hyperball(center=(0.0, 0.0, 0.0), radius=1.0), Hyperball(center=(0.0, 0.0), radius=1.0),
         Hypercube(min_corner=(0.0, 0.0), side=1.0), Simplex(vertices=((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))],
        ids=lambda b: f"{b.kind}{b.dim}",
    )
    def test_other_bodies_are_refused_by_kind_and_dimension(self, body):
        with pytest.raises(ValueError, match=f"got a {body.kind} of dimension {body.dim}"):
            boundary_points(body, 8)


@pytest.mark.parametrize(
    "entry",
    [find_balanced_chord, scan_balanced_chords, lambda s: find_chord_with_beta(s, 0.4),
     lambda s: chord_through_centroid(s, 0.3)],
    ids=["find_balanced_chord", "scan_balanced_chords", "find_chord_with_beta", "chord_through_centroid"],
)
@pytest.mark.parametrize(
    "body",
    [Hyperball(center=(0.0, 0.0, 0.0), radius=1.0), Hyperball(center=(0.0,), radius=1.0),
     Simplex(vertices=((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))],
    ids=lambda b: f"{b.kind}{b.dim}",
)
def test_planar_entries_refuse_a_body_that_is_not_planar(entry, body):
    # not numpy's "shapes (3,) and (2,) not aligned", nor a RuntimeWarning and
    # "too many values to unpack" from the sweep
    with pytest.raises(ValueError, match=f"a planar shape is needed, got a {body.kind} of dimension {body.dim}"):
        entry(body)


class TestRandomConvexPolygon:
    def test_exact_vertex_count(self):
        rng = np.random.default_rng(0)
        for n in (3, 4, 10, 40):
            assert len(random_convex_polygon(n, rng).vertices) == n

    def test_reproducible_for_fixed_seed(self):
        a = random_convex_polygon(12, np.random.default_rng(99))
        b = random_convex_polygon(12, np.random.default_rng(99))
        assert a == b

    def test_a_scale_that_no_polygon_is_drawn_at_is_refused(self):
        # Every draw at these scales was refused and redrawn without end.  A
        # fresh interpreter with a timeout, so that a hang fails the test, not
        # the suite: zero and scales that are not finite are refused by name,
        # and at 1e-200 and 1e200, where the polygon check refuses every draw,
        # its last refusal is raised.
        code = (
            "import numpy as np\n"
            "from edgebalance.planar import random_convex_polygon\n"
            "for scale in (0.0, float('nan'), float('inf'), -float('inf'), 1e-200, 1e200):\n"
            "    try:\n"
            "        random_convex_polygon(5, np.random.default_rng(0), scale=scale)\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(planar.__file__)))
        run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        lines = run.stdout.splitlines()
        assert lines[:4] == [f"scale must be finite and nonzero, got {s}" for s in ("0.0", "nan", "inf", "-inf")]
        assert len(lines) == 6
