import math
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

import edgebalance

from edgebalance.ndim import (
    ExcisionPlanKd,
    Hyperball,
    Hypercube,
    Simplex,
    balanced_boundary_point,
    barycentric_coordinates,
    centroid_kd,
    composite_centroid_kd,
    excision_with_ratio_kd,
    plan_excision_kd,
    shape_kd_from_dict,
    shape_kd_to_dict,
    verify_balance_kd,
    volume_kd,
)
from edgebalance.polynomials import PhysicalityError, knacci_constant

STANDARD_3_SIMPLEX = Simplex(
    vertices=((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
)


def random_simplex(k: int, rng: np.random.Generator) -> Simplex:
    while True:
        try:
            return Simplex(vertices=tuple(map(tuple, rng.normal(size=(k + 1, k)))))
        except ValueError:
            continue


def random_facet_point(simplex: Simplex, rng: np.random.Generator):
    """Uniformish point on a random facet (one barycentric weight zero)."""
    k = simplex.dim
    skip = int(rng.integers(0, k + 1))
    weights = rng.dirichlet(np.ones(k))
    verts = [v for i, v in enumerate(simplex.vertices) if i != skip]
    return tuple(np.einsum("i,ij->j", weights, np.asarray(verts)))


class TestVolume:
    def test_unit_cube(self):
        assert volume_kd(Hypercube(min_corner=(0.0, 0.0, 0.0), side=1.0)) == 1.0

    def test_unit_ball_three_dims(self):
        ball = Hyperball(center=(0.0, 0.0, 0.0), radius=1.0)
        assert volume_kd(ball) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)

    def test_standard_simplex(self):
        assert volume_kd(STANDARD_3_SIMPLEX) == pytest.approx(1.0 / 6.0, rel=1e-14)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_ball_volume_matches_dimension_recurrence(self, k):
        # independent oracle: V_k = (2 pi r^2 / k) V_{k-2}, V_0 = 1, V_1 = 2r
        r = 1.3
        by_recurrence = [1.0, 2.0 * r]
        for j in range(2, k + 1):
            by_recurrence.append(2.0 * math.pi * r * r / j * by_recurrence[j - 2])
        ball = Hyperball(center=(0.0,) * k, radius=r)
        assert volume_kd(ball) == pytest.approx(by_recurrence[k], rel=1e-12)

    def test_simplex_volume_scales_with_determinant(self):
        rng = np.random.default_rng(2)
        for k in (2, 3, 5):
            s = random_simplex(k, rng)
            v = np.asarray(s.vertices)
            oracle = abs(np.linalg.det(v[1:] - v[0])) / math.factorial(k)
            assert volume_kd(s) == pytest.approx(oracle, rel=1e-12)


class TestCentroid:
    def test_cube_center(self):
        cube = Hypercube(min_corner=(0.0, 0.0, 0.0, 0.0), side=1.0)
        assert centroid_kd(cube) == (0.5, 0.5, 0.5, 0.5)

    def test_standard_simplex_vertex_average(self):
        assert centroid_kd(STANDARD_3_SIMPLEX) == pytest.approx((0.25, 0.25, 0.25), abs=1e-15)

    def test_ball_center(self):
        assert centroid_kd(Hyperball(center=(1.0, -2.0, 0.5), radius=2.0)) == (1.0, -2.0, 0.5)


class TestShapeValidation:
    def test_rejects_degenerate_simplex(self):
        # collinear vertices, and vertices that all coincide at k = 1, 2, 5
        for vertices in ((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)), *(((0.5,) * k,) * (k + 1) for k in (1, 2, 5)):
            with pytest.raises(ValueError, match="simplex vertices are affinely dependent"):
                Simplex(vertices=vertices)

    def test_well_conditioned_images_of_a_simplex_are_built(self):
        # the unit corner 11-simplex under A = Q1 diag(s) Q2, s log-uniform in
        # [1, 1e3] with both ends taken: cond(A) = 1e3, nine decades short of
        # the singular values' 1e-12 threshold.  A rule that compared |det|
        # with the largest edge coordinate to the power k refused 95 of these
        k = 11
        rng = np.random.default_rng(0)
        corner = np.vstack([np.zeros(k), np.eye(k)])
        for _ in range(200):
            q1, q2 = (np.linalg.qr(rng.standard_normal((k, k)))[0] for _ in range(2))
            u = rng.uniform(0.0, 1.0, k)
            u[0], u[-1] = 0.0, 1.0
            a = (q1 * 1e3**u) @ q2
            simplex = Simplex(vertices=tuple(map(tuple, corner @ a.T)))
            assert simplex.measure() == pytest.approx(abs(np.linalg.det(a)) / math.factorial(k))

    def test_rejects_wrong_vertex_dimensions(self):
        with pytest.raises(ValueError):
            Simplex(vertices=((0.0, 0.0), (1.0, 0.0), (0.0, 1.0, 3.0)))

    def test_rejects_dimension_above_cap(self):
        with pytest.raises(ValueError, match="hyperball center must be 1 to 64 numbers, got 65"):
            Hyperball(center=(0.0,) * 65, radius=1.0)

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError):
            Hyperball(center=(0.0, 0.0), radius=-1.0)
        with pytest.raises(ValueError):
            Hypercube(min_corner=(0.0, 0.0), side=0.0)

    def test_barycentric_coordinates_of_vertices(self):
        for i, v in enumerate(STANDARD_3_SIMPLEX.vertices):
            lam = barycentric_coordinates(STANDARD_3_SIMPLEX, v)
            expected = np.zeros(4)
            expected[i] = 1.0
            np.testing.assert_allclose(lam, expected, atol=1e-14)


class TestPlanning:
    def test_ball_diameter_gives_tribonacci_ratio(self):
        ball = Hyperball(center=(0.0, 0.0, 0.0), radius=1.0)
        plan = plan_excision_kd(ball, (-1.0, 0.0, 0.0))
        assert plan.beta == pytest.approx(0.5, abs=1e-15)
        assert plan.scale_ratio == pytest.approx(1.8393, abs=5e-4)
        assert plan.far_point == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)

    def test_cube_corner_diagonal(self):
        cube = Hypercube(min_corner=(0.0, 0.0, 0.0), side=1.0)
        plan = plan_excision_kd(cube, (0.0, 0.0, 0.0))
        assert plan.beta == pytest.approx(0.5, abs=1e-12)
        assert plan.scale_ratio == pytest.approx(knacci_constant(3).value, abs=1e-12)

    def test_rod_is_degenerate(self):
        rod = Hyperball(center=(0.0,), radius=1.0)
        with pytest.raises(PhysicalityError):
            plan_excision_kd(rod, (-1.0,))

    def test_rejects_interior_tangency_point(self):
        ball = Hyperball(center=(0.0, 0.0), radius=1.0)
        with pytest.raises(ValueError, match="boundary"):
            plan_excision_kd(ball, (0.1, 0.0))

    def test_rejects_point_outside_on_the_ray(self):
        # the ray from the centroid through (-1.5, 0, 0) leaves the ball at (-1, 0, 0)
        ball = Hyperball(center=(0.0, 0.0, 0.0), radius=1.0)
        with pytest.raises(ValueError, match="boundary"):
            plan_excision_kd(ball, (-1.5, 0.0, 0.0))

    def test_rejects_the_centroid(self):
        ball = Hyperball(center=(0.0, 0.0, 0.0), radius=1.0)
        with pytest.raises(ValueError, match="coincides"):
            plan_excision_kd(ball, (0.0, 0.0, 0.0))

    def test_simplex_vertex_tangency_is_at_threshold(self):
        # a vertex chord has offset exactly k/(k+1): the refusal boundary
        with pytest.raises(PhysicalityError):
            plan_excision_kd(STANDARD_3_SIMPLEX, (1.0, 0.0, 0.0))

    def test_simplex_facet_centroid_tangency(self):
        # offset 1/(k+1) from a facet centroid, well below threshold
        facet_centroid = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
        plan = plan_excision_kd(STANDARD_3_SIMPLEX, facet_centroid)
        assert plan.beta == pytest.approx(0.25, abs=1e-12)
        # the chord exits at the opposite vertex (the origin)
        assert plan.far_point == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)


class TestVerification:
    def test_ball_golden_plan_balances(self):
        ball = Hyperball(center=(0.0, 0.0, 0.0), radius=1.0)
        report = verify_balance_kd(plan_excision_kd(ball, (-1.0, 0.0, 0.0)))
        assert report.passed
        assert report.distance < 1e-12

    def test_cube_five_dims_diagonal(self):
        cube = Hypercube(min_corner=(0.0,) * 5, side=1.0)
        plan = plan_excision_kd(cube, (0.0,) * 5)
        assert plan.scale_ratio == pytest.approx(1.9659, abs=5e-4)
        report = verify_balance_kd(plan)
        assert report.passed
        assert report.distance < 1e-12

    def test_wrong_ratio_fails(self):
        ball = Hyperball(center=(0.0, 0.0, 0.0), radius=1.0)
        plan = excision_with_ratio_kd(ball, (-1.0, 0.0, 0.0), (1.0, 0.0, 0.0), 2.0)
        report = verify_balance_kd(plan, tol=1e-10)
        assert not report.passed
        assert report.distance > 1e-3

    @pytest.mark.parametrize("k", range(2, 9))
    def test_random_simplex_balance_identity(self, k):
        rng = np.random.default_rng(40 + k)
        checked = 0
        while checked < 8:
            simplex = random_simplex(k, rng)
            o = random_facet_point(simplex, rng)
            try:
                plan = plan_excision_kd(simplex, o)
            except PhysicalityError:
                continue  # offset at or above k/(k+1); resample
            report = verify_balance_kd(plan, tol=1e-10)
            assert report.passed, (k, plan.beta, report.relative_distance)
            checked += 1

    def test_volume_scaling_identity(self):
        rng = np.random.default_rng(77)
        shapes = [
            Hyperball(center=(0.0, 0.0, 0.0, 0.0), radius=1.5),
            Hypercube(min_corner=(-1.0, 2.0, 0.0), side=2.0),
            random_simplex(5, rng),
        ]
        for shape in shapes:
            plan = plan_excision_kd(shape, balanced_boundary_point(shape))
            expected = volume_kd(shape) / plan.scale_ratio ** shape.dim
            assert volume_kd(plan.cavity) == pytest.approx(expected, rel=1e-12)

    def test_ball_hierarchy_rises_toward_two(self):
        ratios = []
        for k in range(2, 21):
            ball = Hyperball(center=(0.0,) * k, radius=1.0)
            o = (-1.0,) + (0.0,) * (k - 1)
            ratios.append(plan_excision_kd(ball, o).scale_ratio)
        assert all(a < b for a, b in zip(ratios, ratios[1:]))
        assert all(r < 2.0 for r in ratios)
        assert 2.0 - ratios[-1] < 1e-5


class TestBalancedBoundaryPoint:
    @pytest.mark.parametrize("k", range(2, 9))
    def test_ball_cube_simplex_all_balance(self, k):
        rng = np.random.default_rng(90 + k)
        shapes = [
            Hyperball(center=(0.0,) * k, radius=1.0),
            Hypercube(min_corner=(0.0,) * k, side=1.0),
            random_simplex(k, rng),
        ]
        phi_k = knacci_constant(k).value
        for shape in shapes:
            plan = plan_excision_kd(shape, balanced_boundary_point(shape))
            assert abs(plan.beta - 0.5) <= 1e-12
            assert plan.scale_ratio == pytest.approx(phi_k, abs=1e-11)
            assert verify_balance_kd(plan, tol=1e-10).passed

    @pytest.mark.parametrize("k", range(2, 65))
    def test_symmetric_plans_are_exact(self, k):
        # the chord is built from the centroid, as in the plane, so a centrally
        # symmetric body has beta = 1/2 and the order-k constant, bit for bit
        rng = np.random.default_rng(500 + k)
        corner = tuple(rng.uniform(-1.0, 1.0, k))
        size = float(rng.uniform(0.5, 2.0))
        phi_k = knacci_constant(k).value
        bodies = (Hyperball(center=corner, radius=size), Hypercube(min_corner=corner, side=size))
        for shape in bodies:
            c = np.asarray(shape.centroid())
            u = rng.standard_normal(k)
            u /= np.linalg.norm(u)
            for o in (balanced_boundary_point(shape), c + shape.exit_parameter(c, u) * u):
                plan = plan_excision_kd(shape, o)
                assert plan.beta == 0.5
                assert plan.scale_ratio == phi_k

    @pytest.mark.parametrize("k", range(1, 65))
    def test_simplex_tangency_is_exact(self, k):
        # O = C + (V1 - V0)/(k+1) and its reflection 2C - O are both on the
        # boundary, so the chord through them has beta = 1/2 exactly
        simplex = random_simplex(k, np.random.default_rng(300 + k))
        o = np.asarray(balanced_boundary_point(simplex))
        expected = np.array([0.0, 2.0] + [1.0] * (k - 1)) / (k + 1)
        assert np.max(np.abs(np.asarray(barycentric_coordinates(simplex, o)) - expected)) <= 1e-13
        if k == 1:
            return  # a segment's beta = 1/2 is not physical
        plan = plan_excision_kd(simplex, o)
        c = np.asarray(centroid_kd(simplex))
        extent = float(np.ptp(np.asarray(simplex.vertices), axis=0).max())
        assert np.max(np.abs(np.asarray(plan.far_point) - (2.0 * c - o))) <= 1e-13 * extent
        assert abs(plan.beta - 0.5) <= 1e-13

    def test_segment_midpoint_offset(self):
        segment = Simplex(vertices=((0.0,), (2.0,)))
        o = balanced_boundary_point(segment)
        assert abs(plan_offset(segment, o) - 0.5) <= 1e-12


def plan_offset(shape, o):
    c = np.asarray(centroid_kd(shape))
    o = np.asarray(o)
    oc = np.linalg.norm(c - o)
    return oc / shape.exit_parameter(o, (c - o) / oc)


class TestShapeJson:
    @pytest.mark.parametrize(
        "shape",
        [
            Hyperball(center=(0.0, 1.0, 2.0), radius=1.5),
            Hypercube(min_corner=(0.0, 0.0), side=3.0),
            STANDARD_3_SIMPLEX,
        ],
    )
    def test_round_trip(self, shape):
        assert shape_kd_from_dict(shape_kd_to_dict(shape)) == shape

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            shape_kd_from_dict({"type": "hyperball", "center": [0, 0]})
        with pytest.raises(ValueError):
            shape_kd_from_dict({"type": "torus"})


PLANNING_PASSES = """
import sys
import numpy as np
from edgebalance.ndim import (
    Hyperball, Hypercube, Simplex, balanced_boundary_point, plan_excision_kd, verify_balance_kd,
)
rng = np.random.default_rng(1)
bodies = []
for k in range(2, 65):
    bodies.append(Hyperball(center=tuple(rng.uniform(-1.0, 1.0, k)), radius=1.0))
    bodies.append(Hypercube(min_corner=tuple(rng.uniform(-1.0, 1.0, k)), side=1.0))
    corners = np.vstack([np.zeros(k), np.eye(k)]) + rng.uniform(-0.1, 0.1, (k + 1, k))
    bodies.append(Simplex(vertices=tuple([tuple(row) for row in corners.tolist()])))

def one_pass():
    for body in bodies:
        verify_balance_kd(plan_excision_kd(body, balanced_boundary_point(body)))

one_pass()
before = sys.getallocatedblocks()
for _ in range(50):
    one_pass()
print(sys.getallocatedblocks() - before)
"""


@pytest.mark.skipif(platform.python_implementation() != "CPython", reason="CPython's tuple free lists")
def test_planning_does_not_fill_the_tuple_free_lists():
    # A tuple built from an iterator starts at 10 slots and is resized, so each
    # k-long point moved one tuple between CPython's per-size free lists until
    # those for sizes 1-19 held 2,000 each: about 24,000 more blocks after
    # these 50 passes over a ball, a cube and a simplex at each k.  A fresh
    # interpreter, since the tests run before this one may have filled the
    # lists already.
    src = os.path.dirname(os.path.dirname(os.path.abspath(edgebalance.__file__)))
    run = subprocess.run(
        [sys.executable, "-c", PLANNING_PASSES],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) < 5000
