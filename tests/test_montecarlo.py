import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgebalance import montecarlo
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
from edgebalance.shapes import (
    MAX_REGULAR_POLYGON_SIDES,
    PREFILTER_MIN_VERTICES,
    PREFILTER_SECTORS,
    _sector_index,
    regular_polygon,
)

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

    @pytest.mark.parametrize(
        "shape, point, message",
        [
            (UNIT_SQUARE, (0.5, 0.5, 99.0), "point must be 2 numbers, got 3"),
            (UNIT_SQUARE, (0.5,), "point must be 2 numbers, got 1"),
            (Hyperball(center=(0.0, 0.0, 0.0), radius=1.0), (0.0, 0.0, 0.0, 0.0), "point must be 3 numbers, got 4"),
            (SIMPLEX_3, (0.1, 0.1), "point must be 3 numbers, got 2"),
            (UNIT_SQUARE, 0.5, "point must be a list, got 0.5"),
            # a string or a boolean is not read as the number it spells or stands for
            (UNIT_SQUARE, ["0.5", "0.5"], "point coordinate must be a finite number, got '0.5'"),
            (UNIT_SQUARE, [True, False], "point coordinate must be a finite number, got True"),
        ],
        ids=["square-long", "square-short", "ball3-long", "simplex3-short", "scalar", "strings", "booleans"],
    )
    def test_point_of_another_dimension_is_refused(self, shape, point, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            point_in_shape(shape, point)

    @pytest.mark.parametrize(
        "shape, points, message",
        [
            (UNIT_SQUARE, np.full((4, 3), 0.5), "2-D polygon takes points of dimension 2, got dimension 3"),
            (Hyperball(center=(0.0,) * 4, radius=1.0), np.zeros((4, 3)),
             "4-D hyperball takes points of dimension 4, got dimension 3"),
            (UNIT_SQUARE, np.full(2, 0.5), "2-D polygon takes points of dimension 2, got an array of shape (2,)"),
            # one dtype test refuses strings, booleans and objects before any conversion
            (UNIT_SQUARE, [["0.5", "0.5"]], "points must be an array of numbers, got an array of <U3"),
            (UNIT_SQUARE, [[True, False]], "points must be an array of numbers, got an array of bool"),
            (UNIT_SQUARE, [[0.5, None]], "points must be an array of numbers, got an array of object"),
        ],
        ids=["square-long", "ball4-short", "flat", "strings", "booleans", "none"],
    )
    def test_points_of_another_dimension_are_refused(self, shape, points, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            contains(shape, points)

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
        # a run over 1e6 points stays deterministic and seed-derived
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
POLY_1000 = random_convex_polygon(1000, np.random.default_rng(1000))
FLAT_50 = Polygon(tuple((x, 0.1 * y) for x, y in POLY_50.vertices))


def _turn_1e16(poly):
    """``poly`` with the midpoint of its first edge, moved out by 1e-16, as one
    more vertex: its turn there is about 1e-16."""
    v = poly.vertex_array
    edge = v[1] - v[0]
    mid = 0.5 * (v[0] + v[1]) + 1e-16 * np.array([edge[1], -edge[0]]) / math.hypot(*edge)
    return Polygon(tuple(map(tuple, np.vstack([v[:1], mid, v[1:]]))))


TURN_1E16 = _turn_1e16(regular_polygon(11, 1.0, 0.2))


def _split_vertex(poly, gap):
    """``poly`` with its vertex of least angle about the centroid split into
    two, ``gap`` apart along the tangent there, listed last and first."""
    v, c = poly.vertex_array, np.asarray(poly.centroid())
    k = int(np.argmin(np.arctan2(v[:, 1] - c[1], v[:, 0] - c[0])))
    r = v[k] - c
    step = 0.5 * gap * np.array([-r[1], r[0]]) / math.hypot(*r)
    return Polygon(tuple(map(tuple, np.vstack([v[k] + step, v[k + 1:], v[:k], v[k] - step]))))


# two vertices whose angles about the centroid are 27 eps apart (26 as computed)
SPLIT_12 = _split_vertex(regular_polygon(12, 1.0, 0.1), 6e-15)
# two whose angles round to the same float, the smallest: listed last and
# first, they hide where the angles drop by 2 pi from an argmin
WRAP_TIE = _split_vertex(regular_polygon(14, 1.0, 4.066411630084061), 8.376790753942132e-17)
ELLIPSE = Ellipse(center=(0.3, -0.2), semi_axes=(1.5, 0.7), rotation=0.4)
BALL_10 = Hyperball(center=tuple(np.linspace(-0.5, 0.4, 10)), radius=1.1)


def _jittered_simplex(k, rng):
    """The unit corner simplex, jittered, scaled and shifted, as the mc_oracle benchmark builds it."""
    base = np.vstack([np.zeros(k), np.eye(k)])
    vertices = (base + rng.uniform(-0.1, 0.1, size=base.shape)) * rng.uniform(0.5, 2.0)
    vertices += rng.uniform(-1.0, 1.0, size=k)
    return Simplex(vertices=tuple(map(tuple, vertices)))


SIMPLEX_6 = _jittered_simplex(6, np.random.default_rng(6))


def _vertex_clouds(poly, rng, count=50):
    """Points about every vertex, 1e-17 to 1e-12 of the diameter away."""
    v = poly.vertex_array
    diameter = float(np.max(np.hypot(*(v[:, None, :] - v[None, :, :]).T)))
    angle = rng.uniform(0.0, 2.0 * math.pi, (len(v), count))
    radius = diameter * 10.0 ** rng.uniform(-17.0, -12.0, angle.shape)
    return (v[:, None, :] + radius[..., None] * np.stack([np.cos(angle), np.sin(angle)], -1)).reshape(-1, 2)


def _all_edges(poly, pts):
    """Every point against every edge, one edge at a time, with the polygon
    kernel's arithmetic: inside where ex * (y - ay) - ey * (x - ax) >= 0 for all."""
    v = np.asarray(poly.vertices)
    edges = np.roll(v, -1, axis=0) - v
    x, y = np.ascontiguousarray(np.asarray(pts, dtype=float).T)
    inside = np.ones(len(x), dtype=bool)
    for (ax, ay), (ex, ey) in zip(v, edges):
        inside &= ex * (y - ay) - ey * (x - ax) >= 0.0
    return inside


def _whole_run_reference(shape, cavity, n, seed):
    """The sampler as one draw of the whole run: accepted count and raw-moment centroid."""

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
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0))))
    pts = lo + rng.random((lo.size, n)).T * (hi - lo)
    keep = inside(shape, pts)
    if cavity is not None:
        keep &= ~inside(cavity, pts)
    return int(keep.sum()), pts[keep].sum(axis=0) / keep.sum()


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
            (*_with_cavity(ELLIPSE), 150_000),
            (*_with_cavity(Hyperball(center=(0.2, -0.1, 0.4), radius=1.3)), 150_000),
            (*_with_cavity(Hypercube(min_corner=(-0.5, 0.1, 0.2, 0.0, 1.0), side=1.5)), 150_000),
            (*_with_cavity(SIMPLEX_3), 150_000),
            # 6,553 and 10,922 points a chunk, the last one short
            (*_with_cavity(BALL_10), 150_001),
            (*_with_cavity(SIMPLEX_6), 400_003),
            # over 1e6 points, ending in a short chunk
            (*_with_cavity(Circle(center=(0.5, 0.5), radius=0.5)), 1_070_000),
        ],
        ids=["polygon5", "polygon50", "polygon100", "ellipse", "ball3", "cube5", "simplex3",
             "ball10", "simplex6", "circle"],
    )
    def test_reproduces_whole_batch_draws(self, shape, cavity, n):
        est = sample_region_centroid(shape, cavity, n, seed=9)
        accepted, centroid = _whole_run_reference(shape, cavity, n, 9)
        assert est.samples_accepted == accepted
        assert est.centroid_estimate == pytest.approx(tuple(centroid), rel=1e-12, abs=1e-12)


class TestChunkSize:
    """The chunk size changes only how the sums round, never which points count."""

    @pytest.mark.parametrize(
        "shape, cavity, n",
        [
            (*case, n)
            for n in (2_500, 100_003)
            for case in (
                _with_cavity(POLY_5),
                _with_cavity(ELLIPSE),
                _with_cavity(Hyperball(center=(0.2, -0.1, 0.4), radius=1.3)),
                # the body fills its box, so only the cavity compacts the chunk
                _with_cavity(Hypercube(min_corner=(-0.5, 0.1, 0.2, 0.0, 1.0), side=1.5)),
            )
        ]
        # bodies that too few points of one chunk land in
        + [(*_with_cavity(BALL_10), 100_003), (*_with_cavity(SIMPLEX_6), 300_007)],
        ids=[f"{n}-{body}" for n in ("below-one-chunk", "ragged")
             for body in ("polygon5", "ellipse", "ball3", "cube5")]
        + ["ragged-ball10", "ragged-simplex6"],
    )
    def test_estimate_does_not_depend_on_the_chunk_size(self, monkeypatch, shape, cavity, n):
        estimates = []
        for rows in (1000, 4096, 1 << 16):
            monkeypatch.setattr(montecarlo, "CHUNK_ROWS", rows)
            estimates.append(sample_region_centroid(shape, cavity, n, seed=17))
        first, *rest = estimates
        assert 0 < first.samples_accepted < n
        for est in rest:
            assert est.samples_accepted == first.samples_accepted
            assert est.centroid_estimate == pytest.approx(first.centroid_estimate, rel=1e-14)
            assert est.std_error == pytest.approx(first.std_error, rel=1e-12)


_FINITE = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)


@settings(deadline=None, max_examples=200, derandomize=True)
@given(
    st.lists(st.one_of(_FINITE, st.sampled_from([1e300, -1e300, 1.0, 1e-300, 5e-324])), max_size=60),
    st.lists(_FINITE, max_size=5),
)
def test_folded_partial_sums_round_as_the_terms(terms, later):
    # the sampler folds each coordinate's chunk sums and adds later ones to
    # them: the exactly rounded total must not move
    folded = montecarlo._fold(terms)
    assert len(folded) <= 40
    assert math.fsum(folded + later) == math.fsum(terms + later)


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

    @pytest.mark.parametrize(
        "seed, message",
        [
            (True, "seed must be an integer, got True"),
            (-1, "seed must be at least 0, got -1"),
            (np.int64(-1), "seed must be at least 0, got -1"),
            (5.0, "seed must be an integer, got 5.0"),
            (np.float64(5.0), f"seed must be an integer, got {np.float64(5.0)!r}"),
            ("5", "seed must be an integer, got '5'"),
        ],
    )
    def test_bad_seed_is_refused(self, seed, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            sample_region_centroid(UNIT_SQUARE, None, 5000, seed=seed)

    def test_numpy_integer_seed_is_accepted(self):
        est = sample_region_centroid(UNIT_SQUARE, None, 5000, seed=np.int64(5))
        assert est.seed == 5 and isinstance(est.seed, int)
        assert est == sample_region_centroid(UNIT_SQUARE, None, 5000, seed=5)


def test_estimate_does_not_depend_on_the_blas_thread_count():
    # a sum of squares taken through BLAS rounds as its threads split it: with
    # np.dot, this cube's std_error differed in its last bit between 1 and 2
    # OpenBLAS threads
    code = (
        "from edgebalance.ndim import Hypercube\n"
        "from edgebalance.montecarlo import sample_region_centroid\n"
        "cube = Hypercube(min_corner=(0.1, 0.2, 0.3), side=1.3)\n"
        "print(repr(sample_region_centroid(cube, None, 100_000, 1)))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(montecarlo.__file__)))
    reprs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        reprs.append(run.stdout)
    assert reprs[0] == reprs[1]


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


class TestHugeBodies:
    @pytest.mark.parametrize("exponent", [500, 508])
    def test_a_ball_scaled_by_a_power_of_two_scales_its_estimate_exactly(self, exponent):
        # 100_000 squares of offsets up to 2**508 overflow, so that disc's are
        # summed scaled by a power of two; 2**500 is summed as it is.  (A 3-ball
        # this wide has a volume beyond binary64.)
        unit = sample_region_centroid(Hyperball(center=(0.0, 0.0), radius=1.0), None, 100_000, 3)
        ball = Hyperball(center=(0.0, 0.0), radius=2.0**exponent)
        big = sample_region_centroid(ball, None, 100_000, 3)
        assert big.samples_accepted == unit.samples_accepted
        assert big.centroid_estimate == tuple(math.ldexp(c, exponent) for c in unit.centroid_estimate)
        assert big.std_error == tuple(math.ldexp(s, exponent) for s in unit.std_error)

    def test_only_the_wide_axis_is_scaled(self):
        # a 2**508 by 2**-30 ellipse: its x offsets are summed scaled, its y
        # offsets as they are, so y keeps the bits of the 1 by 2**-30 ellipse
        narrow = Ellipse(center=(0.0, 0.0), semi_axes=(1.0, 2.0**-30))
        wide = Ellipse(center=(0.0, 0.0), semi_axes=(2.0**508, 2.0**-30))
        a, b = (sample_region_centroid(body, None, 100_000, 3) for body in (narrow, wide))
        assert b.samples_accepted == a.samples_accepted
        assert b.centroid_estimate == (math.ldexp(a.centroid_estimate[0], 508), a.centroid_estimate[1])
        assert b.std_error == (math.ldexp(a.std_error[0], 508), a.std_error[1])

    def test_a_box_beyond_binary64_has_an_infinite_volume(self):
        # this 10-ball's measure is about 1e306, but its box's volume (7.2e30)^10
        # is not a float: the volume is inf, taken without a RuntimeWarning
        # (raised as an error here), and the estimate is finite
        ball = Hyperball(center=(0.0,) * 10, radius=3.6e30)
        est = sample_region_centroid(ball, None, 10_000, 2)
        assert est.box_volume == est.region_measure == math.inf
        assert est.samples_accepted > 0
        assert all(map(math.isfinite, est.centroid_estimate + est.std_error))

    def test_a_body_that_fills_too_little_of_its_box_is_named(self):
        # a 64-ball fills about 1.7e-39 of its box: no cavity covers it and its
        # box is not degenerate, yet no point lands in it
        ball = Hyperball(center=(0.0,) * 64, radius=1e5)
        with pytest.raises(ValueError, match="no samples accepted.*fills too little of its box"):
            sample_region_centroid(ball, None, 1000, 1)


def _layouts(pts):
    return [np.ascontiguousarray(pts), np.asfortranarray(pts)]


def _masks(body, pts):
    """``body.contains`` on its own, and lent a work block of NaN the size the sampler lends."""
    return [body.contains(pts), body.contains(pts, np.full(2 * pts.size, np.nan))]


class TestKernels:
    """Column-wise ``contains`` against per-point references, for C and F input,
    with and without a work block; a kernel that reads the block before
    writing it reads NaN."""

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
                for mask in _masks(simplex, layout):
                    assert np.array_equal(mask, expected)

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
                    for mask in _masks(body, layout):
                        assert mask.tolist() == expected

    @pytest.mark.parametrize(
        "poly",
        [
            POLY_100,
            POLY_1000,
            FLAT_50,
            _needle(1e-5),
            regular_polygon(PREFILTER_MIN_VERTICES, 2.0, 0.1, center=(1e6, -3e6)),
            TURN_1E16,
            _turn_1e16(POLY_1000),
            SPLIT_12,
            WRAP_TIE,
        ],
        ids=["polygon100", "polygon1000", "squashed0.1", "needle1e-5", "regular12-far",
             "turn1e-16", "polygon1000-turn1e-16", "split12", "wrap-tie"],
    )
    def test_wedge_kernel_is_the_edge_loop(self, poly):
        # the loop's decision on every point, whether or not the screen would
        # leave it: near every edge and vertex, far off, not finite
        rng = np.random.default_rng(12)
        v, c = poly.vertex_array, np.asarray(poly.centroid())
        on_edges = v + rng.random((len(v), 1)) * poly.edge_array
        near = c + (on_edges - c) * (1.0 + rng.uniform(-1e-15, 1e-15, (len(v), 1)))
        lo, hi = poly.bbox()
        pts = np.vstack([near, on_edges, v, _vertex_clouds(poly, rng),
                         lo + rng.random((3000, 2)) * (hi - lo),
                         [(math.nan, 0.0), (math.inf, c[1]), (c[0], -math.inf)]])
        assert poly._sectors is not None
        for layout in _layouts(pts):
            x, y = layout[:, 0], layout[:, 1]
            expected = poly._edge_test(x, y).tobytes()
            assert poly._wedge_test(x, y).tobytes() == expected
            assert poly.contains(layout).tobytes() == expected

    def test_every_ring_takes_the_wedge_kernel(self, monkeypatch):
        # a chunk drawn in the bounding box leaves a few hundred points to the
        # wedge kernel on a round 50-gon, and thousands on the same polygon
        # squashed to a tenth, whose boundary radius swings across each
        # sector: one kernel call each, whatever the ring's size, and no call
        # of the edge loop, since no point lies within the kernel's depth of
        # its wedge's edge
        calls = []

        def spy(name):
            test = getattr(Polygon, name)

            def wrapped(poly, x, y):
                calls.append((name, len(x)))
                return test(poly, x, y)
            monkeypatch.setattr(Polygon, name, wrapped)

        rng = np.random.default_rng(13)
        sizes = []
        for poly in (POLY_50, FLAT_50):
            lo, hi = poly.bbox()
            pts = lo + rng.random((montecarlo.CHUNK_ROWS, 2)) * (hi - lo)
            expected = poly._edge_test(pts[:, 0], pts[:, 1])
            spy("_wedge_test")
            spy("_edge_test")
            calls.clear()
            got = poly.contains(pts)
            monkeypatch.undo()
            assert got.tobytes() == expected.tobytes()
            [(name, size)] = calls
            assert name == "_wedge_test"
            sizes.append(size)
        assert sizes[0] < 1000 and sizes[1] > 2000

    @pytest.mark.parametrize(
        "poly, table",
        [
            (_needle(1e-9), False),
            (_squashed(POLY_50, 1e-9), False),
            (TURN_1E16, True),
            (_turn_1e16(POLY_1000), True),
            (SPLIT_12, True),
            (WRAP_TIE, True),
        ],
        ids=["needle1e-9", "squashed1e-9", "turn1e-16", "polygon1000-turn1e-16", "split12",
             "wrap-tie"],
    )
    def test_ring_takes_the_wedge_kernel_wherever_there_is_a_table(self, monkeypatch, poly, table):
        # the 1e-9 needle and the 50-gon squashed to 1e-9 leave no sector a
        # positive inner radius, so no table, and the loop tests the whole
        # chunk; every other screened polygon sends the points between its
        # radii to the wedge kernel, also with a vertex within 1e-16 of the
        # line of its neighbours, or two vertex angles within rounding
        assert len(poly.vertices) >= PREFILTER_MIN_VERTICES
        assert (poly._sectors is not None) == table
        calls = []
        wedge_test = Polygon._wedge_test

        def spy(poly, x, y):
            calls.append(len(x))
            return wedge_test(poly, x, y)
        monkeypatch.setattr(Polygon, "_wedge_test", spy if table else None)  # None: a call fails
        rng = np.random.default_rng(14)
        lo, hi = poly.bbox()
        pts = np.vstack([poly.vertex_array, _vertex_clouds(poly, rng),
                         lo + rng.random((3000, 2)) * (hi - lo)])
        for layout in _layouts(pts):
            x, y = layout[:, 0], layout[:, 1]
            assert poly.contains(layout).tobytes() == poly._edge_test(x, y).tobytes()
        assert len(calls) == (2 if table else 0)

    @pytest.mark.parametrize(
        "poly",
        [POLY_100, FLAT_50, _needle(1e-5), TURN_1E16, SPLIT_12, WRAP_TIE],
        ids=["polygon100", "squashed0.1", "needle1e-5", "turn1e-16", "split12", "wrap-tie"],
    )
    def test_points_within_the_depth_take_the_edge_loop(self, monkeypatch, poly):
        # points of every edge moved inward by 1e-17 to 1e-15 of the diameter
        # pass their wedge's edge by less than its depth, 32 eps R^2 / rho:
        # the wedge kernel hands them to the loop, and gives its bytes
        rng = np.random.default_rng(15)
        v, e = poly.vertex_array, poly.edge_array
        diameter = float(np.max(np.hypot(*(v[:, None, :] - v[None, :, :]).T)))
        inward = np.stack([-e[:, 1], e[:, 0]], -1) / poly._edge_lengths[:, None]
        share = rng.random((len(v), 40, 1))
        depth = diameter * 10.0 ** rng.uniform(-17.0, -15.0, share.shape)
        pts = (v[:, None, :] + share * e[:, None, :] + depth * inward[:, None, :]).reshape(-1, 2)
        edge_test, sizes = Polygon._edge_test, []

        def spy(poly, x, y):
            sizes.append(len(x))
            return edge_test(poly, x, y)
        for layout in _layouts(pts):
            x, y = layout[:, 0], layout[:, 1]
            expected = poly._edge_test(x, y).tobytes()
            monkeypatch.setattr(Polygon, "_edge_test", spy)
            sizes.clear()
            assert poly._wedge_test(x, y).tobytes() == expected
            assert poly.contains(layout).tobytes() == expected
            monkeypatch.undo()
            # most of them; the rest fail their edge, or pass a neighbour's by the depth
            assert len(sizes) == 2 and min(sizes) > len(pts) // 2

    @pytest.mark.parametrize(
        "poly",
        [
            POLY_100,
            POLY_1000,
            FLAT_50,
            _needle(1e-5),
            _squashed(POLY_50, 1e-5),
            _squashed(POLY_50, 1e-9),
            _needle(1e-9),
            _needle(1e-9, scale=1e9),
            TURN_1E16,
            SPLIT_12,
            WRAP_TIE,
        ],
        ids=["polygon100", "polygon1000", "squashed0.1", "needle1e-5", "squashed1e-5",
             "squashed1e-9", "needle", "needle-x1e9", "turn1e-16", "split12", "wrap-tie"],
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
            _vertex_clouds(poly, rng),
            targets,
            lo + rng.random((20_000, 2)) * (hi - lo),
        ])
        expected = _all_edges(poly, pts)
        assert 0 < expected.sum() < len(pts)
        for layout in _layouts(pts):
            assert np.array_equal(poly.contains(layout), expected)


# Screened polygons: sharp, thin and far from the origin, with from 12 to
# 1000 vertices, so from many sectors per vertex to four vertices per sector,
# and with a turn of 1e-16 or two vertex angles within rounding.  Each has a
# table with its wedge angles.
SECTOR_CASES = [
    (POLY_100, "polygon100"),
    (POLY_1000, "polygon1000"),
    (FLAT_50, "squashed0.1"),
    (_needle(1e-5), "needle1e-5"),
    (regular_polygon(PREFILTER_MIN_VERTICES, 2.0, 0.1, center=(1e6, -3e6)), "regular12-far"),
    (regular_polygon(512, 1.0, 0.3), "regular512"),
    (TURN_1E16, "turn1e-16"),
    (SPLIT_12, "split12"),
    (WRAP_TIE, "wrap-tie"),
]
# and polygons as large that take the edge loop for the whole chunk, having
# no table
LOOP_CASES = [
    (_squashed(POLY_50, 1e-9), "squashed1e-9"),
    (_needle(1e-9), "needle"),
]


@pytest.mark.parametrize("poly", [p for p, _ in SECTOR_CASES], ids=[i for _, i in SECTOR_CASES])
def test_screened_polygon_has_wedge_angles(poly):
    assert len(poly._sectors.angle) == len(poly.vertices)


@pytest.mark.parametrize(
    "poly",
    [p for p, _ in SECTOR_CASES + LOOP_CASES],
    ids=[i for _, i in SECTOR_CASES + LOOP_CASES],
)
class TestSectorScreen:
    """The sector screen decides exactly as the all-edges test, also where it
    switches sectors, at the centroid, and for points that are not finite."""

    def test_matches_all_edges_about_the_sector_rays(self, poly):
        assert len(poly.vertices) >= PREFILTER_MIN_VERTICES
        c = np.asarray(poly.centroid())
        v = np.asarray(poly.vertices)
        diameter = float(np.max(np.hypot(*(v[:, None, :] - v[None, :, :]).T)))
        angle = -math.pi + 2.0 * math.pi / PREFILTER_SECTORS * np.arange(PREFILTER_SECTORS)
        u = np.stack([np.cos(angle), np.sin(angle)], -1)
        # along each sector's first ray: its exit from the polygon, moved in
        # and out by 1e-16 to 1e-3 of its length, and three interior points
        leave = np.array([poly.exit_parameter(c, d) for d in u])
        rel = np.concatenate([[0.0], np.geomspace(1e-16, 1e-3, 14)])
        along = leave[:, None] * np.concatenate([1.0 - rel, 1.0 + rel, [0.25, 0.5, 0.75]])
        on_ray = c + along[..., None] * u[:, None, :]
        # and beside the ray, 1e-16 to 1e-7 of the diameter to either side
        side = diameter * np.geomspace(1e-16, 1e-7, 6)
        side = np.concatenate([-side, side])
        normal = np.stack([-u[:, 1], u[:, 0]], -1)
        beside = on_ray[:, :, None, :] + side[None, None, :, None] * normal[:, None, None, :]
        pts = np.vstack([on_ray.reshape(-1, 2), beside.reshape(-1, 2), c])
        expected = _all_edges(poly, pts)
        assert expected[-1] and not expected.all()
        for layout in _layouts(pts):
            assert np.array_equal(poly.contains(layout), expected)

    def test_points_that_are_not_finite_are_outside(self, poly):
        inf, nan = math.inf, math.nan
        pts = np.array([
            (nan, 0.0), (0.0, nan), (nan, nan), (nan, inf), (-inf, nan),
            (inf, 0.0), (-inf, 0.0), (0.0, inf), (0.0, -inf),
            (inf, inf), (-inf, -inf), (inf, -inf), (-inf, inf),
        ])
        for layout in _layouts(pts):
            assert not poly.contains(layout).any()
        c = poly.centroid()
        sector = _sector_index(pts[:, 0] - c[0], pts[:, 1] - c[1])
        assert ((sector >= 0) & (sector < PREFILTER_SECTORS)).all()


def test_sector_table_memory_is_linear_in_the_vertices():
    # a (sectors, n) array would be 205 MB of floats, or 26 MB of flags
    poly = regular_polygon(MAX_REGULAR_POLYGON_SIDES, 1.0)
    pts = np.random.default_rng(2).uniform(-1.0, 1.0, (1000, 2))
    tracemalloc.start()
    try:
        mask = poly.contains(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the boundary lies within 5e-10 of the unit circle, and no point that close
    assert np.array_equal(mask, np.hypot(pts[:, 0], pts[:, 1]) < 1.0)
    assert peak < 16_000_000


def test_polygon_too_large_for_the_sector_table_runs_the_edge_loop():
    # a needle 2e160 long and 1e-90 wide: its area and centroid are finite, but
    # squares of its vertex radii are beyond the table's overflow guard
    poly = Polygon(tuple(
        (1e160 * math.cos(2.0 * math.pi * i / 22), 5e-91 * math.sin(2.0 * math.pi * i / 22))
        for i in range(22)
    ))
    assert poly._sectors is None
    pts = np.array([[0.0, 0.0], [2e160, 0.0], [0.5e160, 1e-91], [-0.999e160, 0.0], [1e160, 1e-90]])
    for layout in _layouts(pts):
        assert poly.contains(layout).tolist() == [True, False, True, True, False]


def _traced_peak(body, n=1_000_000):
    cavity = _with_cavity(body)[1]
    tracemalloc.start()
    try:
        est = sample_region_centroid(body, cavity, n, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.samples_accepted > 0
    return peak


# Working memory is a chunk of 2 * CHUNK_ROWS coordinates, 2 * 32768 / k
# points, in two buffers, and a work block of two floats per coordinate for the
# kernels: 2 MiB at every k, plus the kept points' index and masks and about
# 2 k^2 partial sums (0.3 MB at k = 64).  The 64-cube accepts nearly every
# point, so its sums and compactions run on full chunks, and its 977 chunks at
# 1e6 draws would keep 125,000 partial sums (4 MB) unfolded.


@pytest.mark.parametrize(
    "body",
    [Hyperball(center=(0.0,) * 3, radius=1.0), Hyperball(center=(0.0,) * 10, radius=1.0),
     Hypercube(min_corner=(0.0,) * 64, side=1.0)],
    ids=["ball3", "ball10", "cube64"],
)
def test_sampler_memory_is_bounded(body):
    assert _traced_peak(body) < 4_000_000


CLI_PEAK = """
import sys
from edgebalance import cli, montecarlo, ndim, planar, svg

def peak_mb():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) / 1024 for line in status if line.startswith("VmHWM:"))

base = peak_mb()
code = cli.main(sys.argv[1:])
print(code, peak_mb() - base)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM, Linux only")
def test_a_cli_check_of_a_64_cube_peaks_under_10_mb_above_its_imports(tmp_path):
    # the peak resident set of the whole run, which tracemalloc does not see
    # (numpy's and the interpreter's own pages), read around cli.main in a
    # fresh interpreter so that neither the imports nor earlier tests count.
    # VmHWM, not ru_maxrss: a child's ru_maxrss starts from the resident set
    # its parent had when it forked, which hides the run's own growth.  About
    # 3.5 MB with chunks of 2 * CHUNK_ROWS coordinates (1,024 points at
    # k = 64); about 23 MB with chunks of 32,768 points at every k
    shape = tmp_path / "cube64.json"
    shape.write_text(json.dumps({"type": "hypercube", "min_corner": [0] * 64, "side": 1}))
    src = os.path.dirname(os.path.dirname(os.path.abspath(montecarlo.__file__)))
    run = subprocess.run(
        [sys.executable, "-c", CLI_PEAK, "excise-kd", "--shape", str(shape),
         "--o=0" + ",0.5" * 63, "--verify", "mc", "--format", "json"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    code, grew = run.stdout.split()[-2:]
    assert int(code) == 0 and float(grew) < 10.0, run.stderr


def test_sampler_memory_is_bounded_up_to_refusal():
    # a 64-simplex fills 1/64! of its box: its largest kernel block is measured
    # up to the refusal of a run that accepts nothing
    simplex = Simplex(vertices=tuple(map(tuple, np.vstack([np.zeros(64), np.eye(64)]))))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="no samples accepted"):
            sample_region_centroid(simplex, None, 200_000, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


@pytest.mark.parametrize(
    "body",
    [POLY_50, POLY_1000, FLAT_50, ELLIPSE],
    ids=["polygon50", "polygon1000", "squashed0.1", "ellipse"],
)
def test_sampler_memory_is_bounded_in_the_plane(body):
    # 3.2-3.4 MB: the planar kernels allocate their own temporaries and leave
    # the 1 MiB work block unread, whose pages are never touched; tracemalloc
    # counts it all the same.  Working in it would cut this reading but add
    # its touched pages to the resident peak of every 2-D run
    assert _traced_peak(body) < 3_500_000
