"""The shared body protocol: entry validation, translation-robust moments,
bounded-memory membership, and one pipeline for every dimension."""

import copy
import dataclasses
import json
import math
import pickle
import re
import sys
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from edgebalance import cli
from edgebalance.montecarlo import contains
from edgebalance.ndim import (
    ExcisionPlanKd,
    Hyperball,
    Hypercube,
    Simplex,
    balanced_boundary_point,
    excision_with_ratio_kd,
    plan_excision_kd,
)
from edgebalance.planar import (
    Chord,
    Circle,
    Ellipse,
    ExcisionPlan,
    Polygon,
    area,
    boundary_points,
    centroid,
    composite_centroid,
    excision_with_ratio,
    find_balanced_chord,
    find_chord_with_beta,
    plan_excision,
    random_convex_polygon,
    regular_polygon,
    shape_from_dict,
    verify_balance,
)
from edgebalance.shapes import MAX_REGULAR_POLYGON_SIDES

NAN, INF = float("nan"), float("inf")
PENTAGRAM = [[math.cos(0.8 * math.pi * i), math.sin(0.8 * math.pi * i)] for i in range(5)]
HEPTAGRAM = [[math.cos(4.0 * math.pi * i / 7), math.sin(4.0 * math.pi * i / 7)] for i in range(7)]
PENTAGON = {"type": "regular_polygon", "n": 5, "circumradius": 1.0}
BALL3 = {"type": "hyperball", "center": [0.0, 0.0, 0.0], "radius": 1.0}
PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")


@pytest.mark.parametrize(
    "command, shape, message",
    [
        (["excise"], {"type": "polygon", "vertices": PENTAGRAM}, "wind around once"),
        (["excise"], {"type": "polygon", "vertices": [[0, 0], [1, 0], [NAN, 1]]}, "finite"),
        (["excise"], {"type": "circle", "center": [0, 0], "radius": INF}, "finite"),
        (
            ["excise"],
            {"type": "ellipse", "center": [0, 0], "semi_axes": [2, 1], "rotation": NAN},
            "finite",
        ),
        (["excise-kd", "--o=-1,0,0"], {**BALL3, "radius": INF}, "finite"),
        (["excise-kd", "--o=0,0"], {"type": "hypercube", "min_corner": [0, NAN], "side": 1},
         "finite"),
        (["excise-kd", "--o=0,0"], {"type": "simplex", "vertices": [[0, 0], [1, 0], [0, NAN]]},
         "finite"),
        (["excise", "--theta", "inf"], PENTAGON, "finite"),
        (["excise", "--theta", "nan"], PENTAGON, "finite"),
        (["excise-kd", "--o=-inf,0,0"], BALL3, "finite"),
        (["excise-kd", "--o=-1,nan,0"], BALL3, "finite"),
        (["excise"], BALL3, "planar shape"),
        (["excise"], {"type": "simplex", "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]},
         "a planar shape is needed, got a simplex of dimension 3"),
        # the ray from the centroid through this point leaves the ball at (0.1, -1.1, 0.25)
        (["excise-kd", "--o=0.1,-0.9,0.25"], {"type": "hyperball", "center": [0.1, -0.4, 0.25], "radius": 0.7},
         "error: tangency point (0.1, -0.9, 0.25) is not on the shape boundary"),
        (["excise"], {"type": "polygon", "vertices": [[0, 0], [1, 0], [0, 10**400]]},
         "polygon vertex coordinate must be a finite number, got 1000"),
        (["excise"], {**PENTAGON, "n": MAX_REGULAR_POLYGON_SIDES + 1}, "at most 100000 sides"),
        # each polygon check, with its own message
        (["excise"], {"type": "polygon", "vertices": HEPTAGRAM}, "total turning is 12.566"),
        (["excise"], {"type": "polygon", "vertices": [[0, 0], [1, 0], [0, INF]]}, "finite"),
        (["excise"], {"type": "polygon", "vertices": [[0, 0], [1, 0], [0, 1, 2]]},
         "polygon vertex must be 2 numbers, got 3"),
        (["excise"], {"type": "polygon", "vertices": [[0, 0], [1, 0], [0]]},
         "polygon vertex must be 2 numbers, got 1"),
        (["excise"], {"type": "polygon", "vertices": [[0, 0], [1, 0]]},
         "polygon needs at least 3 vertices, got 2"),
        (["excise"], {"type": "polygon", "vertices": [[0, 0], [2, 0], [2, 2], [1, 2], [0, 2]]},
         "degenerate or collinear vertices around index 2"),
        (["excise"], {"type": "polygon", "vertices": [[0, 0], [0, 1], [1, 0]]},
         "vertices must be strictly convex and wind counterclockwise"),
        (["excise"], {"type": "polygon", "vertices": [[0, 0], [2, 0], [1, 0.5], [2, 2], [0, 2]]},
         "vertices must be strictly convex and wind counterclockwise"),
        (["excise-kd", "--o=0,0"], {"type": "simplex", "vertices": [[0, 0], [1, 0], [0, 1, 2]]},
         "simplex vertex must be 2 numbers, got 3"),
        # a key no loader reads would be dropped without a word: the pentagon
        # would sit at the origin and the ellipse would not be rotated
        (["excise"], {**PENTAGON, "center": [5, 5]}, "regular_polygon shape does not take 'center'"),
        (["excise"], {"type": "ellipse", "center": [0, 0], "semi_axes": [2, 1], "rotaton": 0.7},
         "ellipse shape does not take 'rotaton'"),
        (["excise"], {"type": "circle", "center": [0, 0], "radius": 1, "colour": "red"},
         "circle shape does not take 'colour'"),
        # each field is named, not only the arithmetic it would break
        (["excise"], {"type": "ellipse", "center": [0, 0], "semi_axes": [1]},
         "ellipse semi_axes must be 2 numbers, got 1"),
        (["excise"], {"type": "ellipse", "center": [0, 0], "semi_axes": [1, 1, 1]},
         "ellipse semi_axes must be 2 numbers, got 3"),
        # 1e400 reads as inf
        (["excise"], {**PENTAGON, "orientation": 1e400},
         "regular polygon orientation must be a finite number, got inf"),
        (["excise"], {**PENTAGON, "circumradius": 1e400},
         "regular polygon circumradius must be a finite number, got inf"),
        # a measure or centroid that binary64 cannot hold is refused where the body is built
        (["excise-kd", "--o=0" + ",0" * 63], {"type": "hypercube", "min_corner": [0] * 64, "side": 1e5},
         "error: hypercube measure inf is not"),
        (["excise-kd", "--o=1e6" + ",0" * 63], {"type": "hyperball", "center": [0] * 64, "radius": 1e6},
         "error: hyperball measure inf is not"),
        (["excise-kd", "--o=0" + ",0" * 63], {"type": "hypercube", "min_corner": [0] * 64, "side": 1e-6},
         "error: hypercube measure 0.0 is not"),
        # (side 1e16 is held: its measure is about 4.1e301, though its determinant is 1e320)
        (["excise-kd", "--o=0" + ",0" * 19],
         {"type": "simplex", "vertices": [[0] * 20] + [[1e17 * (i == j) for i in range(20)] for j in range(20)]},
         "error: simplex measure inf is not"),
        (["excise"], {"type": "polygon", "vertices": [[0, 0], [1e200, 0], [0, 1e200]]},
         "error: polygon measure inf is not"),
        # (circumradius 1e153 is held: its fan is redone on scaled offsets)
        (["excise"], {"type": "regular_polygon", "n": 1000, "circumradius": 1e155},
         "error: polygon measure inf is not"),
        # a 1-D ball's measure 2r fits, but the square its tests take does not
        (["excise-kd", "--o=-1e200", "--verify", "mc"], {"type": "hyperball", "center": [0], "radius": 1e200},
         "error: hyperball radius 1e+200 squared overflows binary64"),
        # a JSON value of the wrong kind is refused by field, never read as a number:
        # a string is not taken apart character by character, nor a boolean read as 0 or 1
        (["excise"], {"type": "circle", "center": "00", "radius": 1},
         "error: circle center must be a list, got '00'"),
        (["excise-kd", "--o=1,0"], {"type": "circle", "center": "00", "radius": 1},
         "error: circle center must be a list, got '00'"),
        (["excise"], {"type": "ellipse", "center": [0, 0], "semi_axes": "12"},
         "error: ellipse semi_axes must be a list, got '12'"),
        (["excise"], {"type": "ellipse", "center": [0, 0], "semi_axes": [2, 1], "rotation": "1"},
         "error: ellipse rotation must be a finite number, got '1'"),
        (["excise"], {"type": "polygon", "vertices": [[0, 0], [1, 0], ["0", "1"]]},
         "error: polygon vertex coordinate must be a finite number, got '0'"),
        (["excise"], {"type": "polygon", "vertices": [[False, False], [True, False], [False, True]]},
         "error: polygon vertex coordinate must be a finite number, got False"),
        (["excise"], {**PENTAGON, "circumradius": True},
         "error: regular polygon circumradius must be a finite number, got True"),
        (["excise"], {**PENTAGON, "n": 5.5}, "error: regular polygon n must be an integer, got 5.5"),
        (["excise"], {**PENTAGON, "n": "5"}, "error: regular polygon n must be an integer, got '5'"),
        (["excise"], {**PENTAGON, "n": True}, "error: regular polygon n must be an integer, got True"),
        (["excise-kd", "--o=-1,0,0"], {**BALL3, "radius": [1]},
         "error: hyperball radius must be a finite number, got [1]"),
        (["excise-kd", "--o=-1,0,0"], {**BALL3, "center": 5},
         "error: hyperball center must be a list, got 5"),
        (["excise-kd", "--o=-1,0,0"], {**BALL3, "radius": None},
         "error: hyperball radius must be a finite number, got None"),
        (["excise-kd", "--o=0,0"], {"type": "hypercube", "min_corner": [0, 0], "side": True},
         "error: hypercube side must be a finite number, got True"),
        # an empty or one-number point names its field and the count it got
        (["excise-kd", "--o=0"], {"type": "simplex", "vertices": []},
         "error: simplex vertices must be 2 to 65 points, got 0"),
        (["excise-kd", "--o=0"], {"type": "simplex", "vertices": [[0]]},
         "error: simplex vertices must be 2 to 65 points, got 1"),
        (["excise-kd", "--o=0"], {**BALL3, "center": []},
         "error: hyperball center must be 1 to 64 numbers, got 0"),
        (["excise"], {**PENTAGON, "n": 2},
         "error: regular polygon n must be at least 3 and at most 100000 sides, got 2"),
        (["excise"], {**PENTAGON, "circumradius": 0},
         "error: regular polygon circumradius must be positive, got 0.0"),
        (["excise"], {"type": "ellipse", "center": [0, 0, 0], "semi_axes": [2, 1]},
         "error: ellipse center must be 2 numbers, got 3"),
        (["excise"], {"type": "circle", "center": [0, 0, 0], "radius": 1},
         "error: circle center must be 2 numbers, got 3"),
        # the command line's own input: a shape file that is not JSON, and bad flag values
        (["excise"], "{", "is not valid JSON"),
        (["excise-kd", "--o=a,b"], BALL3, "error: --o expects comma-separated numbers, got 'a,b'"),
        (["excise", "--theta", "abc"], PENTAGON,
         "error: --theta must be 'auto' or a finite number, got 'abc'"),
        (["excise", "--svg", "no-such-directory/figure.svg"], PENTAGON,
         "error: cannot write SVG figure no-such-directory/figure.svg"),
    ],
)
def test_invalid_input_is_refused_at_entry(tmp_path, capsys, command, shape, message):
    path = tmp_path / "shape.json"
    path.write_text(shape if isinstance(shape, str) else json.dumps(shape))
    code = cli.main([command[0], "--shape", str(path), *command[1:]])
    err = capsys.readouterr().err
    assert code == 2
    assert message in err


@pytest.mark.parametrize(
    "command, shape",
    [
        # r^64 is 1e320, but the measure is about 3.1e300
        (["excise-kd", "--o=-1e5" + ",0" * 63], {"type": "hyperball", "center": [0] * 64, "radius": 1e5}),
        # at the loader's cap: the fan's moments and the cavity are built on arrays
        (["excise", "--verify", "exact", "--svg", "figure.svg"], {**PENTAGON, "n": 100_000}),
    ],
    ids=["ball64-radius-1e5", "polygon-at-the-cap"],
)
def test_input_at_the_edges_of_what_is_held_is_planned(tmp_path, monkeypatch, capsys, command, shape):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(shape))
    code = cli.main([command[0], "--shape", str(path), *command[1:], "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert json.loads(out)["passed"] is True
    if "--svg" in command:
        assert (tmp_path / "figure.svg").read_text().startswith("<svg")


def test_tolerance_below_angle_resolution_is_refused(tmp_path, capsys):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(random_convex_polygon(12, np.random.default_rng(9)).to_dict()))
    code = cli.main(["excise", "--shape", str(path), "--tol", "1e-17"])
    assert code == 2
    assert "no angle gives a chord with offset within 1e-17" in capsys.readouterr().err


def test_regular_polygon_size_is_capped():
    with pytest.raises(ValueError, match="at most 100000 sides"):
        shape_from_dict({**PENTAGON, "n": MAX_REGULAR_POLYGON_SIDES + 1})


SQUARE = Polygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
DISC = Circle(center=(0.0, 0.0), radius=1.0)


@pytest.mark.parametrize(
    "call, message",
    [
        # the chord constructor's own checks
        (lambda: Chord((0, 0), (1, 0, 0), (0.5, 0), 0.5), "chord far_point must be 2 numbers, got 3"),
        (lambda: Chord((0, 0), (0, 0), (0, 0), 0.5), "chord endpoints coincide"),
        (lambda: Chord((0, 0), (1, 0), (2, 0), 0.5), "centroid must lie strictly between the chord ends"),
        (lambda: Chord((0, 0), (1, 0), (0.5, 0), 1.5), r"chord beta must be in \(0, 1\), got 1.5"),
        (lambda: Chord((0, 0), (1, 0), (0.5, 0), 0.4), "beta inconsistent with the stored points"),
        (lambda: Chord("00", "20", "10", 0.5), "chord tangent_point must be a list, got '00'"),
        (lambda: Chord((0, 0), (1, 0), (0.5, 0), "0.5"), "chord beta must be a finite number, got '0.5'"),
        # the planning and search entries
        (lambda: find_chord_with_beta(SQUARE, 1.0), r"beta target must be in \(0, 1\), got 1.0"),
        (lambda: balanced_boundary_point(SQUARE), "needs a centrally symmetric body or a simplex"),
        (lambda: plan_excision_kd(Hyperball(center=(0, 0, 0), radius=1), (1, 0)),
         "tangency point must be 3 numbers, got 2"),
        (lambda: plan_excision_kd(DISC, "10"), "tangency point must be a list, got '10'"),
        (lambda: plan_excision_kd(DISC, (True, False)),
         "tangency point coordinate must be a finite number, got True"),
        (lambda: excision_with_ratio_kd(DISC, (-1, 0), "10", 2.0), "far point must be a list, got '10'"),
        # a hand-built plan whose cavity is the body itself
        (lambda: composite_centroid(ExcisionPlan(SQUARE, find_balanced_chord(SQUARE), 2.0, SQUARE, (0.5, 0.5))),
         "cavity measure must be strictly smaller than the body measure"),
        (lambda: boundary_points(SQUARE, 0), "count must be positive, got 0"),
        (lambda: DISC.scaled_about((0, 1), "0.5"), "homothety factor must be a finite number, got '0.5'"),
        # a body's fields, read from Python as from JSON
        (lambda: Circle(center="12", radius=1), "circle center must be a list, got '12'"),
        (lambda: Hypercube(min_corner="00", side=1), "hypercube min_corner must be a list, got '00'"),
        (lambda: Hypercube(min_corner=(0, 0), side=True), "hypercube side must be a finite number, got True"),
        (lambda: Hyperball(center=(0, 0), radius=10**400),
         "hyperball radius must be a finite number, got 1000"),
        (lambda: Hyperball(center=(0, 0), radius=None), "hyperball radius must be a finite number, got None"),
        (lambda: Hyperball(center=np.zeros((2, 1)), radius=1),
         "hyperball center coordinate must be a finite number"),
        (lambda: Simplex(vertices=np.eye(3)[:2]), "simplex vertex must be 1 numbers, got 3"),
        (lambda: regular_polygon(5.0, 1.0), "regular polygon n must be an integer, got 5.0"),
        (lambda: regular_polygon(5, 1.0, center=(0, 0, 0)),
         "regular polygon center must be 2 numbers, got 3"),
    ],
)
def test_the_library_refuses_invalid_input_at_entry(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_real_numbers_of_every_python_type_are_read_as_floats():
    # numpy scalars and arrays, fractions and plain ints read as the floats they hold
    body = Hyperball(center=np.array([1, 2]), radius=Fraction(3, 2))
    assert body == Hyperball(center=(1.0, 2.0), radius=1.5)
    assert all(type(x) is float for x in (*body.center, body.radius))
    cube = Hypercube(min_corner=(np.float32(0.5), np.int64(2)), side=np.float64(2.0))
    assert repr(cube) == repr(Hypercube(min_corner=(0.5, 2.0), side=2.0))


# one valid dictionary of each shape type the loader reads; every number and
# list in it is a slot that a value of the wrong kind may take
VALID_SHAPES = [
    {"type": "polygon", "vertices": [[0, 0], [2, 0], [1, 1.5]]},
    {"type": "circle", "center": [0, 0], "radius": 1},
    {"type": "ellipse", "center": [0, 0], "semi_axes": [2, 1], "rotation": 0.5},
    {**PENTAGON, "orientation": 0.3},
    BALL3,
    {"type": "hypercube", "min_corner": [0, 0, 0], "side": 1},
    {"type": "simplex", "vertices": [[0, 0], [1, 0], [0, 1]]},
]


def _slots(value, path):
    yield path, value
    if isinstance(value, list):
        for i, item in enumerate(value):
            yield from _slots(item, path + (i,))


LOADER_SLOTS = [
    (shape, path, value)
    for shape in VALID_SHAPES
    for field, field_value in shape.items() if field != "type"
    for path, value in _slots(field_value, (field,))
]
TEXT = st.one_of(st.text(max_size=4), st.floats().map(repr), st.integers(-99, 99).map(str))
OBJECT = st.dictionaries(st.text(max_size=3), st.integers(), max_size=2)
BEYOND_BINARY64 = st.integers(2**1024, 2**1100) | st.integers(-(2**1100), -(2**1024))
WRONG_FOR_A_NUMBER = st.one_of(TEXT, st.booleans(), st.none(), OBJECT, st.lists(st.integers(), max_size=3),
                               BEYOND_BINARY64)
WRONG_FOR_A_LIST = st.one_of(TEXT, st.booleans(), st.none(), OBJECT, st.floats(-9, 9), st.integers(-9, 9),
                             BEYOND_BINARY64)


@pytest.mark.parametrize(
    "shape, path, value",
    LOADER_SLOTS,
    ids=[f"{s['type']}-{'-'.join(map(str, p))}" for s, p, _ in LOADER_SLOTS],
)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_the_loader_refuses_a_value_of_the_wrong_kind_by_field(shape, path, value, data):
    if isinstance(value, list):
        wrong = WRONG_FOR_A_LIST
    elif path == ("n",):  # an integer: a fraction is as wrong as a string
        wrong = WRONG_FOR_A_NUMBER | st.floats()
    else:
        wrong = WRONG_FOR_A_NUMBER
    bad = copy.deepcopy(shape)
    *parents, last = path
    slot = bad
    for key in parents:
        slot = slot[key]
    slot[last] = data.draw(wrong)
    with pytest.raises(ValueError) as refused:
        shape_from_dict(json.loads(json.dumps(bad)))
    message = str(refused.value)
    assert shape["type"].replace("_", " ") in message
    field = path[0]
    assert any(name in message for name in ((field, "vertex") if field == "vertices" else (field,))), message


def test_pentagram_is_not_a_polygon():
    with pytest.raises(ValueError, match="wind around once"):
        Polygon(tuple(map(tuple, PENTAGRAM)))


@pytest.mark.parametrize(
    "body",
    [
        random_convex_polygon(40, np.random.default_rng(5)),
        Simplex(vertices=((0.0, 0.0), (3.0, 0.0), (1.0, 2.0))),
        Simplex(vertices=tuple(map(tuple, np.random.default_rng(6).normal(size=(6, 5))))),
    ],
)
def test_polytopes_carry_one_read_only_array(body):
    assert all(type(x) is float for v in body.vertices for x in v)
    assert np.array_equal(body.vertex_array, np.array(body.vertices))
    assert body.vertex_array.dtype == np.float64
    with pytest.raises(ValueError, match="read-only"):
        body.vertex_array[0, 0] = 0.0
    o, f = body.vertices[1], 1.0 / 3.0
    cavity = body.scaled_about(o, f)
    # the homothety keeps the element-wise arithmetic, bit for bit
    assert cavity.vertices == tuple(tuple(a + (x - a) * f for x, a in zip(v, o)) for v in body.vertices)
    assert all(type(x) is float for v in cavity.vertices for x in v)
    assert not cavity.vertex_array.flags.writeable
    if isinstance(body, Polygon):
        # the edges validation forms, kept bit for bit and read-only
        v = body.vertex_array
        assert body.edge_array.dtype == np.float64
        assert body.edge_array.tobytes() == (np.roll(v, -1, axis=0) - v).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            body.edge_array[0, 0] = 0.0
        assert not cavity.edge_array.flags.writeable


def test_a_cavity_builds_no_edges_or_tuples_unless_they_are_read():
    # a built polygon keeps the edges its validation forms, but not its input:
    # its tuples are made from its array on first read, the input as floats
    given = [[0, 0], [3, 0.5], [4, 2], [1, 3]]
    polygon = Polygon(given)
    assert "edge_array" in polygon.__dict__ and "vertices" not in polygon.__dict__
    assert polygon.vertices == tuple(tuple(float(x) for x in p) for p in given)
    assert all(type(x) is float for p in polygon.vertices for x in p)
    # planning and exact verification read neither of the cavity's
    plan = plan_excision(polygon, find_balanced_chord(polygon))
    assert verify_balance(plan).passed
    assert "edge_array" not in plan.cavity.__dict__ and "vertices" not in plan.cavity.__dict__
    v = plan.cavity.vertex_array
    edges = plan.cavity.edge_array
    assert edges.tobytes() == (np.roll(v, -1, axis=0) - v).tobytes()
    assert plan.cavity.edge_array is edges and not edges.flags.writeable


def held_arrays(body) -> list:
    """Every array in a body's ``__dict__``, alone or in a tuple (a cache)."""
    values = [a for v in body.__dict__.values() for a in (v if isinstance(v, tuple) else (v,))]
    return [a for a in values if isinstance(a, np.ndarray)]


@pytest.mark.parametrize(
    "route",
    [copy.copy, copy.deepcopy, lambda body: pickle.loads(pickle.dumps(body))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_keep_their_arrays_read_only(route):
    # numpy hands a copy's arrays back writeable; a write to one would leave the
    # copy's kept tuples, moments and sweep frame describing the original
    polygon = regular_polygon(5, 1.0)
    find_balanced_chord(polygon)  # keeps the sweep frame with the polygon
    screened = regular_polygon(40, 1.0)
    screened.contains(np.zeros((1, 2)))  # keeps the sector table
    simplex = Simplex(vertices=((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))
    cavities = [body.scaled_about(body.vertex_array[1], 0.5) for body in (polygon, simplex)]
    assert all("vertices" not in cavity.__dict__ for cavity in cavities)  # tuples never read
    for body in (polygon, screened, simplex, *cavities):
        body._centroid_exits(np.eye(body.dim)[0])  # keeps the facet caches
        assert all(not a.flags.writeable for a in held_arrays(body))
        twin = route(body)
        arrays = held_arrays(twin)
        assert len(arrays) == len(held_arrays(body))
        assert ("_sweep_frame" in twin.__dict__) == (body is polygon)
        assert ("_sectors" in twin.__dict__) == (body is screened)
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = 10.0
        assert twin == body
        assert (twin.measure(), twin.centroid()) == (body.measure(), body.centroid())


@pytest.mark.parametrize(
    "body",
    [
        Polygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))),
        Simplex(vertices=((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))),
        Hypercube(min_corner=(0.0, 0.0), side=1.0),
    ],
)
def test_a_ray_leaving_through_its_own_facet_has_no_exit(body):
    # from a point on the facet y = 0, inward crosses the body and outward does not
    assert body.exit_parameter((0.25, 0.0), (0.0, 1.0)) >= 0.75
    with pytest.raises(ValueError, match="no finite positive exit"):
        body.exit_parameter((0.25, 0.0), (0.0, -1.0))


def _bodies_of_every_class():
    rng = np.random.default_rng(41)
    far = random_convex_polygon(30, rng)
    return [
        random_convex_polygon(7, rng),
        Polygon(tuple((x + 1e3, y - 1e3) for x, y in far.vertices)),
        regular_polygon(12, 2.0, 0.3),
        Ellipse(center=(0.5, -0.25), semi_axes=(2.0, 0.75), rotation=0.4),
        Circle(center=(-1.0, 3.0), radius=0.6),
        *(Hyperball(center=tuple(rng.uniform(-1.0, 1.0, k)), radius=float(rng.uniform(0.5, 2.0)))
          for k in (1, 3, 17, 64)),
        *(Hypercube(min_corner=tuple(rng.uniform(-1.0, 1.0, k)), side=float(rng.uniform(0.5, 2.0)))
          for k in (1, 2, 17, 64)),
        *(Simplex(vertices=tuple(map(tuple, np.vstack([np.zeros(k), np.eye(k)])
                                     + rng.uniform(-0.1, 0.1, (k + 1, k)))))
          for k in (1, 2, 17, 64)),
    ]


@pytest.mark.parametrize("body", _bodies_of_every_class(), ids=lambda b: f"{b.kind}{b.dim}")
class TestMomentsKeptFromConstruction:
    def test_kept_moments_are_the_formula_bit_for_bit(self, body):
        measure, centroid = body._moments()
        assert repr(body.measure()) == repr(measure)
        assert repr(body.centroid()) == repr(centroid)
        assert all(type(x) is float for x in body.centroid())

    def test_kept_moments_leave_the_dataclass_alone(self, body):
        # the moments and the centroid's facet distances are kept beside the
        # fields: equality, hash, fields and the JSON form see the fields only
        names = {
            "polygon": ["vertices"],
            "ellipse": ["center", "semi_axes", "rotation"],
            "circle": ["center", "radius"],
            "hyperball": ["center", "radius"],
            "hypercube": ["min_corner", "side"],
            "simplex": ["vertices"],
        }[body.kind]
        assert [f.name for f in dataclasses.fields(body)] == names
        assert list(body.to_dict()) == ["type", *names]
        twin = shape_from_dict(json.loads(json.dumps(body.to_dict())))
        if hasattr(body, "_centroid_exits"):
            body._centroid_exits((1.0,) + (0.0,) * (body.dim - 1))
        assert twin == body and hash(twin) == hash(body)
        assert repr(twin) == repr(body)
        assert twin.to_dict() == body.to_dict()


def _ball_measure(k: int, r: float) -> Decimal:
    """pi^(k/2) r^k / Gamma(k/2 + 1) in 60 digits: (k/2)! for even k, and for
    odd k = 2m - 1, Gamma(m + 1/2) = (2m)! sqrt(pi) / (4^m m!)."""
    with localcontext() as ctx:
        ctx.prec = 60
        if k % 2 == 0:
            return PI**(k // 2) * Decimal(r)**k / math.factorial(k // 2)
        m = (k + 1) // 2
        return PI**(m - 1) * Decimal(r)**k * 4**m * math.factorial(m) / math.factorial(2 * m)


def decimal_det(matrix) -> Decimal:
    """The determinant of a float matrix in 60 digits, by elimination with partial pivoting."""
    with localcontext() as ctx:
        ctx.prec = 60
        a = [[Decimal(x) for x in row] for row in matrix]
        n, det = len(a), Decimal(1)
        for i in range(n):
            p = max(range(i, n), key=lambda r: abs(a[r][i]))
            if p != i:
                a[i], a[p], det = a[p], a[i], -det
            det *= a[i][i]
            if not det:
                return det
            for r in range(i + 1, n):
                f = a[r][i] / a[i][i]
                for c in range(i + 1, n):
                    a[r][c] -= f * a[i][c]
        return det


def simplex_measure(vertices: np.ndarray) -> Decimal:
    """|det| / k! of the edges out of vertex 0, as the simplex forms them."""
    with localcontext() as ctx:
        ctx.prec = 60
        return abs(decimal_det(vertices[1:] - vertices[0])) / math.factorial(len(vertices) - 1)


class TestMeasuresBinary64Holds:
    """A ball's r^k or a simplex's determinant may overflow where the measure
    does not; those measures are taken in logarithms, the rest keep their bits."""

    def test_ball_beyond_its_power(self):
        ball = Hyperball(center=(0.0,) * 64, radius=1e5)  # r^k is 1e320
        assert ball.measure() == pytest.approx(3.0805e300, rel=1e-4)
        assert abs(ball.measure() / float(_ball_measure(64, 1e5)) - 1.0) <= 1e-12

    def test_simplex_beyond_its_determinant(self):
        simplex = Simplex(vertices=tuple(map(tuple, np.vstack([np.zeros(20), 1e16 * np.eye(20)]))))
        assert simplex.measure() == pytest.approx(4.1103e301, rel=1e-4)
        assert abs(simplex.measure() / float(simplex_measure(simplex.vertex_array)) - 1.0) <= 1e-12

    def test_ellipse_whose_pi_times_a_overflows(self):
        # pi * 1e308 overflows, pi * (1e308 * 0.1) does not
        assert Ellipse(center=(0.0, 0.0), semi_axes=(1e308, 0.1)).measure() == pytest.approx(
            3.14159e307, rel=1e-5
        )
        with pytest.raises(ValueError, match="ellipse measure inf"):
            Ellipse(center=(0.0, 0.0), semi_axes=(1e308, 10.0))

    def test_polygon_whose_fan_overflows(self):
        # the fan's cubic terms overflow from offsets of about 1e103; redone on
        # offsets scaled by a power of two, the square builds, plans and verifies
        square = regular_polygon(4, 1e103)
        assert square.measure() == pytest.approx(2e206, rel=1e-12)
        assert math.hypot(*square.centroid()) <= 1e-12 * 1e103
        assert verify_balance(plan_excision(square, find_balanced_chord(square))).passed
        with pytest.raises(ValueError, match="polygon measure inf"):
            regular_polygon(1000, 1e155)

    def test_a_ball_whose_radius_squared_overflows_is_refused(self):
        # only at k = 1 does the measure fit where r^2 does not: 2r is 2e200
        with pytest.raises(ValueError, match=r"hyperball radius 1e\+200 squared overflows"):
            Hyperball(center=(0.0,), radius=1e200)
        with pytest.raises(ValueError, match=r"hyperball radius 1e\+200 squared overflows"):
            Hyperball(center=(0.0,), radius=1.0).scaled_about((0.0,), 1e200)
        rod = Hyperball(center=(0.0,), radius=1e154)  # r^2 is 1e308
        assert rod.contains(np.array([[-1e154], [1.1e154]])).tolist() == [True, False]
        assert rod.exit_parameter((0.0,), (1.0,)) == 1e154

    def test_measures_beyond_binary64_are_still_refused(self):
        with pytest.raises(ValueError, match="hypercube measure inf"):
            Hypercube(min_corner=(0.0,) * 64, side=1e5)  # 1e320
        with pytest.raises(ValueError, match="hyperball measure inf"):
            Hyperball(center=(0.0,) * 64, radius=2e5)  # 3.1e300 * 2^64, about 5.7e319
        with pytest.raises(ValueError, match="simplex measure inf"):
            Simplex(vertices=tuple(map(tuple, np.vstack([np.zeros(20), 1e17 * np.eye(20)]))))

    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(
        k=st.integers(1, 64),
        exponent=st.floats(200.0, 320.0),
        family=st.sampled_from(["ball", "simplex"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_measures_near_the_top_of_binary64(self, k, exponent, family, seed):
        # sizes chosen for a measure of about 10^exponent, so that the direct
        # formula overflows for most k; where it does not, its float is kept
        if family == "ball":
            log_size = (exponent - math.log10(float(_ball_measure(k, 1.0)))) / k
        else:
            log_size = (exponent + math.log10(math.factorial(k))) / k
        assume(log_size < 308.0)
        size = 10.0**log_size
        if family == "ball":
            expected = _ball_measure(k, size)
            build = lambda: Hyperball(center=(0.0,) * k, radius=size)  # noqa: E731
        else:
            rng = np.random.default_rng(seed)
            v = (np.vstack([np.zeros(k), np.eye(k)]) + rng.uniform(-0.1, 0.1, (k + 1, k))) * size
            expected = simplex_measure(v)
            build = lambda: Simplex(vertices=tuple(map(tuple, v)))  # noqa: E731
        top = Decimal(sys.float_info.max)
        if expected > top * Decimal("1.000000000001"):
            with pytest.raises(ValueError, match="measure inf"):
                build()
            return
        if family == "ball" and size * size == math.inf:
            # a measure that fits, at k = 1, with a radius whose square does not
            with pytest.raises(ValueError, match="squared overflows"):
                build()
            return
        assume(expected < top * Decimal("0.999999999999"))
        body = build()
        assert abs(body.measure() / float(expected) - 1.0) <= 1e-12
        try:
            with np.errstate(over="ignore"):
                if family == "ball":
                    direct = math.pi ** (k / 2.0) * size**k / math.gamma(k / 2.0 + 1.0)
                else:
                    direct = abs(float(np.linalg.det(body._edge_matrix()))) / math.factorial(k)
        except OverflowError:
            direct = math.inf
        if direct < math.inf:
            assert body.measure() == direct

    def test_decimal_det_reference(self):
        m = np.random.default_rng(8).normal(size=(6, 6))
        assert float(decimal_det(m)) == pytest.approx(float(np.linalg.det(m)), rel=1e-12)
        assert decimal_det([[0.0, 2.0], [3.0, 0.0]]) == -6
        assert decimal_det([[1.0, 2.0], [2.0, 4.0]]) == 0


class TestTranslatedPolygons:
    def test_balance_verifies_far_from_the_origin(self):
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(30):
            base = random_convex_polygon(int(rng.integers(3, 30)), rng)
            for dx, dy in ((100.0, -100.0), (1e3, -1e3)):
                poly = Polygon(tuple((x + dx, y + dy) for x, y in base.vertices))
                report = verify_balance(plan_excision(poly, find_balanced_chord(poly)), tol=1e-10)
                worst = max(worst, report.relative_distance)
        assert worst < 1e-11

    def test_tiny_polygon_far_away_keeps_area_and_centroid(self):
        base = random_convex_polygon(7, np.random.default_rng(3), scale=1e-6)
        far = Polygon(tuple((x + 1e3, y - 1e3) for x, y in base.vertices))
        assert area(far) == pytest.approx(area(base), rel=1e-6)
        cx, cy = centroid(base)
        assert centroid(far) == pytest.approx((cx + 1e3, cy - 1e3), abs=1e-12)

    def test_tiny_polygon_far_away_is_refused_with_the_reason(self, tmp_path, capsys):
        # coordinates near 1e3 round by about 1e-13, a few 1e-7 of a 1e-6 chord
        base = random_convex_polygon(7, np.random.default_rng(3), scale=1e-6)
        far = Polygon(tuple((x + 1e3, y - 1e3) for x, y in base.vertices))
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(far.to_dict()))
        code = cli.main(["excise", "--shape", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert re.search(r"the chord is [0-9.]+e-0[67] long but coordinates reach 1e\+03", err)
        assert "translate the shape toward the origin" in err

    def test_chord_rounding_to_a_point_is_refused_with_the_reason(self, tmp_path, capsys):
        # a horizontal chord 2e-14 long at 1e3 rounds to one point: the search
        # returns it unchecked, and planning refuses it
        path = tmp_path / "shape.json"
        path.write_text(json.dumps({"type": "circle", "center": [1e3, 0.0], "radius": 1e-14}))
        code = cli.main(["excise", "--shape", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert "the chord is 0 long" in err and "translate the shape toward the origin" in err
        dot = Circle(center=(1e3, 0.0), radius=1e-14)
        with pytest.raises(ValueError, match="chord endpoints coincide; the chord is 0 long"):
            excision_with_ratio(dot, find_balanced_chord(dot), 1.5)


# valid, with a turn of about 1e-16 at vertex 2: the scaled copy of this
# polygon rounds that turn to zero, so a cavity checked like input was refused
NEAR_COLLINEAR = [
    [-2.9574490283810024, 0.874325373449687],
    [-1.9574490283810024, 0.874325373449687],
    [-0.9574490283810024, 0.8743253734496871],
    [-1.6218798118807283, 2.398171325414465],
]


def test_cavity_of_a_nearly_collinear_polygon_is_planned(tmp_path, capsys):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps({"type": "polygon", "vertices": NEAR_COLLINEAR}))
    code = cli.main(["excise", "--shape", str(path), "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert json.loads(out)["passed"] is True


@pytest.mark.parametrize("body", _bodies_of_every_class(), ids=lambda b: f"{b.kind}{b.dim}")
def test_scaled_about_checks_its_own_arguments(body):
    o = body.centroid()
    for factor in (0.0, -1.0, NAN, INF):
        with pytest.raises(ValueError, match="homothety"):
            body.scaled_about(o, factor)
    with pytest.raises(ValueError, match="finite"):
        body.scaled_about((NAN,) + o[1:], 0.5)
    with pytest.raises(ValueError, match=f"homothety origin must be {body.dim} numbers, got {body.dim + 1}"):
        body.scaled_about(o + (0.0,), 0.5)
    # numbers of any type come back as Python floats, as the constructor stores them
    cavity = body.scaled_about(np.asarray(o), np.float64(0.5))
    assert repr(cavity) == repr(body.scaled_about(o, 0.5))


def test_a_simplex_cavity_takes_one_determinant(monkeypatch):
    # and so does a simplex built from input, for its measure: its degeneracy
    # test reads the singular values, which take no determinant
    vertices = tuple(map(tuple, np.random.default_rng(4).normal(size=(6, 5))))
    calls = 0
    det = np.linalg.det

    def counted(a):
        nonlocal calls
        calls += 1
        return det(a)

    monkeypatch.setattr(np.linalg, "det", counted)
    simplex = Simplex(vertices=vertices)
    assert calls == 1
    simplex.scaled_about(simplex.vertices[0], 0.6)
    assert calls == 2


def test_polygon_membership_memory_is_linear_in_points():
    poly = regular_polygon(100, 1.0)
    pts = np.random.default_rng(1).uniform(-1.0, 1.0, size=(20_000, 2))
    tracemalloc.start()
    try:
        mask = contains(poly, pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000
    # reference: every point against every edge at once, same arithmetic
    v = np.asarray(poly.vertices)
    edges = np.roll(v, -1, axis=0) - v
    rel = pts[:, None, :] - v[None, :, :]
    cross = edges[None, :, 0] * rel[:, :, 1] - edges[None, :, 1] * rel[:, :, 0]
    assert np.array_equal(mask, np.all(cross >= 0.0, axis=1))


@pytest.mark.parametrize(
    "shape",
    [
        Hyperball(center=(0.5, 0.0), radius=1.0),
        Hypercube(min_corner=(0.0, 0.0), side=2.0),
        Simplex(vertices=((0.0, 0.0), (3.0, 0.0), (1.0, 2.0))),
        Circle(center=(0.0, 1.0), radius=2.0),
        Ellipse(center=(0.0, 0.0), semi_axes=(2.0, 1.0), rotation=0.3),
    ],
)
def test_every_planar_body_runs_the_planar_pipeline(tmp_path, capsys, shape):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(shape.to_dict()))
    figure = tmp_path / "figure.svg"
    code = cli.main(["excise", "--shape", str(path), "--svg", str(figure), "--format", "json"])
    assert code == 0, capsys.readouterr().err
    assert figure.read_text().startswith("<svg")
    assert shape_from_dict(shape.to_dict()) == shape


def test_k_dimensional_entry_accepts_planar_shapes():
    triangle = Polygon(((0.0, 0.0), (3.0, 0.0), (1.0, 2.0)))
    plan = plan_excision_kd(triangle, (1.5, 0.0))
    assert isinstance(plan, ExcisionPlan) and ExcisionPlanKd is ExcisionPlan
    assert plan.beta == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert verify_balance(plan).passed
