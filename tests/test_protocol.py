"""The shared body protocol: entry validation, translation-robust moments,
bounded-memory membership, and one pipeline for every dimension."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from edgebalance import cli
from edgebalance.montecarlo import contains
from edgebalance.ndim import ExcisionPlanKd, Hyperball, Hypercube, Simplex, plan_excision_kd
from edgebalance.planar import (
    Circle,
    Ellipse,
    ExcisionPlan,
    Polygon,
    area,
    centroid,
    find_balanced_chord,
    plan_excision,
    random_convex_polygon,
    regular_polygon,
    shape_from_dict,
    verify_balance,
)

NAN, INF = float("nan"), float("inf")
PENTAGRAM = [[math.cos(0.8 * math.pi * i), math.sin(0.8 * math.pi * i)] for i in range(5)]
PENTAGON = {"type": "regular_polygon", "n": 5, "circumradius": 1.0}
BALL3 = {"type": "hyperball", "center": [0.0, 0.0, 0.0], "radius": 1.0}


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
        (["excise-kd", "--o=-1,0,0", "--dir", "nan,0,0"], BALL3, "finite"),
        (["excise"], BALL3, "planar shape"),
        (["excise"], {"type": "polygon", "vertices": [[0, 0], [1, 0], [0, 10**400]]}, "malformed"),
    ],
)
def test_invalid_input_is_refused_at_entry(tmp_path, capsys, command, shape, message):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(shape))
    code = cli.main([command[0], "--shape", str(path), *command[1:]])
    err = capsys.readouterr().err
    assert code == 2
    assert message in err


def test_pentagram_is_not_a_polygon():
    with pytest.raises(ValueError, match="wind around once"):
        Polygon(tuple(map(tuple, PENTAGRAM)))


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
