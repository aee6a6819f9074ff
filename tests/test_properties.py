"""Properties the balance argument guarantees, checked with Hypothesis."""

import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from edgebalance import cli
from edgebalance.ndim import (
    Hyperball,
    Hypercube,
    Simplex,
    balanced_boundary_point,
    plan_excision_kd,
    verify_balance_kd,
)
from edgebalance.planar import (
    Polygon,
    chord_through_centroid,
    find_balanced_chord,
    plan_excision,
    random_convex_polygon,
    verify_balance,
)

# derandomized so that every run of the suite checks the same examples
PROPERTY = settings(deadline=None, max_examples=60, derandomize=True)
seeds = st.integers(0, 2**32 - 1)
angles = st.floats(0.0, 2.0 * math.pi)


def polygon(seed: int, n: int) -> Polygon:
    return random_convex_polygon(n, np.random.default_rng(seed))


def transformed(poly: Polygon, fn) -> Polygon:
    try:
        return Polygon(tuple(fn(x, y) for x, y in poly.vertices))
    except ValueError:
        assume(False)  # rounding made a nearly straight vertex collinear


def offset_and_ratio(poly: Polygon, theta: float) -> tuple[float, float]:
    chord = chord_through_centroid(poly, theta)
    return chord.beta, plan_excision(poly, chord).scale_ratio


@PROPERTY
@given(seed=seeds, n=st.integers(3, 60), theta=angles)
def test_reversed_chord_complements_offset(seed, n, theta):
    poly = polygon(seed, n)
    forward = chord_through_centroid(poly, theta).beta
    backward = chord_through_centroid(poly, theta + math.pi).beta
    assert abs(forward + backward - 1.0) <= 1e-12


@PROPERTY
@given(
    seed=seeds,
    n=st.integers(3, 40),
    theta=angles,
    phi=angles,
    shift=st.integers(0, 39),
    exponent=st.sampled_from([-6, 6]),
    dx=st.floats(-1e3, 1e3),
    dy=st.floats(-1e3, 1e3),
)
def test_offset_and_ratio_are_similarity_invariant(seed, n, theta, phi, shift, exponent, dx, dy):
    poly = polygon(seed, n)
    beta, ratio = offset_and_ratio(poly, theta)
    cp, sp = math.cos(phi), math.sin(phi)
    s = 10.0**exponent
    images = [
        (transformed(poly, lambda x, y: (cp * x - sp * y, sp * x + cp * y)), theta + phi),
        (Polygon(poly.vertices[shift % n:] + poly.vertices[: shift % n]), theta),
        (transformed(poly, lambda x, y: (s * x, s * y)), theta),
        (transformed(poly, lambda x, y: (x + dx, y + dy)), theta),
    ]
    for image, direction in images:
        image_beta, image_ratio = offset_and_ratio(image, direction)
        assert image_beta == pytest.approx(beta, abs=1e-9)
        assert image_ratio == pytest.approx(ratio, abs=1e-9)
    translated = images[-1][0]
    assert verify_balance(plan_excision(translated, find_balanced_chord(translated))).passed


@settings(PROPERTY, max_examples=40)
@given(seed=seeds, n=st.integers(3, 200))
def test_every_random_polygon_balances(seed, n):
    poly = polygon(seed, n)
    assert verify_balance(plan_excision(poly, find_balanced_chord(poly)), tol=1e-10).passed


@PROPERTY
@given(seed=seeds, k=st.integers(2, 10), family=st.sampled_from(["ball", "cube", "simplex"]))
def test_every_random_body_balances(seed, k, family):
    rng = np.random.default_rng(seed)
    corner = tuple(rng.uniform(-1.0, 1.0, size=k))
    size = float(rng.uniform(0.5, 2.0))
    if family == "ball":
        body = Hyperball(center=corner, radius=size)
    elif family == "cube":
        body = Hypercube(min_corner=corner, side=size)
    else:
        vertices = (np.vstack([np.zeros(k), np.eye(k)]) + rng.uniform(-0.1, 0.1, (k + 1, k))) * size
        body = Simplex(vertices=tuple(map(tuple, vertices + corner)))
    plan = plan_excision_kd(body, balanced_boundary_point(body))
    assert abs(plan.beta - 0.5) <= 1e-9
    assert verify_balance_kd(plan, tol=1e-10).passed


numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(10**400), 10**400),
    st.integers(-5, 50),
    st.sampled_from([0, 1, 2, 3, -1.0, 0.5, 1e300]),
)
points = st.lists(numbers, min_size=0, max_size=4)
values = st.one_of(
    numbers,
    points,
    st.lists(points, max_size=7),
    st.text(max_size=3),
    st.none(),
    st.booleans(),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
shape_json = st.one_of(
    st.fixed_dictionaries(
        {"type": st.sampled_from(
            ["polygon", "circle", "ellipse", "regular_polygon", "hyperball", "hypercube", "simplex"]
        )},
        optional={
            key: values
            for key in ("vertices", "center", "radius", "semi_axes", "rotation", "min_corner",
                        "side", "circumradius", "orientation")
        }
        # the cost of a valid regular polygon grows with n, which is not what
        # this property is about, so vertex counts stay small
        | {"n": st.integers(-2, 60)},
    ),
    st.recursive(values, lambda inner: st.lists(inner, max_size=3), max_leaves=6),
)


@settings(PROPERTY, max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(data=shape_json, tangent=st.sampled_from(["--o=1,0", "--o=-1,0,0", "--o=0,0"]))
def test_fuzzed_shape_json_exits_cleanly(data, tangent):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "shape.json")
        with open(path, "w") as handle:
            json.dump(data, handle)
        for argv in (["excise", "--shape", path], ["excise-kd", "--shape", path, tangent]):
            assert cli.main(argv) in (0, 1, 2)
