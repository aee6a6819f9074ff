"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print.  Tolerances and runtime budgets are pinned here, not configurable.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from edgebalance.montecarlo import sample_region_centroid
from edgebalance.ndim import (
    Hyperball,
    Hypercube,
    Simplex,
    balanced_boundary_point,
    plan_excision_kd,
    verify_balance_kd,
)
from edgebalance.planar import (
    Circle,
    chord_through_centroid,
    find_balanced_chord,
    find_chord_with_beta,
    plan_excision,
    random_convex_polygon,
    verify_balance,
)
from edgebalance.polynomials import (
    BalanceProblem,
    knacci_constant,
    physicality_threshold,
    positive_root,
)
from edgebalance.sequences import converged_ratio, doubling_prefix, generate

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def check(num: int, name: str, ok: bool, detail: str = ""):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def best_time(fn, repeats: int = 5) -> float:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_criterion_01_golden_ratio():
    root = positive_root(BalanceProblem(k=2, beta=0.5))
    elapsed = best_time(lambda: positive_root(BalanceProblem(k=2, beta=0.5)))
    ok = abs(root.value - 1.618033988749895) <= 1e-9 and elapsed < 1e-3
    check(1, "golden-ratio", ok, f"value={root.value!r} time={elapsed * 1e6:.0f}us")


def test_criterion_02_knacci_constants():
    r3 = positive_root(BalanceProblem(k=3, beta=0.5))
    r4 = positive_root(BalanceProblem(k=4, beta=0.5))
    t3 = best_time(lambda: positive_root(BalanceProblem(k=3, beta=0.5)))
    t4 = best_time(lambda: positive_root(BalanceProblem(k=4, beta=0.5)))
    ok = (
        abs(r3.value - 1.8393) <= 5e-4
        and abs(r4.value - 1.9276) <= 5e-4
        and t3 < 1e-3
        and t4 < 1e-3
    )
    check(2, "order-3-and-4-constants", ok, f"{r3.value:.6f} {r4.value:.6f}")


def test_criterion_03_sequence_root_duality():
    start = time.perf_counter()
    worst = 0.0
    for k in range(1, 11):
        gap = abs(converged_ratio(k, 1e-12) - knacci_constant(k).value)
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    check(3, "sequence-root-duality", ok, f"worst gap={worst:.2e} time={elapsed:.2f}s")


def test_criterion_04_hierarchy_and_limit():
    start = time.perf_counter()
    values = [knacci_constant(k).value for k in range(1, 41)]
    elapsed = time.perf_counter() - start
    increasing = all(a < b for a, b in zip(values, values[1:]))
    below_two = all(v < 2.0 for v in values)
    tail = 2.0 - values[-1]
    ok = increasing and below_two and tail < 1e-11 and elapsed < 1e-2
    check(4, "hierarchy-and-limit", ok, f"2-phi40={tail:.2e} time={elapsed * 1e3:.1f}ms")


def test_criterion_05_exact_balance_half_offset():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst_rel = 0.0
    worst_ratio_gap = 0.0
    for _ in range(200):
        poly = random_convex_polygon(int(rng.integers(5, 41)), rng)
        chord = find_balanced_chord(poly, tol=1e-12)
        plan = plan_excision(poly, chord)
        report = verify_balance(plan, tol=1e-10)
        worst_rel = max(worst_rel, report.relative_distance)
        worst_ratio_gap = max(worst_ratio_gap, abs(plan.scale_ratio - GOLDEN))
    elapsed = time.perf_counter() - start
    ok = worst_rel <= 1e-10 and worst_ratio_gap <= 1e-9 and elapsed < 5.0
    check(
        5,
        "exact-2d-balance-at-half",
        ok,
        f"worst rel={worst_rel:.2e} |x-phi|={worst_ratio_gap:.2e} time={elapsed:.2f}s",
    )


def test_criterion_06_general_offset_balance():
    # targets drawn from (0.1, 0.6); planar convex geometry only attains
    # offsets in [1/3, 2/3], so each draw is clamped into the shape's
    # measured range before the chord search
    rng = np.random.default_rng(4096)
    start = time.perf_counter()
    worst_rel = 0.0
    for _ in range(200):
        poly = random_convex_polygon(int(rng.integers(5, 41)), rng)
        betas = [
            chord_through_centroid(poly, t).beta
            for t in np.linspace(0.0, 2.0 * math.pi, 129)[:-1]
        ]
        margin = 0.02 * (max(betas) - min(betas))
        lo = min(betas) + margin
        hi = min(0.6 - 1e-9, max(betas) - margin)
        target = float(np.clip(rng.uniform(0.1, 0.6), lo, hi))
        chord = find_chord_with_beta(poly, target, tol=1e-12)
        report = verify_balance(plan_excision(poly, chord), tol=1e-10)
        worst_rel = max(worst_rel, report.relative_distance)
    elapsed = time.perf_counter() - start
    ok = worst_rel <= 1e-10 and elapsed < 5.0
    check(6, "general-offset-balance", ok, f"worst rel={worst_rel:.2e} time={elapsed:.2f}s")


def test_criterion_07_physicality_boundary():
    start = time.perf_counter()
    ok = True
    for k in range(2, 9):
        thr = physicality_threshold(k)
        for delta in np.linspace(-1e-3, 1e-3, 41):
            beta = thr + float(delta)
            result = positive_root(BalanceProblem(k=k, beta=beta))
            # exact: thr is only the float nearest k/(k+1)
            expected_physical = Fraction(beta) * (k + 1) < k
            ok &= result.physical == expected_physical
            if abs(delta) > 1e-9:
                ok &= (result.value > 1.0) == expected_physical
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    check(7, "physicality-boundary", ok, f"time={elapsed:.2f}s")


def test_criterion_08_kdim_balance():
    rng = np.random.default_rng(512)
    start = time.perf_counter()
    worst_rel = 0.0
    worst_ratio_gap = 0.0
    for k in range(2, 9):
        phi_k = knacci_constant(k).value
        simplex = None
        while simplex is None:
            try:
                simplex = Simplex(vertices=tuple(map(tuple, rng.normal(size=(k + 1, k)))))
            except ValueError:
                continue
        shapes = [
            Hyperball(center=(0.0,) * k, radius=1.0),
            Hypercube(min_corner=(0.0,) * k, side=1.0),
            simplex,
        ]
        for shape in shapes:
            plan = plan_excision_kd(shape, balanced_boundary_point(shape))
            report = verify_balance_kd(plan, tol=1e-10)
            worst_rel = max(worst_rel, report.relative_distance)
            worst_ratio_gap = max(worst_ratio_gap, abs(plan.scale_ratio - phi_k))
    elapsed = time.perf_counter() - start
    ok = worst_rel <= 1e-10 and worst_ratio_gap <= 1e-10 and elapsed < 1.0
    check(
        8,
        "kdim-balance",
        ok,
        f"worst rel={worst_rel:.2e} |x-phi_k|={worst_ratio_gap:.2e} time={elapsed:.2f}s",
    )


def test_criterion_09_monte_carlo_concordance():
    # golden crescent: body diameter phi, cavity diameter 1, tangent at the
    # origin; the exact balance point is (1, 0)
    start = time.perf_counter()
    circle = Circle(center=(GOLDEN / 2.0, 0.0), radius=GOLDEN / 2.0)
    plan = plan_excision(circle, chord_through_centroid(circle, 0.0))
    assert plan.cavity.radius == pytest.approx(0.5, abs=1e-12)
    estimate = sample_region_centroid(circle, plan.cavity, 10_000_000, seed=42)
    elapsed = time.perf_counter() - start
    deviations = [
        abs(e - p) / se
        for e, p, se in zip(
            estimate.centroid_estimate, plan.balance_point, estimate.std_error
        )
    ]
    ok = all(d <= 4.0 for d in deviations) and elapsed < 30.0
    check(
        9,
        "monte-carlo-concordance",
        ok,
        f"deviations={[f'{d:.2f}' for d in deviations]} sigma time={elapsed:.1f}s",
    )


def test_criterion_10_ratio_bounds():
    rng = np.random.default_rng(77)
    start = time.perf_counter()
    ok = True
    for k in range(2, 9):
        for _ in range(5):
            seeds = [int(s) for s in rng.integers(1, 1000, size=k)]
            seq = generate(k, seeds, 60)
            for n in range(k + 1, 60):
                # exact integer comparisons, no floats involved
                ok &= seq.terms[n - 1] < seq.terms[n] < 2 * seq.terms[n - 1]
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    check(10, "fibonacci-ratio-bounds", ok, f"time={elapsed:.2f}s")


def test_criterion_11_doubling_sequence():
    seq = doubling_prefix(4, 9)
    ok = seq.terms == (0, 0, 0, 1, 1, 2, 4, 8, 16)
    check(11, "doubling-sequence", ok, f"terms={list(seq.terms)}")
