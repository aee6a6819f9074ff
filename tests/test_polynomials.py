import ast
import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest

from edgebalance import polynomials
from edgebalance.polynomials import (
    MAX_DIMENSION,
    BalancePolynomial,
    BalanceProblem,
    RootSolverError,
    build_general,
    evaluate,
    knacci_constant,
    physicality_threshold,
    positive_root,
)

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

BETA_GRID = (0.1, 0.25, 0.5, 0.75, 0.9)


V = ValueError
ONE_BELOW = math.nextafter(1.0, 0.0)
# BalanceProblem(k, beta) on a fixed table: the error raised, or the beta
# stored.  A Fraction k/(k+1) is stored as the float above the threshold
# float, which lies below it, so that the root stays unphysical.  Every
# refusal is a ValueError, a k that is not an integer or a beta that is not
# a real number included.
VERDICTS = [
    (1, 0.5, 0.5), (2, 0.5, 0.5), (64, 0.5, 0.5), (0, 0.5, V), (-1, 0.5, V), (65, 0.5, V),
    (True, 0.5, V), (False, 0.5, V), (3.0, 0.5, V), ("3", 0.5, V), (None, 0.5, V),
    (Fraction(3), 0.5, V), (np.bool_(True), 0.5, V),
    (3, 1e-300, 1e-300), (3, 5e-324, 5e-324), (3, ONE_BELOW, ONE_BELOW),
    (3, 0.0, V), (3, -0.0, V), (3, 1.0, V), (3, -0.5, V), (3, 1.5, V), (3, 1, V), (3, 0, V),
    (3, True, V), (3, False, V), (3, math.nan, V), (3, math.inf, V), (3, -math.inf, V),
    (3, "0.5", V), (3, None, V), (3, np.bool_(True), V),
    (3, Fraction(1, 3), 1.0 / 3.0), (3, Fraction(1, 2), 0.5), (3, Fraction(0), V), (3, Fraction(1), V),
    (3, np.float64(0.5), 0.5),
] + [
    case
    for k in (2, 10, 33)
    for f, below in [(k / (k + 1), math.nextafter(k / (k + 1), 0.0))]
    for case in ((k, Fraction(k, k + 1), math.nextafter(f, 1.0)), (k, Fraction(f), f), (k, f, f),
                 (k, Fraction(below), below))
]
# numpy scalars: any integer k (a TypeError before) and any real beta (a
# TypeError before, now read as the float it holds)
NUMPY_VERDICTS = [
    (np.int64(3), 0.5, 0.5), (np.int32(64), 0.5, 0.5), (np.uint8(2), 0.5, 0.5),
    (np.int64(0), 0.5, V), (np.int64(65), 0.5, V),
    (3, np.float32(0.5), 0.5), (3, np.float32(math.nan), V), (3, np.int64(1), V), (3, np.int64(0), V),
]


def exact_value(k: int, beta: Fraction, x: Fraction) -> Fraction:
    """Independent oracle: exact rational Horner evaluation."""
    acc = Fraction(beta)
    for _ in range(k):
        acc = acc * x + (beta - 1)
    return acc


def companion_positive_root(k: int, beta: float) -> float:
    """Independent oracle: positive real root via companion-matrix eigenvalues."""
    coeffs = [beta] + [beta - 1.0] * k
    roots = np.roots(coeffs)
    real = [r.real for r in roots if abs(r.imag) < 1e-8 and r.real > 0]
    assert len(real) == 1, f"expected one positive root, got {real}"
    return real[0]


class TestBuildGeneral:
    def test_golden_case_coefficients(self):
        poly = build_general(BalanceProblem(k=2, beta=0.5))
        assert poly.degree == 2
        assert poly.coefficients == (0.5, -0.5, -0.5)  # proportional to x^2 - x - 1

    def test_degree_one(self):
        poly = build_general(BalanceProblem(k=1, beta=0.5))
        assert poly.coefficients == (0.5, -0.5)
        assert evaluate(poly, 1.0) == 0.0

    def test_tribonacci_case_coefficients(self):
        poly = build_general(BalanceProblem(k=3, beta=0.5))
        assert poly.coefficients == (0.5, -0.5, -0.5, -0.5)  # x^3 - x^2 - x - 1

    @pytest.mark.parametrize("beta", [0.0, 1.0, -0.3, 1.5, float("nan")])
    def test_rejects_bad_beta(self, beta):
        with pytest.raises(ValueError):
            BalanceProblem(k=2, beta=beta)

    @pytest.mark.parametrize("k", [0, -1])
    def test_rejects_bad_dimension(self, k):
        with pytest.raises(ValueError):
            BalanceProblem(k=k, beta=0.5)

    def test_rejects_dimension_above_cap(self):
        with pytest.raises(ValueError):
            BalanceProblem(k=MAX_DIMENSION + 1, beta=0.5)

    def test_accepts_fraction_beta(self):
        problem = BalanceProblem(k=2, beta=Fraction(1, 3))
        assert problem.beta == pytest.approx(1.0 / 3.0, abs=0.0)

    @pytest.mark.parametrize("k, beta, verdict", VERDICTS + NUMPY_VERDICTS)
    def test_verdict_table(self, k, beta, verdict):
        if isinstance(verdict, type):
            with pytest.raises(verdict):
                BalanceProblem(k=k, beta=beta)
            return
        problem = BalanceProblem(k=k, beta=beta)
        assert type(problem.k) is int and problem.k == k
        assert type(problem.beta) is float and problem.beta.hex() == verdict.hex()

    def test_numpy_scalars_give_the_python_problem_and_root(self):
        for problem in (BalanceProblem(k=np.int64(3), beta=0.5), BalanceProblem(k=3, beta=np.float32(0.5))):
            assert problem == BalanceProblem(k=3, beta=0.5)
            assert type(problem.k) is int and type(problem.beta) is float
            assert positive_root(problem) == positive_root(BalanceProblem(k=3, beta=0.5))

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 20])
    @pytest.mark.parametrize("beta", BETA_GRID)
    def test_coefficient_structure(self, k, beta):
        poly = build_general(BalanceProblem(k=k, beta=beta))
        assert len(poly.coefficients) == k + 1
        assert poly.coefficients[0] == beta
        assert all(c == beta - 1.0 for c in poly.coefficients[1:])

    @pytest.mark.parametrize("k", [1, 2, 5, 13])
    @pytest.mark.parametrize("beta", BETA_GRID)
    def test_value_at_one_identity(self, k, beta):
        poly = build_general(BalanceProblem(k=k, beta=beta))
        assert evaluate(poly, 1.0) == pytest.approx((k + 1) * beta - k, abs=1e-12 * k)


class TestEvaluate:
    def test_constant_term(self):
        poly = build_general(BalanceProblem(k=2, beta=0.5))
        assert evaluate(poly, 0.0) == -0.5

    def test_golden_ratio_is_root(self):
        poly = build_general(BalanceProblem(k=2, beta=0.5))
        assert abs(evaluate(poly, GOLDEN)) < 1e-12

    def test_hand_computed_value(self):
        # (1/2)*16 - (1/2)*(8 + 4 + 2 + 1) = 1/2
        poly = build_general(BalanceProblem(k=4, beta=0.5))
        assert evaluate(poly, 2.0) == 0.5

    @pytest.mark.parametrize("k", [1, 3, 6])
    @pytest.mark.parametrize("x", [0.25, 1.0, 1.75, 3.0])
    def test_matches_exact_rational_evaluation(self, k, x):
        beta = Fraction(3, 8)
        poly = build_general(BalanceProblem(k=k, beta=beta))
        expected = float(exact_value(k, beta, Fraction(x)))
        assert evaluate(poly, x) == pytest.approx(expected, rel=1e-14, abs=1e-14)

    def test_polynomial_is_callable(self):
        poly = build_general(BalanceProblem(k=2, beta=0.5))
        assert poly(0.0) == -0.5


class TestPositiveRoot:
    def test_golden_ratio(self):
        result = positive_root(BalanceProblem(k=2, beta=0.5))
        assert abs(result.value - 1.618033988749895) < 1e-9
        assert abs(result.value - GOLDEN) < 1e-14
        assert result.physical

    def test_tribonacci_constant(self):
        result = positive_root(BalanceProblem(k=3, beta=0.5))
        assert abs(result.value - 1.8393) < 5e-4

    def test_tetranacci_constant(self):
        result = positive_root(BalanceProblem(k=4, beta=0.5))
        assert abs(result.value - 1.9276) < 5e-4

    def test_quadratic_with_third_offset(self):
        # (1/3)x^2 - (2/3)x - (2/3) = 0  <=>  x^2 - 2x - 2 = 0, root 1 + sqrt(3)
        result = positive_root(BalanceProblem(k=2, beta=Fraction(1, 3)))
        assert result.value == pytest.approx(1.0 + math.sqrt(3.0), abs=1e-12)
        assert result.physical

    def test_threshold_offset_degenerates_to_one(self):
        result = positive_root(BalanceProblem(k=2, beta=Fraction(2, 3)))
        assert result.value == pytest.approx(1.0, abs=1e-12)
        assert not result.physical

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 6, 9, 12])
    @pytest.mark.parametrize("beta", BETA_GRID)
    def test_agrees_with_companion_matrix_oracle(self, k, beta):
        mine = positive_root(BalanceProblem(k=k, beta=beta)).value
        assert mine == pytest.approx(companion_positive_root(k, beta), rel=1e-9)

    @pytest.mark.parametrize("k", [2, 3, 5, 8, 13, 21, 40])
    @pytest.mark.parametrize("beta", BETA_GRID)
    def test_bracket_straddles_sign_change(self, k, beta):
        result = positive_root(BalanceProblem(k=k, beta=beta))
        poly = build_general(BalanceProblem(k=k, beta=beta))
        lo, hi = result.bracket
        assert lo <= result.value <= hi
        assert evaluate(poly, lo) <= 0.0 < evaluate(poly, hi)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_absolute_residual_small_in_well_conditioned_regime(self, k):
        result = positive_root(BalanceProblem(k=k, beta=0.5))
        assert result.residual <= 1e-9

    @pytest.mark.parametrize("k", [1, 2, 4, 8, 16, 32, 64])
    @pytest.mark.parametrize("beta", BETA_GRID)
    def test_backward_error_residual(self, k, beta):
        # |p(x)| measured against the coefficient scale at the root; the
        # forward residual alone is floored by ulp(scale) for steep cases.
        result = positive_root(BalanceProblem(k=k, beta=beta))
        coeffs = np.array(build_general(BalanceProblem(k=k, beta=beta)).coefficients)
        scale = np.polyval(np.abs(coeffs), max(1.0, result.value))
        assert result.residual <= 1e-12 * (k + 1) * scale

    def test_iterations_are_reported(self):
        result = positive_root(BalanceProblem(k=2, beta=0.5))
        assert result.iterations > 0


class TestPhysicalityThreshold:
    @pytest.mark.parametrize(("k", "expected"), [(1, 0.5), (2, 2.0 / 3.0), (10, 10.0 / 11.0)])
    def test_known_values(self, k, expected):
        assert physicality_threshold(k) == expected

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            physicality_threshold(0)

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 16, 33, 64])
    def test_flag_flips_exactly_at_threshold(self, k):
        thr = physicality_threshold(k)
        below = positive_root(BalanceProblem(k=k, beta=thr - 1e-3))
        above = positive_root(BalanceProblem(k=k, beta=thr + 1e-3))
        assert below.physical and below.value > 1.0
        assert not above.physical and above.value < 1.0

    @pytest.mark.parametrize("k", range(1, MAX_DIMENSION + 1))
    def test_flag_is_exact_at_the_threshold_floats(self, k):
        # the threshold float rounds k/(k+1) up or down; the flag follows the exact value
        beta = physicality_threshold(k)
        for _ in range(6):
            beta = math.nextafter(beta, 0.0)
        for _ in range(13):
            result = positive_root(BalanceProblem(k=k, beta=beta))
            assert result.physical == (Fraction(beta) * (k + 1) < k), beta
            assert result.physical or result.value <= 1.0, beta
            beta = math.nextafter(beta, 1.0)
        # a rational beta keeps its side of k/(k+1) when it is rounded to a float
        result = positive_root(BalanceProblem(k=k, beta=Fraction(k, k + 1)))
        assert not result.physical and result.value <= 1.0


class TestRootSigns:
    @pytest.mark.parametrize("beta", BETA_GRID)
    def test_quadratic_roots_have_opposite_signs(self, beta):
        # quadratic formula as the oracle for both roots
        a, b, c = beta, beta - 1.0, beta - 1.0
        disc = math.sqrt(b * b - 4.0 * a * c)
        r1 = (-b + disc) / (2.0 * a)
        r2 = (-b - disc) / (2.0 * a)
        assert r1 * r2 == pytest.approx((beta - 1.0) / beta, rel=1e-12)
        assert r1 + r2 == pytest.approx((1.0 - beta) / beta, rel=1e-12)
        assert r1 > 0.0 > r2
        assert abs(r1) > abs(r2)
        mine = positive_root(BalanceProblem(k=2, beta=beta)).value
        assert mine == pytest.approx(r1, rel=1e-12)


class TestUniqueness:
    @pytest.mark.parametrize("beta", BETA_GRID)
    def test_exactly_one_sign_change_on_positive_axis(self, beta):
        grid = np.geomspace(1e-4, 64.0, 4001)
        for k in range(1, MAX_DIMENSION + 1):
            coeffs = np.array(build_general(BalanceProblem(k=k, beta=beta)).coefficients)
            values = np.polyval(coeffs, grid)
            signs = np.sign(values)
            signs = signs[signs != 0]
            changes = int(np.count_nonzero(np.diff(signs)))
            assert changes == 1, f"k={k} beta={beta}: {changes} sign changes"


class TestKnacciConstants:
    def test_degenerate_order_one(self):
        assert knacci_constant(1).value == 1.0
        assert not knacci_constant(1).physical

    def test_golden_ratio(self):
        assert knacci_constant(2).value == pytest.approx(GOLDEN, abs=1e-12)

    def test_high_order_approaches_two_from_below(self):
        value = knacci_constant(50).value
        assert 1.999999 < value < 2.0

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            knacci_constant(0)

    def test_hierarchy_strictly_increasing_below_two(self):
        values = [knacci_constant(k).value for k in range(1, 41)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(v < 2.0 for v in values)

    def test_gap_to_two_strictly_shrinks(self):
        gaps = [2.0 - knacci_constant(k).value for k in range(25, 41)]
        assert all(g < 1e-6 for g in gaps)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_fixed_offset_limit_is_reciprocal_beta(self):
        # for beta = 1/2 the large-k root approaches 1/beta = 2
        result = positive_root(BalanceProblem(k=60, beta=0.5))
        assert abs(result.value - 2.0) < 1e-4


# the checks that only the caller-input readers of ``polynomials`` may make
NUMBER_CLASSES = {"bool", "numbers.Integral", "numbers.Real", "np.integer", "numpy.integer"}


def _reader_design_breaches(package: pathlib.Path) -> list[str]:
    """Where the package's source reads a caller's number outside ``polynomials``
    (an ``isinstance`` test against a number class), and every name the
    ``sequences`` oracle imports from ``polynomials`` but an ``_as_`` reader."""
    breaches = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), path.name)):
            if (path.stem != "polynomials" and isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name) and node.func.id == "isinstance" and len(node.args) == 2):
                classes = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
                if any(ast.unparse(c) in NUMBER_CLASSES for c in classes):
                    breaches.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
            if path.stem == "sequences" and isinstance(node, (ast.Import, ast.ImportFrom)):
                module = getattr(node, "module", None) or ""
                for alias in node.names:
                    whole = f"{module}.{alias.name}".lstrip(".") if isinstance(node, ast.ImportFrom) else alias.name
                    reader = module.endswith("polynomials") and alias.name.startswith("_as_")
                    if "polynomials" in whole.split(".") and not reader:
                        breaches.append(f"{path.name}:{node.lineno}: imports {whole}")
    return breaches


def test_only_polynomials_reads_caller_numbers():
    # one module knows the input policy, and the sequence oracle takes nothing
    # from the solver's module but its readers: no arithmetic
    assert _reader_design_breaches(pathlib.Path(polynomials.__file__).parent) == []


def test_the_reader_design_check_sees_a_breach(tmp_path):
    # the check itself: a second reader and an oracle that borrows the solver
    (tmp_path / "montecarlo.py").write_text("import numbers\nok = isinstance(n, (int, numbers.Integral))\n")
    (tmp_path / "sequences.py").write_text(
        "from .polynomials import _as_integer, positive_root\nfrom . import polynomials\n")
    (tmp_path / "polynomials.py").write_text("ok = isinstance(x, bool)\n")
    assert _reader_design_breaches(tmp_path) == [
        "montecarlo.py:2: isinstance(n, (int, numbers.Integral))",
        "sequences.py:1: imports polynomials.positive_root",
        "sequences.py:2: imports polynomials",
    ]
