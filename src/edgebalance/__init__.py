"""Balance a uniform convex body on the edge of a self-similar cavity.

Cutting an internally tangent, same-orientation scaled copy out of a convex
body moves the centroid of the remainder; one particular scale ratio puts it
exactly on the cavity edge.  That ratio solves a small polynomial in the
dimension k and the chord offset beta, and at beta = 1/2 it is the golden
ratio (k = 2), the tribonacci constant (k = 3), and so on toward 2.

The package ships the polynomial solver, generalized Fibonacci sequences as
an independent oracle for the constants, exact 2-D and k-D geometry for
planning and verifying excisions, a Monte Carlo centroid oracle, and a CLI.
The solver, the sequences and the report are pure Python; the geometry needs
numpy and is imported on first use of any of its names.
"""

import importlib
import types

from .polynomials import (
    MAX_DIMENSION,
    BalancePolynomial,
    BalanceProblem,
    PhysicalityError,
    RootResult,
    RootSolverError,
    build_general,
    evaluate,
    knacci_constant,
    physicality_threshold,
    positive_root,
)
from .report import RunReport, shape_digest
from .sequences import (
    ConvergenceError,
    DoublingSequence,
    KnacciSequence,
    converged_ratio,
    doubling_prefix,
    generate,
    ratio,
)

__version__ = "0.1.0"

# The geometry needs numpy, so it loads on first use (PEP 562), and as one
# group: touching any of these names or modules imports all of them, so code
# that wraps functions in whatever geometry modules are loaded sees them all.
_GEOMETRY = {
    "montecarlo": (
        "McEstimate",
        "bounding_box",
        "contains",
        "point_in_shape",
        "sample_region_centroid",
    ),
    "ndim": (
        "ExcisionPlanKd",
        "Hyperball",
        "Hypercube",
        "ShapeKd",
        "Simplex",
        "balanced_boundary_point",
        "barycentric_coordinates",
        "centroid_kd",
        "composite_centroid_kd",
        "excision_with_ratio_kd",
        "plan_excision_kd",
        "shape_kd_from_dict",
        "shape_kd_to_dict",
        "verify_balance_kd",
        "volume_kd",
    ),
    "planar": (
        "BalanceReport",
        "Chord",
        "Circle",
        "Ellipse",
        "ExcisionPlan",
        "Polygon",
        "Shape2D",
        "area",
        "beta_complement",
        "boundary_points",
        "centroid",
        "chord_through_centroid",
        "composite_centroid",
        "excision_with_ratio",
        "find_balanced_chord",
        "find_chord_with_beta",
        "plan_excision",
        "random_convex_polygon",
        "regular_polygon",
        "regular_polygon_betas",
        "scan_balanced_chords",
        "shape_from_dict",
        "shape_to_dict",
        "verify_balance",
    ),
    "shapes": (),
    "svg": (),
}
_LAZY = {name: module for module, names in _GEOMETRY.items() for name in names}


def __getattr__(name: str):
    if name not in _LAZY and name not in _GEOMETRY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # import_module, not ``from . import``: that would look the name up here again
    modules = {module: importlib.import_module(f"{__name__}.{module}") for module in _GEOMETRY}
    globals().update({lazy: getattr(modules[module], lazy) for lazy, module in _LAZY.items()})
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_GEOMETRY})


# every public name: the eager imports above, less the modules they bind, and the geometry
__all__ = sorted(
    {name for name, value in globals().items()
     if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    | _LAZY.keys()
)
