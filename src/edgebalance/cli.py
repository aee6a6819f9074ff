"""Command-line front end.

Subcommands::

    constant K          print the order-K balance constant and its residual
    table               constants for k = 1..K with sequence-ratio cross-checks
    seq K               generalized Fibonacci terms and running ratios
    excise              plan and verify a 2-D excision from a shape file
    excise-kd           plan and verify a k-dimensional excision

Each command takes only the flags it reads: ``--format`` everywhere, ``--tol``
on ``table`` and the excise commands (exit 2 unless finite and positive),
``--seed`` and ``--samples`` on the excise commands.  ``excise-kd`` takes a
tangency point ``--o`` and no direction: its chord runs from that point
through the centroid.  Exit codes: 0 success/verified, 1 verification or
physicality failure or an inconclusive Monte Carlo check, 2 usage or input
errors.  stdout carries data; diagnostics go to stderr.
Every command prints through :func:`_emit`, which applies the output rules
of :mod:`edgebalance.report` for ``--format json|csv``; each command only
lays out its own text.

``constant``, ``table`` and ``seq`` are pure Python and never import numpy;
the geometry (``planar``, ``ndim``, ``montecarlo``, ``svg``) is imported by
the ``excise`` and ``excise-kd`` handlers that use it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict
from typing import TYPE_CHECKING

from . import sequences
from .polynomials import MAX_DIMENSION, PhysicalityError, _as_integer, knacci_constant
from .report import RunReport, csv_text, shape_digest

if TYPE_CHECKING:
    from . import planar


def _tolerance(text: str) -> float:
    """``--tol``, refused here unless finite and positive: ``table`` and the
    excise commands clamp it with ``max(tol, floor)``, which would pass a
    negative or NaN tolerance on without a word."""
    tol = float(text)
    if not 0.0 < tol < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return tol


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgebalance",
        description="Balance constants, generalized Fibonacci sequences, and "
        "self-similar excisions verified exactly and by Monte Carlo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("text", "csv", "json"), default="text")
    tolerance = argparse.ArgumentParser(add_help=False)
    tolerance.add_argument("--tol", type=_tolerance, default=1e-12, help="numeric tolerance")
    excision = argparse.ArgumentParser(add_help=False, parents=[output, tolerance])
    excision.add_argument("--shape", required=True, help="shape JSON file")
    excision.add_argument("--verify", choices=("exact", "mc", "both"), default="exact")
    excision.add_argument("--seed", type=int, default=42, help="Monte Carlo seed")
    excision.add_argument("--samples", type=int, default=1_000_000, help="Monte Carlo sample count")

    p = sub.add_parser("constant", parents=[output], help="order-k balance constant")
    p.add_argument("k", type=int)
    p.set_defaults(func=cmd_constant)

    p = sub.add_parser("table", parents=[output, tolerance], help="constants table with cross-checks")
    p.add_argument("--k-max", type=int, default=10, dest="k_max")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("seq", parents=[output], help="generalized Fibonacci sequence")
    p.add_argument("k", type=int)
    p.add_argument(
        "--seeds",
        default=None,
        help="comma-separated non-negative integers (default: all ones) or 'doubling'",
    )
    p.add_argument("--count", type=int, default=12)
    p.set_defaults(func=cmd_seq)

    p = sub.add_parser("excise", parents=[excision], help="plan and verify a 2-D excision")
    p.add_argument(
        "--theta", default="auto", help="chord direction in radians, or 'auto' for beta=1/2"
    )
    p.add_argument("--svg", default=None, help="write an SVG figure to this path")
    p.set_defaults(func=cmd_excise)

    p = sub.add_parser(
        "excise-kd", parents=[excision], help="plan and verify a k-dimensional excision"
    )
    p.add_argument(
        "--o",
        required=True,
        dest="tangent",
        help="tangency point, comma-separated (use --o=-1,0,0 for negative leads)",
    )
    p.set_defaults(func=cmd_excise_kd, svg=None)

    return parser


def _emit(fmt: str, rows: list[dict], text, payload=None) -> None:
    """Print a result: ``rows`` as CSV, ``payload`` (``rows`` if None) as JSON, or
    ``text()``, a callable so that a long text is only built when it is printed."""
    if fmt == "json":
        print(json.dumps(rows if payload is None else payload))
    elif fmt == "csv":
        print(csv_text(rows), end="")
    else:
        print(text())


def cmd_constant(args) -> int:
    root = knacci_constant(args.k)
    row = {"k": args.k, "value": root.value, "residual": root.residual, "physical": root.physical}
    _emit(args.format, [row], lambda: f"{root.value!r}\nresidual {root.residual!r}", row)
    return 0


def cmd_table(args) -> int:
    # without the floor of 1, --k-max 0 would print an empty table and exit 0
    _as_integer(args.k_max, "--k-max", 1, MAX_DIMENSION)
    rows = []
    for k in range(1, args.k_max + 1):
        root = knacci_constant(k)
        value = root.value
        seq_ratio = sequences.converged_ratio(k, tol=max(args.tol, 1e-13))
        rows.append(
            {
                "k": k,
                "value": value,
                "gap_to_two": root.gap,
                "sequence_ratio": seq_ratio,
                "agreement_gap": abs(value - seq_ratio),
            }
        )
    header = f"{'k':>3} {'value':>10} {'gap_to_two':>12} {'seq_ratio':>10} {'agreement':>11}"
    lines = (
        f"{row['k']:>3} {row['value']:>10.4f} {row['gap_to_two']:>12.4e} "
        f"{row['sequence_ratio']:>10.4f} {row['agreement_gap']:>11.4e}"
        for row in rows
    )
    _emit(args.format, rows, lambda: "\n".join([header, *lines]))
    return 0


def _parse_seeds(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"seeds must be integers: {exc}") from exc


def cmd_seq(args) -> int:
    _as_integer(args.k, "k", 1, MAX_DIMENSION)
    if args.count > sequences.DEFAULT_MAX_TERMS:  # doubling terms make memory grow as count^2
        raise ValueError(f"--count is capped at {sequences.DEFAULT_MAX_TERMS}, got {args.count}")
    if args.seeds == "doubling":
        result = sequences.doubling_prefix(args.k, args.count)
    else:
        seeds = [1] * args.k if args.seeds is None else _parse_seeds(args.seeds)
        result = sequences.generate(args.k, seeds, args.count)
    terms = result.terms
    ratios = [None]
    for i in range(1, len(terms)):
        try:
            ratios.append(terms[i] / terms[i - 1] if terms[i - 1] != 0 else None)
        except OverflowError:  # a huge seed: the exact quotient is beyond any float
            raise ValueError(f"term {i} divided by term {i - 1} overflows a float") from None
    payload = {"k": args.k, "terms": list(terms), "ratios": ratios}
    if getattr(result, "doubling_span", None) is not None:
        payload["doubling_span"] = list(result.doubling_span)
    rows = [{"index": i, "term": t, "ratio": r} for i, (t, r) in enumerate(zip(terms, ratios))]

    def text() -> str:
        ratio_cells = ("-" if r is None else repr(r) for r in ratios)
        return " ".join(map(str, terms)) + "\n" + " ".join(ratio_cells)

    _emit(args.format, rows, text, payload)
    return 0


def _load_shape(path: str) -> tuple[dict, planar.Shape]:
    from . import planar

    try:
        with open(path) as handle:
            shape_dict = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read shape file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"shape file {path} is not valid JSON: {exc}") from exc
    return shape_dict, planar.shape_from_dict(shape_dict)


def _parse_vector(flag: str, text: str) -> tuple[float, ...]:
    """The numbers of ``text``; the library refuses one that is not finite."""
    try:
        return tuple([float(part) for part in text.split(",")])
    except ValueError as exc:
        raise ValueError(f"{flag} expects comma-separated numbers, got {text!r}") from exc


def cmd_excise(args) -> int:
    from . import planar

    started = time.perf_counter()
    # the chord search and chord_through_centroid refuse a body that is not planar
    shape_dict, shape = _load_shape(args.shape)
    if args.theta == "auto":
        chord = planar.find_balanced_chord(shape, tol=args.tol)
    else:
        try:
            theta = float(args.theta)
        except ValueError:
            raise ValueError(f"--theta must be 'auto' or a finite number, got {args.theta!r}") from None
        chord = planar.chord_through_centroid(shape, theta)  # which refuses inf and NaN
    # the library built the chord on this shape: plan it without re-testing its ends
    plan = planar._solve_excision(shape, chord)
    return _verify_and_report(args, shape_dict, plan, started)


def cmd_excise_kd(args) -> int:
    from . import ndim

    started = time.perf_counter()
    shape_dict, shape = _load_shape(args.shape)
    tangent = _parse_vector("--o", args.tangent)
    plan = ndim.plan_excision_kd(shape, tangent)
    return _verify_and_report(args, shape_dict, plan, started)


MC_MIN_ACCEPTED = 1000  # accepted points below which a Monte Carlo run shows nothing


def _mc_bound(k: int) -> float:
    """Standard errors by which one of ``k`` centroid coordinates may miss.

    4 in the plane; above it a Bonferroni split (Dunn 1961) of the plane's
    family-wise false-alarm rate, ``2 * P(|Z| > 4)``, over the ``k``
    coordinates, so that the rate does not grow with ``k``.
    """
    from statistics import NormalDist

    normal = NormalDist()
    return max(4.0, -normal.inv_cdf(normal.cdf(-4.0) * 2.0 / k))


def _verify_and_report(args, shape_dict: dict, plan: planar.ExcisionPlan, started: float) -> int:
    """Run the checks ``--verify`` asks for, then print the run report.

    A Monte Carlo run that accepts fewer than ``MC_MIN_ACCEPTED`` points is
    inconclusive: it never passes, and it exits 1."""
    from . import montecarlo, planar, svg

    fields = {
        "command": " ".join(sys.argv[1:]) or args.command,
        "shape_digest": shape_digest(shape_dict),
        "dimension": plan.shape.dim,
        "beta": plan.beta,
        "scale_ratio": plan.scale_ratio,
        "tolerance": args.tol,
        "balance_point": plan.balance_point,
        "polynomial_residual": planar.balance_residual(plan),
    }
    passed, inconclusive = True, None
    if args.verify in ("exact", "both"):
        exact = planar.verify_balance(plan, tol=max(args.tol, 1e-12))
        passed &= exact.passed
        fields.update(
            composite_centroid=exact.composite_centroid,
            distance=exact.distance,
            relative_distance=exact.relative_distance,
        )
    if args.verify in ("mc", "both"):
        estimate = montecarlo.sample_region_centroid(plan.shape, plan.cavity, args.samples, args.seed)
        if estimate.samples_accepted < MC_MIN_ACCEPTED:
            inconclusive = (
                f"Monte Carlo inconclusive: {estimate.samples_accepted} of {args.samples} "
                f"samples accepted, fewer than {MC_MIN_ACCEPTED}"
            )
        else:
            bound = _mc_bound(plan.shape.dim)
            passed &= all(
                abs(e - t) <= bound * se
                for e, t, se in zip(estimate.centroid_estimate, plan.balance_point, estimate.std_error)
            )
        fields.update(
            seed=args.seed,
            samples=args.samples,
            mc_centroid=estimate.centroid_estimate,
            mc_std_error=estimate.std_error,
            mc_accepted=estimate.samples_accepted,
        )
    fields["passed"] = passed and inconclusive is None
    report = RunReport(**fields, elapsed_seconds=time.perf_counter() - started)
    if args.svg is not None:
        try:
            with open(args.svg, "w") as handle:
                handle.write(svg.render_plan(plan))
        except OSError as exc:
            raise ValueError(f"cannot write SVG figure {args.svg}: {exc}") from exc
    record = asdict(report)
    _emit(args.format, [record], report.to_text, record)
    if not passed:
        print("verification failed", file=sys.stderr)
    if inconclusive is not None:
        print(inconclusive, file=sys.stderr)
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PhysicalityError as exc:
        print(f"physicality failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, sequences.ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
