"""Command-line front end.

Subcommands::

    constant K          print the order-K balance constant and its residual
    table               constants for k = 1..K with sequence-ratio cross-checks
    seq K               generalized Fibonacci terms and running ratios
    excise              plan and verify a 2-D excision from a shape file
    excise-kd           plan and verify a k-dimensional excision

Exit codes: 0 success/verified, 1 verification or physicality failure,
2 usage or input errors.  stdout carries data; diagnostics go to stderr.
"""

import argparse
import csv
import io
import json
import math
import sys
import time

from . import montecarlo, ndim, planar, sequences, svg
from .polynomials import MAX_DIMENSION, PhysicalityError, knacci_constant
from .report import RunReport, shape_digest


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=1e-12, help="numeric tolerance")
    common.add_argument(
        "--format", choices=("text", "csv", "json"), default="text", help="output format"
    )
    common.add_argument("--seed", type=int, default=42, help="Monte Carlo seed")
    common.add_argument(
        "--samples", type=int, default=1_000_000, help="Monte Carlo sample count"
    )
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgebalance",
        description="Balance constants, generalized Fibonacci sequences, and "
        "self-similar excisions verified exactly and by Monte Carlo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = _common_flags()

    p = sub.add_parser("constant", parents=[common], help="order-k balance constant")
    p.add_argument("k", type=int)
    p.set_defaults(func=cmd_constant)

    p = sub.add_parser("table", parents=[common], help="constants table with cross-checks")
    p.add_argument("--k-max", type=int, default=10, dest="k_max")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("seq", parents=[common], help="generalized Fibonacci sequence")
    p.add_argument("k", type=int)
    p.add_argument(
        "--seeds",
        default=None,
        help="comma-separated non-negative integers (default: all ones) or 'doubling'",
    )
    p.add_argument("--count", type=int, default=12)
    p.set_defaults(func=cmd_seq)

    p = sub.add_parser("excise", parents=[common], help="plan and verify a 2-D excision")
    p.add_argument("--shape", required=True, help="shape JSON file")
    p.add_argument(
        "--theta", default="auto", help="chord direction in radians, or 'auto' for beta=1/2"
    )
    p.add_argument("--verify", choices=("exact", "mc", "both"), default="exact")
    p.add_argument("--svg", default=None, help="write an SVG figure to this path")
    p.set_defaults(func=cmd_excise)

    p = sub.add_parser(
        "excise-kd", parents=[common], help="plan and verify a k-dimensional excision"
    )
    p.add_argument("--shape", required=True, help="shape JSON file")
    p.add_argument(
        "--o",
        required=True,
        dest="tangent",
        help="tangency point, comma-separated (use --o=-1,0,0 for negative leads)",
    )
    p.add_argument("--dir", default=None, dest="direction", help="chord direction (optional)")
    p.add_argument("--verify", choices=("exact", "mc"), default="exact")
    p.set_defaults(func=cmd_excise_kd, svg=None)

    return parser


def _check_order(k: int) -> None:
    if k < 1 or k > MAX_DIMENSION:
        raise ValueError(f"k must be in 1..{MAX_DIMENSION}, got {k}")


def cmd_constant(args) -> int:
    _check_order(args.k)
    root = knacci_constant(args.k, tol=args.tol)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "k": args.k,
                    "value": root.value,
                    "residual": root.residual,
                    "physical": root.physical,
                }
            )
        )
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["k", "value", "residual", "physical"])
        writer.writerow([args.k, repr(root.value), repr(root.residual), root.physical])
        print(buf.getvalue(), end="")
    else:
        print(repr(root.value))
        print(f"residual {root.residual!r}")
    return 0


def cmd_table(args) -> int:
    _check_order(args.k_max)
    rows = []
    for k in range(1, args.k_max + 1):
        value = knacci_constant(k, tol=args.tol).value
        seq_ratio = sequences.converged_ratio(k, tol=max(args.tol, 1e-13))
        rows.append(
            {
                "k": k,
                "value": value,
                "gap_to_two": 2.0 - value,
                "sequence_ratio": seq_ratio,
                "agreement_gap": abs(value - seq_ratio),
            }
        )
    if args.format == "json":
        print(json.dumps(rows))
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(rows[0].keys())
        for row in rows:
            writer.writerow(
                [row["k"]] + [repr(row[key]) for key in list(row)[1:]]
            )
        print(buf.getvalue(), end="")
    else:
        print(f"{'k':>3} {'value':>10} {'gap_to_two':>12} {'seq_ratio':>10} {'agreement':>11}")
        for row in rows:
            print(
                f"{row['k']:>3} {row['value']:>10.4f} {row['gap_to_two']:>12.4e} "
                f"{row['sequence_ratio']:>10.4f} {row['agreement_gap']:>11.4e}"
            )
    return 0


def _parse_seeds(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"seeds must be integers: {exc}") from exc


def cmd_seq(args) -> int:
    _check_order(args.k)
    doubling_span = None
    if args.seeds == "doubling":
        result = sequences.doubling_prefix(args.k, args.count)
        terms = result.terms
        doubling_span = result.doubling_span
    else:
        seeds = [1] * args.k if args.seeds is None else _parse_seeds(args.seeds)
        terms = sequences.generate(args.k, seeds, args.count).terms
    ratios = [
        terms[i] / terms[i - 1] if i >= 1 and terms[i - 1] != 0 else None
        for i in range(len(terms))
    ]
    if args.format == "json":
        payload = {"k": args.k, "terms": list(terms), "ratios": ratios}
        if doubling_span is not None:
            payload["doubling_span"] = list(doubling_span)
        print(json.dumps(payload))
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["index", "term", "ratio"])
        for i, term in enumerate(terms):
            writer.writerow([i, term, "" if ratios[i] is None else repr(ratios[i])])
        print(buf.getvalue(), end="")
    else:
        print(" ".join(str(t) for t in terms))
        print(" ".join("-" if r is None else repr(r) for r in ratios))
    return 0


def _load_shape(path: str) -> tuple[dict, planar.Shape]:
    try:
        with open(path) as handle:
            shape_dict = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read shape file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"shape file {path} is not valid JSON: {exc}") from exc
    return shape_dict, planar.shape_from_dict(shape_dict)


def _parse_vector(flag: str, text: str) -> tuple[float, ...]:
    try:
        vector = tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"{flag} expects comma-separated numbers, got {text!r}") from exc
    if not all(math.isfinite(x) for x in vector):
        raise ValueError(f"{flag} expects finite numbers, got {text!r}")
    return vector


def _emit_report(report: RunReport, fmt: str) -> None:
    if fmt == "json":
        print(report.to_json())
    elif fmt == "csv":
        print(report.to_csv(), end="")
    else:
        print(report.to_text())


def _mc_agrees(estimate, target, std_error) -> bool:
    return all(
        abs(e - t) <= 4.0 * se for e, t, se in zip(estimate, target, std_error)
    )


def cmd_excise(args) -> int:
    started = time.perf_counter()
    shape_dict, shape = _load_shape(args.shape)
    if shape.dim != 2:
        raise ValueError(f"excise needs a planar shape, got dimension {shape.dim}; use excise-kd")
    if args.theta == "auto":
        chord = planar.find_balanced_chord(shape, tol=args.tol)
    else:
        try:
            theta = float(args.theta)
        except ValueError:
            theta = math.nan
        if not math.isfinite(theta):
            raise ValueError(f"--theta must be 'auto' or a finite number, got {args.theta!r}")
        chord = planar.chord_through_centroid(shape, theta)
    plan = planar.plan_excision(shape, chord, tol=args.tol)
    return _verify_and_report(args, shape_dict, plan, started)


def cmd_excise_kd(args) -> int:
    started = time.perf_counter()
    shape_dict, shape = _load_shape(args.shape)
    tangent = _parse_vector("--o", args.tangent)
    direction = _parse_vector("--dir", args.direction) if args.direction is not None else None
    plan = ndim.plan_excision_kd(shape, tangent, direction, tol=args.tol)
    return _verify_and_report(args, shape_dict, plan, started)


def _verify_and_report(args, shape_dict: dict, plan: planar.ExcisionPlan, started: float) -> int:
    """Run the checks ``--verify`` asks for, then print the run report."""
    passed = True
    exact = None
    if args.verify in ("exact", "both"):
        exact = planar.verify_balance(plan, tol=max(args.tol, 1e-12))
        passed &= exact.passed
    estimate = None
    if args.verify in ("mc", "both"):
        estimate = montecarlo.sample_region_centroid(
            plan.shape, plan.cavity, args.samples, args.seed
        )
        passed &= _mc_agrees(
            estimate.centroid_estimate, plan.balance_point, estimate.std_error
        )

    report = RunReport(
        command=" ".join(sys.argv[1:]) or args.command,
        shape_digest=shape_digest(shape_dict),
        dimension=plan.shape.dim,
        beta=plan.beta,
        scale_ratio=plan.scale_ratio,
        tolerance=args.tol,
        balance_point=plan.balance_point,
        polynomial_residual=(
            exact.polynomial_residual if exact is not None else planar.balance_residual(plan)
        ),
        passed=passed,
        elapsed_seconds=time.perf_counter() - started,
        composite_centroid=exact.composite_centroid if exact is not None else None,
        distance=exact.distance if exact is not None else None,
        relative_distance=exact.relative_distance if exact is not None else None,
        seed=args.seed if estimate is not None else None,
        samples=args.samples if estimate is not None else None,
        mc_centroid=estimate.centroid_estimate if estimate is not None else None,
        mc_std_error=estimate.std_error if estimate is not None else None,
        mc_accepted=estimate.samples_accepted if estimate is not None else None,
    )
    if args.svg is not None:
        try:
            with open(args.svg, "w") as handle:
                handle.write(svg.render_plan(plan))
        except OSError as exc:
            raise ValueError(f"cannot write SVG figure {args.svg}: {exc}") from exc
    _emit_report(report, args.format)
    if not passed:
        print("verification failed", file=sys.stderr)
    return 0 if passed else 1


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
