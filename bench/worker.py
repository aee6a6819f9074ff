"""Benchmark worker: one workload run in a process of its own.

The worker imports ``edgebalance`` from the checkout's ``src``, builds the
workload's inputs (set-up), then runs whole passes over the workload's ops,
closed loop with one caller, until ``--seconds`` have elapsed.  It writes
what it measured to ``--out`` as JSON.  run.py starts it; never run two at
once (one mc_oracle pass alone peaks at about 1.6 GB).

    python3 bench/worker.py --workload NAME --seed N --seconds S --t0 T --out FILE
                            [--setup-only] [--trace]

``--t0`` is the parent's ``time.monotonic()`` taken just before it started
this process, so ``setup_s`` covers interpreter start, ``import edgebalance``
(numpy included) and building the inputs.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time

import tracer
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
PROBE_ITERATIONS = 20_000  # about 1 ms on an idle core of a 2-vCPU Xeon VM
SETUP_SPEED_PROBES = 9


def speed_probe() -> float:
    """Seconds a fixed pure-Python loop takes now: how fast the host runs this process."""
    t0 = time.perf_counter()
    x = 0
    for i in range(PROBE_ITERATIONS):
        x += i
    return time.perf_counter() - t0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # set-up probes bracket the import and the build; the interpreter started just before
    setup_probes = [speed_probe() for _ in range(SETUP_SPEED_PROBES)]
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import edgebalance
    import numpy

    if not os.path.abspath(edgebalance.__file__).startswith(src + os.sep):
        print(f"edgebalance imported from {edgebalance.__file__}, not {src}", file=sys.stderr)
        return 2
    workdir = os.path.join(BENCH, "out", f"work-{os.getpid()}")
    try:
        workload = workloads.make(args.workload, args.seed, edgebalance, ROOT, workdir)
        workload.build()
        tr = None
        if args.trace:
            tr = tracer.Tracer()
            tr.install(edgebalance)
        ops = workload.ops(traced=args.trace)
        setup_s = time.monotonic() - args.t0
        setup_probes += [speed_probe() for _ in range(SETUP_SPEED_PROBES)]
        record = {"setup_s": setup_s, "setup_probe_s": setup_probes}
        if not args.setup_only:
            record.update(timed_phase(ops, args.seconds, tr))
            record["maxrss_self_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            record["maxrss_children_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            record["python"] = platform.python_version()
            record["numpy"] = numpy.__version__
            # after the timed phase and the RSS reading, and never traced
            if tr is None and hasattr(workload, "defect_probe"):
                record["defect_probe"] = workload.defect_probe()
            if tr is not None:
                record.update(trace_summary(tr, args, record))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(args.out, "w") as handle:
        json.dump(record, handle)
    return 0


def timed_phase(ops, seconds, tr) -> dict:
    """Run whole passes over ``ops`` until ``seconds`` have elapsed.

    Whole passes keep the op mix of every run the same, so throughput does
    not depend on where the clock ran out.  Only ``op.run`` is timed; the
    output check runs after it.  A speed probe runs before every op and
    once at the end, so op i lies between probes i and i + 1.
    """
    clock = time.perf_counter
    latencies, labels, pass_seconds, failures, probes = [], [], [], [], []
    stats: dict[str, list] = {}
    started = clock()
    while True:
        in_pass = 0.0
        for op in ops:
            if tr is not None:
                tr.op = len(latencies)
            probes.append(speed_probe())
            t0 = clock()
            try:
                result = op.run()
            except Exception as exc:  # an op that raises has failed; keep measuring
                elapsed = clock() - t0
                failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
            else:
                elapsed = clock() - t0
                try:
                    for key, value in op.check(result).items():
                        stats.setdefault(key, []).append(value)
                except workloads.CheckFailed as exc:
                    failures.append(f"{op.label}: {exc}")
                except (ValueError, KeyError, IndexError, OSError) as exc:  # output too malformed to check
                    failures.append(f"{op.label}: unreadable output: {type(exc).__name__}: {exc}")
            if tr is not None and op.spans is not None and os.path.exists(op.spans):
                tr.absorb(op.spans)
                os.remove(op.spans)
            latencies.append(elapsed)
            labels.append(op.label)
            in_pass += elapsed
        pass_seconds.append(in_pass)
        if clock() - started >= seconds:
            break
    probes.append(speed_probe())
    return {
        "ops_per_pass": len(ops),
        "passes": len(pass_seconds),
        "pass_seconds": pass_seconds,
        "latencies": latencies,
        "probe_s": probes,
        "labels": labels,
        "attempted": len(latencies),
        "failed": len(failures),
        "failures": failures[:20],
        "stats": stats,
    }


def trace_summary(tr, args, record) -> dict:
    designed = {
        "planar_chords": tracer.CHORD_SEARCH,
        "mc_oracle": ("montecarlo.sample_region_centroid",),
        "kd_sweep": tracer.KD_CORE,
    }
    op_seconds = sum(record["latencies"])
    spans_path = os.path.join(BENCH, "out", f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    tr.write_spans(spans_path)
    summary = {
        "layers": tr.layer_metrics(record["passes"]),
        "span_count": len(tr.spans),
        "spans_file": os.path.relpath(spans_path, ROOT),
    }
    if args.workload in designed:
        summary["design_share"] = tr.covered(designed[args.workload]) / op_seconds
    return summary


if __name__ == "__main__":
    sys.exit(main())
