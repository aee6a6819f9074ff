"""Run one edgebalance benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it finds the checkout from its own path and imports
``edgebalance`` from the checkout's ``src``.  With ``--trace 0`` it prints
the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the per-layer
metrics.  The lines before the last are a readable summary and the
environment stamp; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See bench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
SRC_PACKAGE = os.path.join(ROOT, "src", "edgebalance")

sys.path.insert(0, BENCH)
import workloads  # noqa: E402  (stdlib + numpy only; no edgebalance import)

BLAS_THREADS = 1  # at most nproc; one thread keeps the runs steady
SETUP_WORKERS = 8  # extra set-up-only workers; setup_s is the median with the main one
# Timings are quoted at the host speed where worker.speed_probe takes this
# long, each scaled by the probes taken around it (see README.md).
REFERENCE_PROBE_S = 0.001
PROBE_WINDOW = 2  # probes taken on each side of an op
STARTUP_PROBES = 5  # interpreter and import probes of the traced run

CLI_SMALL_SHARE = 0.5
DESIGN_SHARE_MIN = {"planar_chords": 0.9, "mc_oracle": 0.9, "kd_sweep": 0.9}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _read(path: str) -> str | None:
    try:
        with open(path) as handle:
            return handle.read()
    except OSError:
        return None


def mem_available_mb() -> float | None:
    for line in (_read("/proc/meminfo") or "").splitlines():
        if line.startswith("MemAvailable:"):
            return int(line.split()[1]) / 1024.0
    return None


def environment(seed: int) -> dict:
    """Where and on what a result was measured."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for name in sorted(os.listdir(SRC_PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(SRC_PACKAGE, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level, size = _read(f"{base}/level"), _read(f"{base}/size")
        if level is None:
            break
        if level.strip() in ("2", "3"):
            caches[f"l{level.strip()}_cache"] = size.strip() if size else None
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "l2_cache": caches.get("l2_cache"),
        "l3_cache": caches.get("l3_cache"),
        "python": platform.python_version(),
        "blas_threads": BLAS_THREADS,
        "mem_available_mb": mem_available_mb(),
    }


def memory_guard(need_mb: float, wait_s: float = 30.0) -> float | None:
    """Wait up to ``wait_s`` for ``need_mb`` of available memory.

    Returns the shortfall reading when memory stays short, else None.
    """
    deadline = time.monotonic() + wait_s
    while True:
        available = mem_available_mb()
        if available is None or available >= need_mb:
            return None
        if time.monotonic() >= deadline:
            return available
        time.sleep(2.0)


def run_worker(args, *flags) -> dict:
    """Start one worker, wait for it, and return its record."""
    out = os.path.join(OUT, f"worker-{os.getpid()}-{time.monotonic_ns()}.json")
    cmd = [
        sys.executable, os.path.join(BENCH, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--out", out, *flags,
    ]
    t0 = time.monotonic()
    # own session, so a worker that overruns is killed with the CLI processes it started
    proc = subprocess.Popen(
        [*cmd, "--t0", repr(t0)], env=child_env(), cwd=ROOT, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    try:
        _, stderr = proc.communicate(timeout=args.seconds + 60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {stderr[-2000:]}")
    with open(out) as handle:
        record = json.load(handle)
    os.remove(out)
    return record


def timed_subprocess(argv: list[str]) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *argv], env=child_env(), cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def host_scaled(seconds: float, probes: list[float]) -> float:
    """A time scaled to the host speed at which a speed probe takes REFERENCE_PROBE_S."""
    return seconds * REFERENCE_PROBE_S / statistics.median(probes)


def scaled_latencies_ms(record: dict) -> list[float]:
    """Each op's latency in ms, scaled by the speed probes taken around it."""
    probes = record["probe_s"]  # op i ran between probes i and i + 1
    return [
        1000.0 * host_scaled(t, probes[max(0, i - PROBE_WINDOW + 1): i + PROBE_WINDOW + 1])
        for i, t in enumerate(record["latencies"])
    ]


def ops_per_s(record: dict, lat_ms: list[float]) -> float:
    """Ops in a pass over the median pass time."""
    n = record["ops_per_pass"]
    return 1000.0 * n / statistics.median(sum(lat_ms[p * n:(p + 1) * n]) for p in range(record["passes"]))


def end_to_end(name: str, record: dict, setup_records: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics of an untraced run, plus the details behind them."""
    wl = workloads.WORKLOADS[name]
    lat_ms = scaled_latencies_ms(record)
    tail = float(np.percentile(lat_ms, wl.tail_percentile))
    rss_kb = record["maxrss_children_kb"] if name == "cli_mix" else record["maxrss_self_kb"]
    setups = [host_scaled(r["setup_s"], r["setup_probe_s"]) for r in setup_records]
    metrics = {
        "ops_per_s": ops_per_s(record, lat_ms),
        "latency_p50_ms": float(np.percentile(lat_ms, 50.0)),
        "latency_tail_ms": tail,
        "peak_rss_mb": rss_kb / 1024.0,
        "setup_s": statistics.median(setups),
    }
    raw_ms = [1000.0 * t for t in record["latencies"]]
    details = {
        "tail_percentile": wl.tail_percentile,
        "ops_beyond_tail": sum(1 for v in lat_ms if v > tail),
        "ops": len(lat_ms),
        "passes": record["passes"],
        "setup_samples": setups,
        "fail_frac": record["failed"] / record["attempted"],
        "probe_ms_median": 1000.0 * statistics.median(record["probe_s"]),
        "unscaled_ops_per_s": record["ops_per_pass"] / statistics.median(record["pass_seconds"]),
        "unscaled_latency_p50_ms": float(np.percentile(raw_ms, 50.0)),
        "unscaled_latency_tail_ms": float(np.percentile(raw_ms, wl.tail_percentile)),
        "unscaled_setup_s": statistics.median(r["setup_s"] for r in setup_records),
    }
    if "defect_probe" in record:
        details["raw_target_misses"] = record["defect_probe"]["misses"]
        details["raw_targets_missed"] = record["defect_probe"]["missed"]
    if "sigma_rel" in record["stats"]:
        details["mc_sigma_rel"] = statistics.median(record["stats"]["sigma_rel"])
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(SRC_PACKAGE, "__init__.py")):
        print(f"no edgebalance sources at {SRC_PACKAGE}; run from a full checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    os.makedirs(OUT, exist_ok=True)
    # Workers and the CLI processes they start inherit this: every op and
    # the speed probes around it run on the same CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    env = environment(args.seed)
    need = getattr(workloads.WORKLOADS[args.workload], "min_available_mb", None)
    if need is not None:
        short = memory_guard(need)
        if short is not None:
            print(f"memory guard: {short:.0f} MB available, {need} MB needed; run recorded as failed")
            print("env " + json.dumps(env))
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
            return 1

    if args.trace:
        declared = spec["per_layer"]
        values, details, attempted, failed = traced_run(args)
    else:
        declared = spec["end_to_end"]
        setups = [run_worker(args, "--setup-only") for _ in range(SETUP_WORKERS)]
        record = run_worker(args)
        values, details = end_to_end(args.workload, record, [*setups, record])
        attempted, failed = record["attempted"], record["failed"]
        details["failures"] = record["failures"]
        details["latencies"] = record["latencies"]
        details["labels"] = record["labels"]
        details["pass_seconds"] = record["pass_seconds"]
        env["numpy"] = record["numpy"]

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for name, entry in metrics.items():
        print(f"  {name:<48} {entry['value']:>16.6g} {entry['unit']}")
    for key, value in details.items():
        if key not in ("failures", "latencies", "labels", "pass_seconds"):
            print(f"  {key:<48} {value}")
    for failure in details.get("failures", []):
        print(f"  FAILED {failure}")
    print("env " + json.dumps(env))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record_path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w") as handle:
        json.dump({"result": result, "details": details, "env": env}, handle, indent=1)
    print(json.dumps(result))
    return 0


def traced_run(args):
    """Per-layer metrics: an untraced worker for the overhead baseline, then a traced one."""
    # Interleaved, so that the start-up share compares times taken together.
    probes = {"pass": [], "import": [], "constant": []}
    for _ in range(STARTUP_PROBES):
        probes["pass"].append(timed_subprocess(["-c", "pass"]))
        probes["import"].append(timed_subprocess(["-c", "import edgebalance"]))
        probes["constant"].append(timed_subprocess(["-m", "edgebalance.cli", "constant", "3"]))
    interpreter, imported, small = (statistics.median(probes[key]) for key in ("pass", "import", "constant"))
    plain = run_worker(args)
    traced = run_worker(args, "--trace")
    plain_rate = ops_per_s(plain, scaled_latencies_ms(plain))
    traced_rate = ops_per_s(traced, scaled_latencies_ms(traced))

    values = dict(traced["layers"])
    values["cli.interpreter_s"] = interpreter
    values["cli.import_s"] = imported - interpreter
    values["trace.overhead"] = traced_rate / plain_rate
    # 0 where the workload asks for no raw chord targets
    values["planar.find_chord_with_beta.raw_target_misses"] = plain.get("defect_probe", {}).get("misses", 0)
    sigma = traced["stats"].get("sigma_rel")
    values["mc_sigma_rel"] = statistics.median(sigma) if sigma else 0.0
    if args.workload == "cli_mix":
        share = imported / small
        share_min = CLI_SMALL_SHARE
    else:
        share = traced["design_share"]
        share_min = DESIGN_SHARE_MIN[args.workload]
    values["trace.design_share"] = share
    details = {
        "traced_ops_per_s": traced_rate,
        "untraced_ops_per_s": plain_rate,
        "design_share_min": share_min,
        "design_share_met": share >= share_min,
        "startup_probe_s": {key: statistics.median(v) for key, v in probes.items()},
        "spans": traced["span_count"],
        "spans_file": traced["spans_file"],
        "failures": plain["failures"] + traced["failures"],
    }
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    return values, details, attempted, failed


if __name__ == "__main__":
    sys.exit(main())
