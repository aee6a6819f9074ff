"""Steadiness self-check: do two sets of runs of the same code agree?

    python3 bench/steady.py

Runs ``bench/run.py --trace 0`` ten times on each workload of
BENCHMARK.json in turn, one seed per run and ``run_seconds`` each, then
does the same again as a second set (set 1 uses seeds 1..10, set 2 seeds
11..20).  For every end-to-end metric it prints each set's median and
quartiles, the spread (quartile distance over median) against the metric's
bound, and whether the second set's median is worse than the first's by
more than the bound.  It also counts the runs that had failed ops.  Exits 1
when any check fails.
Raw results go to bench/out/steady-<unix time>.json.
"""

import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RUNS = 10  # per workload and set


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-1000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]

    results = {name: [[], []] for name in names}
    for set_index in range(2):
        for name in names:
            for i in range(RUNS):
                seed = 1 + set_index * RUNS + i
                result = run_once(name, seed, spec["run_seconds"])
                results[name][set_index].append(result)
                print(f"set {set_index + 1} run {i + 1} {name} seed {seed}: correct {result['correct']}",
                      file=sys.stderr, flush=True)

    os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
    with open(os.path.join(BENCH, "out", f"steady-{int(time.time())}.json"), "w") as handle:
        json.dump(results, handle)

    ok = correct = True
    print(f"{'workload':<14} {'metric':<16} {'set':>3} {'q1':>11} {'median':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for name in names:
        sets = results[name]
        failed_runs = sum(not r["correct"] for runs in sets for r in runs)
        if failed_runs:
            print(f"{name}: {failed_runs} of {2 * RUNS} runs reported failed ops")
            correct = False
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            medians = []
            for set_index, runs in enumerate(sets):
                values = [r["metrics"][key]["value"] for r in runs]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med
                medians.append(med)
                verdict = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
                ok &= spread <= bound
                print(f"{name:<14} {key:<16} {set_index + 1:>3} {q1:>11.5g} {med:>11.5g} {q3:>11.5g} "
                      f"{spread:>7.3f} {bound:>6}  {verdict}")
            first, second = medians
            worse = (first - second) / first if metric["better"] == "higher" else (second - first) / first
            agree = worse <= bound
            ok &= agree
            print(f"{name:<14} {key:<16} second median worse by {worse:+.3f}: {'agree' if agree else 'DISAGREE'}")
    print("steady" if ok else "NOT steady")
    print("every op correct" if correct else "some ops failed")
    return 0 if ok and correct else 1


if __name__ == "__main__":
    sys.exit(main())
