"""Spans and counters around calls into edgebalance's public functions.

``Tracer.install`` replaces each traced function with a timing wrapper in
every ``edgebalance`` module namespace that binds it, so calls made through
cross-module imports (``planar.positive_root``) and calls a function makes
to its own module's globals (the chord searches calling
``chord_through_centroid``) are all recorded.  The library itself is not
changed.  Spans stay in memory until the run ends.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of
the enclosing traced span or -1, and ``op`` the benchmark op it belongs to.
"""

import functools
import gzip
import json
import statistics
import sys
import time
from collections import defaultdict

TRACED = {
    "planar": (
        "find_balanced_chord",
        "find_chord_with_beta",
        "scan_balanced_chords",
        "chord_through_centroid",
        "plan_excision",
        "verify_balance",
    ),
    "montecarlo": ("sample_region_centroid",),
    "polynomials": ("positive_root", "knacci_constant"),
    "sequences": ("converged_ratio",),
    "ndim": ("balanced_boundary_point", "plan_excision_kd", "verify_balance_kd"),
    "cli": ("main",),
}

CHORD_SEARCH = ("planar.find_balanced_chord", "planar.find_chord_with_beta", "planar.scan_balanced_chords")
KD_CORE = tuple(
    f"{module}.{fn}" for module in ("polynomials", "sequences", "ndim") for fn in TRACED[module]
)
MC_FAMILIES = ("polygon", "ellipse", "ball", "cube", "simplex")
_FAMILY = {
    "Polygon": "polygon",
    "Circle": "ellipse",
    "Ellipse": "ellipse",
    "Hyperball": "ball",
    "Hypercube": "cube",
    "Simplex": "simplex",
}


def _observe(name, args, kwargs, result, seconds, obs):
    """Record what a call returned that a per-layer metric needs."""
    if name == "planar.find_balanced_chord":
        obs["beta_err"].append(abs(result.beta - 0.5))
    elif name == "planar.find_chord_with_beta":
        target = args[1] if len(args) > 1 else kwargs["beta_target"]
        obs["beta_err"].append(abs(result.beta - target))
    elif name == "planar.scan_balanced_chords":
        obs["chords_found"].append(len(result))
    elif name == "planar.verify_balance":
        obs["rel_dist"].append(result.relative_distance)
    elif name == "polynomials.positive_root":
        obs["iterations"].append(result.iterations)
    elif name == "montecarlo.sample_region_centroid":
        family = _FAMILY[type(args[0]).__name__]
        obs[f"{family}.draws"].append(result.samples_total)
        obs[f"{family}.accepted"].append(result.samples_accepted)
        obs[f"{family}.seconds"].append(seconds)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.observed: dict[str, dict[str, list]] = defaultdict(lambda: defaultdict(list))
        self.errors: dict[str, int] = defaultdict(int)
        self.op = -1
        self._open: list[int] = []

    def _wrap(self, name, fn):
        spans, open_spans, observed, errors = self.spans, self._open, self.observed, self.errors
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1, self.op]
            spans.append(span)
            open_spans.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                errors[name] += 1
                raise
            finally:
                end = clock()
                open_spans.pop()
                span[1], span[2] = start, end
            _observe(name, args, kwargs, result, end - start, observed[name])
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every traced function of ``package`` wherever a module binds it."""
        wrappers = {}
        for module, names in TRACED.items():
            mod = sys.modules.get(f"{package.__name__}.{module}")
            if mod is None:
                continue
            for fn_name in names:
                original = getattr(mod, fn_name)
                wrappers[id(original)] = self._wrap(f"{module}.{fn_name}", original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != package.__name__ and not mod_name.startswith(package.__name__ + "."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

    def absorb(self, path: str) -> None:
        """Add the spans and observations a traced child process wrote."""
        with open(path) as handle:
            child = json.load(handle)
        offset = len(self.spans)
        for name, start, end, parent, _ in child["spans"]:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1, self.op])
        for name, obs in child["observed"].items():
            for key, values in obs.items():
                self.observed[name][key].extend(values)
        for name, count in child["errors"].items():
            self.errors[name] += count

    def dump(self, path: str) -> None:
        """Write spans and observations as plain JSON (the child's hand-off)."""
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "observed": self.observed, "errors": self.errors}, handle)

    def write_spans(self, path: str) -> None:
        """Write every span as one gzip-compressed JSON line."""
        with gzip.open(path, "wt") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}))
                handle.write("\n")

    def covered(self, names) -> float:
        """Seconds inside spans named in ``names``, not counting nested ones twice."""
        names = set(names)
        total = 0.0
        for span in self.spans:
            if span[0] not in names:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            if parent < 0:
                total += span[2] - span[1]
        return total

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics; counts and busy times are per pass."""
        calls = defaultdict(int)
        busy = defaultdict(float)
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            busy[name] += end - start
            if parent >= 0:
                child_time[parent] += end - start
        self_time = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name] += end - start - child_time.get(index, 0.0)

        def per_pass(value):
            return value / passes

        obs = self.observed
        m = {}
        for fn in ("find_balanced_chord", "find_chord_with_beta"):
            name = f"planar.{fn}"
            m[f"{name}.calls"] = per_pass(calls[name])
            m[f"{name}.busy_s"] = per_pass(busy[name])
            m[f"{name}.beta_err_max"] = max(obs[name]["beta_err"], default=0.0)
        name = "planar.scan_balanced_chords"
        m[f"{name}.calls"] = per_pass(calls[name])
        m[f"{name}.busy_s"] = per_pass(busy[name])
        m[f"{name}.chords_found"] = per_pass(sum(obs[name]["chords_found"]))
        m["planar.chord_through_centroid.calls"] = per_pass(calls["planar.chord_through_centroid"])
        m["planar.plan_excision.busy_s"] = per_pass(busy["planar.plan_excision"])
        m["planar.verify_balance.busy_s"] = per_pass(busy["planar.verify_balance"])
        m["planar.verify_balance.rel_dist_max"] = max(obs["planar.verify_balance"]["rel_dist"], default=0.0)

        name = "montecarlo.sample_region_centroid"
        mc = obs[name]
        m[f"{name}.calls"] = per_pass(calls[name])
        m[f"{name}.busy_s"] = per_pass(busy[name])
        draws = sum(sum(mc[f"{f}.draws"]) for f in MC_FAMILIES)
        accepted = sum(sum(mc[f"{f}.accepted"]) for f in MC_FAMILIES)
        m["montecarlo.draws"] = per_pass(draws)
        m["montecarlo.accepted"] = per_pass(accepted)
        m["montecarlo.acceptance"] = accepted / draws if draws else 0.0
        m["montecarlo.draws_per_s"] = draws / busy[name] if busy[name] else 0.0
        m["montecarlo.accepted_per_s"] = accepted / busy[name] if busy[name] else 0.0
        for f in MC_FAMILIES:
            f_draws, f_seconds = sum(mc[f"{f}.draws"]), sum(mc[f"{f}.seconds"])
            m[f"montecarlo.{f}.acceptance"] = sum(mc[f"{f}.accepted"]) / f_draws if f_draws else 0.0
            m[f"montecarlo.{f}.draws_per_s"] = f_draws / f_seconds if f_seconds else 0.0

        name = "polynomials.positive_root"
        m[f"{name}.calls"] = per_pass(calls[name])
        m[f"{name}.busy_s"] = per_pass(busy[name])
        m[f"{name}.self_s"] = per_pass(self_time[name])
        m[f"{name}.iterations_mean"] = statistics.fmean(obs[name]["iterations"]) if obs[name]["iterations"] else 0.0
        m[f"{name}.errors"] = per_pass(self.errors[name])

        m["sequences.converged_ratio.calls"] = per_pass(calls["sequences.converged_ratio"])
        m["sequences.converged_ratio.busy_s"] = per_pass(busy["sequences.converged_ratio"])
        m["ndim.balanced_boundary_point.calls"] = per_pass(calls["ndim.balanced_boundary_point"])
        m["ndim.balanced_boundary_point.busy_s"] = per_pass(busy["ndim.balanced_boundary_point"])
        m["ndim.plan_excision_kd.busy_s"] = per_pass(busy["ndim.plan_excision_kd"])
        m["ndim.verify_balance_kd.busy_s"] = per_pass(busy["ndim.verify_balance_kd"])
        mains = [end - start for name, start, end, _, _ in self.spans if name == "cli.main"]
        m["cli.main_s"] = statistics.median(mains) if mains else 0.0
        return m
