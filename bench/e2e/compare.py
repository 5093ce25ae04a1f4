#!/usr/bin/env python3
"""Compares two sets of bench_e2e results against BENCHMARK.json's bounds.

    compare.py BEFORE AFTER        compare two result sets
    compare.py --summarize DIR     print a summary of one set (the format
                                   of baseline/seed.json)

BEFORE and AFTER are each a directory of bench_e2e --out files (as run.sh
writes them) or a summary file. For every metric, one row per workload
gives each side's median and quartiles and the change of the medians. An
end-to-end metric is flagged REGRESSED when AFTER's median is worse than
BEFORE's by more than the metric's bound (a share of BEFORE's median), and
"unresolved" when either side's own spread (quartile distance over median)
exceeds that bound. Per-layer metrics have no bound and are only listed.

Also checks, across both sets, that runs of one workload and seed agree on
the stream hash, and on every count of workloads whose counts must repeat
exactly (churn). Exits 1 on a regression or a determinism failure.
"""

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# Counts that must repeat exactly for one seed where the result says so.
EXACT_INFO = ("stream_hash", "optimizer_calls_timed", "global_evictions_timed")
EXACT_METRICS = ("opt_frac", "tc", "plans_cached", "cache_bytes")


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def load_runs(directory):
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            runs.append(json.load(f))
    if not runs:
        raise SystemExit(f"no result files in {directory}")
    return runs


def summarize(runs):
    """{mode: {workload: {metric: {median, q1, q3, unit, runs}}}}."""
    values = defaultdict(lambda: defaultdict(lambda: defaultdict(list)))
    units = {}
    for r in runs:
        info = r["info"]
        for name, m in r["metrics"].items():
            values[info["mode"]][info["workload"]][name].append(m["value"])
            units[name] = m["unit"]
    out = {}
    for mode, workloads in values.items():
        out[mode] = {}
        for workload, metrics in workloads.items():
            out[mode][workload] = {}
            for name, vals in metrics.items():
                q1, med, q3 = quartiles(vals)
                out[mode][workload][name] = {
                    "median": med, "q1": q1, "q3": q3, "unit": units[name],
                    "runs": len(vals)}
    return out


def load_side(path):
    """A summary, plus the raw runs when `path` is a directory."""
    if os.path.isdir(path):
        runs = load_runs(path)
        return summarize(runs), runs
    with open(path) as f:
        return json.load(f)["results"], []


def check_determinism(runs):
    failures = []
    seen = {}
    for r in runs:
        info = r["info"]
        key = (info["workload"], info["seed"], info["mode"],
               info["decisions"])
        fields = {k: info[k] for k in EXACT_INFO if k in info}
        if info.get("exact_counts") != "yes":
            fields = {"stream_hash": info["stream_hash"]}
        else:
            fields.update({k: r["metrics"][k]["value"]
                           for k in EXACT_METRICS if k in r["metrics"]})
        if key in seen and seen[key] != fields:
            failures.append(f"{key[0]} seed {key[1]} ({key[2]}): "
                            f"{seen[key]} != {fields}")
        seen.setdefault(key, fields)
    return failures


def host_details():
    model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = ROOT / ".bench_build" / "e2e" / "CMakeCache.txt"
    compiler, build_type = "unknown", "unknown"
    if cache.exists():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_CXX_COMPILER:"):
                path = line.split("=", 1)[1]
                version = subprocess.run([path, "--version"],
                                         capture_output=True, text=True,
                                         check=False).stdout
                compiler = version.splitlines()[0] if version else path
            elif line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1]
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "compiler": compiler, "build_type": build_type}


def fmt(x):
    return f"{x:.4g}"


def compare(before, after, spec):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    regressions = 0
    for mode in ("untraced", "traced"):
        common = sorted(set(before.get(mode, {})) & set(after.get(mode, {})))
        if not common:
            continue
        names = []
        for w in common:
            for name in after[mode][w]:
                if name not in names:
                    names.append(name)
        print(f"== {mode} runs")
        for name in names:
            bound = bounds.get(name)
            unit = next(after[mode][w][name]["unit"] for w in common
                        if name in after[mode][w])
            label = f" (bound {bound['bound']:.0%}, {bound['better']} is " \
                    f"better)" if bound else ""
            print(f"{name} [{unit}]{label}")
            for w in common:
                b, a = before[mode][w].get(name), after[mode][w].get(name)
                if b is None or a is None:
                    continue
                change = (a["median"] - b["median"]) / b["median"] \
                    if b["median"] else 0.0
                verdict = ""
                if bound:
                    spread = max(
                        (s["q3"] - s["q1"]) / s["median"] if s["median"]
                        else 0.0 for s in (a, b))
                    worse = change if bound["better"] == "lower" else -change
                    if spread > bound["bound"]:
                        verdict = "unresolved"
                    elif worse > bound["bound"]:
                        verdict = "REGRESSED"
                        regressions += 1
                    elif worse < -bound["bound"]:
                        verdict = "improved"
                    else:
                        verdict = "ok"
                print(f"  {w:10s} before {fmt(b['median'])} "
                      f"[{fmt(b['q1'])}, {fmt(b['q3'])}]  "
                      f"after {fmt(a['median'])} "
                      f"[{fmt(a['q1'])}, {fmt(a['q3'])}]  "
                      f"{change:+.1%}  {verdict}")
    return regressions


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--summarize", metavar="DIR")
    parser.add_argument("sets", nargs="*", metavar="SET")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    if args.summarize:
        runs = load_runs(args.summarize)
        failures = check_determinism(runs)
        for f in failures:
            print(f"determinism: {f}", file=sys.stderr)
        json.dump({"host": host_details(), "results": summarize(runs)},
                  sys.stdout, indent=1, sort_keys=True)
        print()
        return 1 if failures else 0
    if len(args.sets) != 2:
        parser.error("give BEFORE and AFTER, or --summarize DIR")
    before, before_runs = load_side(args.sets[0])
    after, after_runs = load_side(args.sets[1])
    regressions = compare(before, after, spec)
    failures = check_determinism(before_runs + after_runs)
    for f in failures:
        print(f"determinism: {f}")
    print(f"{regressions} regression(s), {len(failures)} determinism "
          "failure(s)")
    return 1 if regressions or failures else 0


if __name__ == "__main__":
    sys.exit(main())
