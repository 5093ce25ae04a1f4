#!/usr/bin/env python3
"""Builds bench_e2e from this checkout and runs one workload.

    python3 bench/e2e/run.py --workload churn --seed 1 --seconds 10 --trace 0

Builds the library and the benchmark (Release) under .bench_build/e2e in
the checkout, runs one untraced (--trace 0) or traced (--trace 1) run, and
prints as its last stdout line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end_to_end metrics of BENCHMARK.json for --trace 0 and the
per_layer metrics for --trace 1. Exits 0 whenever the run produced a
result (a failed correctness check gives "correct": false); exits non-zero
without a result when the build or the run itself fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SOURCE = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build" / "e2e"
# A run must finish well inside three minutes; the build is separate.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds bench_e2e (incrementally); returns its path."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(SOURCE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "--target", "bench_e2e", "-j", jobs],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"build step failed: {' '.join(cmd)}")
    return BUILD / "bench_e2e"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {names}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    out = BUILD / f"result-{os.getpid()}.json"
    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--out={out}"]
    if args.trace:
        cmd.append("--traced")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        out.unlink(missing_ok=True)
        raise SystemExit(f"bench_e2e did not finish in {RUN_TIMEOUT_S} s")
    # 0: all checks passed; 1: a check failed, the result says which.
    if proc.returncode not in (0, 1) or not out.exists():
        out.unlink(missing_ok=True)
        raise SystemExit(f"bench_e2e exited {proc.returncode} without a "
                         "result")
    result = json.loads(out.read_text())
    out.unlink()
    for failure in result["failures"]:
        log(f"check failed: {failure}")

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            raise SystemExit(f"bench_e2e did not report {m['name']} "
                             f"in {m['unit']}")
        metrics[m["name"]] = got
    print(json.dumps({
        "correct": bool(result["correct"]) and proc.returncode == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
