#!/usr/bin/env python3
"""Entry point of the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload serve_fp32 --seed 1 --seconds 12 --trace 0

It builds the fitact library and the perfbench runner from the source tree
in the current directory (into .bench_build/), trains any model missing from
the benchmark's own stage-1 cache (an untimed step that only the first run in
a checkout pays), runs one workload, and prints the runner's report followed
by one JSON line: {"correct", "attempted", "failed", "metrics"}. The metrics
are the ones BENCHMARK.json declares: its end_to_end list with --trace 0, its
per_layer list with --trace 1. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

WORKLOADS = ("serve_fp32", "serve_int8_faults", "campaign_fitact")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
CACHE_DIR = os.path.join(".bench_build", "model_cache")
TRACE_DIR = os.path.join(".bench_build", "traces")
# The first run in a checkout builds and trains (~5 min on 4 cores); every
# later run must finish in 180 s.
FIRST_RUN_BUDGET_S = 880
RUN_BUDGET_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def step(cmd, deadline):
    """Runs a set-up command with its output on stderr; fails the run on a
    non-zero exit or when the deadline passes (the child is killed)."""
    try:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=max(deadline - time.monotonic(), 1))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail(f"{' '.join(cmd)}: {e}")


def source_sha256():
    """Content hash of the library sources and the benchmark, so results
    carry provenance even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in sorted(paths):
            h.update(path.encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_sha():
    if not os.path.isdir(".git"):
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unavailable"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    for needed in ("BENCHMARK.json", "CMakeLists.txt", "src",
                   os.path.join("perfbench", "CMakeLists.txt")):
        if not os.path.exists(needed):
            fail(f"run from the repository root: {needed} is missing here")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    declared = spec["per_layer" if args.trace == "1" else "end_to_end"]

    # Build and cache fill are no-ops after the first run in a checkout, so
    # only that run spends the longer budget.
    deadline = time.monotonic() + FIRST_RUN_BUDGET_S
    jobs = str(min(os.cpu_count() or 1, 4))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        step(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"], deadline)
    step(["cmake", "--build", BUILD_DIR, "-j", jobs], deadline)
    binary = os.path.join(BUILD_DIR, "perfbench")
    if not os.path.isfile(os.path.join(CACHE_DIR, "READY")):
        step([binary, "--fill-cache", "--cache-dir", CACHE_DIR], deadline)

    os.makedirs(TRACE_DIR, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--cache-dir", CACHE_DIR, "--git-sha", git_sha(),
           "--source-sha", source_sha256()]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(
            TRACE_DIR, f"{args.workload}-seed{args.seed}.jsonl")]
    timeout = min(deadline - time.monotonic(), RUN_BUDGET_S)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in time")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0:
        print(lines[-1], file=sys.stderr)
        fail(f"{args.workload} exited with code {proc.returncode}")

    result = json.loads(lines[-1])
    metrics = {}
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} ({m['unit']}) missing from the result")
        metrics[m["name"]] = got
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
