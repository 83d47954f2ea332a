#!/usr/bin/env python3
"""End-to-end benchmark for STGSim.

Run from the repository root:

    python3 stgbench/run.py --workload sweep3d-am --seed 1 --seconds 20 --trace 0

Builds the simulator and the stgbench binary from source into .bench_build
(CMake, RelWithDebInfo, incremental after the first run), then runs one
workload and forwards the binary's output. The last stdout line is the
result JSON: {"correct", "attempted", "failed", "metrics"}. Reports and
Chrome traces go to .bench_out. Workloads and metrics are described in
stgbench/README.md and declared in BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("sweep3d-am", "sweep3d-am-tw4", "sweep3d-de", "serve-mix")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BUILD_TYPE = "RelWithDebInfo"


def fail(message):
    print("stgbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then builds the stgbench binary and the stgsim CLI."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no STGSim sources next to the benchmark (src/ is missing)")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "stgbench", "stgsim"])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def source_identity():
    """Git revision and dirty flag when available, plus a digest of the
    sources the benchmark builds, which also identifies a plain checkout."""
    digest = hashlib.sha256()
    for top in ("src", "stgbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    ident = {"git_rev": "none", "git_dirty": False,
             "source_sha256": digest.hexdigest()[:16]}
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0:
            ident["git_rev"] = rev.stdout.strip()
            status = subprocess.run(["git", "status", "--porcelain", "--",
                                     "src", "stgbench", "BENCHMARK.json"],
                                    cwd=ROOT, capture_output=True, text=True,
                                    timeout=10)
            ident["git_dirty"] = bool(status.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    return ident


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    cmd = [os.path.join(BUILD_DIR, "stgbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--stgsim", os.path.join(BUILD_DIR, "stgsim", "cli", "stgsim"),
           "--out-dir", OUT_DIR,
           "--host-json", json.dumps(source_identity())]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    result = json.loads(lines[-1]) if lines else None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        fail("stgbench printed no result line")


if __name__ == "__main__":
    main()
