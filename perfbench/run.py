#!/usr/bin/env python3
"""Builds and runs the optshare benchmark for one workload.

    python3 perfbench/run.py --workload pricing --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The first run configures and builds
perfbench/ (and the repository's libraries it links) in the directory named
by CARGO_TARGET_DIR, default .bench_build; later runs rebuild incrementally.
Build output goes to stderr. The last stdout line is the result document:

    {"attempted": N, "correct": true, "failed": 0, "metrics": {...}}

Exits non-zero without a result when the sources are missing, the build
fails, or the benchmark fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pricing", "small-ops", "read-mix", "cluster")
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("no optshare sources next to perfbench/ (need CMakeLists.txt and src/)", 2)
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("configure failed")
    compile_cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"]
    if subprocess.run(compile_cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return "unknown"
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return head.stdout.strip() if head.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    tmp_dir = os.path.join(ROOT, ".perfbench_tmp")
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--tmp-dir", tmp_dir,
        "--commit", commit(),
    ]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish in {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    if run.returncode != 0:
        fail(f"benchmark exited with {run.returncode}", run.returncode)
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("benchmark printed no result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
