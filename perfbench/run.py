#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 15 --trace 0

Run from the repository root. The script builds perfbench/ (which compiles
the library from src/) into .bench_build, trains the model fixture once per
build, then runs one workload with a pinned environment. Build output and
progress go to stderr; the program's report goes to stdout, and its last line
is the result JSON.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
FIXTURE = os.path.join(BUILD, "fixture.bin")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def pinned_env():
    """The environment every benchmark process runs in: one kernel thread
    per caller (serve workers each run their kernels serially), and none of
    the library's other STEPPING_* knobs, so the defaults are measured."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("STEPPING_")}
    env["STEPPING_THREADS"] = "1"
    return env


def check(cmd, timeout):
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=timeout, env=pinned_env())
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if r.returncode != 0:
        fail(f"failed ({r.returncode}): {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources under {ROOT}/src")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        check(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    check(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
          BUILD_TIMEOUT_S)
    # The fixture is trained by the program just built, so a rebuilt
    # program retrains it.
    if (not os.path.isfile(FIXTURE)
            or os.path.getmtime(FIXTURE) < os.path.getmtime(BINARY)):
        check([BINARY, "--make-fixture", FIXTURE], BUILD_TIMEOUT_S)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in (0, 120]")

    build()
    cmd = [BINARY, "--fixture", FIXTURE, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                           env=pinned_env(), text=True)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(r.stdout)
        fail(f"benchmark run failed ({r.returncode})")
    sys.stdout.write(r.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
