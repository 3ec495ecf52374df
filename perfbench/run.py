#!/usr/bin/env python3
"""Build and run the gmtsched pipeline benchmark.

Run from the root of a gmtsched checkout:

    python3 perfbench/run.py --workload paper-matrix --seed 1 \
        --seconds 20 --trace 0

Configures and builds perfbench/ (the gmtsched libraries from src/
plus the benchmark program) in Release mode under $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs the program. The last line of
stdout is the result object; see perfbench/README.md for the metrics.
Exits nonzero, printing no result, when the sources or inputs are
missing or the build fails.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("paper-matrix", "gen-ladder", "autotune-matrix")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 2


def build(bench_dir, build_dir):
    """Configure once, then build incrementally; output goes to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", bench_dir, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "gmt_perfbench",
         "-j", "4"],
        stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    for need in ("src/CMakeLists.txt", "workloads/ir"):
        if not os.path.exists(os.path.join(root, need)):
            return fail("missing %s: run from a gmtsched checkout" % need)

    out_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(out_root):
        out_root = os.path.join(root, out_root)
    build_dir = os.path.join(out_root, "perfbench")
    try:
        build(bench_dir, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        return fail("build failed: %s" % e)

    cmd = [os.path.join(build_dir, "gmt_perfbench"),
           "--root", root,
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(build_dir, "spans-%s.jsonl" % args.workload)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0:
        try:
            json.loads(lines[-1])
        except (IndexError, ValueError):
            return fail("the benchmark printed no result")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
