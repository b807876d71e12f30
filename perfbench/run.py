#!/usr/bin/env python3
"""Build and run the paper-scale CAESAR benchmark.

    python3 perfbench/run.py --workload paper_serial|paper_live \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
perfbench/ (the library sources under src/ plus the benchmark program)
into .bench_build/perfbench; later runs rebuild incrementally. Build
output goes to stderr.

--trace 0 measures the workload for about S seconds and reports every
end-to-end metric; --trace 1 runs the per-layer ledger (fixed work over
every layer) and also writes its live pass as Chrome trace JSON to
.bench_build/perfbench_trace.json.

The program's human-readable lines are forwarded to stdout; the last
stdout line is one JSON object with the keys correct, attempted, failed
and metrics. On a build failure, a timeout or a malformed result the
script exits non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "caesar_perfbench")
WORKLOADS = ("paper_serial", "paper_live")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build the benchmark; output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "caesar_sketch.hpp")):
        raise RuntimeError("library sources not found under src/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--parallel", jobs,
                  "--target", "caesar_perfbench"])
    for cmd in steps:
        subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                       check=True, timeout=BUILD_TIMEOUT_S)


def run(args):
    """Run the program; return its stdout lines, the result line last."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(ROOT, ".bench_build", "perfbench_trace.json")]
    # Runtime knobs of the library (CAESAR_SIMD, CAESAR_WORKER_SPIN, ...)
    # would change what is measured; every run uses the defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("CAESAR_")}
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, check=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise RuntimeError("malformed result line: " + lines[-1])
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        build()
        lines = run(args)
    except (OSError, RuntimeError, ValueError,
            subprocess.CalledProcessError, subprocess.TimeoutExpired) as err:
        print("perfbench: " + str(err), file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
