#!/usr/bin/env python3
"""Builds and runs the natix-tsp benchmark.

    python3 perfbench/run.py --workload <load|query|update|serve> \\
        --seed <n> --seconds <s> --trace <0|1> [--size <f>] [--plant-fault]

Run from the repository root. The benchmark and the library sources are
compiled with CMake (Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset. Page files, logs and
span dumps go to .bench_work under the repository root whatever
$CARGO_TARGET_DIR says, so the log stays on the checkout's disk. Build
output goes to stderr; the benchmark's stdout is passed through, so its
last line is the result object. See perfbench/README.md.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Each run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
WORK_DIR = os.path.join(ROOT, ".bench_work")


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build(build_dir):
    """Configures (once) and builds the perfbench binary; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            return None
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["load", "query", "update", "serve"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--size", type=float, default=1.0,
                        help="scale factor for documents and op floors")
    parser.add_argument("--plant-fault", action="store_true",
                        help="perturb one expected answer (oracle self-test)")
    args = parser.parse_args()

    binary = build(os.path.join(build_root(), "perfbench"))
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--size", str(args.size),
           "--workdir", WORK_DIR]
    if args.plant_fault:
        cmd.append("--plant-fault")
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout.decode())
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
