#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload cold_mix --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (the library sources under
src/ plus the benchmark) into .bench_build/perfbench; later runs only
rebuild what changed. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. With --trace 1 the Chrome
trace-event JSON of the run is written to .bench_build/.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# A run must end well inside the 180 s a caller allows it.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("perfbench: no src/ next to perfbench/; nothing to build")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j4"], check=True,
                   stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cold_mix", "whatif_warm", "churn_repredict"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny datasets (the benchmark's smoke test)")
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"perfbench: build failed: {err}")

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        command += ["--trace-file",
                    os.path.join(ROOT, ".bench_build",
                                 f"trace-{args.workload}.json")]
    if args.smoke:
        command.append("--smoke")
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
