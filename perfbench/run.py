#!/usr/bin/env python3
"""Builds and runs the vblock benchmark (see README.md beside this file).

Usage, from the root of a vblock checkout:

    python3 perfbench/run.py --workload cold_solve|warm_replace|served_churn \
        --seed N --seconds S --trace 0|1

The first run configures and builds the library and the `perfbench` binary
in Release mode under $CARGO_TARGET_DIR (default `.bench_build`); later runs
only re-check the build. Build output goes to stderr, so the last line of
stdout is always the benchmark's JSON result. The exit code is the binary's:
0 when every answer was correct, 1 when the correctness gate failed, and
2 when the checkout or the build is unusable.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_JOBS = "4"


def build(build_dir):
    """Configures (once) and builds the binary; returns its path or None."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"] + generator
    compile_ = ["cmake", "--build", build_dir, "--target", "perfbench",
                "-j", BUILD_JOBS]
    cache = os.path.join(build_dir, "CMakeCache.txt")
    for attempt in range(2):
        if not os.path.exists(cache):
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                return None
        if subprocess.run(compile_, stdout=sys.stderr).returncode == 0:
            return os.path.join(build_dir, "perfbench")
        # A build directory configured for another checkout path cannot be
        # reused: start it over once.
        if attempt == 0:
            shutil.rmtree(build_dir, ignore_errors=True)
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--wrong-reference", action="store_true",
                        help="self-test: corrupt every reference answer")
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("run.py: no vblock sources next to the benchmark "
              "(expected CMakeLists.txt and src/ in %s)" % ROOT,
              file=sys.stderr)
        return 2

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 2

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out-dir", build_dir]
    if args.wrong_reference:
        command.append("--wrong-reference")
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
