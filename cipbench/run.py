#!/usr/bin/env python3
"""Build cipnet and the cipbench driver from source, then run one workload.

    python3 cipbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to .bench_build/cipbench
(CMake, Release); its output is sent to stderr so that the last line on
stdout is the driver's JSON result. Workloads: state_space, design_flow,
serve_mix (see cipbench/README.md).
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("state_space", "design_flow", "serve_mix")


def fail(message):
    print(f"cipbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    source = os.path.join(root, "cipbench")
    for needed in ("src/CMakeLists.txt", "tools/cipnet_cli.cpp", "data"):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"no cipnet source tree here: {needed} is missing")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", source, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    compile_cmd = ["cmake", "--build", build_dir, "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, ".bench_build", "cipbench")
    build(root, build_dir)
    driver = os.path.join(build_dir, "bin", "cipbench")
    sys.stdout.flush()
    os.execv(driver, [driver, "--workload", args.workload,
                      "--seed", str(args.seed), "--seconds", str(args.seconds),
                      "--trace", args.trace, "--root", root])


if __name__ == "__main__":
    main()
