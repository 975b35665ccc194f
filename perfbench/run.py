#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --record-reference

The first call configures and builds the program's libraries and the benchmark
into .bench_build/ at the repository root (Release); later calls rebuild only
what changed. Build output goes to .bench_build/build.log, so the benchmark's
report is all that reaches stdout; its last line is the JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
REFERENCE = os.path.join(HERE, "reference.txt")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def configured_source(cache):
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                return line.split("=", 1)[1].strip()
    return None


def build():
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("repository source %s is missing; nothing to build" % needed)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache) and configured_source(cache) != HERE:
        shutil.rmtree(BUILD)  # configured for another checkout
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                break
        else:
            return
    with open(log_path) as log:
        sys.stderr.write("".join(log.readlines()[-40:]))
    fail("build failed; full log in " + log_path)


def run_binary(args):
    try:
        return subprocess.run([BINARY] + args, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check the probes, the engine replay and the "
                             "reference check itself")
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.txt from the reference seed")
    opts = parser.parse_args()
    if not (opts.selftest or opts.record_reference or opts.workload):
        parser.error("one of --workload, --selftest, --record-reference "
                     "is required")

    build()
    if opts.selftest:
        return run_binary(["--selftest"])
    if opts.record_reference:
        return run_binary(["--record-reference", REFERENCE])
    return run_binary(["--workload", opts.workload,
                       "--seed", str(opts.seed),
                       "--seconds", repr(opts.seconds),
                       "--trace", str(opts.trace),
                       "--reference", REFERENCE])


if __name__ == "__main__":
    sys.exit(main())
