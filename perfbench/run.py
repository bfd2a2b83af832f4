#!/usr/bin/env python3
"""Build and run the PLB-HeC benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds the
benchmark (the PLB-HeC libraries from src/ plus perfbench/src/) into
.bench_build/; later calls only re-check the build. The benchmark binary
prints its progress and, as the last line of standard output, one JSON
object with the keys correct, attempted, failed and metrics. Trace files
of --trace 1 runs go to .bench_out/.

Exits non-zero, without printing a result, when the build fails or the
benchmark does not produce one.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
BINARY = os.path.join(BUILD_DIR, "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
SELF_TEST_TIMEOUT_S = 900


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    generator = ["-G", "Ninja"] if _have("ninja") else []
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release", *generator]
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return os.path.exists(BINARY)


def _have(tool):
    return any(os.access(os.path.join(d, tool), os.X_OK)
               for d in os.environ.get("PATH", "").split(os.pathsep))


def main(argv):
    try:
        if not build():
            return 1
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return 1
    self_test = "--self-test" in argv
    try:
        proc = subprocess.run(
            [BINARY, *argv], stdout=subprocess.PIPE, text=True,
            timeout=SELF_TEST_TIMEOUT_S if self_test else RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark timed out")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if self_test:
        print(proc.stdout, end="")
        return proc.returncode
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, IndexError):
        ok = False
    if not ok:
        # No result line: show what the benchmark printed, minus a result.
        sys.stderr.write(proc.stdout[-4000:])
        log(f"benchmark produced no result (exit {proc.returncode})")
        return proc.returncode or 1
    print(proc.stdout, end="", flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
