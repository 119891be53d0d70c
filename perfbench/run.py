#!/usr/bin/env python3
"""Builds the benchmark and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds an
optimised copy of the program and the benchmark driver into .bench_build/
(or $CARGO_TARGET_DIR); later calls rebuild only what changed. The last
line of standard output is the result JSON. Traces and sockets go to
<build dir>/run/. See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("broker-rtt", "broker-backlog", "queue-contended")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds; compiler output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "3"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run the checkers' self-test instead of a workload")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not build(build_dir):
        print("run.py: build failed", file=sys.stderr)
        return 1
    if args.selftest:
        return subprocess.run([os.path.join(build_dir, "wfqbench_selftest")]).returncode

    run_dir = os.path.join(build_dir, "run")
    os.makedirs(run_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "wfqbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--broker", os.path.join(build_dir, "broker"), "--run-dir", run_dir]
    # setup_s counts from here: the benchmark process's start.
    cmd += ["--t0-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: wfqbench did not finish within %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("run.py: wfqbench failed (exit %d)" % proc.returncode,
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("run.py: malformed result line", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
