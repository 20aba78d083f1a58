#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload soak|fuzz|testgen|fleet \
        --seed N --seconds S --trace 0|1

The program is the dune executable perfbench/perfbench.exe, built in the
checkout's own _build directory with the shared dune cache disabled. Its
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; this script passes it through and exits
with the program's exit code. It exits non-zero without a result when the
checkout has no library to build.

--workload all runs the four workloads in turn, prints one
"<workload>: <json>" line each, and exits non-zero unless every one is
correct with no failed units.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("soak", "fuzz", "testgen", "fleet")
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 720
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the repository root (dune-project and lib/ are missing)",
              file=sys.stderr)
        return 2

    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
            env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        return build.returncode

    if args.workload != "all":
        code, out = run_one(args.workload, args)
        if code == 0:
            sys.stdout.write(out)
        return code

    ok = True
    for workload in WORKLOADS:
        code, out = run_one(workload, args)
        if code != 0:
            print(f"{workload}: exit {code}")
            ok = False
            continue
        result = out.strip().splitlines()[-1]
        print(f"{workload}: {result}", flush=True)
        r = json.loads(result)
        ok = ok and r["correct"] and r["failed"] == 0
    return 0 if ok else 1


def run_one(workload, args):
    """Run the built program on one workload: (exit code, its stdout)."""
    cmd = [EXE, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {workload} run failed: {e}", file=sys.stderr)
        return 2, ""
    return run.returncode, run.stdout


if __name__ == "__main__":
    sys.exit(main())
