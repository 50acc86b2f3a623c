#!/usr/bin/env python3
"""conex-bench: build the benchmark from source and run one workload.

Usage (from the root of a checkout):

    python3 conex-bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Builds conex-bench/conex_bench.exe with dune (release profile, shared
cache disabled so nothing is written outside the checkout), then runs it.
The program's standard output is passed through unchanged; its last line
is the JSON result.  Build output goes to standard error.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH = os.path.basename(HERE)
EXE = os.path.join(ROOT, "_build", "default", BENCH, "conex_bench.exe")

BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print(f"conex-bench: {msg}", file=sys.stderr)
    sys.exit(code)


def flambda():
    try:
        out = subprocess.run(
            ["ocamlopt", "-config-var", "flambda"],
            capture_output=True, text=True, timeout=30,
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} not found next to {BENCH}/: run from a checkout of the repository")

    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "--profile", "release",
             f"./{BENCH}/conex_bench.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except OSError as e:
        fail(f"cannot run dune: {e}")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if build.returncode != 0:
        fail("build failed", build.returncode)

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--flambda", flambda()]
    try:
        # subprocess.run kills and reaps the child on timeout
        run = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
