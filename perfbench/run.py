#!/usr/bin/env python3
"""Build and run the FRL-FI benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Configures and builds perfbench/ (which
builds the library from ../src with the root build's flags) into
$CARGO_TARGET_DIR (default .bench_build), then runs the benchmark program
with the workload's sanity band from perfbench/manifest.json. The
program's report passes through to stdout; its last line is the JSON
result. Exits non-zero, without a result, when the build or the run
fails, or when the result's metric names and units differ from those
BENCHMARK.json lists.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the report.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        bench = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    with open(os.path.join(HERE, "manifest.json")) as f:
        manifest = json.load(f)
    workloads = {w["name"]: w for w in manifest["workloads"]}
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload}")
    band = workloads[args.workload]["sanity_band"]

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    build(build_dir)
    exe = os.path.join(build_dir, "perfbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--band", f"{band['lo']}:{band['hi']}",
           "--trace-dir", os.path.join(build_dir, "traces")]
    # Own process group, so a timeout also stops the set-up probes the
    # program starts.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(stdout)
        fail(f"perfbench exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(stdout)
        fail("perfbench printed no JSON result")
    want = expected_metrics(args.trace == "1")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want is not None and got != want:
        print("\n".join(lines[:-1]))
        fail(f"metric set differs from BENCHMARK.json: got {sorted(got)}, "
             f"want {sorted(want)}")
    sys.stdout.write(stdout)


if __name__ == "__main__":
    main()
