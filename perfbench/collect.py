#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize the spread.

    python3 perfbench/collect.py --workload drone_train --seeds 1-10 \
        [--seconds 15] [--trace 0] [--out results.json] [--compare base.json]

For each end-to-end metric prints the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median,
next to the metric's bound from BENCHMARK.json. --out writes the values,
the summary and the host fingerprint as JSON. --compare reads such a file
(or perfbench/baseline.json's entry for the workload) and reports each
median's change; it refuses to compare results whose host fingerprints
differ.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        sys.exit(f"run failed: {' '.join(cmd)}\n{r.stdout}")
    lines = r.stdout.rstrip("\n").split("\n")
    fingerprint = None
    for line in lines:
        if line.startswith("fingerprint "):
            fingerprint = json.loads(line[len("fingerprint "):])
    return json.loads(lines[-1]), fingerprint


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--out")
    ap.add_argument("--compare")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["per_layer" if args.trace else "end_to_end"]

    values = {m["name"]: [] for m in metrics}
    fingerprints = set()
    runs = []
    for seed in parse_seeds(args.seeds):
        result, fp = run_once(args.workload, seed, seconds, args.trace)
        fingerprints.add(json.dumps(fp, sort_keys=True))
        runs.append({"seed": seed, "result": result})
        status = "ok" if result["correct"] else "INCORRECT"
        print(f"seed {seed}: {status} attempted {result['attempted']} "
              f"failed {result['failed']}", flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    if len(fingerprints) != 1:
        sys.exit("host fingerprint changed between runs; not summarizing")
    fingerprint = json.loads(fingerprints.pop())

    summary = {}
    print(f"\n{args.workload}: {len(runs)} runs of {seconds} s")
    for m in metrics:
        s = summarize(values[m["name"]])
        summary[m["name"]] = s
        bound = m.get("bound")
        flag = ""
        if bound is not None:
            flag = "ok" if s["spread"] < bound / 3 else (
                "WITHIN BOUND" if s["spread"] <= bound else "OVER BOUND")
            flag = f"bound {bound} {flag}"
        print(f"  {m['name']:<34} median {s['median']:.6g} {m['unit']:<9} "
              f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f} "
              f"{flag}")

    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "seconds": seconds,
                       "fingerprint": fingerprint, "summary": summary,
                       "runs": runs}, f, indent=1)

    if args.compare:
        with open(args.compare) as f:
            base = json.load(f)
        if "workloads" in base:  # perfbench/baseline.json
            base = {"fingerprint": base["fingerprint"],
                    "summary": base["workloads"][args.workload]}
        if base["fingerprint"] != fingerprint:
            sys.exit("refusing to compare: host fingerprints differ\n"
                     f"  base: {base['fingerprint']}\n  this: {fingerprint}")
        print("\nchange of median against the base:")
        for m in metrics:
            b = base["summary"].get(m["name"])
            if not b:
                continue
            a = summary[m["name"]]["median"]
            rel = (a - b["median"]) / b["median"] if b["median"] else 0.0
            print(f"  {m['name']:<34} {b['median']:.6g} -> {a:.6g} "
                  f"({100 * rel:+.2f}%)")


if __name__ == "__main__":
    main()
