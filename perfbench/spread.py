#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads serve,train --seeds 1-10 [--seconds 10] [--trace 0]

Run from the repository root. The spread of a metric is the distance
between the first and third quartile of its values (Python's
statistics.quantiles, n=4) as a share of their median; it is compared
with the metric's bound in BENCHMARK.json. A spread under a third of the
bound is marked "ok". Each run's result line is appended to
perfbench-spread.jsonl in the build directory.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seeds(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="serve,train")
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join("perfbench", "target"))
    build = ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"]
    if subprocess.run(build).returncode != 0:
        sys.exit("build failed")
    binary = os.path.join(target, "release", "perfbench")
    log = open(os.path.join(target, "release", "perfbench-spread.jsonl"), "a")

    for workload in args.workloads.split(","):
        values = {}
        walls = []
        for seed in seeds(args.seeds):
            cmd = [binary, "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", args.trace]
            started = time.time()
            run = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            walls.append(time.time() - started)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                sys.exit(f"{workload} seed {seed} failed with exit code {run.returncode}")
            result = json.loads(lines[-1])
            log.write(json.dumps({"workload": workload, "seed": seed, "result": result}) + "\n")
            log.flush()
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {workload}: {len(walls)} runs, wall {min(walls):.1f}-{max(walls):.1f} s")
        for name, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
            spread = (q[2] - q[0]) / med if med else float("inf")
            bound = bounds.get(name)
            flag = "" if bound is None else ("ok" if spread < bound / 3 else "WIDE")
            print(f"{name:48s} median {med:14.6g}  spread {spread:7.4f}  bound {bound}  {flag}")


if __name__ == "__main__":
    main()
