#!/usr/bin/env python3
"""Hold-out seed check for the served workloads.

A later performance claim must also hold on a seed its author did not tune
against. That is only meaningful if another seed offers the same kind of
load, so this script runs each served workload on a tuning seed and on a
hold-out seed (traced runs, which report the workload's shape) and checks
that the miss share, the cache evictions and the number of deltas differ by
at most the benchmark's bound.

    python3 perfbench/holdout.py

Run it from the repository root. It uses the command and `run_seconds` of
BENCHMARK.json. Exits 1 when a shape differs too much.
"""

import json
import subprocess
import sys

BOUND = 0.25
# The seed the benchmark was tuned on, and one it was not.
SEEDS = (20170419, 7)
SHAPE = {
    "tiles-1m": ["shape.miss_share", "serve.cache.evictions", "serve.cache.hit_rate"],
    "mixed-1m": ["shape.miss_share", "serve.cache.evictions", "shape.deltas"],
}
with open("BENCHMARK.json") as f:
    BENCHMARK = json.load(f)
COMMAND = BENCHMARK["command"]
SECONDS = BENCHMARK["run_seconds"]


def shape(workload, seed):
    out = subprocess.run(
        COMMAND + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(SECONDS), "--trace", "1"],
        capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: output checks failed")
    return {name: result["metrics"][name]["value"] for name in SHAPE[workload]}


def main():
    ok = True
    for workload in SHAPE:
        tuned, held = (shape(workload, seed) for seed in SEEDS)
        for name in SHAPE[workload]:
            a, b = tuned[name], held[name]
            gap = abs(a - b) / max(abs(a), abs(b)) if max(abs(a), abs(b)) else 0.0
            verdict = "ok" if gap <= BOUND else "DIFFERS"
            ok &= gap <= BOUND
            print(f"{workload:9} {name:24} {a:12.4f} {b:12.4f}  gap {gap:.3f}  {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
