#!/usr/bin/env python3
"""Self-test of the benchmark.

Usage, from the root of the repository:

    python3 perfbench/selftest.py [--seconds S] [WORKLOAD ...]

For each workload (default: every workload in BENCHMARK.json) it checks that

* an untraced run prints every end-to-end metric of BENCHMARK.json with its
  unit, and a traced run every per-layer metric with its unit;
* two traced runs with the same seed give identical deterministic counts
  (the sharded superstep counts and the 1-thread rounds and colors);
* a second seed gives the same metric names and passes verification;

and that perfbench/metric_map.json maps exactly the per-layer metrics of
BENCHMARK.json. Exits nonzero on the first failed check.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Counts that must repeat exactly for one seed, per workload.
DETERMINISTIC = {
    "bgpc-skewed": ["core.rounds_1t", "core.colors_1t"],
    "d2gc-mesh": ["core.rounds_1t", "core.colors_1t"],
    "shard-2": ["dist.rounds", "dist.messages", "dist.conflicts", "colors"],
}


def fail(msg):
    print(f"selftest: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        fail(f"{' '.join(cmd[1:])} exited {p.returncode}:\n{p.stderr[-3000:]}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["attempted"] < 1:
        fail(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']}")
    return result["metrics"]


def check_names(workload, metrics, wanted):
    units = {m["name"]: m["unit"] for m in wanted}
    got = {k: v["unit"] for k, v in metrics.items()}
    if got != units:
        fail(f"{workload}: metrics {got} differ from BENCHMARK.json {units}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=2.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "metric_map.json")) as f:
        mapped = set(json.load(f)["per_layer"])
    layer_names = {m["name"] for m in bench["per_layer"]}
    if mapped != layer_names:
        fail(f"metric_map.json and BENCHMARK.json differ: {sorted(mapped ^ layer_names)}")

    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    for w in workloads:
        check_names(w, run(w, args.seed, args.seconds, 0), bench["end_to_end"])
        first = run(w, args.seed, args.seconds, 1)
        check_names(w, first, bench["per_layer"])
        # `colors` is end-to-end; compare it from untraced runs.
        counts = [n for n in DETERMINISTIC.get(w, []) if n != "colors"]
        second = run(w, args.seed, args.seconds, 1)
        for name in counts:
            if first[name]["value"] != second[name]["value"]:
                fail(f"{w}: {name} {first[name]['value']} then {second[name]['value']}")
        if "colors" in DETERMINISTIC.get(w, []):
            a = run(w, args.seed, args.seconds, 0)["colors"]["value"]
            b = run(w, args.seed, args.seconds, 0)["colors"]["value"]
            if a != b:
                fail(f"{w}: colors {a} then {b}")
        check_names(w, run(w, args.seed + 1, args.seconds, 1), bench["per_layer"])
        print(f"selftest: {w}: ok ({', '.join(counts) or 'no deterministic counts'})")
    print("selftest: ok")


if __name__ == "__main__":
    main()
