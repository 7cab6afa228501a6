#!/usr/bin/env python3
"""Cumulative perf trajectory from the perfbench pair records.

    scripts/trajectory.py [FILE]

Reads FILE (default BENCH_perfbench.json at the repository root, the JSON
list scripts/pairs.sh appends to) and prints, per workload and end-to-end
metric of BENCHMARK.json, the product of the records' change/parent
median ratios in file order, with the number of records it multiplies.
Each ratio comes from in-session pairs, so the product does not depend on
which host recorded which record. Below 1 a lower-is-better metric has
improved since the first record. Records with no ratio (a zero parent
median) are skipped and not counted. Does no timing.
"""
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv):
    if len(argv) > 2:
        print("usage: scripts/trajectory.py [FILE]", file=sys.stderr)
        return 2
    path = argv[1] if len(argv) == 2 else os.path.join(ROOT, "BENCH_perfbench.json")
    with open(path) as f:
        records = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = [m["name"] for m in json.load(f)["end_to_end"]]

    # workload -> metric -> [product, count], workloads in first-seen order.
    chain = {}
    for rec in records:
        per_metric = chain.setdefault(rec["workload"], {})
        for name in metrics:
            ratio = rec["metrics"].get(name, {}).get("ratio")
            if ratio is None:
                continue
            cell = per_metric.setdefault(name, [1.0, 0])
            cell[0] *= ratio
            cell[1] += 1

    print(f"{'workload':<14} {'metric':<12} {'records':>7} {'cumulative':>10}")
    for workload, per_metric in chain.items():
        for name in metrics:
            if name in per_metric:
                product, count = per_metric[name]
                print(f"{workload:<14} {name:<12} {count:>7} {product:>10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
