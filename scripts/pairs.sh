#!/usr/bin/env bash
# Alternating perfbench pairs between two commits.
#
#   scripts/pairs.sh PARENT CHANGE [--workloads a,b,...] [--pairs N]
#                    [--seconds S] [--seed FIRST] [--dir DIR] [--out FILE]
#
# Unpacks PARENT and CHANGE with `git archive` into fresh directories
# (DIR/parent and DIR/change; DIR defaults to a new temporary directory,
# removed at exit), builds perfbench in each with RUSTFLAGS unset (so the
# `.cargo/config.toml` loop alignment applies to both), then runs
# `python3 perfbench/run.py` on each side for seeds FIRST .. FIRST+N-1.
# The side that runs first alternates by seed. Every run's result line is
# kept in DIR/runs.jsonl.
#
# Prints, per workload, each end-to-end metric of BENCHMARK.json as
# median [q1, q3] on both sides, the change's relative gap, how many
# pairs the change won (ties count for neither side) and a verdict, then
# every run. The verdict is the first that applies of:
#   gain          the change won at least 9/10 of the pairs and the
#                 medians differ by more than the parent's IQR;
#   worse         the change's median is worse than the parent's by more
#                 than the metric's BENCHMARK.json bound;
#   unresolved    the parent's IQR/median exceeds the bound and not every
#                 change run reads better than every parent run;
#   within bound  otherwise.
# Appends one record per workload to FILE (default BENCH_perfbench.json
# at the repository root, a JSON list): both commits, nproc, the CPU
# model, the ISA features perfbench reports, the seeds and run length,
# and per metric both sides' medians and quartiles, their ratio, the
# pair wins and the verdict.
#
# Defaults: every workload of BENCHMARK.json, 10 pairs, BENCHMARK.json's
# run_seconds, first seed 1. It reads perfbench/ and BENCHMARK.json and
# edits neither.
set -euo pipefail
ROOT="$(cd "$(dirname "$0")/.." && pwd)"

usage() {
  sed -n '4,5p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
}

[[ $# -ge 2 ]] || usage
PARENT=$(git -C "$ROOT" rev-parse --verify "$1^{commit}")
CHANGE=$(git -C "$ROOT" rev-parse --verify "$2^{commit}")
shift 2
WORKLOADS="" PAIRS=10 SECONDS_PER_RUN="" SEED=1 DIR="" OUT="$ROOT/BENCH_perfbench.json"
while [[ $# -gt 0 ]]; do
  [[ $# -ge 2 ]] || usage
  case "$1" in
    --workloads) WORKLOADS=$2 ;;
    --pairs) PAIRS=$2 ;;
    --seconds) SECONDS_PER_RUN=$2 ;;
    --seed) SEED=$2 ;;
    --dir) DIR=$2 ;;
    --out) OUT=$2 ;;
    *) usage ;;
  esac
  shift 2
done
[[ "$PAIRS" =~ ^[1-9][0-9]*$ && "$SEED" =~ ^[0-9]+$ ]] || usage
BENCH="$ROOT/BENCHMARK.json"
if [[ -z "$WORKLOADS" ]]; then
  WORKLOADS=$(python3 -c 'import json,sys; print(",".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$BENCH")
fi
if [[ -z "$SECONDS_PER_RUN" ]]; then
  SECONDS_PER_RUN=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$BENCH")
fi

if [[ -z "$DIR" ]]; then
  DIR=$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")
  trap 'rm -rf "$DIR"' EXIT
fi
for side in parent change; do
  if [[ -e "$DIR/$side" ]]; then
    echo "pairs: $DIR/$side already exists" >&2
    exit 2
  fi
done

unset RUSTFLAGS
for side in parent change; do
  commit=$PARENT
  [[ $side == change ]] && commit=$CHANGE
  mkdir -p "$DIR/$side"
  git -C "$ROOT" archive "$commit" | tar -x -C "$DIR/$side"
  echo "== building perfbench at ${commit:0:7} ($side)" >&2
  (cd "$DIR/$side" && CARGO_TARGET_DIR=.bench_build \
    cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml)
done

RUNS="$DIR/runs.jsonl"
: > "$RUNS"
ISA=""
IFS=, read -r -a WL <<< "$WORKLOADS"
for ((i = 0; i < PAIRS; i++)); do
  seed=$((SEED + i))
  order=(parent change)
  ((i % 2)) && order=(change parent)
  for w in "${WL[@]}"; do
    for side in "${order[@]}"; do
      echo "== $w seed $seed $side (${order[0]} first)" >&2
      out=$(cd "$DIR/$side" && CARGO_TARGET_DIR=.bench_build \
        python3 perfbench/run.py --workload "$w" --seed "$seed" \
        --seconds "$SECONDS_PER_RUN" --trace 0) || true
      line=$(tail -n 1 <<< "$out")
      [[ "$line" == "{"* ]] || line='{"correct": false}'
      [[ -n "$ISA" ]] || ISA=$(sed -n 's/.* isa=\([^ ]*\) .*/\1/p' <<< "$out" | head -n 1)
      printf '{"workload": "%s", "seed": %d, "side": "%s", "first": "%s", "result": %s}\n' \
        "$w" "$seed" "$side" "${order[0]}" "$line" >> "$RUNS"
    done
  done
done

CPU=$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo 2>/dev/null | head -n 1)
python3 - "$RUNS" "$BENCH" "$OUT" "$PARENT" "$CHANGE" "$(nproc)" "$CPU" "$ISA" \
  "$SECONDS_PER_RUN" <<'EOF'
import json, statistics, sys

runs_path, bench_path, out_path, parent, change, nproc, cpu, isa, seconds = sys.argv[1:]
runs = [json.loads(l) for l in open(runs_path)]
bench = json.load(open(bench_path))
metrics = bench["end_to_end"]


def value(run, name):
    m = run["result"].get("metrics", {}).get(name)
    return None if m is None else m["value"]


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return med, q1, q3


def fmt(x):
    return f"{x:.4g}"


def verdict(ps, cs, pairs, wins, bound, higher):
    (pm, pq1, pq3), (cm, _, _) = quartiles(ps), quartiles(cs)
    sign = -1 if higher else 1  # > 0: the change reads worse
    if 10 * wins >= 9 * pairs and sign * (pm - cm) > pq3 - pq1:
        return "gain"
    if sign * (cm - pm) > bound * abs(pm):
        return "worse"
    beats_all = max(cs) < min(ps) if not higher else min(cs) > max(ps)
    if pq3 - pq1 > bound * abs(pm) and not beats_all:
        return "unresolved"
    return "within bound"


records = []
for w in dict.fromkeys(r["workload"] for r in runs):
    seeds = sorted({r["seed"] for r in runs if r["workload"] == w})
    side = {
        (r["seed"], r["side"]): r for r in runs if r["workload"] == w
    }
    print(f"\n### {w}: {len(seeds)} pairs, seeds {seeds[0]}-{seeds[-1]}, {seconds} s runs\n")
    print("| workload | metric | parent | change | change | change better | verdict |")
    print("|---|---|---|---|---|---|---|")
    rec = {
        "workload": w,
        "parent": parent,
        "change": change,
        "nproc": int(nproc),
        "cpu": cpu,
        "isa": isa,
        "seeds": seeds,
        "seconds": float(seconds),
        "failed_runs": sum(not r["result"].get("correct", False) for r in side.values()),
        "metrics": {},
    }
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        pairs = [
            (value(side[(s, "parent")], name), value(side[(s, "change")], name))
            for s in seeds
            if (s, "parent") in side and (s, "change") in side
        ]
        pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
        if not pairs:
            continue
        ps, cs = [p for p, _ in pairs], [c for _, c in pairs]
        (pm, pq1, pq3), (cm, cq1, cq3) = quartiles(ps), quartiles(cs)
        wins = sum((c > p) if higher else (c < p) for p, c in pairs)
        ties = sum(c == p for p, c in pairs)
        gap = "0" if cm == pm else f"{100 * (cm - pm) / pm:+.1f}%" if pm else "n/a"
        tie_note = f" ({ties} ties)" if ties else ""
        v = verdict(ps, cs, len(pairs), wins, m["bound"], higher)
        print(
            f"| {w} | `{name}` | {fmt(pm)} [{fmt(pq1)}, {fmt(pq3)}] | "
            f"{fmt(cm)} [{fmt(cq1)}, {fmt(cq3)}] | {gap} | {wins}/{len(pairs)}{tie_note} | {v} |"
        )
        rec["metrics"][name] = {
            "parent": {"median": pm, "q1": pq1, "q3": pq3},
            "change": {"median": cm, "q1": cq1, "q3": cq3},
            "ratio": cm / pm if pm else None,
            "change_better": wins,
            "ties": ties,
            "pairs": len(pairs),
            "verdict": v,
        }
    print("\n| seed | first | " + " | ".join(f"`{m['name']}` parent / change" for m in metrics) + " |")
    print("|---|---|" + "---|" * len(metrics))
    for s in seeds:
        p, c = side.get((s, "parent")), side.get((s, "change"))
        if p is None or c is None:
            continue
        cells = []
        for m in metrics:
            a, b = value(p, m["name"]), value(c, m["name"])
            cells.append("–" if a is None or b is None else f"{fmt(a)} / {fmt(b)}")
        print(f"| {s} | {p['first']} | " + " | ".join(cells) + " |")
    records.append(rec)

try:
    with open(out_path) as f:
        history = json.load(f)
except FileNotFoundError:
    history = []
history.extend(records)
with open(out_path, "w") as f:
    json.dump(history, f, indent=1)
    f.write("\n")
print(f"\nappended {len(records)} record(s) to {out_path}")
EOF
