#!/usr/bin/env bash
# Deterministic quick-mode benchmark run: forbidden-set microbench plus
# end-to-end schedule timings on the synthetic dataset registry, written
# to BENCH_coloring.json at the repo root.
#
#   ./scripts/bench.sh            # quick mode (default)
#   ./scripts/bench.sh --full     # larger scale, more threads/reps
#   ./scripts/bench.sh --smoke    # seconds-long pipeline exercise
#   ./scripts/bench.sh --trace    # smoke run + chrome-trace export,
#                                 # schema-checked; report/trace go under
#                                 # target/ (does not touch the checked-in
#                                 # BENCH_coloring.json)
#   ./scripts/bench.sh --check-deep  # long randomized concurrency-checker
#                                 # and differential-oracle sweep (no
#                                 # benchmarks; see crates/check)
#
# The daemon and the shard coordinator are timed by perfbench
# (`python3 perfbench/run.py`, workloads serve-mixed and shard-2); the
# shard-count axis is `repro dist`.
#
# The coloring modes additionally accept, after the mode flag:
#   --pin                         # pin workers core-major (see par::topo)
#   --delta                       # additionally measure incremental
#                                 # update batches (apply_delta + dirty-set
#                                 # recolor) against full recolor on the
#                                 # power-law analogue
#
# Instances are generated from the in-repo synthetic registry with a
# fixed seed, so consecutive runs time identical work. Every coloring is
# verified; an invalid coloring fails the run.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE_FLAG="--quick"
TRACE_MODE=0
MODE_CONSUMED=1
case "${1:-}" in
  # A trailing axis flag in first position means quick mode was implied
  # (e.g. `bench.sh --delta`); leave it for the trailing parser.
  --pin | --delta) MODE_CONSUMED=0 ;;
  --full) MODE_FLAG="" ;;
  --smoke) MODE_FLAG="--smoke" ;;
  --trace)
    MODE_FLAG="--smoke"
    TRACE_MODE=1
    ;;
  --check-deep)
    echo "== cargo build --release --offline -p check (check_smoke)"
    cargo build --release --offline -p check --bin check_smoke
    echo "== check_smoke --deep (long randomized sweep; CHECK_SEED=${CHECK_SEED:-20260806})"
    ./target/release/check_smoke --deep --seed "${CHECK_SEED:-20260806}" --cases 2000
    echo "bench: OK (deep check clean)"
    exit 0
    ;;
  "" | --quick) ;;
  *)
    echo "usage: $0 [--quick|--full|--smoke|--trace|--check-deep]" \
         "[--pin] [--delta]" >&2
    exit 2
    ;;
esac

# Trailing axis flags for the coloring modes, passed through to
# bench_coloring (the --check-deep branch exits above and takes none).
if [[ $# -gt 0 && "$MODE_CONSUMED" == 1 ]]; then shift; fi
AXIS_FLAGS=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --pin | --delta)
      AXIS_FLAGS+=("$1")
      shift
      ;;
    *)
      echo "bench.sh: unknown trailing flag \`$1\` (expected --pin, --delta)" >&2
      exit 2
      ;;
  esac
done

echo "== cargo build --release --offline -p bench (bench_coloring)"
cargo build --release --offline -p bench --bin bench_coloring

# Stamp the report with provenance so a checked-in BENCH_coloring.json is
# traceable to the tree and machine that produced it. bench_coloring reads
# these and falls back to "unknown" when run by hand.
BENCH_GIT_SHA="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
BENCH_HOSTNAME="$(hostname 2>/dev/null || echo unknown)"
BENCH_NPROC="$(nproc 2>/dev/null || echo unknown)"
export BENCH_GIT_SHA BENCH_HOSTNAME
echo "== provenance: sha=${BENCH_GIT_SHA} host=${BENCH_HOSTNAME} threads=${BENCH_NPROC}"

if [[ "$TRACE_MODE" == 1 ]]; then
  echo "== bench_coloring --smoke --trace (observability smoke)"
  cargo build --release --offline -p trace --bin trace_schema_check
  ./target/release/bench_coloring --smoke ${AXIS_FLAGS[@]+"${AXIS_FLAGS[@]}"} \
    --out target/BENCH_trace_smoke.json \
    --trace target/BENCH_trace_smoke.trace.json
  echo "== trace_schema_check (chrome-trace schema + imbalance table)"
  ./target/release/trace_schema_check target/BENCH_trace_smoke.trace.json
  echo "bench: OK (wrote target/BENCH_trace_smoke.trace.json)"
  exit 0
fi

echo "== bench_coloring ${MODE_FLAG:-(full)}"
# shellcheck disable=SC2086  # MODE_FLAG is intentionally word-split
./target/release/bench_coloring ${MODE_FLAG} ${AXIS_FLAGS[@]+"${AXIS_FLAGS[@]}"} \
  --out BENCH_coloring.json

echo "== microbench: forbidden-set representations"
cargo bench --offline -p bench --bench forbidden

echo "== microbench: tracing overhead (on vs off)"
cargo bench --offline -p bench --bench trace_overhead

echo "bench: OK (wrote BENCH_coloring.json)"
