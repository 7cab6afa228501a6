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
#   ./scripts/bench.sh --serve    # daemon load test (bench_serve): client
#                                 # threads vs a bounded admission queue;
#                                 # p50/p99 latency, throughput, cache-hit
#                                 # and shed rates -> BENCH_serve.json
#   ./scripts/bench.sh --dist     # sharded-coloring scaling (bench_dist):
#                                 # the coordinator over worker daemons at
#                                 # 1/2/4/8 shards; wall time, rounds and
#                                 # message volume -> BENCH_dist.json
#
# The coloring modes additionally accept, after the mode flag:
#   --kernel scalar|simd|auto     # pin the tier of the first-fit word scan
#                                 # (the only vectorized kernel; the mark
#                                 # and conflict sweeps are always scalar)
#   --pin                         # pin workers core-major (see par::topo)
#   --kernel-sweep                # run the report once per kernel side,
#                                 # writing BENCH_coloring_scalar.json and
#                                 # BENCH_coloring_simd.json for A/B diffs
#   --autotune                    # additionally measure the engine-chosen
#                                 # config per cell and score it against
#                                 # the sweep's oracle best (see
#                                 # scripts/fit_engine.sh)
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
  # (e.g. `bench.sh --autotune`); leave it for the trailing parser.
  --kernel | --pin | --kernel-sweep | --autotune | --delta) MODE_CONSUMED=0 ;;
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
  --serve)
    echo "== cargo build --release --offline -p serve (bench_serve)"
    cargo build --release --offline -p serve --bin bench_serve
    echo "== bench_serve (in-process daemon, bounded queue, mixed clients)"
    ./target/release/bench_serve --out BENCH_serve.json \
      --jobs 48 --clients 4 --distinct 6 --queue-capacity 8 --threads 4
    if command -v python3 >/dev/null 2>&1; then
      python3 -m json.tool BENCH_serve.json >/dev/null
      echo "serve bench JSON parses"
    fi
    echo "bench: OK (wrote BENCH_serve.json)"
    exit 0
    ;;
  --dist)
    echo "== cargo build --release --offline -p dist (bench_dist)"
    cargo build --release --offline -p dist --bin bench_dist
    echo "== bench_dist (coordinator over worker daemons, 1/2/4/8 shards)"
    ./target/release/bench_dist --out BENCH_dist.json
    if command -v python3 >/dev/null 2>&1; then
      python3 -m json.tool BENCH_dist.json >/dev/null
      echo "dist bench JSON parses"
    fi
    echo "bench: OK (wrote BENCH_dist.json)"
    exit 0
    ;;
  "" | --quick) ;;
  *)
    echo "usage: $0 [--quick|--full|--smoke|--trace|--check-deep|--serve|--dist]" \
         "[--kernel K] [--pin] [--kernel-sweep]" >&2
    exit 2
    ;;
esac

# Trailing axis flags for the coloring modes, passed through to
# bench_coloring (the --serve/--check-deep branches exit above and take
# none).
if [[ $# -gt 0 && "$MODE_CONSUMED" == 1 ]]; then shift; fi
KERNEL_FLAGS=()
KERNEL_SWEEP=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --kernel)
      [[ $# -ge 2 ]] || { echo "bench.sh: --kernel needs a value" >&2; exit 2; }
      KERNEL_FLAGS+=("--kernel" "$2")
      shift 2
      ;;
    --pin)
      KERNEL_FLAGS+=("--pin")
      shift
      ;;
    --kernel-sweep)
      KERNEL_SWEEP=1
      shift
      ;;
    --autotune)
      KERNEL_FLAGS+=("--autotune")
      shift
      ;;
    --delta)
      KERNEL_FLAGS+=("--delta")
      shift
      ;;
    *)
      echo "bench.sh: unknown trailing flag \`$1\` (expected --kernel K, --pin," \
           "--kernel-sweep, --autotune, --delta)" >&2
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
  ./target/release/bench_coloring --smoke ${KERNEL_FLAGS[@]+"${KERNEL_FLAGS[@]}"} \
    --out target/BENCH_trace_smoke.json \
    --trace target/BENCH_trace_smoke.trace.json
  echo "== trace_schema_check (chrome-trace schema + imbalance table)"
  ./target/release/trace_schema_check target/BENCH_trace_smoke.trace.json
  echo "bench: OK (wrote target/BENCH_trace_smoke.trace.json)"
  exit 0
fi

if [[ "$KERNEL_SWEEP" == 1 ]]; then
  echo "== bench_coloring kernel sweep: scalar vs simd sides"
  for side in scalar simd; do
    # shellcheck disable=SC2086  # MODE_FLAG is intentionally word-split
    ./target/release/bench_coloring ${MODE_FLAG} --kernel "$side" \
      ${KERNEL_FLAGS[@]+"${KERNEL_FLAGS[@]}"} \
      --out "BENCH_coloring_${side}.json"
  done
  echo "bench: OK (wrote BENCH_coloring_scalar.json, BENCH_coloring_simd.json)"
  exit 0
fi

echo "== bench_coloring ${MODE_FLAG:-(full)}"
# shellcheck disable=SC2086  # MODE_FLAG is intentionally word-split
./target/release/bench_coloring ${MODE_FLAG} ${KERNEL_FLAGS[@]+"${KERNEL_FLAGS[@]}"} \
  --out BENCH_coloring.json

echo "== microbench: forbidden-set representations"
cargo bench --offline -p bench --bench forbidden

echo "== microbench: tracing overhead (on vs off)"
cargo bench --offline -p bench --bench trace_overhead

echo "bench: OK (wrote BENCH_coloring.json)"
