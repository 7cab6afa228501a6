#!/usr/bin/env bash
# Tier-1 verification: hermetic build + tests + lints, fully offline.
# The workspace has zero registry dependencies (see README "Hermetic
# offline build"), so --offline must always succeed.
#
# Each step reports its wall time. The bench-smoke step is additionally
# gated against scripts/verify_baseline.txt: if the smoke run takes more
# than 5x the recorded baseline, verification fails — a coarse tripwire
# for accidental serialization or pathological regressions in the hot
# kernels. Delete the baseline file (or re-record on a new machine) to
# reset it.
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE_FILE="scripts/verify_baseline.txt"
STEP_START=0

step_begin() {
  echo "== $1"
  STEP_START=$(date +%s)
}

step_end() {
  local elapsed=$(( $(date +%s) - STEP_START ))
  echo "-- step '$1' took ${elapsed}s"
  LAST_STEP_SECS=$elapsed
}

step_begin "cargo build --workspace --release --offline"
cargo build --workspace --release --offline
step_end "build"

step_begin "cargo test --workspace -q --offline"
cargo test --workspace -q --offline
step_end "test"

step_begin "cargo clippy --workspace --all-targets --offline -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings
step_end "clippy"

step_begin "cargo doc --workspace --no-deps --offline (RUSTDOCFLAGS=-D warnings)"
# Rustdoc is tier-1: broken intra-doc links or missing docs on public
# items fail verification, keeping the documented observability surface
# in sync with the code.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
step_end "doc"

step_begin "check smoke: interleaving checker + differential oracle"
# Seeded and deterministic: the same CHECK_SEED replays the same virtual
# thread interleavings and the same randomized oracle instances. On
# failure check_smoke prints the replay seed (and, for oracle cases, a
# --replay-case sub-seed) before exiting nonzero.
CHECK_SEED="${CHECK_SEED:-20260806}"
./target/release/check_smoke --seed "$CHECK_SEED" --cases 200
step_end "check-smoke"

step_begin "check smoke: --delta incremental-recoloring differential oracle"
# Randomized mutation batches against randomized base instances, for both
# problems: apply_delta exactness (inserted edges present, deleted absent,
# everything else untouched), dirty-set recoloring verified on the mutated
# graph with no base-vertex degradation, the documented quality bound for
# unbalanced schedules, empty-delta identity, and the one-thread battery
# (determinism, forbidden-set/width equivalence).
./target/release/check_smoke --seed "$CHECK_SEED" --cases 120 --delta
step_end "check-smoke-delta"

step_begin "check smoke: --dist sharded-coloring differential oracle"
# Shard-count (1/2/4/8) × partitioner (block/cyclic/random) sweeps over
# randomized instances, colored through the multi-process coordinator
# against real loopback worker daemons: every run must be non-degraded,
# verify in original vertex ids, stay within the documented quality
# bound, and match the in-process single-node baseline's accounting.
./target/release/check_smoke --seed "$CHECK_SEED" --cases 60 --dist
step_end "check-smoke-dist"

step_begin "bench smoke: bench_coloring --smoke (verifies every coloring)"
# The smoke run exits nonzero if any schedule produces an invalid
# coloring; its JSON goes under target/ so it never clobbers the
# checked-in BENCH_coloring.json from scripts/bench.sh. --trace routes
# one instrumented run through the whole observability pipeline.
./target/release/bench_coloring --smoke --out target/BENCH_smoke.json \
  --trace target/BENCH_smoke.trace.json
if command -v python3 >/dev/null 2>&1; then
  python3 -m json.tool target/BENCH_smoke.json >/dev/null
  echo "bench smoke JSON parses"
else
  # Fallback: the emitted report always ends with a closing brace.
  grep -q '}' target/BENCH_smoke.json
  echo "bench smoke JSON present (python3 unavailable; shallow check)"
fi
# Schema-check the emitted chrome trace and print the smoke run's
# per-thread busy/imbalance table.
./target/release/trace_schema_check target/BENCH_smoke.trace.json
step_end "bench-smoke"
SMOKE_SECS=$LAST_STEP_SECS

# Regression gate: fail when the smoke step runs >5x slower than the
# recorded baseline. The threshold is deliberately loose — it catches
# "the scheduler livelocked" or "a kernel went quadratic", not noise.
if [[ -f "$BASELINE_FILE" ]]; then
  BASELINE_SECS=$(cat "$BASELINE_FILE")
  if [[ "$BASELINE_SECS" =~ ^[0-9]+$ ]] && (( BASELINE_SECS > 0 )); then
    LIMIT=$(( BASELINE_SECS * 5 ))
    if (( SMOKE_SECS > LIMIT )); then
      echo "verify: FAIL — bench smoke took ${SMOKE_SECS}s," \
           "more than 5x the recorded baseline of ${BASELINE_SECS}s" >&2
      echo "(re-record with: echo ${SMOKE_SECS} > ${BASELINE_FILE})" >&2
      exit 1
    fi
    echo "-- bench smoke within budget (${SMOKE_SECS}s <= 5x baseline ${BASELINE_SECS}s)"
  else
    echo "-- ignoring malformed baseline '${BASELINE_SECS}' in ${BASELINE_FILE}" >&2
  fi
else
  # First run on this checkout: record the baseline (floor of 1s so the
  # 5x budget is never zero).
  RECORD=$(( SMOKE_SECS > 0 ? SMOKE_SECS : 1 ))
  echo "$RECORD" > "$BASELINE_FILE"
  echo "-- recorded bench smoke baseline: ${RECORD}s -> ${BASELINE_FILE}"
fi

step_begin "serve smoke: daemon round-trip, kill -9, crash-safe cache recovery"
# End-to-end service hardening check against the real CLI daemon:
#   1. boot `bgpc-cli serve` on an ephemeral port, wait for --addr-file;
#   2. drive mixed priorities/schedules/deadlines through serve_smoke
#      (each returned coloring is re-verified client-side);
#   3. kill -9 the daemon mid-life, restart it on the SAME cache dir;
#   4. re-run the same jobs requiring cache hits — proving the
#      temp-then-rename cache store survived SIGKILL readable — then
#      stop the daemon via the protocol's Shutdown verb.
SERVE_TMP=$(mktemp -d)
SERVE_PID=""
serve_cleanup() {
  [[ -n "$SERVE_PID" ]] && kill -9 "$SERVE_PID" 2>/dev/null || true
  rm -rf "$SERVE_TMP"
}
trap serve_cleanup EXIT

serve_start() {
  rm -f "$SERVE_TMP/addr"
  ./target/release/bgpc-cli serve --addr 127.0.0.1:0 \
    --addr-file "$SERVE_TMP/addr" --cache-dir "$SERVE_TMP/cache" \
    --threads 2 --queue-capacity 16 &
  SERVE_PID=$!
  for _ in $(seq 1 100); do
    [[ -s "$SERVE_TMP/addr" ]] && return 0
    if ! kill -0 "$SERVE_PID" 2>/dev/null; then
      echo "verify: FAIL — serve daemon exited before binding" >&2
      exit 1
    fi
    sleep 0.1
  done
  echo "verify: FAIL — serve daemon never wrote its address file" >&2
  exit 1
}

serve_start
# --updates sends edge deltas against just-submitted patterns and requires
# each to be served from the reused cache entry (incremental dirty-set
# recolor seeded from the cached base coloring).
./target/release/serve_smoke "$(cat "$SERVE_TMP/addr")" --jobs 12 --seed 1 --updates 3
echo "-- kill -9 the daemon (crash-consistency check)"
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
serve_start
# Same seed ⇒ same fingerprints ⇒ the SIGKILLed store must serve hits;
# the repeated updates now hit the mutated-fingerprint entries stored by
# the first run's update phase.
./target/release/serve_smoke "$(cat "$SERVE_TMP/addr")" --jobs 12 --seed 1 \
  --updates 3 --require-cache-hits --shutdown
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
trap - EXIT
serve_cleanup
step_end "serve-smoke"

step_begin "shard smoke: 2-worker sharded coloring, worker kill, degraded fallback"
# End-to-end check of the multi-process sharded path against real worker
# processes:
#   1. boot two `bgpc-cli serve` workers on ephemeral ports;
#   2. run `bgpc-cli shard` against them and require a clean (verified,
#      non-degraded) two-shard result;
#   3. kill -9 one worker and re-run — the coordinator must drop the dead
#      shard, still produce a verified coloring, and tag the result with
#      a greppable `degraded:` line while exiting 0.
SHARD_TMP=$(mktemp -d)
SHARD_PIDS=()
shard_cleanup() {
  for p in "${SHARD_PIDS[@]:-}"; do kill -9 "$p" 2>/dev/null || true; done
  rm -rf "$SHARD_TMP"
}
trap shard_cleanup EXIT
for i in 0 1; do
  ./target/release/bgpc-cli serve --addr 127.0.0.1:0 \
    --addr-file "$SHARD_TMP/addr$i" --cache-dir "$SHARD_TMP/cache$i" \
    --threads 1 &
  SHARD_PIDS+=($!)
done
for i in 0 1; do
  for _ in $(seq 1 100); do
    [[ -s "$SHARD_TMP/addr$i" ]] && break
    sleep 0.1
  done
  if [[ ! -s "$SHARD_TMP/addr$i" ]]; then
    echo "verify: FAIL — shard worker $i never wrote its address file" >&2
    exit 1
  fi
done
WORKERS="$(cat "$SHARD_TMP/addr0"),$(cat "$SHARD_TMP/addr1")"
CLEAN_OUT=$(./target/release/bgpc-cli shard --workers "$WORKERS" \
  --dataset coPapersDBLP --scale 0.002 --partition cyclic)
echo "$CLEAN_OUT" | grep -q "workers=2/2 .* verified=true" \
  || { echo "verify: FAIL — clean sharded run did not verify on 2/2 workers" >&2; exit 1; }
if echo "$CLEAN_OUT" | grep -q "^degraded:"; then
  echo "verify: FAIL — clean sharded run reported a degrade" >&2
  exit 1
fi
echo "-- kill -9 one shard worker (degraded-fallback check)"
kill -9 "${SHARD_PIDS[1]}"
wait "${SHARD_PIDS[1]}" 2>/dev/null || true
DEGRADED_OUT=$(./target/release/bgpc-cli shard --workers "$WORKERS" \
  --dataset coPapersDBLP --scale 0.002 --partition cyclic)
echo "$DEGRADED_OUT" | grep -q "verified=true" \
  || { echo "verify: FAIL — degraded sharded run produced no verified coloring" >&2; exit 1; }
echo "$DEGRADED_OUT" | grep -q "^degraded:" \
  || { echo "verify: FAIL — dead worker was not reported on a degraded: line" >&2; exit 1; }
echo "-- degraded run stayed valid: $(echo "$DEGRADED_OUT" | grep "^degraded:")"
trap - EXIT
shard_cleanup
step_end "shard-smoke"

echo "verify: OK"
