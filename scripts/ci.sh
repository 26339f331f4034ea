#!/usr/bin/env bash
# Local CI: exactly the gates a change must pass before merging.
#
#   scripts/ci.sh
#
# Runs the offline-friendly default build (no criterion), the full test
# suite plus doctests twice (auto-detected kernel backend, then
# SPP_KERNEL=scalar), the fault-injection suite under --features
# failpoints (with explicit poison-recovery gates), clippy and rustdoc
# with warnings denied, a compile check of the feature-gated Criterion
# bench targets, CLI smokes of the deadline- and memory-degradation
# paths (the rung ladder alone and nested inside the form race), an adr4
# smoke that every cover is proved optimal, adr4 smokes of the 2-SPP,
# SPP_k heuristic and multi-output modes, a --cache-dir
# round-trip smoke, a two-process shared --cache-dir
# smoke (concurrent writers, bit-identical answers), a serve smoke
# (daemon up, spp-loadgen drive, SIGINT drain), jq gates on the
# spp-bench/8 baseline including its kernel_backend, cache-stats,
# per-entry forms races,
# server, and incremental (delta-splice) fields, and — last, because it
# rebuilds the release binaries with --features failpoints — a chaos
# smoke that drives a daemon whose workers panic after every job and
# gates on zero lost and zero unverified responses.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q (auto-detected kernel backend)"
cargo test --workspace -q

echo "==> SPP_KERNEL=scalar cargo test -q (scalar backend must pass identically)"
SPP_KERNEL=scalar cargo test --workspace -q

echo "==> cargo test --doc (documentation examples must compile AND run)"
cargo test --workspace --doc -q

echo "==> cargo test --features failpoints (fault-injection suite)"
cargo test --features failpoints -q --test failpoints
cargo test -p spp-core --features failpoints -q
cargo test -p spp-cover --features failpoints -q

echo "==> cargo test -p spp-serve --features failpoints --test chaos (chaos suite)"
cargo test -p spp-serve --features failpoints -q --test chaos

echo "==> poison-recovery gates (must exist AND pass, not be filtered away)"
# grep reads the whole stream (no -q) so cargo never dies on SIGPIPE
# under pipefail.
cargo test --features failpoints --test failpoints \
  shard_panic_while_holding_the_lock_is_recovered 2>&1 | grep "1 passed" >/dev/null
cargo test -p spp-obs -q json_sink_survives_poisoning 2>&1 | grep "1 passed" >/dev/null
cargo test -p spp-cover --features failpoints -q \
  injected_subtree_panic_keeps_the_incumbent 2>&1 | grep "1 passed" >/dev/null

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (warnings denied, workspace crates only)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet \
  --exclude criterion --exclude proptest --exclude rand

echo "==> cargo check benches (criterion-benches feature)"
cargo check -p spp-bench --benches --features criterion-benches

echo "==> CLI deadline smoke (--deadline-ms 1 must degrade, not break)"
./target/release/spp bench life --deadline-ms 1 --quiet | grep -q "deadline_exceeded"

echo "==> CLI optimality smoke (the covering lower bound proves every adr4 output)"
ADR4_OUT=$(./target/release/spp bench adr4 --threads 1 --quiet)
grep -q "^adr4\[4\]" <<<"$ADR4_OUT"
if grep -F "[upper bound]" <<<"$ADR4_OUT"; then
  echo "ci: adr4 covers were not all proved optimal" >&2
  exit 1
fi

echo "==> CLI 2-SPP / heuristic / multi-output smokes (the shared SPP pipeline)"
# 2-SPP runs the Algorithm-2 session on the width-2 family; its covers
# must all be proved optimal too.
TWO_SPP_OUT=$(./target/release/spp bench adr4 --2spp --threads 1 --quiet)
TWO_SPP_LINES=$(grep -c "^adr4\[[0-4]\]: 2-SPP " <<<"$TWO_SPP_OUT" || true)
if [ "$TWO_SPP_LINES" -ne 5 ]; then
  echo "ci: expected 5 2-SPP lines, got $TWO_SPP_LINES" >&2
  exit 1
fi
if grep -F "[upper bound]" <<<"$TWO_SPP_OUT"; then
  echo "ci: adr4 2-SPP covers were not all proved optimal" >&2
  exit 1
fi
HEURISTIC_LINES=$(./target/release/spp bench adr4 --heuristic 0 --threads 1 --quiet \
  | grep -c "^adr4\[[0-4]\]: SPP_k " || true)
if [ "$HEURISTIC_LINES" -ne 5 ]; then
  echo "ci: expected 5 SPP_k lines, got $HEURISTIC_LINES" >&2
  exit 1
fi
./target/release/spp bench adr4 --multi --threads 1 --quiet | grep "^multi-output SPP:" >/dev/null

echo "==> CLI memory smoke (--mem-budget-mb 1 must land on a lower rung)"
./target/release/spp bench adr4 --mem-budget-mb 1 --quiet --threads 2 \
  | grep -E "rung|SP fallback" >/dev/null

echo "==> CLI portfolio memory smoke (the ladder nested in the race, under --mem-budget-mb 1)"
RACE_OUT=$(./target/release/spp bench adr4 --form portfolio --mem-budget-mb 1 --threads 1 --quiet)
grep -q "^portfolio winner: " <<<"$RACE_OUT"
RACE_COMPLETED=$(grep -cE "^  (spp|esop|dsop|sop) +completed: cost [0-9]+" <<<"$RACE_OUT" || true)
if [ "$RACE_COMPLETED" -ne 4 ]; then
  echo "ci: expected 4 completed scoreboard lines, got $RACE_COMPLETED" >&2
  exit 1
fi

echo "==> CLI cache smoke (second identical --cache-dir run must hit)"
rm -rf /tmp/spp-ci-cache
./target/release/spp bench life --cache-dir /tmp/spp-ci-cache --quiet >/dev/null
./target/release/spp bench life --cache-dir /tmp/spp-ci-cache --quiet \
  | grep -E "cache: [1-9][0-9]* hits" >/dev/null
rm -rf /tmp/spp-ci-cache

echo "==> multi-process cache smoke (two concurrent spp processes, one --cache-dir)"
rm -rf /tmp/spp-ci-shared-cache
./target/release/spp bench adr4 --cache-dir /tmp/spp-ci-shared-cache \
  >/tmp/spp-ci-shared-a.out &
SHARED_A=$!
./target/release/spp bench adr4 --cache-dir /tmp/spp-ci-shared-cache \
  >/tmp/spp-ci-shared-b.out &
SHARED_B=$!
wait "$SHARED_A"
wait "$SHARED_B"
# Bit-identical answers, whichever process won each cache race (only the
# run-local cache-stats line may differ).
diff <(grep -v '^cache:' /tmp/spp-ci-shared-a.out) \
     <(grep -v '^cache:' /tmp/spp-ci-shared-b.out)
# A third process answers from the shared disk tier.
./target/release/spp bench adr4 --cache-dir /tmp/spp-ci-shared-cache --quiet \
  | grep -E "cache: [1-9][0-9]* hits" >/dev/null
rm -rf /tmp/spp-ci-shared-cache /tmp/spp-ci-shared-a.out /tmp/spp-ci-shared-b.out

echo "==> serve smoke (daemon answers spp-loadgen, SIGINT drains cleanly)"
./target/release/spp serve --addr 127.0.0.1:17341 --workers 2 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
sleep 0.5
./target/release/spp-loadgen --addr 127.0.0.1:17341 \
  --concurrency 32 --requests 128 --vars 5 --keys 8 --json \
  | jq -e '.errors == 0 and .completed == 128 and .verified == 128' >/dev/null
# SIGINT must drain and exit 0, not abort.
kill -INT "$SERVE_PID"
wait "$SERVE_PID"
trap - EXIT

echo "==> bench schema smoke (report --json must emit spp-bench/8 + backend + cache + server stats)"
rm -rf /tmp/spp-ci-bench-cache
./target/release/report --json --threads 1 --cache-dir /tmp/spp-ci-bench-cache \
  -o /tmp/spp-ci-bench.json >/dev/null
jq -e '.schema == "spp-bench/8"' /tmp/spp-ci-bench.json >/dev/null
# The server section: a real 1k-concurrency loadgen run, never dropped
# or unverified requests, with latency and throughput fields populated.
jq -e '.server | .concurrency >= 1024 and .errors == 0 and
       .completed == .requests and .verified == .completed and
       .p50_ms > 0 and .p99_ms >= .p50_ms and .throughput_rps > 0 and
       .cache_hit_rate != null' /tmp/spp-ci-bench.json >/dev/null
# The dispatched kernel backend must be recorded and be a known name.
jq -e '.kernel_backend | IN("scalar", "avx2", "neon")' /tmp/spp-ci-bench.json >/dev/null
# Every cache-stats field of the schema must be present.
jq -e '.cache | has("hits") and has("misses") and has("disk_hits") and
       has("insertions") and has("evictions") and has("corrupt_skipped") and
       has("quarantined") and has("warm_starts") and has("entries") and
       has("bytes")' \
  /tmp/spp-ci-bench.json >/dev/null
# The caching run must actually have cached something...
jq -e '.cache.insertions >= 1 and .cache.hits >= 1' /tmp/spp-ci-bench.json >/dev/null
# ...and every cache-warmed re-generation must be far cheaper than cold.
jq -e '[.entries[] | select(.warm_wall_ms != null) | .warm_wall_ms / .wall_ms_min]
       | length >= 1 and max < 0.1' /tmp/spp-ci-bench.json >/dev/null
# Every entry carries the generation-phase split and its probe's delta
# counters (spp-bench/7 fields).
jq -e '[.entries[] | has("gen_ms") and has("delta_reuses") and has("delta_rejects")]
       | all' /tmp/spp-ci-bench.json >/dev/null
# Every entry carries the four-form race (spp-bench/8): a winner from the
# known set, each form reported, and the winner's cost is <= every
# verified entrant's cost -- the race invariant, checked on real circuits.
jq -e '[.entries[] | .forms
       | (.winner | IN("spp", "esop", "dsop", "sop"))
         and has("spp") and has("esop") and has("dsop") and has("sop")
         and ([.winner_cost as $w | (.spp, .esop, .dsop, .sop)
               | select(.cost != null) | .cost >= $w] | all)]
       | all' /tmp/spp-ci-bench.json >/dev/null
# The SPP entrant must compete in every golden-registry race (the
# winner can never cost more than a verified SPP form).
jq -e '[.entries[] | .forms | .winner_cost <= .spp.cost] | all'   /tmp/spp-ci-bench.json >/dev/null
# The incremental probe: every row's one-minterm edit must be answered by
# a delta splice (no rejects), the spliced generation phase must be an
# order of magnitude cheaper than cold, end-to-end latency must improve
# in aggregate, and the best cover-light row must gain >= 10x end-to-end.
jq -e '.incremental | .delta_reuses >= 5 and .delta_rejects == 0 and
       .gen_speedup >= 8 and .speedup >= 2 and .best_speedup >= 10' \
  /tmp/spp-ci-bench.json >/dev/null
rm -rf /tmp/spp-ci-bench.json /tmp/spp-ci-bench-cache

echo "==> chaos smoke (failpoints build: panicking workers, zero lost responses)"
# Last gate: this rebuild bakes --features failpoints into the release
# binaries, so nothing after it may assume a production build.
cargo build --release --workspace --features failpoints
SPP_FAILPOINTS="serve.worker=panic:chaos-kill" \
  ./target/release/spp serve --addr 127.0.0.1:17342 --workers 2 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
sleep 0.5
# Every worker dies after every job; the supervisor restarts them and
# not a single request may be lost, unanswered, or unverified.
./target/release/spp-loadgen --addr 127.0.0.1:17342 \
  --concurrency 8 --requests 48 --vars 5 --keys 8 \
  --timeout-ms 60000 --retries 2 --json \
  | jq -e '.errors == 0 and .timeouts == 0 and .completed == 48 and
           .verified == 48' >/dev/null
# The drain still works on a daemon that has been restarting workers.
kill -INT "$SERVE_PID"
wait "$SERVE_PID"
trap - EXIT

echo "ci: all gates passed"
