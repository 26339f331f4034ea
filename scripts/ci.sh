#!/usr/bin/env bash
# Local CI: exactly the gates a change must pass before merging.
#
#   scripts/ci.sh
#
# Runs the offline-friendly default build (no criterion), the full test
# suite plus doctests, the fault-injection suite under --features
# failpoints (with explicit panic-isolation and poison-recovery gates),
# clippy and rustdoc with warnings denied, a compile check of the
# feature-gated Criterion bench targets, CLI smokes of the deadline- and
# memory-degradation paths (the rung ladder alone and nested inside the
# form race), a maj5 smoke that a proved SPP minimum skips the DSOP and
# SOP entrants of the form race, an adr4 smoke that every cover is proved optimal, a
# determinism smoke (two --threads 1 runs of adr4, root and maj5,
# diffed), a
# thread-count smoke (adr4, dist, g2b8, adr4 --2spp, adr4 --heuristic 0
# and test1 --heuristic 0 at --threads 1 and 2, diffed), adr4 smokes of the
# 2-SPP, SPP_k heuristic and multi-output modes, a Table 2 drift check
# (the comparison counts of results_table2.txt), a --cache-dir
# round-trip smoke, a two-process shared --cache-dir smoke (concurrent
# writers, bit-identical answers), a serve smoke (daemon up, spp-loadgen
# drive, SIGINT drain), jq gates on cache_probe's delta-splice and
# warm-hit timings, and — last, because it rebuilds the
# release binaries with --features failpoints — a chaos smoke that
# drives a daemon whose workers panic after every job and gates on zero
# lost and zero unverified responses.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test --workspace -q

echo "==> cargo test --doc (documentation examples must compile AND run)"
cargo test --workspace --doc -q

echo "==> cargo test --features failpoints (fault-injection suite)"
cargo test --features failpoints -q --test failpoints
cargo test -p spp-core --features failpoints -q
cargo test -p spp-cover --features failpoints -q

echo "==> cargo test -p spp-serve --features failpoints --test chaos (chaos suite)"
cargo test -p spp-serve --features failpoints -q --test chaos

echo "==> panic-isolation and poison-recovery gates (must exist AND pass, not be filtered away)"
# grep reads the whole stream (no -q) so cargo never dies on SIGPIPE
# under pipefail.
cargo test --features failpoints --test failpoints \
  open_sweep_worker_panic_mid_level_is_isolated 2>&1 | grep "1 passed" >/dev/null
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

echo "==> CLI determinism smoke (two --threads 1 runs: identical answers and events)"
# root[3]'s generation stops on the union budget mid-level, so the set it
# keeps depends on the order in which the one-worker sweep visits pairs.
# maj5[0]'s 1,190-node proof is the registry cover where reduced-cost
# fixing runs at most nodes, so its node counts and subtree events pin
# the fixing to the state and the warm start alone (about 10 ms a run).
for BENCH in adr4 root maj5; do
  for RUN in a b; do
    ./target/release/spp bench "$BENCH" --threads 1 --quiet \
      --events-json "/tmp/spp-ci-det-$RUN.events" >"/tmp/spp-ci-det-$RUN.out"
    sed -E -i 's/"wall_ms":[0-9.]+/"wall_ms":0/g' "/tmp/spp-ci-det-$RUN.events"
  done
  diff /tmp/spp-ci-det-a.out /tmp/spp-ci-det-b.out
  diff /tmp/spp-ci-det-a.events /tmp/spp-ci-det-b.events
done
rm -f /tmp/spp-ci-det-a.out /tmp/spp-ci-det-b.out /tmp/spp-ci-det-a.events /tmp/spp-ci-det-b.events

echo "==> CLI thread-count smoke (--threads 1 and 2: identical answers and events)"
# Every run is complete, so generation (one or two workers recording
# union keys, with no lock) must be bit-identical. adr4 --2spp calls the
# conforming predicate on closed levels; the --heuristic 0 runs sweep open
# levels, where every pair records its union and each worker folds the
# keys into distinct unions: adr4's 58 pairs name 50 unions, test1's
# 3,374 name 1,362. At 2 workers g2b8's degree-0 run is split into units
# on both workers, so the merge must put each group's keys back in
# planned unit order. The covering branch and bound's per-subtree and
# improvement events interleave across its workers, so those lines are
# left out of the event diff. A proved-optimal cover's cover_finished
# node count can also differ at 2 workers (root --heuristic 2 gave 93
# and 61 nodes in two runs of one binary), so no further run whose
# proofs take more than one node should join this loop (dist's 884- and
# 3,401-node proofs have held so far); g2b8's covers take one node each.
for ARGS in "adr4" "dist" "g2b8" "adr4 --2spp" "adr4 --heuristic 0" "test1 --heuristic 0"; do
  for T in 1 2; do
    # shellcheck disable=SC2086 # $ARGS is a bench name plus its flags
    ./target/release/spp bench $ARGS --threads "$T" --quiet \
      --events-json "/tmp/spp-ci-thr-$T.events" >"/tmp/spp-ci-thr-$T.out"
    sed -E -i -e 's/"wall_ms":[0-9.]+/"wall_ms":0/g' \
      -e '/"event":"cover_(subtree_started|subtree_finished|improved)"/d' \
      "/tmp/spp-ci-thr-$T.events"
  done
  diff /tmp/spp-ci-thr-1.out /tmp/spp-ci-thr-2.out
  diff /tmp/spp-ci-thr-1.events /tmp/spp-ci-thr-2.events
done
rm -f /tmp/spp-ci-thr-1.out /tmp/spp-ci-thr-2.out /tmp/spp-ci-thr-1.events /tmp/spp-ci-thr-2.events

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

echo "==> Table 2 drift check (comparison counts match results_table2.txt)"
# Comparisons are counted, not timed, so they do not depend on the
# machine or the thread count. The #L, time and speedup columns are
# masked, and starred rows (stopped by a budget) are left out.
table2_counts() {
  awk -F'|' '/^[a-z0-9]+\([0-9]+\) +\|/ && $4 !~ /\*/ { gsub(/ +/, " ", $3); print $1 "|" $3 }' "$1"
}
./target/release/table2 >/tmp/spp-ci-table2.txt
TABLE2_ROWS=$(table2_counts results_table2.txt | wc -l)
if [ "$TABLE2_ROWS" -lt 10 ]; then
  echo "ci: expected at least 10 unstarred rows in results_table2.txt, got $TABLE2_ROWS" >&2
  exit 1
fi
diff <(table2_counts results_table2.txt) <(table2_counts /tmp/spp-ci-table2.txt)
rm -f /tmp/spp-ci-table2.txt

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

echo "==> CLI portfolio skip smoke (a proved SPP minimum skips the DSOP and SOP entrants)"
SKIP_OUT=$(./target/release/spp bench maj5 --form portfolio --threads 1 --quiet)
for LINE in "spp +completed: cost [0-9]+" "esop +completed: cost [0-9]+" \
            "dsop +skipped: " "sop +skipped: "; do
  if ! grep -qE "^  $LINE" <<<"$SKIP_OUT"; then
    echo "ci: maj5 portfolio scoreboard lacks a line matching '$LINE':" >&2
    echo "$SKIP_OUT" >&2
    exit 1
  fi
done

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

echo "==> cache probe (delta-splice and warm-hit timings on the probe rows)"
./target/release/cache_probe --threads 1 >/tmp/spp-ci-cache-probe.json
# Every cache-warmed re-generation must be far cheaper than cold.
jq -e '.warm.rows >= 1 and .warm.ratio_max < 0.1' /tmp/spp-ci-cache-probe.json >/dev/null
# The incremental probe: every row's one-minterm edit must be answered by
# a delta splice (no rejects), the spliced generation phase must be an
# order of magnitude cheaper than cold, end-to-end latency must improve
# in aggregate, and the best cover-light row must gain >= 10x end-to-end.
jq -e '.incremental | .delta_reuses >= 5 and .delta_rejects == 0 and
       .gen_speedup >= 8 and .speedup >= 2 and .best_speedup >= 10' \
  /tmp/spp-ci-cache-probe.json >/dev/null
rm -f /tmp/spp-ci-cache-probe.json

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
