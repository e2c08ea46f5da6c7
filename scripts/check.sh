#!/usr/bin/env bash
# Repository pre-merge gate: formatting, lints, and the full test suite.
#
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Every gate's temp dirs go on one list, removed however the script exits.
CLEANUP=()
trap 'rm -rf "${CLEANUP[@]}"' EXIT

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo test -q"
cargo test --workspace -q --offline

echo "== telemetry noop build (feature-gated compile-out)"
cargo check -q -p abccc-suite --features telemetry-noop --offline

echo "== telemetry disabled-path overhead contract"
cargo bench -q -p abccc-bench --bench telemetry_overhead --offline

echo "== resilience smoke campaign (determinism + nonzero completion)"
cargo build -q -p abccc-cli --offline
CLI=target/debug/abccc-cli
SMOKE=(resilience 4 2 2 --trials 8 --seed 1 --json)
A="$("$CLI" "${SMOKE[@]}")"
B="$("$CLI" "${SMOKE[@]}")"
if [ "$A" != "$B" ]; then
  echo "FAIL: fixed-seed campaign JSON differs between runs" >&2
  exit 1
fi
if ! grep -q '"routed": [1-9]' <<<"$A"; then
  echo "FAIL: smoke campaign routed zero pairs" >&2
  exit 1
fi

echo "== experiments tiny sweep (exit 0, nonzero rows, thread-count determinism)"
# EXP_A doubles as the tiny half of the golden rows gate below.
GOLDEN="$(mktemp -d)"
EXP_A="$GOLDEN/tiny"
EXP_B="$(mktemp -d)"
CLEANUP+=("$GOLDEN" "$EXP_B")
"$CLI" experiments run --all --preset tiny --threads 1 --json "$EXP_A" >/dev/null
"$CLI" experiments run --all --preset tiny --json "$EXP_B" >/dev/null
for rows in "$EXP_A"/*.json; do
  case "$rows" in *.manifest.json) continue ;; esac
  name="$(basename "$rows")"
  if ! grep -q '[{[]' "$rows" || ! grep -q '"' "$rows"; then
    echo "FAIL: $name holds no rows" >&2
    exit 1
  fi
  if ! cmp -s "$rows" "$EXP_B/$name"; then
    echo "FAIL: $name differs between 1 and N worker threads" >&2
    exit 1
  fi
done
count="$(ls "$EXP_A"/*.json | grep -cv '\.manifest\.json$')"
if [ "$count" -ne 25 ]; then
  echo "FAIL: expected 25 rows artifacts, found $count" >&2
  exit 1
fi

echo "== golden rows gate (tiny + paper rows artifacts match the committed sha256 manifest)"
# The 25 rows artifacts at both presets are the specification. A change
# that moves one on purpose regenerates the manifest in the same commit:
# run both presets into DIR/tiny and DIR/paper, then from DIR
#   sha256sum $(ls tiny/*.json paper/*.json | grep -v '\.manifest\.json$')
GOLDEN_MANIFEST="$PWD/bench_results/golden_rows.sha256"
"$CLI" experiments run --all --preset paper --json "$GOLDEN/paper" >/dev/null
if ! (cd "$GOLDEN" && sha256sum --quiet -c "$GOLDEN_MANIFEST"); then
  echo "FAIL: rows artifacts differ from bench_results/golden_rows.sha256" >&2
  exit 1
fi

echo "== arena gate (7-family report, 1-vs-4-thread determinism, jellyfish digest)"
ARENA_A="$(mktemp -d)"
ARENA_B="$(mktemp -d)"
CLEANUP+=("$ARENA_A" "$ARENA_B")
"$CLI" experiments run arena --preset tiny --threads 1 --json "$ARENA_A" >"$ARENA_A/stdout.txt" 2>/dev/null
"$CLI" experiments run arena --preset tiny --threads 4 --json "$ARENA_B" >"$ARENA_B/stdout.txt" 2>/dev/null
if ! cmp -s "$ARENA_A/stdout.txt" "$ARENA_B/stdout.txt"; then
  echo "FAIL: arena stdout differs between 1 and 4 worker threads" >&2
  exit 1
fi
if ! cmp -s "$ARENA_A/arena.json" "$ARENA_B/arena.json"; then
  echo "FAIL: arena rows differ between 1 and 4 worker threads" >&2
  exit 1
fi
for fam in ABCCC BCCC BCube DCell FatTree Jellyfish SpaceShuffle; do
  if ! grep -q "\"structure\": \"$fam(" "$ARENA_A/arena.json"; then
    echo "FAIL: arena rows missing family $fam" >&2
    exit 1
  fi
done
# The native-plane campaign on a fixed-seed Jellyfish pins the random
# graph's wiring: a digest change means the seeded generator's stream
# moved, which silently invalidates every recorded jellyfish result.
JF=(resilience jellyfish:v=16,r=4,seed=7
    --trials 4 --seed 1 --rate 0.1 --pairs 32 --no-throughput --json)
JF_DIGEST="$("$CLI" "${JF[@]}" | sha256sum | cut -d' ' -f1)"
JF_WANT=505700969b5567d1986e45ad7847c1cb8872213d92d9a60ff6408e6367fe9938
if [ "$JF_DIGEST" != "$JF_WANT" ]; then
  echo "FAIL: fixed-seed jellyfish campaign digest moved" >&2
  echo "  want $JF_WANT" >&2
  echo "  got  $JF_DIGEST" >&2
  exit 1
fi

echo "== traffic gate (scenario sweep 1-vs-4-thread determinism, pinned incast digest)"
TRAF_A="$(mktemp -d)"
TRAF_B="$(mktemp -d)"
CLEANUP+=("$TRAF_A" "$TRAF_B")
"$CLI" experiments run traffic_arena --preset tiny --threads 1 --json "$TRAF_A" >"$TRAF_A/stdout.txt" 2>/dev/null
"$CLI" experiments run traffic_arena --preset tiny --threads 4 --json "$TRAF_B" >"$TRAF_B/stdout.txt" 2>/dev/null
if ! cmp -s "$TRAF_A/stdout.txt" "$TRAF_B/stdout.txt"; then
  echo "FAIL: traffic_arena stdout differs between 1 and 4 worker threads" >&2
  exit 1
fi
if ! cmp -s "$TRAF_A/traffic_arena.json" "$TRAF_B/traffic_arena.json"; then
  echo "FAIL: traffic_arena rows differ between 1 and 4 worker threads" >&2
  exit 1
fi
# A fixed-seed incast through the unified engine pins the packet loop's
# event ordering end to end: injection schedule, per-hop store-and-forward
# arithmetic, FCT accounting, and the JSON field order. A digest change
# means the discrete-event core's behaviour moved.
INCAST=(--json sim run incast abccc 2 1 2 --seed 7)
TRAFFIC_DIGEST="$("$CLI" "${INCAST[@]}" | sha256sum | cut -d' ' -f1)"
TRAFFIC_WANT=5bb517dcc804626e11b5dcc94adc47d407dfd4becfcbb788f9622b21af0fe1c6
if [ "$TRAFFIC_DIGEST" != "$TRAFFIC_WANT" ]; then
  echo "FAIL: fixed-seed incast scenario digest moved" >&2
  echo "  want $TRAFFIC_WANT" >&2
  echo "  got  $TRAFFIC_DIGEST" >&2
  exit 1
fi

echo "== fib gate (compile+query smoke, equivalence suite, shard-count determinism)"
"$CLI" fib compile 2 2 2 | grep -q 'compiled forwarding table'
"$CLI" fib query 2 2 2 0 17 | grep -q 'via compiled table'
cargo test -q -p dcn-fib --test equivalence --offline
FIB_A="$(mktemp -d)"
FIB_B="$(mktemp -d)"
CLEANUP+=("$FIB_A" "$FIB_B")
FIB_BENCH=(fib bench 2 2 2 --queries 2000 --fail-rate 0.1)
"$CLI" "${FIB_BENCH[@]}" --shards 1 --digest "$FIB_A/digest.json" >/dev/null
"$CLI" "${FIB_BENCH[@]}" --shards 8 --digest "$FIB_B/digest.json" >/dev/null
if ! cmp -s "$FIB_A/digest.json" "$FIB_B/digest.json"; then
  echo "FAIL: fib bench digest differs between 1 and 8 shards" >&2
  exit 1
fi
# The two runs share every line of the walk and the digest writer, so a
# change to either that both runs see would pass the comparison above:
# pin the bytes as well.
FIB_WANT=a929f38133eb9390e32cfe3801bc98a1ab3aceb4da3ab0d847991f38c40d4047
FIB_DIGEST="$(sha256sum "$FIB_A/digest.json" | cut -d' ' -f1)"
if [ "$FIB_DIGEST" != "$FIB_WANT" ]; then
  echo "FAIL: fixed-seed fib bench digest moved" >&2
  echo "  want $FIB_WANT" >&2
  echo "  got  $FIB_DIGEST" >&2
  exit 1
fi

echo "== scale gate (streaming build, pinned fib bench digest, estimator determinism)"
# A mid-size instance (ABCCC(8,2,2): 1536 servers) exercises the streaming
# CSR build and the compiled table under faults: pin the digest's bytes.
SCALE_DIR="$(mktemp -d)"
CLEANUP+=("$SCALE_DIR")
SCALE_BENCH=(fib bench 8 2 2 --queries 2000 --fail-rate 0.05)
"$CLI" "${SCALE_BENCH[@]}" --digest "$SCALE_DIR/digest.json" >/dev/null
SCALE_WANT=19e8bd559069fbef13d90050fb41c4bc96888c0f91f778084e97d98ff1805b83
SCALE_DIGEST="$(sha256sum "$SCALE_DIR/digest.json" | cut -d' ' -f1)"
if [ "$SCALE_DIGEST" != "$SCALE_WANT" ]; then
  echo "FAIL: fixed-seed fib bench digest moved" >&2
  echo "  want $SCALE_WANT" >&2
  echo "  got  $SCALE_DIGEST" >&2
  exit 1
fi
TOPO_STATS=(--json topo stats abccc 8 2 2 --estimate --samples 32 --seed 5)
SA="$("$CLI" "${TOPO_STATS[@]}")"
SB="$("$CLI" "${TOPO_STATS[@]}")"
if [ "$SA" != "$SB" ]; then
  echo "FAIL: fixed-seed sampled topo stats differ between runs" >&2
  exit 1
fi
if ! grep -q '"diameter_lower_bound"' <<<"$SA"; then
  echo "FAIL: sampled topo stats missing diameter_lower_bound" >&2
  exit 1
fi

echo "== serve gate (loadgen digest determinism, shard invariance, clean serve exit)"
# The loopback loadgen's reply digest must be byte-identical across runs
# and shard counts for a fixed seed: the server's thread interleavings,
# frame coalescing and patch-cache sharding are all invisible in the
# reply bytes. `serve` with stdin at EOF must bind, drain, and exit 0.
SERVE_GEN=(--json loadgen 2 2 2 --connections 4 --frames 32 --batch 8 --window 4 --seed 11)
SV_A="$("$CLI" "${SERVE_GEN[@]}" --shards 1 | grep '"digest"')"
SV_B="$("$CLI" "${SERVE_GEN[@]}" --shards 1 | grep '"digest"')"
SV_C="$("$CLI" "${SERVE_GEN[@]}" --shards 8 | grep '"digest"')"
if [ "$SV_A" != "$SV_B" ]; then
  echo "FAIL: fixed-seed loadgen digest differs between runs" >&2
  exit 1
fi
if [ "$SV_A" != "$SV_C" ]; then
  echo "FAIL: loadgen digest differs between 1 and 8 shards" >&2
  exit 1
fi
# Every run above shares the reply encoder, so pin the digest itself too.
SV_WANT='"digest": "0xf234ac7ed835c666"'
if ! grep -qF "$SV_WANT" <<<"$SV_A"; then
  echo "FAIL: fixed-seed loadgen digest moved" >&2
  echo "  want $SV_WANT" >&2
  echo "  got  $SV_A" >&2
  exit 1
fi
if ! "$CLI" serve 2 1 2 --port 0 </dev/null | grep -q 'listening on 127.0.0.1:'; then
  echo "FAIL: serve did not bind and drain cleanly on stdin EOF" >&2
  exit 1
fi
# The route_server experiment's artifact is its own shard-invariance pin:
# the same (connections, batch) combo at different shard counts must
# reproduce the same digest (seeds derive from the combo, not the point).
SERVE_EXP="$(mktemp -d)"
CLEANUP+=("$SERVE_EXP")
"$CLI" experiments run route_server --preset tiny --json "$SERVE_EXP" >/dev/null
SERVE_DIGESTS="$(grep -o '"digest": "[^"]*"' "$SERVE_EXP/route_server.json" | sort | uniq -c | awk '{print $1}' | sort -u)"
if [ "$SERVE_DIGESTS" != "2" ]; then
  echo "FAIL: route_server digests are not paired across shard counts" >&2
  exit 1
fi

echo "== perf sentinel (record + self-diff exits 0, causal trace valid + stable)"
# A two-experiment subset keeps the gate fast; diffing a fresh measurement
# against baselines recorded seconds earlier must find zero regressions,
# or the noise gates are mistuned.
PERF_DIR="$(mktemp -d)"
CLEANUP+=("$PERF_DIR")
SENTINEL=(table1_properties fig7_faults --preset tiny --runs 2 --baselines "$PERF_DIR/baselines")
"$CLI" perf record "${SENTINEL[@]}" >/dev/null
if ! "$CLI" perf diff "${SENTINEL[@]}" >/dev/null; then
  echo "FAIL: perf diff against a just-recorded baseline reported regressions" >&2
  exit 1
fi
# The causal trace must be valid Chrome Trace JSON with span and root
# counts that are stable across runs for a fixed seed (single-threaded: the
# topology cache races builders under parallelism, legitimately duplicating
# bench.cache.build spans). The lane count is left out: it counts the
# threads that happened to record a span, which varies from run to run.
TRACE=(experiments run table1_properties fig7_faults --preset tiny --threads 1)
"$CLI" --trace-out "$PERF_DIR/trace_a.json" "${TRACE[@]}" >/dev/null
"$CLI" --trace-out "$PERF_DIR/trace_b.json" "${TRACE[@]}" >/dev/null
STAT_A="$("$CLI" perf trace-stat "$PERF_DIR/trace_a.json")"
STAT_B="$("$CLI" perf trace-stat "$PERF_DIR/trace_b.json")"
if ! grep -q 'valid Chrome trace' <<<"$STAT_A"; then
  echo "FAIL: --trace-out did not produce a valid Chrome trace" >&2
  exit 1
fi
COUNTS_A="$(sed -E 's/^.*: //; s/ [0-9]+ lanes,//' <<<"$STAT_A")"
COUNTS_B="$(sed -E 's/^.*: //; s/ [0-9]+ lanes,//' <<<"$STAT_B")"
if [ "$COUNTS_A" != "$COUNTS_B" ]; then
  echo "FAIL: span or root counts differ between fixed-seed single-threaded runs" >&2
  echo "  a: $STAT_A" >&2
  echo "  b: $STAT_B" >&2
  exit 1
fi

echo "All checks passed."
