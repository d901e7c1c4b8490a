#!/usr/bin/env bash
# telemetry_bench.sh — measure the telemetry layer's overhead on the fuzz
# hot path and publish BENCH_telemetry.json.
#
# Runs BenchmarkTelemetryOverhead: one paired, in-process measurement of
# two warmed fuzzers on the same seed, one bare and one fully wired
# (registry plus an event log on io.Discard). They alternate 1,000-step
# chunks, swapping which goes first each time, so both see the same
# machine state and, following the same trajectory, the same work. The
# gate is the median on/off chunk-time ratio: the script fails if the
# wired fuzzer is more than BUDGET_PCT slower.
#
# Usage: scripts/telemetry_bench.sh [out.json]
set -euo pipefail

OUT="${1:-BENCH_telemetry.json}"
PAIRS=300 # chunk pairs: 300,000 steps per fuzzer, a few seconds
BUDGET_PCT="${BUDGET_PCT:-2.0}"

cd "$(dirname "$0")/.."

raw=$(go test -run '^$' -bench '^BenchmarkTelemetryOverhead$' \
  -benchtime "${PAIRS}x" -count 1 ./internal/fuzz/)
echo "$raw"

awk -v budget="$BUDGET_PCT" -v out="$OUT" '
/^BenchmarkTelemetryOverhead/ {
  for (i = 3; i < NF; i++) {
    if ($(i+1) == "off-ns/step") off = $i
    if ($(i+1) == "on-ns/step") on = $i
    if ($(i+1) == "overhead-%") { pct = $i; seen = 1 }
  }
}
END {
  if (!seen || off == 0 || on == 0) { print "error: benchmark output missing" > "/dev/stderr"; exit 1 }
  printf "{\n  \"step_ns_telemetry_off\": %.1f,\n  \"step_ns_telemetry_on\": %.1f,\n  \"overhead_pct\": %.2f,\n  \"budget_pct\": %.1f\n}\n", off, on, pct, budget > out
  printf "telemetry overhead: %.2f%% (median chunk ratio; off %.0fns/step, on %.0fns/step, budget %.1f%%)\n", pct, off, on, budget
  if (pct > budget) { print "error: telemetry overhead exceeds budget" > "/dev/stderr"; exit 1 }
}' <<< "$raw"

echo "written: $OUT"
