#!/usr/bin/env bash
# telemetry_smoke.sh — end-to-end smoke test of the observability layer.
#
# Flow:
#   1. run a short rvfuzz campaign with -telemetry-addr and -events; scrape
#      /metrics mid-run and assert the key series are live and nonzero,
#      and that /debug/vars and /debug/pprof/ answer
#   2. run rvcompliance on the generated suite with the same flags; assert
#      the compliance series are exposed and the event stream carries
#      row_done/cell_done events
#   3. render both event files with `rvreport -events` and assert the
#      stage-time breakdown and per-simulator tables appear
#
# Usage: scripts/telemetry_smoke.sh [execs] [workers] [seed]
set -euo pipefail

EXECS="${1:-200000}"
WORKERS="${2:-2}"
SEED="${3:-7}"
FUZZ_PORT="${FUZZ_PORT:-19673}"
COMP_PORT="${COMP_PORT:-19674}"

cd "$(dirname "$0")/.."
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

go build -o "$work/rvfuzz" ./cmd/rvfuzz
go build -o "$work/rvcompliance" ./cmd/rvcompliance
go build -o "$work/rvreport" ./cmd/rvreport

# scrape URL PATTERN [DEADLINE_S] — poll until the pattern appears in the
# endpoint's output; the matched page lands in $work/scrape.out.
scrape() {
  local url=$1 pattern=$2 deadline=${3:-60} i
  for ((i = 0; i < deadline * 10; i++)); do
    if curl -fsS "$url" > "$work/scrape.out" 2>/dev/null &&
      grep -Eq "$pattern" "$work/scrape.out"; then
      return 0
    fi
    sleep 0.1
  done
  echo "error: $pattern never appeared at $url" >&2
  return 1
}

echo "== rvfuzz with live telemetry"
"$work/rvfuzz" -cov v3 -seed "$SEED" -execs "$EXECS" -workers "$WORKERS" \
  -telemetry-addr "127.0.0.1:$FUZZ_PORT" -events "$work/fuzz-events.ndjson" \
  -out "$work/suite.txt" &
fuzz_pid=$!
# Each worker publishes its counts every 256 executions (obs.SampleEvery),
# so a mid-run scrape must show nonzero totals; [1-9] rejects a scrape
# that only caught the zero value.
scrape "http://127.0.0.1:$FUZZ_PORT/metrics" 'rvnegtest_fuzz_execs_total [1-9]'
grep -E 'rvnegtest_fuzz_(execs_total|corpus_size)' "$work/scrape.out"
scrape "http://127.0.0.1:$FUZZ_PORT/metrics" 'rvnegtest_stage_duration_seconds_bucket\{stage="execute"'
scrape "http://127.0.0.1:$FUZZ_PORT/debug/vars" '"rvnegtest_fuzz_execs_total"'
curl -fsS -o /dev/null "http://127.0.0.1:$FUZZ_PORT/debug/pprof/"
echo "ok: /metrics, /debug/vars and /debug/pprof/ live mid-campaign"
wait "$fuzz_pid"

for ev in campaign_start corpus_add stage_summary campaign_done; do
  grep -q "\"type\":\"$ev\"" "$work/fuzz-events.ndjson" ||
    { echo "error: no $ev event in fuzz-events.ndjson" >&2; exit 1; }
done
echo "ok: fuzz event stream has the lifecycle events"

echo "== rvcompliance with live telemetry"
"$work/rvcompliance" -suite "$work/suite.txt" -workers "$WORKERS" \
  -telemetry-addr "127.0.0.1:$COMP_PORT" -events "$work/comp-events.ndjson" \
  > "$work/comp.out" &
comp_pid=$!
# Compliance counters are registered up front (value 0, updated per merged
# row), so series presence is the timing-robust mid-run assertion.
scrape "http://127.0.0.1:$COMP_PORT/metrics" 'rvnegtest_compliance_mismatches_total\{sim='
grep -E 'rvnegtest_compliance_(execs|rows)_total' "$work/scrape.out"
set +e
wait "$comp_pid"
comp_status=$?
set -e
# 1 = mismatches found (expected: the SUTs carry seeded defects).
if [ "$comp_status" -ne 0 ] && [ "$comp_status" -ne 1 ]; then
  echo "error: rvcompliance exited $comp_status" >&2
  exit 1
fi
for ev in shard_done cell_done row_done; do
  grep -q "\"type\":\"$ev\"" "$work/comp-events.ndjson" ||
    { echo "error: no $ev event in comp-events.ndjson" >&2; exit 1; }
done
echo "ok: compliance series exposed, event stream has row/cell events"

echo "== rvreport -events"
"$work/rvreport" -events "$work/fuzz-events.ndjson" > "$work/fuzz-report.md"
grep -q '## Stage-time breakdown' "$work/fuzz-report.md" ||
  { echo "error: no stage-time breakdown in the fuzz event report" >&2; exit 1; }
"$work/rvreport" -events "$work/comp-events.ndjson" > "$work/comp-report.md"
grep -q '## Per-simulator cell time' "$work/comp-report.md" ||
  { echo "error: no per-simulator table in the compliance event report" >&2; exit 1; }
echo "ok: rvreport renders both event streams"

echo "OK: telemetry smoke test passed"
