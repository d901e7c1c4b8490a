#!/usr/bin/env bash
# exec_bench.sh — measure the predecoded execution core against the
# classical decode loop and publish BENCH_exec.json.
#
# Three layers, old path vs. new path:
#   - Executor.Run instruction throughput (BenchmarkRunDirect/Predecode,
#     with -benchmem); two gates: predecode over direct (< MIN_SPEEDUP
#     fails) and allocations (any allocs/op above 0 fails).
#   - fuzzer executions/second (BenchmarkFuzzerThroughput[NoPredecode])
#   - compliance cases/second (BenchmarkTableIParallel1 / NoPredecode)
#
# Each time is the best of COUNT runs (min ns/op is robust against
# scheduling noise); each allocs/op is the worst. Benchmark names carry a
# -N GOMAXPROCS suffix on multi-core hosts, so every name pattern accepts
# one.
#
# Usage: scripts/exec_bench.sh [out.json]
set -euo pipefail

OUT="${1:-BENCH_exec.json}"
COUNT="${COUNT:-5}"
BENCHTIME="${BENCHTIME:-1s}"
FUZZ_COUNT="${FUZZ_COUNT:-3}"
FUZZ_BENCHTIME="${FUZZ_BENCHTIME:-30000x}"
TABLE_COUNT="${TABLE_COUNT:-3}"
MIN_SPEEDUP="${MIN_SPEEDUP:-1.5}"

cd "$(dirname "$0")/.."

run_raw=$(go test -run '^$' -bench 'BenchmarkRun(Direct|Predecode)$' -benchmem \
  -benchtime "$BENCHTIME" -count "$COUNT" ./internal/exec/)
echo "$run_raw"

fuzz_raw=$(go test -run '^$' -bench 'BenchmarkFuzzerThroughput(NoPredecode)?$' \
  -benchtime "$FUZZ_BENCHTIME" -count "$FUZZ_COUNT" .)
echo "$fuzz_raw"

table_raw=$(go test -run '^$' -bench 'BenchmarkTableI(Parallel1|NoPredecode)$' \
  -benchtime 1x -count "$TABLE_COUNT" .)
echo "$table_raw"

# min_ns NAME_REGEX <<< raw: the best ns/op of all matching lines.
min_ns() {
  awk -v re="$1" '$1 ~ re { if (best == 0 || $3 < best) best = $3 } END { print best+0 }'
}
# max_metric NAME_REGEX UNIT <<< raw: the best value of the named
# per-benchmark metric (the field preceding its unit column).
max_metric() {
  awk -v re="$1" -v unit="$2" '$1 ~ re {
    for (i = 2; i <= NF; i++) if ($i == unit && $(i-1) > best) best = $(i-1)
  } END { print best+0 }'
}
# max_allocs NAME_REGEX <<< raw: the worst allocs/op of all matching
# lines, or -1 when no matching line reports allocations.
max_allocs() {
  awk -v re="$1" 'BEGIN { worst = -1 } $1 ~ re {
    for (i = 2; i <= NF; i++) if ($i == "allocs/op" && $(i-1) + 0 > worst) worst = $(i-1) + 0
  } END { print worst }'
}

sfx='(-[0-9]+)?$'
run_direct=$(min_ns "^BenchmarkRunDirect$sfx" <<< "$run_raw")
run_pre=$(min_ns "^BenchmarkRunPredecode$sfx" <<< "$run_raw")
allocs_direct=$(max_allocs "^BenchmarkRunDirect$sfx" <<< "$run_raw")
allocs_pre=$(max_allocs "^BenchmarkRunPredecode$sfx" <<< "$run_raw")
minst_direct=$(max_metric "^BenchmarkRunDirect$sfx" 'Minst/s' <<< "$run_raw")
minst_pre=$(max_metric "^BenchmarkRunPredecode$sfx" 'Minst/s' <<< "$run_raw")
fuzz_pre=$(max_metric "^BenchmarkFuzzerThroughput$sfx" 'execs/s' <<< "$fuzz_raw")
fuzz_direct=$(max_metric "^BenchmarkFuzzerThroughputNoPredecode$sfx" 'execs/s' <<< "$fuzz_raw")
table_pre=$(max_metric "^BenchmarkTableIParallel1$sfx" 'cases/s' <<< "$table_raw")
table_direct=$(max_metric "^BenchmarkTableINoPredecode$sfx" 'cases/s' <<< "$table_raw")

awk -v d="$run_direct" -v p="$run_pre" \
    -v ad="$allocs_direct" -v ap="$allocs_pre" \
    -v md="$minst_direct" -v mp="$minst_pre" \
    -v fd="$fuzz_direct" -v fp="$fuzz_pre" -v td="$table_direct" -v tp="$table_pre" \
    -v gate="$MIN_SPEEDUP" -v out="$OUT" 'BEGIN {
  if (d == 0 || p == 0 || fd == 0 || fp == 0 || td == 0 || tp == 0 ||
      ad < 0 || ap < 0) {
    print "error: benchmark output missing" > "/dev/stderr"; exit 1
  }
  speedup = d / p
  printf "{\n" \
         "  \"run_ns_direct\": %.1f,\n  \"run_ns_predecode\": %.1f,\n" \
         "  \"run_allocs_per_op_direct\": %d,\n  \"run_allocs_per_op_predecode\": %d,\n" \
         "  \"max_allocs_per_op\": 0,\n" \
         "  \"run_minst_per_sec_direct\": %.2f,\n  \"run_minst_per_sec_predecode\": %.2f,\n" \
         "  \"run_speedup\": %.3f,\n  \"min_speedup\": %.2f,\n" \
         "  \"fuzz_execs_per_sec_direct\": %.0f,\n  \"fuzz_execs_per_sec_predecode\": %.0f,\n" \
         "  \"compliance_cases_per_sec_direct\": %.0f,\n  \"compliance_cases_per_sec_predecode\": %.0f\n" \
         "}\n", d, p, ad, ap, md, mp, speedup, gate, fd, fp, td, tp > out
  printf "Executor.Run speedup: %.2fx (direct %.0fns/op -> predecoded %.0fns/op, gate %.2fx)\n", speedup, d, p, gate
  printf "Executor.Run allocs/op: direct %d, predecode %d (gate 0)\n", ad, ap
  printf "fuzz: %.0f -> %.0f execs/s; compliance: %.0f -> %.0f cases/s\n", fd, fp, td, tp
  if (speedup < gate) { print "error: Executor.Run speedup below gate" > "/dev/stderr"; exit 1 }
  if (ad > 0 || ap > 0) { print "error: Executor.Run allocates" > "/dev/stderr"; exit 1 }
}'

echo "written: $OUT"
