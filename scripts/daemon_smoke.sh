#!/usr/bin/env bash
# daemon_smoke.sh — end-to-end proof of the campaign-as-a-service daemon:
# jobs submitted to rvnegtestd survive a kill -9 mid-job and finish with
# artifacts byte-identical to direct CLI invocations of the same specs.
#
# Flow:
#   1. produce reference artifacts with the CLIs (rvfuzz -checkpoint,
#      rvcompliance -checkpoint) for one fuzz and one compliance spec
#   2. start rvnegtestd, submit both specs as jobs over HTTP
#   3. kill -9 the daemon as soon as the fuzz job's first worker
#      checkpoint exists (polled every 0.1 s, error after 60 s)
#   4. restart the daemon on the same store: jobs resume from their
#      checkpoints, finish, and the daemon records the resume
#   5. fetch the job artifacts over HTTP and cmp against step 1
#
# Usage: scripts/daemon_smoke.sh [execs] [seed]
set -euo pipefail

EXECS="${1:-800000}"
SEED="${2:-7}"
GEN="${GEN:-5000}" # compliance-job generation budget

cd "$(dirname "$0")/.."
work=$(mktemp -d)
daemon_pid=""
# The trap runs under set -e: `wait` on the SIGKILLed daemon returns 137,
# so the kill/wait must not be able to fail the script before the rm.
trap '{ [ -n "$daemon_pid" ] && kill -9 "$daemon_pid" && wait "$daemon_pid"; } 2>/dev/null || true; rm -rf "$work"' EXIT

go build -o "$work/rvfuzz" ./cmd/rvfuzz
go build -o "$work/rvcompliance" ./cmd/rvcompliance
go build -o "$work/rvnegtestd" ./cmd/rvnegtestd

echo "== reference artifacts via direct CLI runs"
"$work/rvfuzz" -cov v3 -seed "$SEED" -execs "$EXECS" -workers 2 \
    -checkpoint "$work/cli-fuzz-ck" \
    -out "$work/cli-suite.txt" -stats-json "$work/cli-stats.json" > /dev/null
"$work/rvcompliance" -generate "$GEN" -seed "$SEED" -workers 2 \
    -checkpoint "$work/cli-compl-ck" \
    -json > "$work/cli-report.json" || [ $? -eq 2 ] # degraded exit is fine
"$work/rvcompliance" -generate "$GEN" -seed "$SEED" -workers 2 \
    > "$work/cli-report.txt" || [ $? -eq 2 ]

start_daemon() {
    rm -f "$work/addr"
    "$work/rvnegtestd" -data "$work/store" -slots 2 -addr 127.0.0.1:0 \
        -addr-file "$work/addr" -events "$work/events.ndjson" 2>> "$work/daemon.log" &
    daemon_pid=$!
    for _ in $(seq 1 50); do
        [ -s "$work/addr" ] && break
        sleep 0.1
    done
    ADDR=$(cat "$work/addr")
    curl -sf "http://$ADDR/api/v1/healthz" > /dev/null
}

echo "== start daemon, submit fuzz + compliance jobs"
start_daemon
fuzz_spec=$(printf '{"kind":"fuzz","cov":"v3","seed":%d,"execs":%d,"workers":2}' "$SEED" "$EXECS")
compl_spec=$(printf '{"kind":"compliance","seed":%d,"execs":%d,"workers":2}' "$SEED" "$GEN")
fuzz_id=$(curl -sf -X POST "http://$ADDR/api/v1/jobs" -d "$fuzz_spec" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
compl_id=$(curl -sf -X POST "http://$ADDR/api/v1/jobs" -d "$compl_spec" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
echo "   fuzz job $fuzz_id, compliance job $compl_id"

echo "== kill -9 the daemon at the fuzz job's first checkpoint"
ckpt="$work/store/$fuzz_id/checkpoint/worker-*/state.json"
for _ in $(seq 600); do
    compgen -G "$ckpt" > /dev/null && break
    sleep 0.1
done
if ! compgen -G "$ckpt" > /dev/null; then
    echo "FAIL: no fuzz worker checkpoint within 60 s"
    exit 1
fi
kill -9 "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""

# job.json is written indented, so tolerate whitespace after the colon.
state=$(sed -n 's/.*"state": *"\([a-z]*\)".*/\1/p' "$work/store/$fuzz_id/job.json" | head -1)
echo "   on-disk state after kill: $fuzz_id=$state"
if [ "$state" = done ]; then
    echo "FAIL: the fuzz job finished before the kill landed; nothing was resumed"
    exit 1
fi

echo "== restart daemon: jobs must resume and finish"
start_daemon
for id in "$fuzz_id" "$compl_id"; do
    final=$(curl -sf "http://$ADDR/api/v1/jobs/$id/wait?timeout_sec=300")
    state=$(printf '%s' "$final" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')
    case "$state" in
        done|degraded) echo "   $id finished: $state" ;;
        *) echo "FAIL: job $id ended in state $state"; printf '%s\n' "$final"; exit 1 ;;
    esac
done

resumes=$(sed -n 's/.*"resumes": *\([0-9]*\).*/\1/p' "$work/store/$fuzz_id/job.json" | head -1)
if [ "${resumes:-0}" -lt 1 ]; then
    echo "FAIL: fuzz job recorded no resume after kill -9"
    exit 1
fi
echo "   $fuzz_id resumed $resumes time(s) across the kill"

echo "== compare daemon artifacts against the direct CLI runs"
curl -sf "http://$ADDR/api/v1/jobs/$fuzz_id/artifacts/suite.txt" > "$work/d-suite.txt"
curl -sf "http://$ADDR/api/v1/jobs/$fuzz_id/artifacts/stats.json" > "$work/d-stats.json"
curl -sf "http://$ADDR/api/v1/jobs/$compl_id/artifacts/report.json" > "$work/d-report.json"
curl -sf "http://$ADDR/api/v1/jobs/$compl_id/artifacts/report.txt" > "$work/d-report.txt"
cmp "$work/cli-suite.txt" "$work/d-suite.txt"
cmp "$work/cli-stats.json" "$work/d-stats.json"
# The CLI prints a two-line generation banner before the report; the
# daemon artifact is the report alone. Strip the banner, then cmp.
tail -n +3 "$work/cli-report.json" | cmp - "$work/d-report.json"
tail -n +3 "$work/cli-report.txt" | cmp - "$work/d-report.txt"

echo "== per-job event report renders"
# Render to a file first: under pipefail, `| head` can kill the report
# with SIGPIPE once head has its lines, failing a passing run.
go run ./cmd/rvreport -events "$work/events.ndjson" -job "$fuzz_id" > "$work/report.txt"
head -4 "$work/report.txt"

echo "OK: daemon jobs survived kill -9 and match direct CLI artifacts byte for byte"
