#!/usr/bin/env bash
# kill_resume.sh — end-to-end proof that an interrupted+resumed rvfuzz
# campaign is byte-identical to an uninterrupted one.
#
# Flow:
#   1. run the campaign uninterrupted (seeded, exec-bounded) -> suite A, stats A
#   2. start the same campaign with a checkpoint dir, SIGINT it as soon
#      as the first worker checkpoint exists (expect exit 130), resume it
#      to completion -> suite B, stats B
#   3. cmp A B byte for byte (suite file and wall-clock-free stats JSON)
#
# A campaign that finishes before the SIGINT lands, or writes no
# checkpoint within 60 s, is an error: nothing would have been resumed.
#
# Usage: scripts/kill_resume.sh [execs] [workers] [seed]
set -euo pipefail

EXECS="${1:-400000}"
WORKERS="${2:-2}"
SEED="${3:-7}"

cd "$(dirname "$0")/.."
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

go build -o "$work/rvfuzz" ./cmd/rvfuzz

common=(-cov v3 -seed "$SEED" -execs "$EXECS" -workers "$WORKERS")
# The first checkpoint comes an eighth of the way in, so the SIGINT that
# follows it lands mid-campaign with a checkpoint behind it.
ckpt_every=$((EXECS / 8))

echo "== uninterrupted run"
"$work/rvfuzz" "${common[@]}" \
  -out "$work/suite-straight.txt" -stats-json "$work/stats-straight.json"

echo "== interrupted run (SIGINT after the first checkpoint)"
mkdir "$work/ckpt"
set +e
"$work/rvfuzz" "${common[@]}" -checkpoint "$work/ckpt" -checkpoint-every "$ckpt_every" \
  -out "$work/suite-resumed.txt" -stats-json "$work/stats-resumed.json" &
pid=$!
# Poll every 0.1 s for up to 60 s.
for _ in $(seq 600); do
  if compgen -G "$work/ckpt/worker-*/state.json" >/dev/null || ! kill -0 "$pid" 2>/dev/null; then
    break
  fi
  sleep 0.1
done
if ! compgen -G "$work/ckpt/worker-*/state.json" >/dev/null; then
  kill -INT "$pid" 2>/dev/null
  wait "$pid"
  status=$?
  echo "error: no worker checkpoint before the run ended or 60 s passed (exit $status)" >&2
  exit 1
fi
kill -INT "$pid" 2>/dev/null
wait "$pid"
status=$?
set -e

if [ "$status" -eq 0 ]; then
  echo "error: campaign finished before the SIGINT landed; nothing was resumed" >&2
  exit 1
elif [ "$status" -ne 130 ]; then
  echo "error: interrupted run exited $status, want 130" >&2
  exit 1
fi
echo "== resume"
"$work/rvfuzz" "${common[@]}" -resume "$work/ckpt" \
  -out "$work/suite-resumed.txt" -stats-json "$work/stats-resumed.json"

echo "== compare"
cmp "$work/suite-straight.txt" "$work/suite-resumed.txt"
cmp "$work/stats-straight.json" "$work/stats-resumed.json"
echo "OK: interrupted+resumed campaign is byte-identical to the uninterrupted one"
