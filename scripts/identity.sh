#!/usr/bin/env bash
# identity.sh — the byte-identity matrix in one command: build a parent
# revision and the working tree, run the same campaigns and compliance
# passes on both builds, and cmp every artifact pair.
#
# Usage: scripts/identity.sh [--expect-diff ARTIFACT:REASON]... PARENT_REV
#
# The matrix (80 artifacts):
#   - rvfuzz -out and -stats-json for {user, trap} x {v0, v1, v3} x
#     workers {1, 2, 8}, plain and with -minimize (seed 11, 60,000
#     executions): fuzz-FAMILY-COV-wN[-min].{suite,stats};
#   - rvcompliance text and -json at workers 1 and 8, for a user suite
#     file (the parent build's fuzz-user-v3-w1 suite, run by both
#     builds) and for -suite trap -generate 20000:
#     comp-{user,trap}-wN.{txt,json}. The text of the generated suite
#     drops its first line, the banner, which carries a wall-clock rate.
#
# Prints one line per artifact: "identical" or "DIFFERS", the artifact,
# the command and its exit code ("exit P/H" when the two builds' exit
# codes differ, which counts as a difference). A difference declared
# with --expect-diff ARTIFACT:REASON prints "DIFFERS (expected: REASON)"
# and does not fail the run. Exits 0 when every undeclared artifact is
# identical, 1 on any undeclared difference, 2 on a usage or build
# error.
#
# Needs only git and the Go toolchain, so it runs offline. Everything
# is built and run under a mktemp -d directory ($TMPDIR, else /tmp),
# which is removed on exit.
set -euo pipefail

usage() {
  echo "usage: scripts/identity.sh [--expect-diff ARTIFACT:REASON]... PARENT_REV" >&2
  exit 2
}

cd "$(dirname "$0")/.."
root=$(pwd)

declare -A expect=()
parent=""
while [ $# -gt 0 ]; do
  case "$1" in
    --expect-diff)
      [ $# -ge 2 ] && [[ "$2" == *:* ]] || usage
      expect["${2%%:*}"]="${2#*:}"
      shift 2
      ;;
    -*) usage ;;
    *)
      [ -z "$parent" ] || usage
      parent=$1
      shift
      ;;
  esac
done
[ -n "$parent" ] || usage

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

echo "== building $parent and the working tree under $work"
mkdir -p "$work/src" "$work/parent" "$work/head"
git archive "$parent" | tar -x -C "$work/src" || { echo "cannot archive $parent" >&2; exit 2; }
for side in parent head; do
  src="$root"
  [ "$side" = parent ] && src="$work/src"
  for c in rvfuzz rvcompliance; do
    (cd "$src" && go build -o "$work/$side/$c" "./cmd/$c") || { echo "build failed: $side $c" >&2; exit 2; }
  done
done

declare -A cmd=()
pairs=() # "ARTIFACT ROW": an artifact and the row that writes it

# run ROW STDOUT PROGRAM ARGS... runs PROGRAM with both builds, each in
# its own directory with its stdout in the file STDOUT ("" discards it),
# and keeps the command line and each build's exit code under ROW.
run() {
  local row=$1 out=${2:-/dev/null}
  shift 2
  local side rc
  for side in parent head; do
    rc=0
    (cd "$work/$side" && "./$1" "${@:2}" >"$out" 2>>stderr.log) || rc=$?
    echo "$rc" >"$work/$side/$row.rc"
  done
  cmd[$row]="$*"
}

echo "== running the matrix"
for fam in user trap; do
  for cov in v0 v1 v3; do
    for w in 1 2 8; do
      for min in "" -min; do
        row=fuzz-$fam-$cov-w$w$min
        flags=(-suite "$fam" -cov "$cov" -workers "$w" -seed 11 -execs 60000)
        [ -z "$min" ] || flags+=(-minimize)
        run "$row" "" rvfuzz "${flags[@]}" -out "$row.suite" -stats-json "$row.stats"
        pairs+=("$row.suite $row" "$row.stats $row")
      done
    done
  done
done

for side in parent head; do
  cp "$work/parent/fuzz-user-v3-w1.suite" "$work/$side/user.suite"
done
for w in 1 8; do
  run "comp-user-w$w" "comp-user-w$w.txt" rvcompliance -suite user.suite -workers "$w"
  run "comp-user-w$w-json" "comp-user-w$w.json" rvcompliance -suite user.suite -workers "$w" -json
  run "comp-trap-w$w" "comp-trap-w$w.raw" rvcompliance -suite trap -generate 20000 -workers "$w"
  run "comp-trap-w$w-json" "comp-trap-w$w.json" rvcompliance -suite trap -generate 20000 -workers "$w" -json
  for side in parent head; do
    tail -n +2 "$work/$side/comp-trap-w$w.raw" >"$work/$side/comp-trap-w$w.txt"
  done
  pairs+=("comp-user-w$w.txt comp-user-w$w" "comp-user-w$w.json comp-user-w$w-json"
    "comp-trap-w$w.txt comp-trap-w$w" "comp-trap-w$w.json comp-trap-w$w-json")
done

echo "== comparing"
status=0 same=0
for p in "${pairs[@]}"; do
  art=${p% *} row=${p#* }
  prc=$(cat "$work/parent/$row.rc") hrc=$(cat "$work/head/$row.rc")
  rc="exit $prc"
  verdict=identical
  if [ "$prc" != "$hrc" ]; then
    rc="exit $prc/$hrc" verdict=DIFFERS
  elif ! cmp -s "$work/parent/$art" "$work/head/$art"; then
    verdict=DIFFERS
  fi
  if [ "$verdict" = identical ]; then
    same=$((same + 1))
  elif [ -n "${expect[$art]+set}" ]; then
    verdict="DIFFERS (expected: ${expect[$art]})"
  else
    status=1
  fi
  printf '%-9s %-24s %s (%s)\n' "$verdict" "$art" "${cmd[$row]}" "$rc"
done
echo "== $same of ${#pairs[@]} artifacts identical"
exit "$status"
