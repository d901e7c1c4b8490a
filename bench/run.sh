#!/usr/bin/env bash
# Builds rvbench from source and runs it from the repository root, passing
# every argument through: `go run ./bench/cmd/rvbench ARGS` with the Go
# build cache and the binary in .bench_build/ at the repository root, so
# building reads no user go env file and writes nothing outside the
# checkout. (GOCACHE must be an absolute path, which is why this is a
# script and not a plain command line.)
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# The binary records the VCS revision it was built from when it can; a
# checkout without usable version control builds without it.
go build -o "$build/rvbench" ./bench/cmd/rvbench 2>/dev/null ||
  go build -buildvcs=false -o "$build/rvbench" ./bench/cmd/rvbench
exec "$build/rvbench" "$@"
