#!/usr/bin/env bash
# Static-analysis gate: gofmt, go vet, the repo's own rvlint analyzers
# (determinism + invariant passes, run by the standalone rvlint binary
# over the module's non-test files), and — when the tools are installed
# — staticcheck and govulncheck. Any finding fails the gate.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
out=$(gofmt -l .)
if [ -n "$out" ]; then
  echo "unformatted files:"
  echo "$out"
  exit 1
fi

echo "== go vet =="
go vet ./...

echo "== rvlint =="
mkdir -p bin
go build -o bin/rvlint ./cmd/rvlint
bin/rvlint ./...

# Optional gates: run when installed (CI installs them; offline dev
# boxes may not have them).
if command -v staticcheck >/dev/null 2>&1; then
  echo "== staticcheck =="
  staticcheck ./...
else
  echo "== staticcheck: not installed, skipping =="
fi

if command -v govulncheck >/dev/null 2>&1; then
  echo "== govulncheck =="
  govulncheck ./...
else
  echo "== govulncheck: not installed, skipping =="
fi

echo "lint: all gates passed"
