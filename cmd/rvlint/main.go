// Command rvlint is rvnegtest's determinism-and-invariants linter: a
// multichecker over the internal/lint analyzer suite (mapdet,
// wallclock, globalrand, cloneshallow, panicgate).
//
// Usage:
//
//	rvlint [patterns...]
//
// rvlint loads the packages matching the `go list` patterns (default
// ./...) in the working directory, analyzes their non-test Go files and
// prints each finding as `file:line:col: message (rvlint/<name>)`, the
// file relative to the working directory. scripts/lint.sh runs it as
// the CI gate.
//
// Exit status: 0 clean, 1 findings, 2 operational error.
package main

import (
	"fmt"
	"os"
	"strings"

	"rvnegtest/internal/lint"
)

func main() {
	patterns := os.Args[1:]
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	for _, p := range patterns {
		if strings.HasPrefix(p, "-") {
			fmt.Fprintf(os.Stderr, "rvlint: unknown flag %s\n", p)
			os.Exit(2)
		}
	}
	n, err := lint.RunStandalone(os.Stderr, ".", patterns, lint.Analyzers())
	if err != nil {
		fmt.Fprintf(os.Stderr, "rvlint: %v\n", err)
		os.Exit(2)
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "rvlint: %d finding(s)\n", n)
		os.Exit(1)
	}
}
