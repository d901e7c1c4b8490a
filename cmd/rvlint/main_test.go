package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// TestExitStatus builds the rvlint binary and drives its three exits: a
// clean package exits 0 silently, a planted finding exits 1 and prints
// `file:line:col: message (rvlint/<name>)` with the file relative to the
// working directory, and an unknown flag (the go vet handshake's -V=full
// among them) exits 2.
func TestExitStatus(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and shells out to go list")
	}
	tool := filepath.Join(t.TempDir(), "rvlint")
	if out, err := exec.Command("go", "build", "-o", tool, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// A module that borrows this repository's path, so the analyzers
	// hold its internal/fuzz package to the determinism rules.
	planted := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":                 "module rvnegtest\n\ngo 1.24\n",
		"internal/fuzz/clock.go": "package fuzz\n\nimport \"time\"\n\nfunc stamp() int64 { return time.Now().Unix() }\n",
	} {
		path := filepath.Join(planted, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	root := filepath.Join("..", "..")
	for _, c := range []struct {
		name   string
		dir    string
		args   []string
		code   int
		stderr string // regexp over the whole of stderr
	}{
		{"clean", root, []string{"./internal/mem"}, 0, `^$`},
		{"finding", planted, nil, 1, `^internal/fuzz/clock\.go:5:29: wall-clock read \(time\.Now\) in determinism-bound package internal/fuzz: .* \(rvlint/wallclock\)\nrvlint: 1 finding\(s\)\n$`},
		{"unknown flag", root, []string{"-V=full"}, 2, `^rvlint: unknown flag -V=full\n$`},
	} {
		t.Run(c.name, func(t *testing.T) {
			cmd := exec.Command(tool, c.args...)
			cmd.Dir = c.dir
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			code := 0
			if err := cmd.Run(); err != nil {
				var exit *exec.ExitError
				if !errors.As(err, &exit) {
					t.Fatal(err)
				}
				code = exit.ExitCode()
			}
			if code != c.code {
				t.Errorf("exit status %d, want %d", code, c.code)
			}
			if !regexp.MustCompile(c.stderr).Match(stderr.Bytes()) {
				t.Errorf("stderr does not match %q:\n%s", c.stderr, stderr.String())
			}
		})
	}
}
