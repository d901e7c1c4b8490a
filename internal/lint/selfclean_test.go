package lint

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestRepoSelfClean is the linter's own acceptance gate: every analyzer
// over every package in the module, zero findings. A regression here
// means either new code violated an invariant or an analyzer grew a
// false positive — both block the PR.
func TestRepoSelfClean(t *testing.T) {
	var buf bytes.Buffer
	n, err := RunStandalone(&buf, moduleRoot(t), []string{"./..."}, Analyzers())
	if err != nil {
		t.Fatalf("standalone run: %v", err)
	}
	if n != 0 {
		t.Errorf("rvlint found %d issue(s) in the tree:\n%s", n, buf.String())
	}
}

// TestAllowlistKeysExist: every key of the built-in allowlists names a
// function or method declared in the module's shipped sources, so an
// exemption cannot outlive the code it was granted to.
func TestAllowlistKeysExist(t *testing.T) {
	root := moduleRoot(t)
	declared := map[string]map[string]bool{} // package dir -> FuncKey names
	for analyzer, allow := range map[string]map[string]string{
		"wallclock": wallclockAllow,
		"panicgate": panicgateAllow,
	} {
		for key := range allow {
			slash := strings.LastIndexByte(key, '/') + 1
			pkg, fn, _ := strings.Cut(key[slash:], ".")
			dir := key[:slash] + pkg
			if declared[dir] == nil {
				declared[dir] = funcKeys(t, filepath.Join(root, dir))
			}
			if !declared[dir][fn] {
				t.Errorf("%s allowlist key %q names no function or method in %s", analyzer, key, dir)
			}
		}
	}
}

// funcKeys returns the FuncKey of every function declared in the
// non-test Go files of dir.
func funcKeys(t *testing.T, dir string) map[string]bool {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	keys := map[string]bool{}
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				keys[(&Pass{}).FuncKey(f, fd.Name.Pos())] = true
			}
		}
	}
	return keys
}

// TestVetProtocol exercises the real cmd/go integration end to end:
// build cmd/rvlint, then run `go vet -vettool=rvlint` on a small
// package. This is the only test that covers the unitchecker path
// (-V=full handshake, -flags query, vet.cfg unit config, facts file).
func TestVetProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and shells out to go vet")
	}
	root := moduleRoot(t)
	tool := filepath.Join(t.TempDir(), "rvlint")

	build := exec.Command("go", "build", "-o", tool, "./cmd/rvlint")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build cmd/rvlint: %v\n%s", err, out)
	}

	vet := exec.Command("go", "vet", "-vettool="+tool, "./internal/mem")
	vet.Dir = root
	vet.Env = os.Environ()
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool=rvlint ./internal/mem: %v\n%s", err, out)
	}
}
