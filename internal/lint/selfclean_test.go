package lint

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
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

// TestAllowlistKeysSuppressFindings: with the built-in allowlists
// emptied, every key of them still covers a finding in the tree, so an
// exemption cannot outlive the reads or panics it was granted for, even
// while the function it names lives on.
func TestAllowlistKeysSuppressFindings(t *testing.T) {
	units, err := LoadPackages(moduleRoot(t), "./internal/...")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		a     *Analyzer
		allow *map[string]string
	}{{Wallclock, &wallclockAllow}, {Panicgate, &panicgateAllow}} {
		keys := *c.allow
		*c.allow = map[string]string{}
		used := map[string]bool{}
		for _, u := range units {
			pass := &Pass{Fset: u.Fset, Files: u.Files, Pkg: u.Pkg, PkgPath: u.Path, TypesInfo: u.Info}
			diags, err := RunAnalyzers(pass, []*Analyzer{c.a})
			if err != nil {
				*c.allow = keys
				t.Fatalf("%s: %v", u.Path, err)
			}
			for _, d := range diags {
				for _, f := range u.Files {
					if f.FileStart <= d.Pos && d.Pos < f.FileEnd {
						used[relPath(pass)+"."+pass.FuncKey(f, d.Pos)] = true
					}
				}
			}
		}
		*c.allow = keys
		for key := range keys {
			if !used[key] {
				t.Errorf("%s allowlist key %q suppresses no finding: delete it", c.a.Name, key)
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
