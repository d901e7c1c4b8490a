package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The fixture harness is a small analysistest: each testdata/<dir>
// holds one synthetic package, analyzed under a caller-chosen import
// path (analyzers scope by path, so the same source can be probed in
// and out of scope). Lines carrying a `// want "regexp"` comment must
// produce at least one matching diagnostic; every diagnostic must land
// on a want line.

var (
	exportsOnce sync.Once
	exportsMap  map[string]string
	exportsErr  error
)

// fixtureImporter returns a types.Importer backed by `go list -export`
// over the whole module plus the std packages fixtures use. One listing
// serves every fixture test.
func fixtureImporter(t *testing.T, fset *token.FileSet) types.Importer {
	t.Helper()
	exportsOnce.Do(func() {
		pkgs, err := GoList(moduleRoot(t), "./...", "time", "math/rand", "sort", "fmt")
		if err != nil {
			exportsErr = err
			return
		}
		exportsMap = map[string]string{}
		for _, p := range pkgs {
			if p.Export != "" {
				exportsMap[p.ImportPath] = p.Export
			}
		}
	})
	if exportsErr != nil {
		t.Fatalf("go list for fixture imports: %v", exportsErr)
	}
	return exportImporter(fset, exportsMap)
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(filepath.Dir(wd)) // internal/lint -> repo root
}

// runFixture analyzes testdata/<dir> under pkgpath with one analyzer
// and checks diagnostics against the // want comments.
func runFixture(t *testing.T, a *Analyzer, pkgpath, dir string) {
	t.Helper()
	pattern := filepath.Join("testdata", dir, "*.go")
	names, err := filepath.Glob(pattern)
	if err != nil || len(names) == 0 {
		t.Fatalf("no fixture files match %s (err=%v)", pattern, err)
	}
	sort.Strings(names)

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		files = append(files, f)
	}

	imp := fixtureImporter(t, fset)
	pkg, info, err := Typecheck(fset, pkgpath, files, imp)
	if err != nil {
		t.Fatalf("typecheck %s: %v", dir, err)
	}

	diags, err := RunAnalyzers(&Pass{Fset: fset, Files: files, Pkg: pkg, PkgPath: pkgpath, TypesInfo: info}, []*Analyzer{a})
	if err != nil {
		t.Fatalf("run %s: %v", a.Name, err)
	}

	wants := collectWants(t, names)
	matched := map[string]bool{}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		key := posKey(pos.Filename, pos.Line)
		re, ok := wants[key]
		if !ok {
			t.Errorf("unexpected diagnostic at %s: %s", pos, d.Message)
			continue
		}
		if !re.MatchString(d.Message) {
			t.Errorf("diagnostic at %s does not match want %q: %s", pos, re, d.Message)
		}
		matched[key] = true
	}
	for key, re := range wants {
		if !matched[key] {
			t.Errorf("missing diagnostic: want %q at %s", re, key)
		}
	}
}

// runFixtureClean asserts the fixture produces no diagnostics at all
// under pkgpath (scope tests), ignoring any want comments.
func runFixtureClean(t *testing.T, a *Analyzer, pkgpath, dir string) {
	t.Helper()
	pattern := filepath.Join("testdata", dir, "*.go")
	names, _ := filepath.Glob(pattern)
	if len(names) == 0 {
		t.Fatalf("no fixture files match %s", pattern)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		files = append(files, f)
	}
	imp := fixtureImporter(t, fset)
	pkg, info, err := Typecheck(fset, pkgpath, files, imp)
	if err != nil {
		t.Fatalf("typecheck %s: %v", dir, err)
	}
	diags, err := RunAnalyzers(&Pass{Fset: fset, Files: files, Pkg: pkg, PkgPath: pkgpath, TypesInfo: info}, []*Analyzer{a})
	if err != nil {
		t.Fatalf("run %s: %v", a.Name, err)
	}
	for _, d := range diags {
		t.Errorf("out-of-scope package %s still diagnosed at %s: %s", pkgpath, fset.Position(d.Pos), d.Message)
	}
}

var wantRE = regexp.MustCompile(`// want "((?:[^"\\]|\\.)*)"`)

func collectWants(t *testing.T, names []string) map[string]*regexp.Regexp {
	t.Helper()
	wants := map[string]*regexp.Regexp{}
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp: %v", name, i+1, err)
			}
			wants[posKey(name, i+1)] = re
		}
	}
	return wants
}

func posKey(file string, line int) string {
	return file + ":" + strconv.Itoa(line)
}

func TestMapdetFixture(t *testing.T) {
	runFixture(t, Mapdet, "rvnegtest/internal/compliance", "mapdet")
}

func TestMapdetOutOfScope(t *testing.T) {
	// The same patterns in a non-deterministic-output package are not
	// rvlint's business.
	runFixtureClean(t, Mapdet, "rvnegtest/internal/isa", "mapdet_scope")
}

func TestWallclockFixture(t *testing.T) {
	runFixture(t, Wallclock, "rvnegtest/internal/fuzz", "wallclock")
}

func TestWallclockOutOfScope(t *testing.T) {
	// internal/obs is the telemetry layer: wall clocks are its job.
	runFixtureClean(t, Wallclock, "rvnegtest/internal/obs", "wallclock_scope")
}

func TestGlobalrandFixture(t *testing.T) {
	runFixture(t, Globalrand, "rvnegtest/internal/fuzz", "globalrand")
}

func TestGlobalrandResilienceExempt(t *testing.T) {
	// internal/resilience implements the sanctioned source; the ban
	// does not apply to its own plumbing.
	runFixtureClean(t, Globalrand, "rvnegtest/internal/resilience", "globalrand_scope")
}

func TestCloneshallowFixture(t *testing.T) {
	runFixture(t, Cloneshallow, "rvnegtest/internal/exec", "cloneshallow")
}

func TestPanicgateFixture(t *testing.T) {
	runFixture(t, Panicgate, "rvnegtest/internal/exec", "panicgate")
}

func TestPanicgateAllowlist(t *testing.T) {
	// A panic inside an allowlisted function (internal/mem
	// Memory.Restore) stays silent.
	runFixtureClean(t, Panicgate, "rvnegtest/internal/mem", "panicgate_allowlist")
}

func TestPanicgateOutOfScope(t *testing.T) {
	// panicgate governs internal/ only; CLIs may panic-free-form (they
	// have their own fatalf conventions).
	runFixtureClean(t, Panicgate, "rvnegtest/cmd/rvfuzz", "panicgate_scope")
}
