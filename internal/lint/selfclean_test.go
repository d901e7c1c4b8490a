package lint

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
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

// deadAPIAllow lists the exported functions and methods in internal/...
// that only tests call, each with the test that relies on it.
var deadAPIAllow = map[string]string{
	"internal/analysis.Analysis.InstAt":   "TestAnalysisParity and FuzzAnalysisReuse read every site through it",
	"internal/coverage.Map.PointsCovered": "TestMapBuckets and TestDiscardRun count covered points with it",
	"internal/coverage.Map.Reset":         "TestDiscardRun and FuzzCoverageBaselineDifferential reset maps between runs",
	"internal/coverage.Map.RunFootprint":  "FuzzCoverageBaselineDifferential and the sim summary tests compare runs by their footprints",
	"internal/fuzz.Stats.Deterministic":   "TestEncodeFuzzStatsMatchesMarshalIndent holds EncodeFuzzStats to it; the resume tests compare stats through it",
	"internal/mem.Memory.Dirty":           "TestFastForwardFallbacks, TestExitSummaryFallbacks and TestPreloadIndependent check an image comes back clean",
	"internal/mem.Memory.Read8":           "TestLittleEndian, TestPristine and elf's TestLoadInto read memory bytes with it",
	"internal/mem.Memory.Read16":          "TestLittleEndian reads a halfword with it",
	"internal/mem.Memory.Read64":          "TestLittleEndian and exec's TestDoublePrecisionAndBoxing read doublewords with it",
	"internal/mem.Memory.Write8":          "TestFetch, TestSnapshotRestore and TestDirty write memory bytes with it",
	"internal/mem.Memory.Write16":         "exec's TestCompressedGating, TestFetchAtMemoryEnd and the mtval tests place compressed encodings with it",
	"internal/mem.Memory.Write64":         "TestLittleEndian and exec's TestDoublePrecisionAndBoxing write doublewords with it",
	"internal/sim.SeededSchedule":         "TestSeededScheduleDeterministic and bench's fault-injection test plan faults with it",
	"internal/template.Build":             "TestInjectionMatchesFullBuild compares Preload and Inject with a full assembly",
	"internal/template.Source":            "TestSourceDeterminism and TestUserSourceUnchanged read the assembler text",
}

// interfaceMethodStd holds the method names of the standard interfaces
// the module's types implement; a method of one of these names counts
// as used.
var interfaceMethodStd = map[string]string{
	"String":      "fmt.Stringer",
	"Error":       "error",
	"MarshalJSON": "encoding/json.Marshaler",
	"Write":       "io.Writer",
	"Int63":       "math/rand.Source",
	"Seed":        "math/rand.Source",
}

// TestExportedAPIHasCallers: every exported function or method declared
// in internal/... is referenced by a non-test file of the module (cmd/,
// bench/, examples/ and the root package count), or, for a method,
// shares its name with a method of an interface (one of the module's,
// or one in interfaceMethodStd). Tests do not count as callers: an API
// only tests reach is dead weight or an oracle, and an oracle needs an
// entry in deadAPIAllow. Every entry must still suppress something.
func TestExportedAPIHasCallers(t *testing.T) {
	units, err := LoadPackages(moduleRoot(t), "./...")
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	ifaceMethods := map[string]bool{}
	type decl struct {
		key    string
		method string // empty for a function
		pos    token.Position
	}
	var decls []decl
	for _, u := range units {
		for _, obj := range u.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[funcObjKey(fn)] = true
			}
		}
		for _, tv := range u.Info.Types {
			if it, ok := tv.Type.(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					ifaceMethods[it.Method(i).Name()] = true
				}
			}
		}
		if !strings.HasPrefix(u.Path, modulePrefix+"/internal/") {
			continue
		}
		for _, f := range u.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				var method string
				if fd.Recv != nil {
					method = fd.Name.Name
				}
				decls = append(decls, decl{funcObjKey(u.Info.Defs[fd.Name].(*types.Func)), method, u.Fset.Position(fd.Pos())})
			}
		}
	}
	suppressed := map[string]bool{}
	for _, d := range decls {
		if used[d.key] || ifaceMethods[d.method] || interfaceMethodStd[d.method] != "" {
			continue
		}
		if _, ok := deadAPIAllow[d.key]; ok {
			suppressed[d.key] = true
			continue
		}
		t.Errorf("%s: %s has no caller outside tests: delete it, or allowlist it in deadAPIAllow with the test that relies on it", d.pos, d.key)
	}
	for key := range deadAPIAllow {
		if !suppressed[key] {
			t.Errorf("deadAPIAllow key %q suppresses nothing: delete it", key)
		}
	}
}

// funcObjKey names a function or method as the allowlists do:
// "internal/fuzz.Stats.Deterministic".
func funcObjKey(fn *types.Func) string {
	fn = fn.Origin()
	key := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if n := namedOf(deref(recv.Type())); n != nil {
			key = n.Obj().Name() + "." + key
		}
	}
	if fn.Pkg() == nil {
		return key
	}
	return strings.TrimPrefix(fn.Pkg().Path(), modulePrefix+"/") + "." + key
}
