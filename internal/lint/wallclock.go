package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// wallclockPaths are the determinism-bound packages: everything that
// feeds signatures, checkpoint fingerprints, or campaign results. The
// telemetry layer (internal/obs) is the sanctioned home for wall-clock
// reads and is deliberately absent, as are the CLIs (progress output).
var wallclockPaths = []string{
	"internal/analysis",
	"internal/compliance",
	"internal/coverage",
	"internal/csrtest",
	"internal/exec",
	"internal/filter",
	"internal/fuzz",
	"internal/hart",
	"internal/isa",
	"internal/mem",
	"internal/resilience",
	"internal/sig",
	"internal/sim",
	"internal/template",
	"internal/torture",
}

// wallclockAllow is the reviewed allowlist of telemetry timers: each
// entry is a function (keyed pkg-relative, "Type.Method" or "Func")
// whose wall-clock reads feed stage timers, rate stats, or duration
// accounting — never a checkpoint fingerprint, signature, or
// campaign-visible result. One-off sites outside these functions use
// //rvlint:allow wallclock with a reason instead.
var wallclockAllow = map[string]string{
	"internal/compliance.Runner.run":       "RunStats.Duration / CasesPerSec accounting",
	"internal/compliance.Runner.runConfig": "per-shard duration telemetry (cell_done DurNS)",
	"internal/compliance.Cell.judge":       "signature-compare stage timer",
	"internal/compliance.instance.run":     "per-SUT stage timers",
	"internal/fuzz.Fuzzer.Step":            "stage timers + execs/sec session accounting",
	"internal/fuzz.Fuzzer.RunContext":      "wall-clock campaign budget (-duration flag)",
	"internal/fuzz.Fuzzer.SaveCheckpoint":  "checkpoint stage timer (save latency, never in the fingerprint)",
}

// Wallclock flags time.Now / time.Since / time.Until in
// determinism-bound packages. Wall-clock values leaking into
// signatures, fingerprints, or merge ordering break the bit-identical
// campaign guarantee in ways that only surface under load or resume;
// telemetry timers belong in internal/obs or on the reviewed
// allowlist above.
var Wallclock = &Analyzer{
	Name: "wallclock",
	Doc:  "flags wall-clock reads (time.Now/Since/Until) in determinism-bound packages outside the telemetry-timer allowlist",
	Run:  runWallclock,
}

var wallclockBanned = map[string]bool{"Now": true, "Since": true, "Until": true}

func runWallclock(pass *Pass) error {
	if !inAnyPath(pass, wallclockPaths) {
		return nil
	}
	rel := relPath(pass)
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !wallclockBanned[sel.Sel.Name] {
				return true
			}
			if !isPkgSelector(pass, sel, "time") {
				return true
			}
			if _, ok := wallclockAllow[rel+"."+pass.FuncKey(f, sel.Pos())]; ok {
				return true
			}
			pass.Reportf(sel.Pos(), "wall-clock read (time.%s) in determinism-bound package %s: route timing through internal/obs or add the function to the wallclock allowlist", sel.Sel.Name, rel)
			return true
		})
	}
	return nil
}

// relPath returns the import path with the module prefix and any
// " [test]" variant suffix stripped: "internal/fuzz".
func relPath(pass *Pass) string {
	path := pass.PkgPath
	if i := strings.IndexByte(path, ' '); i >= 0 {
		path = path[:i]
	}
	return strings.TrimPrefix(path, modulePrefix+"/")
}

// isPkgSelector reports whether sel is a selection off the named
// package (resolved through the type info, so import renames work).
func isPkgSelector(pass *Pass, sel *ast.SelectorExpr, pkgPath string) bool {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	obj, ok := pass.TypesInfo.Uses[id]
	if !ok {
		return false
	}
	pn, ok := obj.(*types.PkgName)
	return ok && pn.Imported().Path() == pkgPath
}
