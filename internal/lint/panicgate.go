package lint

import (
	"go/ast"
	"strings"
)

// panicgateAllow is the reviewed allowlist of intentional panics,
// keyed like wallclockAllow ("pkg-relative-path.Type.Method" or
// ".Func"). Three classes are sanctioned:
//
//   - seeded-defect behaviour: the sail-style decoder *crashes* on
//     malformed encodings by design — that crash is the divergence the
//     paper's negative testing hunts for;
//   - fault injection: sim.Faulty exists to panic on cue so the
//     watchdog/breaker/quarantine machinery has something to catch;
//   - init-time table invariants: a corrupt instruction table must
//     stop the process before any campaign starts.
//
// Functions named Must* are exempt by convention (documented
// panic-on-error wrappers). Everything else needs a //rvlint:allow
// panicgate with a reason, or should return an error.
var panicgateAllow = map[string]string{
	"internal/isa.init":             "init-time instruction-table invariants must stop the process",
	"internal/isa.Decoder.Decode32": "seeded sail decoder crash (paper defect class: the crash IS the divergence)",
	"internal/isa.Decoder.DecodeC":  "seeded sail decoder crash (paper defect class: the crash IS the divergence)",
	"internal/sim.Faulty.run":       "fault injection is this type's purpose; the watchdog catches it",
	"internal/mem.Memory.Restore":   "API-misuse guard (Restore without Snapshot)",
}

// Panicgate extends the PR 3 panic audit mechanically: no `panic(` in
// internal/... outside the reviewed allowlist above. Library code that
// panics takes down a whole campaign worker; the resilience layer turns
// errors into quarantined cases, but only if they ARE errors.
var Panicgate = &Analyzer{
	Name: "panicgate",
	Doc:  "bans panic() in internal packages outside a reviewed allowlist; library code returns errors",
	Run:  runPanicgate,
}

func runPanicgate(pass *Pass) error {
	if !pass.PathWithin("internal") {
		return nil
	}
	rel := relPath(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok || id.Name != "panic" || pass.TypesInfo.Uses[id] == nil || pass.TypesInfo.Uses[id].Pkg() != nil {
				return true // shadowed panic or not the builtin
			}
			key := pass.FuncKey(f, call.Pos())
			if _, ok := panicgateAllow[rel+"."+key]; ok {
				return true
			}
			if fn := key[strings.LastIndexByte(key, '.')+1:]; strings.HasPrefix(fn, "Must") {
				return true
			}
			pass.Reportf(call.Pos(), "panic in internal package %s: return an error (resilience quarantines failing cases only if they fail as errors), or add to the reviewed panicgate allowlist", rel)
			return true
		})
	}
	return nil
}
