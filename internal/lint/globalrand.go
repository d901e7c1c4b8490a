package lint

import (
	"go/ast"
	"go/types"
)

// Globalrand enforces that every random stream outside
// internal/resilience flows through resilience.RNG, the serializable
// source that checkpoints capture. Package-level math/rand functions
// draw from an unseedable process-global source; ad-hoc rand.NewSource
// state cannot be checkpointed, so a kill-and-resume would fork the
// mutation stream. The one sanctioned constructor shape is
// rand.New(<*resilience.RNG>) — rand.Rand keeps no hidden state for the
// methods the fuzzer uses, so restoring the source restores the stream.
var Globalrand = &Analyzer{
	Name: "globalrand",
	Doc:  "bans math/rand package-level functions and ad-hoc sources outside internal/resilience; randomness must flow through resilience.RNG",
	Run:  runGlobalrand,
}

const resilienceRNG = modulePrefix + "/internal/resilience"

func runGlobalrand(pass *Pass) error {
	if !pass.InModule() || pass.PathWithin("internal/resilience") {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if !isPkgSelector(pass, sel, "math/rand") && !isPkgSelector(pass, sel, "math/rand/v2") {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			if obj == nil {
				return true
			}
			if _, isFunc := obj.(*types.Func); !isFunc {
				return true // types (rand.Rand, rand.Source64) are fine
			}
			switch sel.Sel.Name {
			case "New":
				// rand.New(src) is legal iff src is the serializable
				// resilience.RNG; anything else hides resume state.
				if !randNewOfRNG(pass, sel) {
					pass.Reportf(sel.Pos(), "rand.New outside internal/resilience must wrap a *resilience.RNG (serializable, checkpointable source)")
				}
			default:
				pass.Reportf(sel.Pos(), "math/rand.%s draws from non-resumable state: thread a rand.New(resilience.NewRNG(seed)) through instead", sel.Sel.Name)
			}
			return true
		})
	}
	return nil
}

// randNewOfRNG reports whether the selector is the callee of a
// rand.New call whose single argument is a *resilience.RNG.
func randNewOfRNG(pass *Pass, sel *ast.SelectorExpr) bool {
	call := enclosingCall(pass, sel)
	if call == nil || len(call.Args) != 1 {
		return false
	}
	tv, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok {
		return false
	}
	n := namedOf(deref(tv.Type))
	return n != nil && n.Obj().Pkg() != nil &&
		n.Obj().Pkg().Path() == resilienceRNG && n.Obj().Name() == "RNG"
}

// enclosingCall finds the CallExpr whose Fun is exactly sel, by
// re-walking the file containing sel (cheap; files are small).
func enclosingCall(pass *Pass, sel *ast.SelectorExpr) *ast.CallExpr {
	var found *ast.CallExpr
	for _, f := range pass.Files {
		if sel.Pos() < f.Pos() || sel.Pos() >= f.End() {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if found != nil {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok && call.Fun == sel {
				found = call
				return false
			}
			return true
		})
	}
	return found
}
