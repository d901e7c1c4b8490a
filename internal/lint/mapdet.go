package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// mapdetPaths are the packages whose outputs must be bit-identical
// across runs: report rendering, shard merge, checkpoint encoding, the
// obs snapshot and exposition surface, and the linter's own diagnostics.
// Map iteration order is randomized per run, so a bare `range m` in
// these packages is a determinism hazard unless the loop body is an
// order-insensitive fold (see orderInsensitive) or the keys were
// collected and sorted first.
var mapdetPaths = []string{
	"internal/campaign",
	"internal/compliance",
	"internal/fuzz",
	"internal/obs",
	"internal/resilience",
	"internal/sig",
	"internal/lint",
	"cmd",
}

// Mapdet flags `range` over a map in deterministic-output code. The
// blessed patterns stay silent:
//
//   - collect-then-sort: the body only appends keys/values to slices
//     (ordering is imposed afterwards by the mandatory sort);
//   - map rebuild: the body only writes m2[k] = v / delete(m2, k)
//     keyed by the loop's own key variable (distinct keys, so the
//     result is iteration-order independent);
//   - commutative integer folds: `x += v`, `x |= v`, `n++` and friends
//     on integer types (addition and bitwise ops commute; float
//     accumulation does NOT and is flagged).
//
// Anything else — conditionals, early exits, I/O, float math — must
// iterate sorted keys or carry a reviewed //rvlint:allow mapdet.
var Mapdet = &Analyzer{
	Name: "mapdet",
	Doc:  "flags map iteration in deterministic-output code unless the body is provably order-insensitive",
	Run:  runMapdet,
}

func runMapdet(pass *Pass) error {
	if !inAnyPath(pass, mapdetPaths) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[rs.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if orderInsensitive(pass, rs) {
				return true
			}
			pass.Reportf(rs.Pos(), "map iteration order is random: sort the keys first, or make the body an order-insensitive fold (append-collect, m[k]=v rebuild, integer +=)")
			return true
		})
	}
	return nil
}

func inAnyPath(pass *Pass, rels []string) bool {
	for _, rel := range rels {
		if pass.PathWithin(rel) {
			return true
		}
	}
	return false
}

// orderInsensitive reports whether every statement in the range body is
// one of the whitelisted commutative forms.
func orderInsensitive(pass *Pass, rs *ast.RangeStmt) bool {
	keyIdent, _ := rs.Key.(*ast.Ident)
	for _, stmt := range rs.Body.List {
		if !orderInsensitiveStmt(pass, stmt, keyIdent) {
			return false
		}
	}
	return true
}

func orderInsensitiveStmt(pass *Pass, stmt ast.Stmt, key *ast.Ident) bool {
	switch s := stmt.(type) {
	case *ast.AssignStmt:
		if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
			return false
		}
		lhs, rhs := s.Lhs[0], s.Rhs[0]
		switch s.Tok {
		case token.ASSIGN, token.DEFINE:
			// x = append(x, ...): collect for a later sort.
			if call, ok := rhs.(*ast.CallExpr); ok {
				if fn, ok := call.Fun.(*ast.Ident); ok && fn.Name == "append" && len(call.Args) > 0 && sameExprText(lhs, call.Args[0]) {
					return true
				}
			}
			// m2[k] = v keyed by the loop's key variable: distinct
			// keys, so insertion order cannot matter.
			if ix, ok := lhs.(*ast.IndexExpr); ok && key != nil {
				if id, ok := ix.Index.(*ast.Ident); ok && id.Name == key.Name {
					return true
				}
			}
			return false
		case token.ADD_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
			// Commutative only over integers; float addition is
			// order-sensitive in the low bits.
			return isIntegerExpr(pass, lhs)
		}
		return false
	case *ast.IncDecStmt:
		return isIntegerExpr(pass, s.X)
	case *ast.ExprStmt:
		// delete(m2, k): each key removed at most once.
		if call, ok := s.X.(*ast.CallExpr); ok {
			if fn, ok := call.Fun.(*ast.Ident); ok && fn.Name == "delete" {
				return true
			}
		}
		return false
	case *ast.RangeStmt:
		// A nested range (flattening a map of maps into a pair slice
		// for sorting or a commutative fold) is fine when its own body
		// is order-insensitive.
		return orderInsensitive(pass, s)
	}
	return false
}

func isIntegerExpr(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// sameExprText reports whether two expressions are the same simple
// ident/selector chain (used to match `x = append(x, ...)`).
func sameExprText(a, b ast.Expr) bool {
	return flatName(a) != "" && flatName(a) == flatName(b)
}

func flatName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		if base := flatName(x.X); base != "" {
			return base + "." + x.Sel.Name
		}
	}
	return ""
}
