package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Cloneshallow checks that every Clone/Snapshot method returning its
// receiver's type deep-copies the receiver's slice and map fields.
// A clone that aliases a slice lets the original and the copy observe
// (or race on) each other's mutations — the exact bug class behind the
// Fuzzer.Stats Trace aliasing, the checkpoint Trace aliasing, and the
// RunStats.PerWorker aliasing fixed one by one in earlier PRs.
//
// The check is syntactic over the method body:
//
//   - a whole-struct copy (`c := *s`, `s` returned by value, or an
//     explicit `Field: s.Field` in a composite literal) marks a
//     reference field as aliased;
//   - any later assignment `x.Field = <expr>` whose right-hand side is
//     not the bare source selector (append, make, nil, a helper call)
//     counts as the deep copy and clears the field;
//   - omitting a field from a composite literal is fine: the zero
//     value aliases nothing.
//
// Arrays and scalars copy by value; pointer fields are deliberately out
// of scope (sharing an immutable entry state or exit summary via pointer
// is the intended design).
var Cloneshallow = &Analyzer{
	Name: "cloneshallow",
	Doc:  "Clone/Snapshot methods must deep-copy slice and map fields of their receiver",
	Run:  runCloneshallow,
}

var cloneMethodNames = map[string]bool{"Clone": true, "Snapshot": true}

func runCloneshallow(pass *Pass) error {
	if !pass.InModule() {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || !cloneMethodNames[fd.Name.Name] {
				continue
			}
			checkCloneMethod(pass, fd)
		}
	}
	return nil
}

func checkCloneMethod(pass *Pass, fd *ast.FuncDecl) {
	recv := fd.Recv.List[0]
	if len(recv.Names) == 0 {
		return
	}
	recvName := recv.Names[0].Name
	recvObj := pass.TypesInfo.Defs[recv.Names[0]]
	if recvObj == nil {
		return
	}
	base := namedOf(deref(recvObj.Type()))
	if base == nil {
		return
	}
	st, ok := base.Underlying().(*types.Struct)
	if !ok {
		return
	}
	// Only methods that return the receiver's type are clone-shaped;
	// e.g. Memory.Snapshot() (save-state, no results) is not.
	if !returnsReceiverType(pass, fd, base) {
		return
	}
	refFields := map[string]bool{}
	for i := 0; i < st.NumFields(); i++ {
		switch st.Field(i).Type().Underlying().(type) {
		case *types.Slice, *types.Map:
			refFields[st.Field(i).Name()] = true
		}
	}
	if len(refFields) == 0 {
		return
	}

	aliased := map[string]token.Pos{} // field -> pos of the aliasing site
	fixed := map[string]bool{}        // field -> a deep-copying assignment exists
	wholeCopy := token.NoPos

	markWholeCopy := func(pos token.Pos) {
		if wholeCopy == token.NoPos {
			wholeCopy = pos
		}
	}
	// bareRecvSelector reports whether e is exactly `recv.F` (possibly
	// parenthesized), the shallow-alias shape.
	bareRecvSelector := func(e ast.Expr) (string, bool) {
		e = ast.Unparen(e)
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return "", false
		}
		id, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok || id.Name != recvName {
			return "", false
		}
		return sel.Sel.Name, refFields[sel.Sel.Name]
	}
	// isRecvValue reports whether e is the receiver copied by value:
	// `*recv` for a pointer receiver, or bare `recv` for a value one.
	isRecvValue := func(e ast.Expr) bool {
		e = ast.Unparen(e)
		if star, ok := e.(*ast.StarExpr); ok {
			e = ast.Unparen(star.X)
		}
		id, ok := e.(*ast.Ident)
		return ok && id.Name == recvName
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				if i >= len(x.Rhs) {
					break
				}
				rhs := x.Rhs[i]
				// c := *s / c = *s / return-value staging.
				if isRecvValue(rhs) {
					markWholeCopy(x.Pos())
					continue
				}
				// x.F = <expr>: aliasing if expr is bare s.F, a deep
				// copy otherwise.
				if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok && refFields[sel.Sel.Name] {
					if f, bare := bareRecvSelector(rhs); bare && f == sel.Sel.Name {
						aliased[f] = rhs.Pos()
					} else {
						fixed[sel.Sel.Name] = true
					}
				}
			}
		case *ast.CompositeLit:
			for _, el := range x.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok || !refFields[key.Name] {
					continue
				}
				if f, bare := bareRecvSelector(kv.Value); bare && f == key.Name {
					aliased[key.Name] = kv.Value.Pos()
				} else {
					fixed[key.Name] = true
				}
			}
		case *ast.ReturnStmt:
			for _, res := range x.Results {
				if isRecvValue(res) {
					markWholeCopy(x.Pos())
				}
				if u, ok := ast.Unparen(res).(*ast.UnaryExpr); ok && u.Op == token.AND && isRecvValue(u.X) {
					markWholeCopy(x.Pos())
				}
			}
		}
		return true
	})

	// Report in struct-field order for deterministic output. A
	// whole-struct copy counts as the aliasing site for any reference
	// field not explicitly assigned.
	for i := 0; i < st.NumFields(); i++ {
		name := st.Field(i).Name()
		if !refFields[name] {
			continue
		}
		pos, bad := aliased[name]
		if !bad && wholeCopy != token.NoPos {
			pos, bad = wholeCopy, true
		}
		if bad && !fixed[name] {
			pass.Reportf(pos, "%s.%s aliases the receiver's %s field %q: deep-copy it (append([]T(nil), s.%s...) / maps-style copy) or the clone and original will share mutations", base.Obj().Name(), fd.Name.Name, typeKind(st.Field(i).Type()), name, name)
		}
	}
}

func typeKind(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	}
	return "reference"
}

func returnsReceiverType(pass *Pass, fd *ast.FuncDecl, base *types.Named) bool {
	if fd.Type.Results == nil {
		return false
	}
	for _, res := range fd.Type.Results.List {
		tv, ok := pass.TypesInfo.Types[res.Type]
		if !ok {
			continue
		}
		if n := namedOf(deref(tv.Type)); n != nil && n.Obj() == base.Obj() {
			return true
		}
	}
	return false
}
