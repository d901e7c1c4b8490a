// Package lint implements rvnegtest's domain-specific static analysis
// suite: a set of analyzers that mechanically enforce the repository's
// determinism and robustness invariants (bit-identical campaigns across
// worker counts, telemetry on/off, and kill-and-resume).
//
// The design follows golang.org/x/tools/go/analysis — an Analyzer is a
// named check over one type-checked package — but is implemented on the
// standard library alone so the linter builds in a hermetic environment
// with no module downloads. Two drivers exist in cmd/rvlint: a
// standalone loader (load.go) that analyzes `go list` patterns, and a
// `go vet -vettool` compilation-unit checker (unitchecker.go) speaking
// the vet command-line protocol, which is how CI runs the suite.
//
// Suppression: a finding is silenced by a comment of the form
//
//	//rvlint:allow <name>... [-- reason]
//
// placed either on the offending line or on the line directly above it.
// Every allow comment is a reviewed exception; the reason is free text
// after the `--` separator. Analyzer-specific built-in allowlists (see
// wallclock.go, panicgate.go) cover recurring sanctioned patterns so
// the source is not littered with repeated suppressions.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// modulePrefix scopes every analyzer to this repository's packages;
// dependency units handed to the vettool driver (std library facts
// passes) are skipped wholesale.
const modulePrefix = "rvnegtest"

// An Analyzer is one named invariant check run over a type-checked
// package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //rvlint:allow comments. Lowercase, no spaces.
	Name string

	// Doc is a one-paragraph description of the invariant enforced.
	Doc string

	// Run reports findings through pass.Reportf.
	Run func(pass *Pass) error
}

// A Pass carries one package's parsed and type-checked state through an
// analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	PkgPath   string // import path as the build system reports it (may carry a " [test]" variant suffix)
	TypesInfo *types.Info

	diags []Diagnostic
}

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Reportf records a finding. Suppression (allow comments) is applied by
// the driver after the analyzer returns, so analyzers report
// unconditionally.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// InModule reports whether the pass's package belongs to this
// repository (as opposed to a dependency unit vetted only for facts).
func (p *Pass) InModule() bool {
	return p.PkgPath == modulePrefix || strings.HasPrefix(p.PkgPath, modulePrefix+"/")
}

// PathWithin reports whether the package's import path equals or is
// nested under modulePrefix/<rel>. The " [pkg.test]" suffix go vet uses
// for internal test variants is ignored.
func (p *Pass) PathWithin(rel string) bool {
	path := p.PkgPath
	if i := strings.IndexByte(path, ' '); i >= 0 {
		path = path[:i]
	}
	full := modulePrefix + "/" + rel
	return path == full || strings.HasPrefix(path, full+"/")
}

// IsTestFile reports whether the file is a _test.go file. The suite
// checks shipped code; test scaffolding may use wall clocks, ad-hoc
// RNGs and panics freely.
func (p *Pass) IsTestFile(f *ast.File) bool {
	return strings.HasSuffix(p.Fset.File(f.Pos()).Name(), "_test.go")
}

// FuncKey names the function declaration enclosing pos as
// "Func" or "Type.Method" (pointerness of the receiver erased), for
// matching against built-in allowlists. Returns "" at file scope.
func (p *Pass) FuncKey(file *ast.File, pos token.Pos) string {
	for _, d := range file.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || pos < fd.Pos() || pos >= fd.End() {
			continue
		}
		if fd.Recv == nil || len(fd.Recv.List) == 0 {
			return fd.Name.Name
		}
		t := fd.Recv.List[0].Type
		if st, ok := t.(*ast.StarExpr); ok {
			t = st.X
		}
		if id, ok := t.(*ast.Ident); ok {
			return id.Name + "." + fd.Name.Name
		}
		return fd.Name.Name
	}
	return ""
}

// RunAnalyzers executes every analyzer over the pass's package,
// filters findings through //rvlint:allow comments, and returns the
// surviving diagnostics sorted by position then analyzer name.
func RunAnalyzers(pass *Pass, analyzers []*Analyzer) ([]Diagnostic, error) {
	allowed := collectAllows(pass.Fset, pass.Files)
	var out []Diagnostic
	for _, a := range analyzers {
		sub := &Pass{
			Analyzer:  a,
			Fset:      pass.Fset,
			Files:     pass.Files,
			Pkg:       pass.Pkg,
			PkgPath:   pass.PkgPath,
			TypesInfo: pass.TypesInfo,
		}
		if err := a.Run(sub); err != nil {
			return nil, fmt.Errorf("%s: %v", a.Name, err)
		}
		for _, d := range sub.diags {
			if !allowed.covers(pass.Fset.Position(d.Pos), a.Name) {
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := pass.Fset.Position(out[i].Pos), pass.Fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// allowSet maps file -> line -> analyzer names suppressed on that line.
type allowSet map[string]map[int]map[string]bool

func (s allowSet) covers(pos token.Position, analyzer string) bool {
	lines := s[pos.Filename]
	if lines == nil {
		return false
	}
	names := lines[pos.Line]
	return names != nil && (names[analyzer] || names["*"])
}

// collectAllows scans every comment for //rvlint:allow directives. A
// directive covers its own line and the line below it, so both trailing
// comments and comments placed above a statement work.
func collectAllows(fset *token.FileSet, files []*ast.File) allowSet {
	set := allowSet{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names := parseAllow(c.Text)
				if len(names) == 0 {
					continue
				}
				p := fset.Position(c.Pos())
				lines := set[p.Filename]
				if lines == nil {
					lines = map[int]map[string]bool{}
					set[p.Filename] = lines
				}
				for _, ln := range []int{p.Line, p.Line + 1} {
					m := lines[ln]
					if m == nil {
						m = map[string]bool{}
						lines[ln] = m
					}
					for _, n := range names {
						m[n] = true
					}
				}
			}
		}
	}
	return set
}

// parseAllow extracts analyzer names from one comment's text, e.g.
// "//rvlint:allow wallclock globalrand -- campaign deadline". Returns
// nil when the comment is not an allow directive.
func parseAllow(text string) []string {
	const marker = "rvlint:allow"
	i := strings.Index(text, marker)
	if i < 0 {
		return nil
	}
	rest := text[i+len(marker):]
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return nil // e.g. "rvlint:allowance"
	}
	var names []string
	for _, f := range strings.Fields(rest) {
		if f == "--" {
			break
		}
		names = append(names, f)
	}
	return names
}

// named unwraps type aliases and returns the *types.Named behind t, or
// nil.
func namedOf(t types.Type) *types.Named {
	n, _ := types.Unalias(t).(*types.Named)
	return n
}

// deref removes one level of pointer.
func deref(t types.Type) types.Type {
	if p, ok := types.Unalias(t).Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}
