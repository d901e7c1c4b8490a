package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// The loader: `go list -export -deps -json` enumerates the requested
// packages plus every dependency's compiled export data (served from
// the build cache, no network), and each target package's GoFiles —
// never its _test.go files — are parsed and type-checked against that
// export data.

// A Unit is one parsed, type-checked package ready for analysis.
type Unit struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	Path  string
}

type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// GoList runs `go list -export -deps -json` in dir and decodes the
// package stream.
func GoList(dir string, patterns ...string) ([]*listPkg, error) {
	args := append([]string{"list", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,Standard,DepOnly,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var pkgs []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter satisfies types.Importer from a path→export-file map.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}

// LoadPackages loads, parses, and type-checks the packages matching
// patterns under dir.
func LoadPackages(dir string, patterns ...string) ([]*Unit, error) {
	pkgs, err := GoList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	var units []*Unit
	for _, p := range pkgs {
		if p.DepOnly {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		if len(files) == 0 {
			continue
		}
		pkg, info, err := Typecheck(fset, p.ImportPath, files, imp)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", p.ImportPath, err)
		}
		units = append(units, &Unit{Fset: fset, Files: files, Pkg: pkg, Info: info, Path: p.ImportPath})
	}
	return units, nil
}

// Typecheck runs the go/types checker over one package's files.
func Typecheck(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := &types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}

// RunStandalone analyzes the packages matching patterns under dir with
// the given analyzers, printing diagnostics to w as the go command
// prints vet's: file names relative to dir when the file lies beneath
// it. It returns the number of unsuppressed findings.
func RunStandalone(w io.Writer, dir string, patterns []string, analyzers []*Analyzer) (int, error) {
	units, err := LoadPackages(dir, patterns...)
	if err != nil {
		return 0, err
	}
	base, err := filepath.Abs(dir)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, u := range units {
		diags, err := RunAnalyzers(&Pass{Fset: u.Fset, Files: u.Files, Pkg: u.Pkg, PkgPath: u.Path, TypesInfo: u.Info}, analyzers)
		if err != nil {
			return total, fmt.Errorf("%s: %v", u.Path, err)
		}
		for _, d := range diags {
			pos := u.Fset.Position(d.Pos)
			if rel, err := filepath.Rel(base, pos.Filename); err == nil && filepath.IsLocal(rel) {
				pos.Filename = rel
			}
			fmt.Fprintf(w, "%s: %s (rvlint/%s)\n", pos, d.Message, d.Analyzer)
			total++
		}
	}
	return total, nil
}
