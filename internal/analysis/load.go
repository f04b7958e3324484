package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
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
	"strings"
)

// A Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// wholeModule is set by Load when the load holds every package of
	// the module (see moduleLoaded).
	wholeModule bool
	directives  *directiveIndex
}

// sourceFiles returns the package's non-test files. Analyzers only see
// these: the invariants guard production code, and tests legitimately
// use wall clocks, raw comparisons, and ad-hoc lifecycles.
func (p *Package) sourceFiles() []*ast.File {
	files := make([]*ast.File, 0, len(p.Files))
	for _, f := range p.Files {
		name := p.Fset.Position(f.Package).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		files = append(files, f)
	}
	return files
}

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Standard   bool
}

// Load resolves the package patterns with the go tool and type-checks
// every matched (non-dependency) package. Dependencies — including the
// standard library — are resolved from compiler export data, which
// `go list -export` materialises in the build cache, so loading works
// fully offline and never re-type-checks the world from source.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{
		"list", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,Export,DepOnly,Standard",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}
	exports := make(map[string]string)
	var targets []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %w", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			targets = append(targets, p)
		}
	}

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(f)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)

	whole, err := moduleLoaded(dir, targets)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, p := range targets {
		if len(p.GoFiles) == 0 {
			continue
		}
		files := make([]*ast.File, 0, len(p.GoFiles))
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("analysis: %w", err)
			}
			files = append(files, f)
		}
		pkg, info, err := typecheck(fset, p.ImportPath, files, imp)
		if err != nil {
			return nil, fmt.Errorf("analysis: type-checking %s: %w", p.ImportPath, err)
		}
		pkgs = append(pkgs, &Package{
			Path:        p.ImportPath,
			Dir:         p.Dir,
			Fset:        fset,
			Files:       files,
			Types:       pkg,
			Info:        info,
			wholeModule: whole,
			directives:  buildDirectiveIndex(fset, files),
		})
	}
	return pkgs, nil
}

// moduleLoaded reports whether targets hold every package that may
// import one of them. By Go's internal-import rule, a package below an
// internal directory is importable only from the tree rooted at that
// directory's parent — the module root for this repository's
// internal packages, and its own miniature tree for an analyzer's
// testdata — so every such tree must be loaded in full.
func moduleLoaded(dir string, targets []listedPackage) (bool, error) {
	loaded := make(map[string]bool, len(targets))
	roots := make(map[string]bool)
	for _, p := range targets {
		loaded[p.ImportPath] = true
		if i := strings.LastIndex(p.ImportPath+"/", "/internal/"); i >= 0 {
			below := filepath.FromSlash(p.ImportPath[i:])
			roots[strings.TrimSuffix(p.Dir, below)] = true
		}
	}
	for root := range roots {
		cmd := exec.Command("go", "list", "-e", "-find", "-f", "{{.ImportPath}}", filepath.Join(root, "..."))
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return false, fmt.Errorf("analysis: go list %s/...: %v\n%s", root, err, stderr.Bytes())
		}
		for _, path := range strings.Fields(string(out)) {
			if !loaded[path] {
				return false, nil
			}
		}
	}
	return true, nil
}

// LoadFiles type-checks one package given explicit files and an export
// lookup — the entry point the vettool protocol uses, where the go
// command hands agilelint the file list and the export data of every
// import.
func LoadFiles(importPath string, filenames []string, lookup func(path string) (io.ReadCloser, error)) (*Package, error) {
	fset := token.NewFileSet()
	files := make([]*ast.File, 0, len(filenames))
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)
	pkg, info, err := typecheck(fset, importPath, files, imp)
	if err != nil {
		return nil, err
	}
	return &Package{
		Path:       importPath,
		Fset:       fset,
		Files:      files,
		Types:      pkg,
		Info:       info,
		directives: buildDirectiveIndex(fset, files),
	}, nil
}

func typecheck(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}
