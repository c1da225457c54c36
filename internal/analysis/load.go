package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	PkgPath   string
	Dir       string
	GoFiles   []string
	Fset      *token.FileSet
	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// listPackage is the subset of `go list -json` output the loader uses.
type listPackage struct {
	ImportPath string
	Dir        string
	Standard   bool
	GoFiles    []string
	Imports    []string
	Error      *struct{ Err string }
}

// Loader type-checks packages from source, resolving package metadata
// through the go command. It needs no export data and no modules beyond
// the one being analyzed, which keeps cmd/parabit-vet free of
// dependencies outside the standard library.
//
// All packages loaded through one Loader share a FileSet and a package
// map, so repeated Check* calls (as in analysistest suites) type-check
// shared dependencies once.
type Loader struct {
	// Dir is the directory go list runs in; it must sit inside the
	// module under analysis. Empty means the current directory.
	Dir string

	fset    *token.FileSet
	meta    map[string]*listPackage
	pkgs    map[string]*types.Package
	targets map[string]bool
	full    map[string]*Package
}

// NewLoader returns a loader rooted at dir.
func NewLoader(dir string) *Loader {
	return &Loader{
		Dir:     dir,
		fset:    token.NewFileSet(),
		meta:    make(map[string]*listPackage),
		pkgs:    make(map[string]*types.Package),
		targets: make(map[string]bool),
		full:    make(map[string]*Package),
	}
}

// Load lists the packages matching the patterns and returns them fully
// type-checked, with syntax and type info, in go list order.
//
// Every package — target or dependency — is type-checked exactly once per
// Loader, so type identities agree across the whole load no matter in
// which order the go command lists targets.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	targets, err := l.list(patterns)
	if err != nil {
		return nil, err
	}
	for _, path := range targets {
		m, ok := l.meta[path]
		if !ok {
			return nil, fmt.Errorf("load %s: no metadata", path)
		}
		if len(m.GoFiles) > 0 {
			l.targets[path] = true
		}
	}
	var out []*Package
	for _, path := range targets {
		if !l.targets[path] {
			continue
		}
		pkg, err := l.target(path)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// target type-checks a target package with full syntax and info, once.
func (l *Loader) target(path string) (*Package, error) {
	if pkg, ok := l.full[path]; ok {
		return pkg, nil
	}
	m := l.meta[path]
	pkg, err := l.checkDir(path, m.Dir, m.GoFiles)
	if err != nil {
		return nil, err
	}
	l.full[path] = pkg
	return pkg, nil
}

// CheckFiles parses and type-checks an explicit file list as one package
// with the given import path. Imports resolve through the loader, so the
// files may import anything visible from the loader's module — this is
// how analysistest type-checks fixtures living under testdata.
func (l *Loader) CheckFiles(pkgPath string, filenames []string) (*Package, error) {
	return l.checkDir(pkgPath, "", filenames)
}

// list runs `go list -deps -json` over the patterns, merging the result
// into the metadata cache, and returns the import paths matched by the
// patterns themselves (via a second, cheap `go list`).
func (l *Loader) list(patterns []string) ([]string, error) {
	if err := l.mergeList(append([]string{"-deps", "-json=ImportPath,Dir,Standard,GoFiles,Imports,Error"}, patterns...)); err != nil {
		return nil, err
	}
	out, err := l.goList(patterns...)
	if err != nil {
		return nil, err
	}
	var targets []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if line != "" {
			targets = append(targets, line)
		}
	}
	return targets, nil
}

func (l *Loader) goList(args ...string) ([]byte, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = l.Dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return out, nil
}

func (l *Loader) mergeList(args []string) error {
	out, err := l.goList(args...)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("decoding go list output: %w", err)
		}
		if p.Error != nil {
			return fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if _, ok := l.meta[p.ImportPath]; !ok {
			p := p
			l.meta[p.ImportPath] = &p
		}
	}
}

// Import implements types.Importer by type-checking the named package
// from source, on demand, with memoization.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.targets[path] {
		// The package is itself an analysis target reached first as a
		// dependency: check it with full info now so it is never
		// type-checked a second time.
		pkg, err := l.target(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	m, ok := l.meta[path]
	if !ok {
		// A package outside the initial -deps closure (e.g. an import
		// reachable only from a testdata fixture): list it lazily.
		if err := l.mergeList([]string{"-deps", "-json=ImportPath,Dir,Standard,GoFiles,Imports,Error", "--", path}); err != nil {
			return nil, err
		}
		if m, ok = l.meta[path]; !ok {
			return nil, fmt.Errorf("package %s not found by go list", path)
		}
	}
	files, err := l.parse(m.Dir, m.GoFiles)
	if err != nil {
		return nil, err
	}
	pkg, err := l.config().Check(path, l.fset, files, nil)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// checkDir type-checks one target package with full syntax and type info.
func (l *Loader) checkDir(pkgPath, dir string, filenames []string) (*Package, error) {
	files, err := l.parse(dir, filenames)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	tpkg, err := l.config().Check(pkgPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", pkgPath, err)
	}
	l.pkgs[pkgPath] = tpkg
	abs := make([]string, len(filenames))
	for i, f := range filenames {
		if dir != "" && !filepath.IsAbs(f) {
			f = filepath.Join(dir, f)
		}
		abs[i] = f
	}
	return &Package{
		PkgPath:   pkgPath,
		Dir:       dir,
		GoFiles:   abs,
		Fset:      l.fset,
		Syntax:    files,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}

func (l *Loader) parse(dir string, filenames []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range filenames {
		path := name
		if dir != "" && !filepath.IsAbs(path) {
			path = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(l.fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func (l *Loader) config() *types.Config {
	sizes := types.SizesFor("gc", runtime.GOARCH)
	if sizes == nil {
		sizes = types.SizesFor("gc", "amd64")
	}
	return &types.Config{Importer: l, Sizes: sizes}
}

// compile-time check that the Loader satisfies the importer interface the
// type checker consumes.
var _ types.Importer = (*Loader)(nil)
