// Command parabit-vet is the repository's custom static-analysis suite:
// a multichecker over the analyzers in internal/analysis that enforces
// the invariants ordinary go vet cannot see.
//
//   - simtime: no wall-clock time in internal simulation packages; all
//     latency flows through internal/sim's virtual clock.
//   - errdrop: no discarded error returns from the device stack
//     (internal/ssd, internal/ftl, internal/sched).
//   - guardedby: fields annotated `// guarded by mu` are only accessed
//     with the named mutex held — writes need the write lock, *Locked
//     helpers are only called under the lock, and the post-Unlock
//     snapshot-after-release shape is flagged.
//   - lockorder: the package lock-acquisition graph is free of cycles,
//     same-instance re-acquisition, and inversions of declared
//     //parabit:lockorder pragmas.
//
// Copies of values that carry a sync.Mutex or a sync/atomic value are
// left to go vet's copylocks pass, which reports them, atomic-only
// structs included; CI runs go vet ./... on every package.
//
// The latch circuit contract is not checked here. latch.Sequence.Validate
// is its one checker: latch runs it on every MWS program and chained
// program it builds, and the latch tests run it over every fixed table
// and every unrolled chain.
//
// Usage:
//
//	parabit-vet [packages...]          analyze packages (default ./...)
//	go vet -vettool=$(which parabit-vet) ./...
//
// In the second form the binary speaks the go vet unitchecker protocol
// (-V=full, -flags, and JSON .cfg files), so findings integrate with go
// vet's caching and per-package scheduling. Suppress a finding by
// putting `//lint:ignore <analyzer> reason` on the line above it.
package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"runtime"
	"strings"

	"parabit/internal/analysis"
	"parabit/internal/analysis/errdrop"
	"parabit/internal/analysis/guardedby"
	"parabit/internal/analysis/lockorder"
	"parabit/internal/analysis/simtime"
)

// version participates in the go vet tool-identity handshake; bump it
// when analyzer behavior changes so go vet's result cache invalidates.
const version = "v1.3.0"

func analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		simtime.Analyzer,
		errdrop.Analyzer,
		guardedby.Analyzer,
		lockorder.Analyzer,
	}
}

func main() {
	args := os.Args[1:]

	// go vet protocol handshakes.
	if len(args) == 1 {
		switch {
		case strings.HasPrefix(args[0], "-V"):
			// Tool identity for go's build cache. The second field must
			// be "version" and the third must not be "devel".
			fmt.Printf("parabit-vet version %s\n", version)
			return
		case args[0] == "-flags":
			// go vet queries supported analyzer flags; we define none.
			fmt.Println("[]")
			return
		case strings.HasSuffix(args[0], ".cfg"):
			os.Exit(unitcheck(args[0]))
		}
	}

	if len(args) > 0 && (args[0] == "-h" || args[0] == "-help" || args[0] == "--help") {
		usage()
		return
	}
	os.Exit(standalone(args))
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: parabit-vet [packages...]\n\nanalyzers:\n")
	for _, a := range analyzers() {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
	}
}

// standalone loads packages through the source loader and analyzes them.
func standalone(patterns []string) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "parabit-vet:", err)
		return 1
	}
	loader := analysis.NewLoader(wd)
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "parabit-vet:", err)
		return 1
	}
	diags, err := analysis.Run(pkgs, analyzers())
	if err != nil {
		fmt.Fprintln(os.Stderr, "parabit-vet:", err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", relPos(d.Pos, wd), d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

func relPos(pos token.Position, wd string) string {
	s := pos.String()
	if rel, ok := strings.CutPrefix(s, wd+string(os.PathSeparator)); ok {
		return rel
	}
	return s
}

// vetConfig mirrors the JSON the go command writes for each vet unit.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	GoVersion                 string
	SucceedOnTypecheckFailure bool
}

// unitcheck analyzes one package unit under the go vet protocol and
// returns the process exit code: 0 clean, 1 internal error, 2 findings.
func unitcheck(cfgFile string) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "parabit-vet:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "parabit-vet: parsing %s: %v\n", cfgFile, err)
		return 1
	}

	// We use no cross-package facts, but go caches and feeds back the
	// vetx output file; write it first so every success path has it.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte("parabit-vet: no facts\n"), 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "parabit-vet:", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		// Dependencies are vetted only for facts; we have none.
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintln(os.Stderr, "parabit-vet:", err)
			return 1
		}
		files = append(files, f)
	}

	// Import resolution: source import path → canonical path via
	// ImportMap, then export data from the compiler-built package files.
	compilerImporter := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		path, ok := cfg.ImportMap[importPath]
		if !ok {
			path = importPath
		}
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return compilerImporter.Import(path)
	})

	// Test-variant packages are named "pkg [pkg.test]"; analyzers key on
	// the plain import path.
	pkgPath := cfg.ImportPath
	if i := strings.Index(pkgPath, " ["); i >= 0 {
		pkgPath = pkgPath[:i]
	}

	sizes := types.SizesFor(cfg.Compiler, runtime.GOARCH)
	if sizes == nil {
		sizes = types.SizesFor("gc", "amd64")
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	tcfg := &types.Config{Importer: imp, Sizes: sizes, GoVersion: cfg.GoVersion}
	tpkg, err := tcfg.Check(pkgPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(os.Stderr, "parabit-vet:", err)
		return 1
	}

	pkg := &analysis.Package{
		PkgPath:   pkgPath,
		Dir:       cfg.Dir,
		GoFiles:   cfg.GoFiles,
		Fset:      fset,
		Syntax:    files,
		Types:     tpkg,
		TypesInfo: info,
	}
	diags, err := analysis.Run([]*analysis.Package{pkg}, analyzers())
	if err != nil {
		fmt.Fprintln(os.Stderr, "parabit-vet:", err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", d.Pos, d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
