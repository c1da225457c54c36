// Package analysis is a small, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis model, built entirely on the standard
// library so the repository's custom vet suite (cmd/parabit-vet) works in
// environments without the x/tools module.
//
// It mirrors the upstream API shape — an Analyzer owns a Run function
// that receives a *Pass and reports Diagnostics — but supports only what
// parabit's analyzers need: whole-package syntax plus full type
// information, and //lint:ignore suppression. Facts, SSA, and result
// dependencies between analyzers are intentionally out of scope.
//
// The concrete analyzers live in the subpackages simtime, errdrop,
// guardedby and lockorder; see the README's "Static analysis" section for
// what each one enforces.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:ignore directives. It must be a valid Go identifier.
	Name string
	// Doc is a one-paragraph description of what the analyzer checks.
	Doc string
	// Run applies the analyzer to one package. It reports findings
	// through pass.Reportf.
	Run func(*Pass) error
}

// Pass carries one package's syntax and type information to an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diagnostics *[]Diagnostic
}

// Diagnostic is a single finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a formatted diagnostic at the given syntax position.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diagnostics = append(*p.diagnostics, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// IsTestFile reports whether the file containing pos is a _test.go file.
// Analyzers whose invariants only bind production code use this to skip
// test-only constructs.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// Run applies each analyzer to each package and returns the surviving
// diagnostics sorted by position. Diagnostics on lines covered by a
// //lint:ignore directive naming the analyzer are dropped.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		ig := collectIgnores(pkg.Fset, pkg.Syntax)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:    a,
				Fset:        pkg.Fset,
				Files:       pkg.Syntax,
				Pkg:         pkg.Types,
				TypesInfo:   pkg.TypesInfo,
				diagnostics: &diags,
			}
			before := len(diags)
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.PkgPath, err)
			}
			diags = filterIgnored(diags, before, ig)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// ignoreKey identifies one line of one file holding a //lint:ignore
// directive.
type ignoreKey struct {
	file string
	line int
}

// collectIgnores indexes //lint:ignore directives: the value set holds the
// analyzer names the directive suppresses ("all" suppresses every
// analyzer). A directive suppresses diagnostics on its own line and on the
// line immediately following it, matching the staticcheck convention of
// writing the directive directly above the offending statement.
func collectIgnores(fset *token.FileSet, files []*ast.File) map[ignoreKey][]string {
	out := make(map[ignoreKey][]string)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:ignore ")
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				if len(fields) < 2 {
					// Malformed: a directive requires a reason.
					continue
				}
				pos := fset.Position(c.Pos())
				names := strings.Split(fields[0], ",")
				out[ignoreKey{pos.Filename, pos.Line}] = names
			}
		}
	}
	return out
}

func filterIgnored(diags []Diagnostic, from int, ig map[ignoreKey][]string) []Diagnostic {
	if len(ig) == 0 {
		return diags
	}
	kept := diags[:from]
	for _, d := range diags[from:] {
		if ignored(d, ig) {
			continue
		}
		kept = append(kept, d)
	}
	return kept
}

func ignored(d Diagnostic, ig map[ignoreKey][]string) bool {
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		for _, name := range ig[ignoreKey{d.Pos.Filename, line}] {
			if name == d.Analyzer || name == "all" {
				return true
			}
		}
	}
	return false
}
