// Package analysistest runs analyzers over fixture packages in testdata
// directories and checks their diagnostics against // want annotations,
// mirroring golang.org/x/tools/go/analysis/analysistest on top of the
// standard library only.
//
// A fixture lives in testdata/src/<name>/ and is an ordinary Go package;
// because it sits under testdata it is invisible to the go tool and so
// may deliberately violate the invariants under test. Fixture files may
// import real module packages (internal/latch, internal/telemetry, ...),
// which the shared loader type-checks from source.
//
// Expectations are comments of the form
//
//	bad() // want "regexp" "second regexp"
//
// Each quoted regexp must match one diagnostic reported on that line, in
// any order; diagnostics with no matching expectation, and expectations
// with no matching diagnostic, fail the test.
package analysistest

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"parabit/internal/analysis"
)

// sharedLoader type-checks all fixtures in one process against one
// package map, so the (source-typechecked) standard library and module
// dependencies load once per test binary rather than once per fixture.
var (
	loaderOnce sync.Once
	loader     *analysis.Loader
)

func sharedLoader(t *testing.T) *analysis.Loader {
	loaderOnce.Do(func() {
		loader = analysis.NewLoader(moduleRoot(t))
	})
	return loader
}

// moduleRoot locates the module root by walking up from this source file.
func moduleRoot(t *testing.T) string {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("analysistest: cannot locate caller")
	}
	dir := filepath.Dir(file)
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("analysistest: no go.mod above", file)
		}
		dir = parent
	}
}

// Run analyzes the fixture package testdata/src/<fixture> relative to the
// calling test's directory and reports mismatches against its // want
// annotations.
func Run(t *testing.T, a *analysis.Analyzer, fixture string) {
	t.Helper()
	files, diags := analyze(t, callerDir(t), a, fixture)
	checkExpectations(t, files, diags)
}

// Diagnostics analyzes the fixture like Run but returns the raw
// diagnostics instead of checking // want annotations, for tests that
// assert exact positions and messages.
func Diagnostics(t *testing.T, a *analysis.Analyzer, fixture string) []analysis.Diagnostic {
	t.Helper()
	_, diags := analyze(t, callerDir(t), a, fixture)
	return diags
}

// callerDir returns the directory of the test source file two frames up
// (the file that called Run or Diagnostics).
func callerDir(t *testing.T) string {
	_, caller, _, ok := runtime.Caller(2)
	if !ok {
		t.Fatal("analysistest: cannot locate caller")
	}
	return filepath.Dir(caller)
}

// analyze loads the fixture package and runs the analyzer over it. The
// fixture directory name doubles as the package path, so names with
// slashes ("internal/simfix") give analyzers keyed on package-path shape
// realistic paths.
func analyze(t *testing.T, base string, a *analysis.Analyzer, fixture string) ([]string, []analysis.Diagnostic) {
	t.Helper()
	dir := filepath.Join(base, "testdata", "src", filepath.FromSlash(fixture))
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		t.Fatalf("analysistest: no Go files in %s", dir)
	}
	sort.Strings(files)

	l := sharedLoader(t)
	pkg, err := l.CheckFiles(fixture, files)
	if err != nil {
		t.Fatalf("analysistest: loading %s: %v", fixture, err)
	}
	diags, err := analysis.Run([]*analysis.Package{pkg}, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	return files, diags
}

// expectation is one // want regexp on one line.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

func checkExpectations(t *testing.T, files []string, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*expectation
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, raw := range splitQuoted(m[1]) {
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", name, pos.Line, raw, err)
					}
					wants = append(wants, &expectation{file: name, line: pos.Line, re: re, raw: raw})
				}
			}
		}
	}

	for _, d := range diags {
		if !matchWant(wants, d) {
			t.Errorf("%s: unexpected diagnostic: %s", d.Pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.raw)
		}
	}
}

func matchWant(wants []*expectation, d analysis.Diagnostic) bool {
	for _, w := range wants {
		if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
			w.matched = true
			return true
		}
	}
	return false
}

// splitQuoted extracts the Go string literals from a want comment's
// payload: double-quoted strings (with escape sequences) and
// backtick-quoted raw strings, in any mix.
func splitQuoted(s string) []string {
	var out []string
	for {
		i := strings.IndexAny(s, "\"`")
		if i < 0 {
			return out
		}
		lit, err := strconv.QuotedPrefix(s[i:])
		if err != nil {
			return out
		}
		unq, _ := strconv.Unquote(lit) // a quoted prefix always unquotes
		out = append(out, unq)
		s = s[i+len(lit):]
	}
}
