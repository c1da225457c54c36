package analysis

import (
	"flag"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateUnused = flag.Bool("update-unused", false, "rewrite testdata/unused_exports.golden")

// TestUnusedExports is a ratchet on dead API: it lists every exported
// func, method, type, var and const declared under internal/ that no other
// package's non-test file references, and compares the list with
// testdata/unused_exports.golden. A new export nothing outside its package
// uses fails the test; deleting or unexporting a listed one means
// regenerating the golden with -update-unused.
//
// Methods that satisfy an interface are skipped: they are called through
// it. perfbench is a separate module whose sources must keep compiling
// unmodified, so a reference from any of its files counts as a use.
//
// This is a test rather than a parabit-vet analyzer because go vet's
// unitchecker protocol analyzes one package at a time and cannot see
// uses from other packages.
func TestUnusedExports(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	mod := NewLoader(root)
	pkgs, err := mod.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	used := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, obj := range pkg.TypesInfo.Uses {
			if obj.Pkg() != nil && obj.Pkg() != pkg.Types {
				used[exportKey(obj)] = true
			}
		}
	}
	bench, err := loadPerfbench(filepath.Join(root, "perfbench"))
	if err != nil {
		t.Fatal(err)
	}
	for _, obj := range bench.TypesInfo.Uses {
		if obj.Pkg() != nil {
			used[exportKey(obj)] = true
		}
	}

	ifaces := interfaces(mod)
	var unused []string
	for _, pkg := range pkgs {
		if !strings.HasPrefix(pkg.PkgPath, "parabit/internal/") {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			if k := exportKey(obj); !used[k] {
				unused = append(unused, k+" "+kind(obj))
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !used[exportKey(m)] && !satisfiesInterface(named, m, ifaces) {
					unused = append(unused, exportKey(m)+" method")
				}
			}
		}
	}
	sort.Strings(unused)
	got := strings.Join(unused, "\n") + "\n"

	golden := filepath.Join("testdata", "unused_exports.golden")
	if *updateUnused {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-unused)", err)
	}
	if got != string(want) {
		t.Errorf("unused exports changed (regenerate with -update-unused once each new entry is deliberate):\n%s",
			lineDiff(string(want), got))
	}
}

// loadPerfbench type-checks the perfbench module's one package, test
// files included: the module is checked as it stands, so whatever any of
// its files names must stay.
func loadPerfbench(dir string) (*Package, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	return NewLoader(dir).CheckFiles("parabit/perfbench", files)
}

// exportKey names a package-level object or method independently of the
// loader that type-checked it: "internal/sim.Max", "internal/sim.Resource.Name".
func exportKey(obj types.Object) string {
	path := strings.TrimPrefix(obj.Pkg().Path(), "parabit/")
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				return path + "." + n.Obj().Name() + "." + fn.Name()
			}
		}
		return path + "." + fn.Name()
	}
	if v, ok := obj.(*types.Var); ok && v.IsField() {
		// Fields are not candidates; keep their keys apart from
		// package-level vars of the same name.
		return path + ".field:" + obj.Name()
	}
	return path + "." + obj.Name()
}

func kind(obj types.Object) string {
	switch obj.(type) {
	case *types.Func:
		return "func"
	case *types.TypeName:
		return "type"
	case *types.Var:
		return "var"
	case *types.Const:
		return "const"
	}
	return "object"
}

// interfaces returns every package-level, non-generic interface type the
// loader has type-checked, the module's and its standard-library
// dependencies' alike, plus the predeclared error.
func interfaces(l *Loader) []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, pkg := range l.pkgs {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				out = append(out, it)
			}
		}
	}
	return out
}

// satisfiesInterface reports whether m is part of T's or *T's
// implementation of one of the interfaces.
func satisfiesInterface(t *types.Named, m *types.Func, ifaces []*types.Interface) bool {
	ptr := types.NewPointer(t)
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == m.Name() && (types.Implements(t, it) || types.Implements(ptr, it)) {
				return true
			}
		}
	}
	return false
}

// lineDiff lists the lines only in want (-) and only in got (+).
func lineDiff(want, got string) string {
	in := func(s string) map[string]bool {
		m := make(map[string]bool)
		for _, l := range strings.Split(s, "\n") {
			m[l] = true
		}
		return m
	}
	w, g := in(want), in(got)
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if !g[l] {
			b.WriteString("- " + l + "\n")
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if !w[l] {
			b.WriteString("+ " + l + "\n")
		}
	}
	return b.String()
}
