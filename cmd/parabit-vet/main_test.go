package main

import (
	"strings"
	"testing"
)

// TestVersionHandshakeFormat pins the -V=full output to the shape the go
// command's tool-identity parser accepts: at least three fields, second
// field "version", third field not "devel".
func TestVersionHandshakeFormat(t *testing.T) {
	line := "parabit-vet version " + version
	f := strings.Fields(line)
	if len(f) < 3 {
		t.Fatalf("-V output %q has %d fields, go vet needs at least 3", line, len(f))
	}
	if f[1] != "version" {
		t.Errorf("-V output %q: second field is %q, go vet requires \"version\"", line, f[1])
	}
	if f[2] == "devel" {
		t.Errorf("-V output %q: version \"devel\" requires a buildID field go vet would reject here", line)
	}
}

func TestAnalyzerNamesUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, a := range analyzers() {
		if a.Name == "" {
			t.Error("analyzer with empty name")
		}
		if a.Doc == "" {
			t.Errorf("analyzer %s has no doc string", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	if len(seen) < 4 {
		t.Errorf("expected at least 4 analyzers, got %d", len(seen))
	}
}
