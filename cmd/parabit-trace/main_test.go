package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parabit"
)

func traceDevice(t *testing.T) *parabit.Device {
	t.Helper()
	d, err := parabit.NewDevice(parabit.WithSmallGeometry())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestExecuteDemoTraceLines(t *testing.T) {
	d := traceDevice(t)
	for _, line := range strings.Split(strings.TrimSpace(demoTrace), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := execute(d, line); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
	}
	// The demo runs 2 bitwise + 2 reduce; reductions count as single
	// chained ops under LocFree.
	if d.Stats().BitwiseOps == 0 {
		t.Fatal("no ops recorded")
	}
}

func TestExecuteRejectsMalformedLines(t *testing.T) {
	d := traceDevice(t)
	bad := []string{
		"write 1",              // missing pattern
		"write x a5",           // bad lpn
		"write 1 zz",           // bad hex
		"pair 1 2 a5",          // missing operand
		"bitwise AND nope 0 1", // bad scheme
		"bitwise WAT prealloc 0 1",
		"query locfree",    // missing expression
		"query nope 1 & 2", // bad scheme
		"query locfree 1 & & 2",
		"frobnicate 1 2 3",
		"group 1,2 a5", // count mismatch
	}
	for _, line := range bad {
		if err := execute(d, line); err == nil {
			t.Errorf("%q accepted", line)
		}
	}
}

func TestParseLPNs(t *testing.T) {
	lpns, err := parseLPNs("1,2,30")
	if err != nil || len(lpns) != 3 || lpns[2] != 30 {
		t.Fatalf("parseLPNs: %v %v", lpns, err)
	}
	if _, err := parseLPNs("1,x"); err == nil {
		t.Error("bad lpn accepted")
	}
}

func TestTraceSequencesCompose(t *testing.T) {
	// pair -> bitwise -> group -> reduce, with data checked via verbs.
	d := traceDevice(t)
	script := []string{
		"pair 0 1 ff 0f",
		"bitwise AND prealloc 0 1",
		"group 4,5,6 ff,f0,cc",
		"reduce AND locfree 4,5,6",
		"reduce AND fc 4,5,6",
		"reduce OR Flash-Cosmos 4,5,6",
	}
	for _, line := range script {
		if err := execute(d, line); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
	}
}

// TestQueryDirective drives the planner through the trace language: a
// multi-op expression with spaces, repeated so the second run can hit the
// result cache.
func TestQueryDirective(t *testing.T) {
	d := traceDevice(t)
	script := []string{
		"group 4,5,6,7 ff,f0,cc,aa",
		"query locfree (4 & 5 & 6) | 7",
		"query locfree (4 & 5 & 6) | 7",
	}
	for _, line := range script {
		if err := execute(d, line); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
	}
	qs := d.QueryStats()
	if qs.Queries != 2 || qs.FusedChains == 0 {
		t.Errorf("query directive bypassed the planner: %+v", qs)
	}
	if qs.CacheHits == 0 {
		t.Errorf("repeated query never hit the cache: %+v", qs)
	}

	// Single-operand degenerate query: resolves to a plain read.
	if err := execute(d, "query locfree 4"); err != nil {
		t.Errorf("leaf query rejected: %v", err)
	}
}

func TestFlushAndStatsDirectives(t *testing.T) {
	d := traceDevice(t)
	script := []string{
		"pair 0 1 a5 3c",
		"flush",
		"bitwise AND prealloc 0 1",
		"stats",
		"flush",
	}
	for _, line := range script {
		if err := execute(d, line); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
	}
	if d.Stats().BitwiseOps != 1 {
		t.Errorf("stats after directives: %+v", d.Stats())
	}
	bad := []string{"flush now", "stats all"}
	for _, line := range bad {
		if err := execute(d, line); err == nil {
			t.Errorf("%q accepted", line)
		}
	}
}

func TestFaultsDirective(t *testing.T) {
	d := traceDevice(t)
	dir := t.TempDir()
	planPath := filepath.Join(dir, "plan.json")
	plan := `{"seed": 3, "rules": [{"type": "stuck-block", "plane": 0, "block": 0}]}`
	if err := os.WriteFile(planPath, []byte(plan), 0o644); err != nil {
		t.Fatal(err)
	}
	script := []string{
		"faults " + planPath,
		"pair 0 1 a5 3c",
		"bitwise AND prealloc 0 1",
		"stats",
		"faults off",
	}
	for _, line := range script {
		if err := execute(d, line); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
	}
	if fs := d.FaultStats(); fs.StuckBlock == 0 || fs.BlocksRetired == 0 {
		t.Errorf("stuck block never hit or retired: %+v", fs)
	}
	bad := []string{
		"faults",
		"faults " + filepath.Join(dir, "missing.json"),
		"faults too many args",
	}
	for _, line := range bad {
		if err := execute(d, line); err == nil {
			t.Errorf("%q accepted", line)
		}
	}
}

func TestPrintBreakdownReportsOpKinds(t *testing.T) {
	d := traceDevice(t)
	sink := d.EnableTelemetry(false)
	for _, line := range []string{
		"pair 0 1 a5 3c",
		"bitwise AND prealloc 0 1",
		"bitwise XOR prealloc 0 1",
	} {
		if err := execute(d, line); err != nil {
			t.Fatal(err)
		}
	}
	d.Flush()
	var buf bytes.Buffer
	printBreakdown(&buf, sink)
	out := buf.String()
	for _, want := range []string{"per-op span breakdown", "write-pair", "bitwise", "p50", "p99"} {
		if !strings.Contains(out, want) {
			t.Errorf("breakdown missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "read ") {
		t.Errorf("breakdown lists an idle kind:\n%s", out)
	}
}
