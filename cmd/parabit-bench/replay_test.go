package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parabit"
)

func traceDevice(t testing.TB) *parabit.Device {
	t.Helper()
	d, err := parabit.NewDevice(parabit.WithSmallGeometry())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func TestExecuteDemoTraceLines(t *testing.T) {
	d := traceDevice(t)
	for _, line := range strings.Split(strings.TrimSpace(demoTrace), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := execute(d, line, io.Discard); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
	}
	// The demo runs 2 bitwise + 2 reduce; reductions count as single
	// chained ops under LocFree.
	if d.Stats().Op.BitwiseOps == 0 {
		t.Fatal("no ops recorded")
	}
}

// malformedLines are directives execute must refuse.
var malformedLines = []string{
	"write 1",              // missing pattern
	"write x a5",           // bad lpn
	"write 1 zz",           // bad hex
	"operand 1",            // missing pattern
	"pair 1 2 a5",          // missing operand
	"pair 1,2 3 a5 3c",     // list where one lpn goes
	"bitwise AND nope 0 1", // bad scheme
	"bitwise WAT prealloc 0 1",
	"query locfree",    // missing expression
	"query nope 1 & 2", // bad scheme
	"query locfree 1 & & 2",
	"frobnicate 1 2 3",
	"group 1,2 a5", // count mismatch
	"mws 1,2,3 a5", // count mismatch
	"latch",        // missing op
	"latch WAT",
	"latch AND fast",
}

func TestExecuteRejectsMalformedLines(t *testing.T) {
	d := traceDevice(t)
	for _, line := range malformedLines {
		if err := execute(d, line, io.Discard); err == nil {
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
		if err := execute(d, line, io.Discard); err != nil {
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
		if err := execute(d, line, io.Discard); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
	}
	qs := d.Stats().Query
	if qs.Queries != 2 || qs.FusedChains == 0 {
		t.Errorf("query directive bypassed the planner: %+v", qs)
	}
	if qs.Cache.Hits == 0 {
		t.Errorf("repeated query never hit the cache: %+v", qs)
	}

	// Single-operand degenerate query: resolves to a plain read.
	if err := execute(d, "query locfree 4", io.Discard); err != nil {
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
		if err := execute(d, line, io.Discard); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
	}
	if d.Stats().Op.BitwiseOps != 1 {
		t.Errorf("stats after directives: %+v", d.Stats())
	}
	bad := []string{"flush now", "stats all"}
	for _, line := range bad {
		if err := execute(d, line, io.Discard); err == nil {
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
		if err := execute(d, line, io.Discard); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
	}
	if st := d.Stats(); st.Faults.StuckBlock == 0 || st.FTL.BlocksRetired == 0 {
		t.Errorf("stuck block never hit (%+v) or retired (%+v)", st.Faults, st.FTL)
	}
	bad := []string{
		"faults",
		"faults " + filepath.Join(dir, "missing.json"),
		"faults too many args",
	}
	for _, line := range bad {
		if err := execute(d, line, io.Discard); err == nil {
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
		if err := execute(d, line, io.Discard); err != nil {
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

// TestLayoutDirectives lays operands out the way each scheme wants them
// (operand, pair, group, mws) and checks every bitwise result against
// the host-side fold.
func TestLayoutDirectives(t *testing.T) {
	cases := []struct {
		scheme string
		layout string
	}{
		{"realloc", "operand 0 a5\noperand 1 3c"},
		{"prealloc", "pair 0 1 a5 3c"},
		{"locfree", "group 0,1 a5,3c"},
		{"fc", "mws 0,1 a5,3c"},
	}
	want := map[parabit.Op]byte{
		parabit.And: 0xa5 & 0x3c, parabit.Or: 0xa5 | 0x3c,
		parabit.Xor: 0xa5 ^ 0x3c, parabit.Xnor: 0xff ^ 0xa5 ^ 0x3c,
	}
	for _, c := range cases {
		d := traceDevice(t)
		for _, line := range strings.Split(c.layout, "\n") {
			if err := execute(d, line, io.Discard); err != nil {
				t.Fatalf("%s: %q: %v", c.scheme, line, err)
			}
		}
		scheme, err := parabit.ParseScheme(c.scheme)
		if err != nil {
			t.Fatal(err)
		}
		for op, b := range want {
			var out bytes.Buffer
			if err := execute(d, "bitwise "+op.String()+" "+c.scheme+" 0 1", &out); err != nil {
				t.Fatalf("%s %v: %v", c.scheme, op, err)
			}
			r, err := d.Bitwise(op, 0, 1, scheme)
			if err != nil {
				t.Fatal(err)
			}
			if r.Data[0] != b || !bytes.Contains(out.Bytes(), []byte(r.Latency.String())) {
				t.Errorf("%s %v: got %x in %v, printed %q, want %x", c.scheme, op, r.Data[0], r.Latency, out.String(), b)
			}
		}
	}
}

// TestLatchDirective prints the paper's control-sequence tables: the
// basic XOR takes four SROs, the location-free AND three.
func TestLatchDirective(t *testing.T) {
	d := traceDevice(t)
	for line, want := range map[string]string{
		"latch XOR":         "SROs: 4 (100µs",
		"latch and locfree": "SROs: 3 (75µs",
	} {
		var out bytes.Buffer
		if err := execute(d, line, &out); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		if !strings.Contains(out.String(), "L(SO)") || !strings.Contains(out.String(), want) {
			t.Errorf("%q printed:\n%s", line, out.String())
		}
	}
}

// TestRunReplayPersist replays a script onto an on-disk store, then
// replays again onto the same directory: the second run recovers the
// store, and its stats line carries the persistence counters.
func TestRunReplayPersist(t *testing.T) {
	dir := t.TempDir()
	script := filepath.Join(t.TempDir(), "script.txt")
	if err := os.WriteFile(script, []byte("pair 0 1 a5 3c\nbitwise AND prealloc 0 1\nstats\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runReplay(script, "", dir, 0, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "persist ") || strings.Contains(out.String(), "recovered") {
		t.Errorf("first replay:\n%s", out.String())
	}
	out.Reset()
	if err := runReplay(script, "", dir, 0, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "recovered "+dir) {
		t.Errorf("second replay did not recover the store:\n%s", out.String())
	}
}

func TestRunReplayDemoAndTrace(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "t.json")
	var out bytes.Buffer
	if err := runReplay("demo", tracePath, "", 0, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"replayed 10 trace lines", "per-op span breakdown", "trace written to"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("demo replay lacks %q:\n%s", want, out.String())
		}
	}
	if fi, err := os.Stat(tracePath); err != nil || fi.Size() == 0 {
		t.Errorf("trace file: %v", err)
	}
	if err := runReplay(filepath.Join(t.TempDir(), "missing.txt"), "", "", 0, &out); err == nil {
		t.Error("missing script accepted")
	}
}

// FuzzReplayLine feeds one arbitrary directive to a fresh device: it must
// run or return an error, never panic. faults lines are skipped because
// they read files.
func FuzzReplayLine(f *testing.F) {
	for _, line := range strings.Split(demoTrace, "\n") {
		f.Add(line)
	}
	for _, line := range malformedLines {
		f.Add(line)
	}
	f.Add("latch NOT-MSB locfree")
	f.Add("mws 0,1,2 ff,0f,33")
	f.Fuzz(func(t *testing.T, line string) {
		fields := strings.Fields(line)
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") || fields[0] == "faults" {
			return
		}
		_ = execute(traceDevice(t), strings.TrimSpace(line), io.Discard)
	})
}

func TestParseOp(t *testing.T) {
	for _, name := range []string{"AND", "and", "XOR", "NOT-LSB", "not-msb"} {
		if _, err := parseOp(name); err != nil {
			t.Errorf("parseOp(%q): %v", name, err)
		}
	}
	if _, err := parseOp("bogus"); err == nil {
		t.Error("parseOp accepted bogus")
	}
}

func TestFillPage(t *testing.T) {
	page, err := fillPage("a5", 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range page {
		if b != 0xA5 {
			t.Fatal("pattern not repeated")
		}
	}
	page, err = fillPage("0102", 5)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{1, 2, 1, 2, 1}
	for i := range want {
		if page[i] != want[i] {
			t.Fatalf("byte %d = %d", i, page[i])
		}
	}
	if _, err := fillPage("zz", 8); err == nil {
		t.Error("bad hex accepted")
	}
	if _, err := fillPage("", 8); err == nil {
		t.Error("empty pattern accepted")
	}
}
