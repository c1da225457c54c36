package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"parabit"
	"parabit/internal/experiments"
	"parabit/internal/latch"
	"parabit/internal/telemetry"
)

var updateRecords = flag.Bool("update-records", false,
	"rewrite BENCH_{planner,fc,cluster}.json at the repository root and testdata/figures.csv from this tree")

const (
	// fcMinSpeedup and fcMinSpeedupK are the Flash-Cosmos acceptance
	// floor: at full-chunk widths from fcMinSpeedupK up (k a multiple of
	// the per-sense cap), the MWS fold must beat the chained LocFree
	// reduction at the tail by at least fcMinSpeedup. Remainder widths
	// (e.g. 12 = 8+4) sit slightly below the full-chunk curve, because
	// the trailing sub-cap chunk pays nearly a full sense base; the exact
	// record holds them.
	fcMinSpeedup  = 5.0
	fcMinSpeedupK = 8
)

// TestBenchRecordsGolden regenerates the three BENCH_*.json records and
// the paper's figures (-run all -format csv, recorded in
// testdata/figures.csv) and compares them byte for byte with the
// checked-in files; -update-records rewrites the files instead. The
// simulation is deterministic, so any simulated-time drift fails here.
// The generated records must also keep the absolute floors each
// benchmark exists to show.
func TestBenchRecordsGolden(t *testing.T) {
	planner, err := runPlanner(parabit.LocationFree, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := runFC(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := runClusterBench(defaultClusterSpec, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var figures bytes.Buffer
	if err := runExperiments("all", "csv", &figures); err != nil {
		t.Fatal(err)
	}
	records := map[string][]byte{filepath.Join("testdata", "figures.csv"): figures.Bytes()}
	for name, rec := range map[string]any{
		"BENCH_planner.json": planner,
		"BENCH_fc.json":      fc,
		"BENCH_cluster.json": cl,
	} {
		got, err := encodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		records[filepath.Join("..", "..", name)] = got
	}
	for path, got := range records {
		if *updateRecords {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the regenerated record (rerun with -update-records only for a deliberate change):\n%s",
				filepath.Base(path), firstDiff(got, want))
		}
	}

	if planner.Fused.P99US >= planner.Unfused.P99US {
		t.Errorf("fusion must win at the tail: fused p99 %.1fus vs unfused %.1fus",
			planner.Fused.P99US, planner.Unfused.P99US)
	}
	if planner.FusedChains == 0 || planner.CacheHits == 0 {
		t.Errorf("planner workload exercised no fusion or caching: %+v", planner)
	}
	for _, p := range fc.Sweep {
		if p.K >= fcMinSpeedupK && p.K%latch.MaxMWSOperands == 0 && p.P99SpeedupX < fcMinSpeedup {
			t.Errorf("flash-cosmos win collapsed at k=%d: %.2fx p99 speedup over LocFree, floor is %.1fx",
				p.K, p.P99SpeedupX, fcMinSpeedup)
		}
	}
	if cl.RouteLocal+cl.RouteWire == 0 || cl.RouteScatter == 0 {
		t.Errorf("cluster routing degenerated: %d local, %d wire, %d scatter; both shard-local and scatter paths must stay exercised",
			cl.RouteLocal, cl.RouteWire, cl.RouteScatter)
	}
}

// firstDiff names the first line where two records differ.
func firstDiff(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d: got %q, recorded %q", i+1, gl, wl)
		}
	}
	return "no line differs"
}

// TestRunExperimentsFormat pins -run all to the chosen renderer: as CSV
// it is every experiment's CSV in ID order, with no table in it.
func TestRunExperimentsFormat(t *testing.T) {
	var got bytes.Buffer
	if err := runExperiments("all", "csv", &got); err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, d := range experiments.Drivers() {
		out, err := parabit.RunExperimentCSV(d.ID)
		if err != nil {
			t.Fatal(err)
		}
		want.WriteString(out + "\n")
	}
	if got.String() != want.String() {
		t.Errorf("-run all -format csv is not the experiments' CSV:\n%s", got.String())
	}
	if strings.Contains(got.String(), "== ") {
		t.Errorf("-run all -format csv printed a table title:\n%s", got.String())
	}

	got.Reset()
	if err := runExperiments("all", "table", &got); err != nil {
		t.Fatal(err)
	}
	if got.String() != parabit.RunAllExperiments() {
		t.Error("-run all as a table differs from RunAllExperiments")
	}
	if err := runExperiments("fig13a", "xml", &got); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestHammerFlagForms(t *testing.T) {
	cases := []struct {
		in      string
		want    int
		wantErr bool
	}{
		{"true", defaultHammerClients, false}, // bare -hammer
		{"false", 0, false},
		{"16", 16, false},
		{"1", 1, false},
		{"0", 0, true},
		{"-3", 0, true},
		{"lots", 0, true},
	}
	for _, c := range cases {
		h := countFlag{bare: defaultHammerClients}
		err := h.Set(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("Set(%q): err=%v, wantErr=%v", c.in, err, c.wantErr)
			continue
		}
		if err == nil && h.n != c.want {
			t.Errorf("Set(%q): n=%d, want %d", c.in, h.n, c.want)
		}
	}
	if !(&countFlag{}).IsBoolFlag() {
		t.Error("hammer flag must be bool-style so bare -hammer parses")
	}
}

// TestRunHammerWithTraceAndMetrics is the end-to-end check of the
// telemetry plumbing: a -hammer run with -trace and -metrics must emit a
// parseable Chrome trace with one lane per plane and per scheduler queue,
// and a metrics summary with per-op-kind latency quantiles.
func TestRunHammerWithTraceAndMetrics(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "out.json")
	var out bytes.Buffer
	if err := runHammer(3, 40, tracePath, "", "", 0, true, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "hammer: 3 clients x 40 ops") {
		t.Errorf("missing hammer report header:\n%s", text)
	}

	// Metrics summary: per-op-kind latency histograms with p50/p99.
	for _, kind := range []string{"write", "bitwise", "reduce"} {
		re := regexp.MustCompile(`hist\s+sched\.latency\.` + kind + `\s+count=[1-9]\d*.*p50=\S+.*p99=\S+`)
		if !re.MatchString(text) {
			t.Errorf("metrics summary lacks populated latency histogram for %q:\n%s", kind, text)
		}
	}
	if !strings.Contains(text, "counter ssd.bitwise.ops") {
		t.Errorf("metrics summary lacks bitwise op counter:\n%s", text)
	}

	// Trace file: valid Chrome trace-event JSON round-trip.
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var f telemetry.TraceFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(f.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	lanes := map[string]bool{}
	spans := 0
	for _, ev := range f.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			lanes[ev.Args["name"]] = true
		}
		if ev.Ph == "X" {
			spans++
		}
	}
	// The small geometry has 8 planes; the scheduler has one lane per
	// command kind. All must be present even if idle.
	for _, want := range []string{
		"plane-0", "plane-1", "plane-2", "plane-3",
		"plane-4", "plane-5", "plane-6", "plane-7",
		"chan-0", "chan-1", "link",
		"queue-write", "queue-write-operand", "queue-write-pair",
		"queue-write-group", "queue-write-on-plane", "queue-write-triple",
		"queue-read", "queue-bitwise", "queue-bitwise-triple",
		"queue-reduce", "queue-formula", "queue-query", "queue-barrier",
		"gc", "retirement", "batches", "bitwise",
	} {
		if !lanes[want] {
			t.Errorf("trace is missing lane %q (have %v)", want, lanes)
		}
	}
	if spans == 0 {
		t.Error("trace has no complete (X) spans")
	}
}

// TestRunHammerWithFaults arms a fault plan under the concurrent hammer:
// the run must survive, and the report must end with the fault/recovery
// summary showing the injections actually happened.
func TestRunHammerWithFaults(t *testing.T) {
	planPath := filepath.Join(t.TempDir(), "plan.json")
	plan := `{"seed": 7, "rules": [
		{"type": "plane-transient", "plane": -1, "from_us": 0, "to_us": 100},
		{"type": "jitter", "rate": 0.5, "op": "sense", "max_jitter_us": 10}
	]}`
	if err := os.WriteFile(planPath, []byte(plan), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runHammer(3, 40, "", planPath, "", 0, false, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "fault injection") {
		t.Fatalf("missing fault summary:\n%s", text)
	}
	for _, re := range []string{
		`injected\s+[1-9]`,      // the startup window injected faults
		`jitter events\s+[1-9]`, // the sense jitter fired
		`sched retries\s+[1-9]`, // the scheduler rode the window out
	} {
		if !regexp.MustCompile(re).MatchString(text) {
			t.Errorf("fault summary lacks %q:\n%s", re, text)
		}
	}
	if err := runHammer(1, 1, "", filepath.Join(t.TempDir(), "missing.json"), "", 0, false, &out); err == nil {
		t.Error("missing plan file accepted")
	}
}

// TestRunHammerPersist backs the hammer with an on-disk store, once
// gracefully and once under a power-cut plan. Both runs must end with
// the remount summary and a clean invariant audit; the cut run must
// also count its power-cut faults.
func TestRunHammerPersist(t *testing.T) {
	var out bytes.Buffer
	if err := runHammer(3, 40, "", "", t.TempDir(), 16, false, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"persistence (", "remount", "invariants         ok"} {
		if !strings.Contains(text, want) {
			t.Fatalf("persist summary lacks %q:\n%s", want, text)
		}
	}

	planPath := filepath.Join(t.TempDir(), "cut.json")
	plan := `{"seed": 7, "rules": [{"type": "power-cut", "point": "post-journal", "after_n": 10}]}`
	if err := os.WriteFile(planPath, []byte(plan), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := runHammer(3, 40, "", planPath, t.TempDir(), 16, false, &out); err != nil {
		t.Fatal(err)
	}
	text = out.String()
	for _, re := range []string{
		`[1-9]\d* power-cut\)`,  // the cut fired and was counted
		`remount\s+\d+ records`, // recovery ran
		`invariants\s+ok`,       // and audited clean
	} {
		if !regexp.MustCompile(re).MatchString(text) {
			t.Errorf("cut-run summary lacks %q:\n%s", re, text)
		}
	}
}

// TestHammerMixesQueries pins the hammer's query traffic: the report must
// show planner activity from the query clients.
func TestHammerMixesQueries(t *testing.T) {
	var out bytes.Buffer
	if err := runHammer(3, 60, "", "", "", 0, false, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !regexp.MustCompile(`queries\s+[1-9]\d*\s+\(\d+ plan steps, \d+ fused chains`).MatchString(text) {
		t.Errorf("hammer report lacks query-planner line:\n%s", text)
	}
}

// TestRunHammerPlain keeps the untraced path working: no trace file, no
// metrics section, stats still reported.
func TestRunHammerPlain(t *testing.T) {
	var out bytes.Buffer
	if err := runHammer(2, 10, "", "", "", 0, false, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "commands") || !strings.Contains(text, "per-queue") {
		t.Errorf("missing scheduler report:\n%s", text)
	}
	if strings.Contains(text, "metrics:") || strings.Contains(text, "trace written") {
		t.Errorf("plain run leaked telemetry output:\n%s", text)
	}
}
