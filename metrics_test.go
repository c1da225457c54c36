package parabit

import (
	"bufio"
	"bytes"
	"io"
	"strconv"
	"strings"
	"sync"
	"testing"

	"parabit/internal/faults"
	"parabit/internal/persist"
	"parabit/internal/sim"
	"parabit/internal/ssd"
)

// layerStats reads every layer's Stats straight from the layer, not
// through sched.Counters, in the shape Device.Stats returns. The fault
// engine is reachable only through the scheduler, so Faults stays zero;
// checkSnapshot checks it against the flash array instead.
func layerStats(d *Device) Stats {
	var st Stats
	d.sched.Exclusive(func(dev *ssd.Device, _ sim.Time) {
		st.Op, st.Query, st.FTL, st.Flash = dev.Stats(), dev.QueryStats(), dev.FTL().Stats(), dev.Array().Stats()
		st.Persist, st.Persistent = dev.PersistStats()
	})
	st.Sched = d.sched.Stats()
	return st
}

// statsMetrics reads, straight from each layer's Stats, the value every
// Stats-backed metric must export with, keyed "kind name" as the
// summary prints it.
func statsMetrics(d *Device) map[string]int64 {
	st := layerStats(d)
	ss, op, q, ft, fl := st.Sched, st.Op, st.Query, st.FTL, st.Flash
	want := map[string]int64{
		"counter sched.batches":               ss.Batches,
		"counter sched.retries":               ss.Retries,
		"counter sched.retries_exhausted":     ss.RetriesExhausted,
		"counter ssd.bitwise.ops":             op.BitwiseOps,
		"counter ssd.reallocations":           op.Reallocations,
		"counter ssd.realloc.pages":           op.ReallocPages,
		"counter ssd.descrambled_reads":       op.DescrambledOps,
		"counter ssd.result_bytes":            op.ResultBytes,
		"counter ssd.query.plans":             q.Queries,
		"counter ssd.query.steps":             q.PlanSteps,
		"counter ssd.query.fused_chains":      q.FusedChains,
		"counter ssd.query.cache.hits":        q.Cache.Hits,
		"counter ssd.query.cache.misses":      q.Cache.Misses,
		"counter ssd.query.cache.evictions":   q.Cache.Evictions,
		"counter ftl.gc.runs":                 ft.GCRuns,
		"counter ftl.gc.pages_moved":          ft.GCPagesMoved,
		"counter ftl.padded_pages":            ft.PaddedPages,
		"counter ftl.faults.program_fails":    ft.ProgramFails,
		"counter ftl.faults.erase_fails":      ft.EraseFails,
		"counter ftl.bad_blocks.retired":      ft.BlocksRetired,
		"counter ftl.faults.resteered_writes": ft.ResteeredWrites,
		"gauge flash.sros":                    fl.SROs,
		"gauge flash.programs":                fl.Programs,
		"gauge flash.erases":                  fl.Erases,
		"gauge ftl.write_amp_milli":           int64(ft.WriteAmplification() * 1000),
	}
	if ps := st.Persist; st.Persistent {
		want["counter persist.journal.bytes"] = ps.JournalBytes
		want["counter persist.journal.records"] = ps.JournalRecords
		want["counter persist.journal.writes"] = ps.JournalWrites
		want["counter persist.snapshots"] = ps.Snapshots
		want["counter persist.snapshot.bytes"] = ps.SnapshotBytes
		want["counter persist.snapshots.full"] = ps.FullSnapshots
		want["counter persist.replay.records"] = ps.ReplayedRecords
		want["gauge persist.recovery_us"] = int64(ps.RecoveryTime / sim.Microsecond)
	}
	if fs := d.Stats().Faults; fs != (faults.Stats{}) {
		want["counter faults.plane_transient"] = fs.PlaneTransient
		want["counter faults.plane_dead"] = fs.PlaneDead
		want["counter faults.program_fail"] = fs.ProgramFails
		want["counter faults.erase_fail"] = fs.EraseFails
		want["counter faults.stuck_block"] = fs.StuckBlock
		want["counter faults.power_cut"] = fs.PowerCuts
		want["counter faults.jitter_events"] = fs.JitterEvents
	}
	return want
}

// exported parses a WriteMetrics summary into "kind name" -> value for
// its counters and gauges.
func exported(t *testing.T, d *Device) map[string]int64 {
	t.Helper()
	var buf bytes.Buffer
	d.WriteMetrics(&buf)
	got := map[string]int64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 3 || f[0] != "counter" && f[0] != "gauge" {
			continue
		}
		v, err := strconv.ParseInt(f[2], 10, 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", sc.Text(), err)
		}
		got[f[0]+" "+f[1]] = v
	}
	return got
}

// checkPublished fails for every Stats-backed metric whose export is
// missing or differs from its Stats field.
func checkPublished(t *testing.T, d *Device) map[string]int64 {
	t.Helper()
	got := exported(t, d)
	for name, want := range statsMetrics(d) {
		if v, ok := got[name]; !ok {
			t.Errorf("%s not exported", name)
		} else if v != want {
			t.Errorf("%s exported %d, Stats hold %d", name, v, want)
		}
	}
	return got
}

// mixedRun drives every counted path: scrambled host writes and
// overwrites, every operand layout, pairwise ops, reductions and queries
// under all four schemes, and results shipped to the host.
func mixedRun(t *testing.T, d *Device) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 48; i++ {
		must(d.Write(uint64(i%16), pageOf(d, int64(i))))
	}
	must(d.WriteOperandPair(100, 101, pageOf(d, 100), pageOf(d, 101)))
	must(d.WriteOperandGroup([]uint64{200, 201, 202}, [][]byte{pageOf(d, 200), pageOf(d, 201), pageOf(d, 202)}))
	must(d.WriteOperandMWSGroup([]uint64{300, 301, 302}, [][]byte{pageOf(d, 300), pageOf(d, 301), pageOf(d, 302)}))
	for _, op := range []Op{And, Or, Xor} {
		for _, scheme := range Schemes {
			_, err := d.Bitwise(op, 100, 101, scheme)
			must(err)
		}
		_, err := d.Bitwise(op, 0, 1, Reallocated) // scrambled: read, descramble, reallocate
		must(err)
		_, err = d.BitwiseToHost(op, 100, 101, PreAllocated)
		must(err)
	}
	for _, scheme := range Schemes {
		_, err := d.Reduce(Or, []uint64{200, 201, 202}, scheme)
		must(err)
		_, err = d.Reduce(And, []uint64{300, 301, 302}, scheme)
		must(err)
	}
	q := QueryOr(QueryAnd(QueryLPN(200), QueryLPN(201), QueryLPN(202)), QueryXor(QueryLPN(100), QueryLPN(101)))
	for i := 0; i < 3; i++ {
		_, err := d.QueryToHost(q, LocationFree)
		must(err)
	}
}

// TestPublishedMetricsMatchStats checks the one path a Stats count takes
// into telemetry: after a mixed run with faults and persistence, every
// metric WriteMetrics publishes equals the Stats field it comes from,
// also on the remounted device.
func TestPublishedMetricsMatchStats(t *testing.T) {
	dir := t.TempDir()
	d := newTestDevice(t, WithSmallGeometry(), WithScrambling(true),
		WithPersistence(dir), WithSnapshotEvery(16))
	if err := d.InstallFaultPlan([]byte(`{"seed": 3, "rules": [
		{"type": "plane-transient", "plane": -1, "from_us": 0, "to_us": 100},
		{"type": "stuck-block", "plane": 0, "block": 0},
		{"type": "program-fail", "rate": 0.02},
		{"type": "jitter", "rate": 0.2, "op": "sense", "max_jitter_us": 5}
	]}`)); err != nil {
		t.Fatal(err)
	}
	d.EnableTelemetry(false)
	mixedRun(t, d)
	got := checkPublished(t, d)
	// The run must reach every layer, or equality shows nothing.
	for _, name := range []string{
		"counter sched.batches", "counter sched.retries",
		"counter ssd.bitwise.ops", "counter ssd.reallocations", "counter ssd.descrambled_reads",
		"counter ssd.result_bytes", "counter ssd.query.plans", "counter ssd.query.cache.hits",
		"counter ftl.padded_pages", "counter ftl.bad_blocks.retired",
		"counter persist.journal.records", "counter persist.journal.writes", "counter persist.snapshots",
		"counter faults.stuck_block", "counter faults.plane_transient", "counter faults.jitter_events",
		"gauge flash.sros", "gauge flash.programs",
	} {
		if got[name] == 0 {
			t.Errorf("%s is 0: the run never reached it", name)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	d2.EnableTelemetry(false)
	checkPublished(t, d2)
}

// TestWriteMetricsWhileSubmitting exports metrics from one goroutine and
// reads Stats from another while others submit commands; under -race it
// checks that the export-time publish and the snapshot read every
// layer's Stats under the scheduler's lock. The last export still
// matches Stats.
func TestWriteMetricsWhileSubmitting(t *testing.T) {
	d := newTestDevice(t, WithSmallGeometry())
	d.EnableTelemetry(true)
	must := func(err error) {
		if err != nil {
			t.Error(err)
		}
	}
	must(d.WriteOperandPair(0, 1, pageOf(d, 0), pageOf(d, 1)))
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				d.WriteMetrics(io.Discard)
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				d.Stats()
			}
		}
	}()
	var clients sync.WaitGroup
	for w := 0; w < 4; w++ {
		clients.Add(1)
		go func(w int) {
			defer clients.Done()
			for i := 0; i < 50; i++ {
				must(d.Write(uint64(10+w), pageOf(d, int64(i))))
				_, err := d.Bitwise(And, 0, 1, PreAllocated)
				must(err)
				_, err = d.Query(QueryAnd(QueryLPN(0), QueryLPN(1)), LocationFree)
				must(err)
			}
		}(w)
	}
	clients.Wait()
	close(done)
	wg.Wait()
	got := checkPublished(t, d)
	if n := got["counter ssd.bitwise.ops"]; n < 200 {
		t.Errorf("ssd.bitwise.ops exported %d after 200 bitwise ops", n)
	}
}

// mixedFaultPlan is the plan TestPublishedMetricsMatchStats installs.
const mixedFaultPlan = `{"seed": 3, "rules": [
	{"type": "plane-transient", "plane": -1, "from_us": 0, "to_us": 100},
	{"type": "stuck-block", "plane": 0, "block": 0},
	{"type": "program-fail", "rate": 0.02},
	{"type": "jitter", "rate": 0.2, "op": "sense", "max_jitter_us": 5}
]}`

// checkSnapshot fails unless every field of Device.Stats equals the
// Stats its layer holds. The fault counts must match what the flash
// array counted of the engine's verdicts, which holds for a device that
// saw at most one plan and no power cut at a persistence boundary.
func checkSnapshot(t *testing.T, d *Device) Stats {
	t.Helper()
	got := d.Stats()
	want := layerStats(d)
	if fs, fl := got.Faults, want.Flash; fs.Faults() != fl.InjectedFaults || fs.JitterEvents != fl.JitterEvents {
		t.Errorf("Device.Stats Faults %+v, flash array counted %d faults and %d jitters",
			fs, fl.InjectedFaults, fl.JitterEvents)
	}
	want.Faults = got.Faults
	if got != want {
		t.Errorf("Device.Stats:\n  got  %+v\n  want %+v", got, want)
	}
	return got
}

// TestStatsMatchLayers pins the root snapshot to the layers: after the
// mixed run with faults, scrambling and persistence, and again on the
// remounted device, Device.Stats holds exactly each layer's own Stats.
func TestStatsMatchLayers(t *testing.T) {
	dir := t.TempDir()
	d := newTestDevice(t, WithSmallGeometry(), WithScrambling(true),
		WithPersistence(dir), WithSnapshotEvery(16))
	if err := d.InstallFaultPlan([]byte(mixedFaultPlan)); err != nil {
		t.Fatal(err)
	}
	mixedRun(t, d)
	st := checkSnapshot(t, d)
	if !st.Persistent || st.Persist.JournalRecords == 0 || st.Faults.Faults() == 0 ||
		st.Sched.Retries == 0 || st.Query.Cache.Hits == 0 || st.Op.DescrambledOps == 0 {
		t.Errorf("the run missed a layer, so equality shows little: %+v", st)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	mixedRun(t, d2)
	if st := checkSnapshot(t, d2); !st.Persistent {
		t.Error("remounted device is not Persistent")
	}
}

// TestStatsInMemoryDevice checks a bare device's snapshot: no store, so
// not Persistent, and no fault plan, so zero Faults.
func TestStatsInMemoryDevice(t *testing.T) {
	d := newTestDevice(t)
	if err := d.Write(0, pageOf(d, 0)); err != nil {
		t.Fatal(err)
	}
	st := checkSnapshot(t, d)
	if st.Persistent || st.Persist != (persist.Stats{}) {
		t.Errorf("in-memory device reports persistence: %t %+v", st.Persistent, st.Persist)
	}
	if st.Faults != (faults.Stats{}) {
		t.Errorf("device without a fault plan reports faults: %+v", st.Faults)
	}
	if st.FTL.HostPagesWritten != 1 {
		t.Errorf("FTL.HostPagesWritten = %d after one write", st.FTL.HostPagesWritten)
	}
}
