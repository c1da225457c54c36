package parabit

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"parabit/internal/faults"
	"parabit/internal/telemetry"
)

func newTestDevice(t *testing.T, opts ...Option) *Device {
	t.Helper()
	d, err := NewDevice(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func pageOf(d *Device, seed int64) []byte {
	b := make([]byte, d.PageSize())
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func TestPublicBitwiseAllOpsAllSchemes(t *testing.T) {
	for _, scheme := range Schemes {
		d := newTestDevice(t)
		x, y := pageOf(d, 1), pageOf(d, 2)
		switch scheme {
		case PreAllocated:
			if err := d.WriteOperandPair(0, 1, x, y); err != nil {
				t.Fatal(err)
			}
		case LocationFree:
			if err := d.WriteOperandGroup([]uint64{0, 1}, [][]byte{x, y}); err != nil {
				t.Fatal(err)
			}
		default:
			if err := d.WriteOperand(0, x); err != nil {
				t.Fatal(err)
			}
			if err := d.WriteOperand(1, y); err != nil {
				t.Fatal(err)
			}
		}
		for _, op := range Ops {
			r, err := d.Bitwise(op, 0, 1, scheme)
			if err != nil {
				t.Fatalf("%v/%v: %v", scheme, op, err)
			}
			for i := range r.Data {
				for b := 0; b < 8; b++ {
					first := x[i]&(1<<b) != 0
					second := y[i]&(1<<b) != 0
					if (r.Data[i]&(1<<b) != 0) != op.Eval(first, second) {
						t.Fatalf("%v/%v: bit %d.%d wrong", scheme, op, i, b)
					}
				}
			}
			if r.Latency <= 0 {
				t.Fatalf("%v/%v: zero latency", scheme, op)
			}
		}
	}
}

func TestPublicLatenciesMatchPaper(t *testing.T) {
	d := newTestDevice(t)
	x, y := pageOf(d, 3), pageOf(d, 4)
	if err := d.WriteOperandPair(0, 1, x, y); err != nil {
		t.Fatal(err)
	}
	r, err := d.Bitwise(Xor, 0, 1, PreAllocated)
	if err != nil {
		t.Fatal(err)
	}
	if r.Latency != 100*time.Microsecond {
		t.Errorf("XOR latency = %v, want 100µs", r.Latency)
	}
	r, _ = d.Bitwise(And, 0, 1, PreAllocated)
	if r.Latency != 25*time.Microsecond {
		t.Errorf("AND latency = %v, want 25µs", r.Latency)
	}
	if OpLatency(Xor) != 100*time.Microsecond || OpLatency(And) != 25*time.Microsecond {
		t.Error("OpLatency wrong")
	}
	if OpLatencyLocFree(And) != 50*time.Microsecond {
		t.Errorf("locfree AND latency = %v", OpLatencyLocFree(And))
	}
}

func TestPublicReduce(t *testing.T) {
	d := newTestDevice(t)
	const k = 5
	lpns := make([]uint64, k)
	data := make([][]byte, k)
	for i := range lpns {
		lpns[i] = uint64(i)
		data[i] = pageOf(d, int64(10+i))
	}
	if err := d.WriteOperandGroup(lpns, data); err != nil {
		t.Fatal(err)
	}
	r, err := d.Reduce(And, lpns, LocationFree)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), data[0]...)
	for _, page := range data[1:] {
		for i := range want {
			want[i] &= page[i]
		}
	}
	if !bytes.Equal(r.Data, want) {
		t.Fatal("reduction wrong")
	}
	if _, err := d.Reduce(Nand, lpns, LocationFree); err == nil {
		t.Fatal("non-associative reduce accepted")
	}
}

// writeColumnGroup writes k one-page bitmap columns as an aligned LSB
// group at LPNs 0..k-1 and returns their data and query leaves.
func writeColumnGroup(t *testing.T, d *Device, k int, seed int64) ([][]byte, []Query) {
	t.Helper()
	lpns := make([]uint64, k)
	data := make([][]byte, k)
	leaves := make([]Query, k)
	for i := range lpns {
		lpns[i] = uint64(i)
		data[i] = pageOf(d, seed+int64(i))
		leaves[i] = QueryLPN(lpns[i])
	}
	if err := d.WriteOperandGroup(lpns, data); err != nil {
		t.Fatal(err)
	}
	return data, leaves
}

// TestStorePutAndQuery stores three bitmap columns and runs AND, OR and
// XOR queries over them through Device.Query, each checked against the
// host computation.
func TestStorePutAndQuery(t *testing.T) {
	d := newTestDevice(t)
	data, leaves := writeColumnGroup(t, d, 3, 1)
	fold := func(f func(x, y byte) byte, pages ...[]byte) []byte {
		out := bytes.Clone(pages[0])
		for _, page := range pages[1:] {
			for i := range out {
				out[i] = f(out[i], page[i])
			}
		}
		return out
	}
	cases := []struct {
		q    Query
		want []byte
	}{
		{QueryAnd(leaves...), fold(func(x, y byte) byte { return x & y }, data...)},
		{QueryOr(leaves[0], leaves[1]), fold(func(x, y byte) byte { return x | y }, data[0], data[1])},
		{QueryXor(leaves[0], leaves[2]), fold(func(x, y byte) byte { return x ^ y }, data[0], data[2])},
	}
	for _, tc := range cases {
		r, err := d.Query(tc.q, LocationFree)
		if err != nil {
			t.Fatalf("%v: %v", tc.q, err)
		}
		if !bytes.Equal(r.Data, tc.want) {
			t.Fatalf("%v: result differs from the host computation", tc.q)
		}
		if r.Latency <= 0 {
			t.Fatalf("%v: no modeled latency", tc.q)
		}
	}
}

// TestStoreQueriesAreLocationFree checks that a six-column AND query over
// an aligned LSB group neither reallocates nor falls back.
func TestStoreQueriesAreLocationFree(t *testing.T) {
	d := newTestDevice(t)
	_, leaves := writeColumnGroup(t, d, 6, 10)
	if _, err := d.Query(QueryAnd(leaves...), LocationFree); err != nil {
		t.Fatal(err)
	}
	if s := d.Stats(); s.Op.Reallocations != 0 || s.Op.Fallbacks != 0 {
		t.Fatalf("store query reallocated: %+v", s)
	}
}

func TestPublicFormula(t *testing.T) {
	d := newTestDevice(t)
	pages := make([][]byte, 4)
	for i := range pages {
		pages[i] = pageOf(d, int64(20+i))
	}
	d.WriteOperandPair(0, 1, pages[0], pages[1])
	d.WriteOperandPair(2, 3, pages[2], pages[3])
	f := Formula{
		Terms: []Term{
			{First: Operand{LPN: 0}, Second: Operand{LPN: 1}, Op: And},
			{First: Operand{LPN: 2}, Second: Operand{LPN: 3}, Op: Or},
		},
		Combine: []Op{Xor},
	}
	res, err := d.Execute(f, PreAllocated)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pages) != 1 {
		t.Fatalf("pages = %d", len(res.Pages))
	}
	want := make([]byte, d.PageSize())
	for i := range want {
		want[i] = (pages[0][i] & pages[1][i]) ^ (pages[2][i] | pages[3][i])
	}
	if !bytes.Equal(res.Pages[0], want) {
		t.Fatal("formula result wrong")
	}
	if res.HostLatency <= res.Latency {
		t.Fatal("host latency missing")
	}
}

// TestPublicFormulaSubPage pins that Device.Execute honours operand
// offsets and lengths: operands at one offset, at different offsets, and
// a two-term formula over sub-page ranges, each checked against the
// host-side result over the named bytes.
func TestPublicFormulaSubPage(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    Formula
	}{
		{"equal offsets", Formula{Terms: []Term{
			{First: Operand{LPN: 0, Offset: 16, Length: 16}, Second: Operand{LPN: 1, Offset: 16, Length: 16}, Op: Xor}}}},
		{"different offsets", Formula{Terms: []Term{
			{First: Operand{LPN: 0, Offset: 16, Length: 32}, Second: Operand{LPN: 1, Offset: 64, Length: 32}, Op: And}}}},
		{"two terms", Formula{Terms: []Term{
			{First: Operand{LPN: 0, Offset: 32, Length: 32}, Second: Operand{LPN: 1, Offset: 32, Length: 32}, Op: And},
			{First: Operand{LPN: 2, Offset: 0, Length: 32}, Second: Operand{LPN: 3, Offset: 96, Length: 32}, Op: Or}},
			Combine: []Op{Xor}}},
	} {
		d := newTestDevice(t)
		pages := make([][]byte, 4)
		for i := range pages {
			pages[i] = pageOf(d, int64(40+i))
		}
		d.WriteOperandPair(0, 1, pages[0], pages[1])
		d.WriteOperandPair(2, 3, pages[2], pages[3])
		res, err := d.Execute(tc.f, PreAllocated)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		eval := func(op Op, x, y byte) byte {
			switch op {
			case And:
				return x & y
			case Or:
				return x | y
			}
			return x ^ y
		}
		term := func(tm Term, i int) byte {
			return eval(tm.Op, pages[tm.First.LPN][tm.First.Offset+i], pages[tm.Second.LPN][tm.Second.Offset+i])
		}
		want := make([]byte, tc.f.Terms[0].First.Length)
		for i := range want {
			want[i] = term(tc.f.Terms[0], i)
			for j, op := range tc.f.Combine {
				want[i] = eval(op, want[i], term(tc.f.Terms[j+1], i))
			}
		}
		if len(res.Pages) != 1 || !bytes.Equal(res.Pages[0], want) {
			t.Fatalf("%s: got %x, want %x", tc.name, res.Pages, want)
		}
	}
}

func TestPublicWriteReadRoundTrip(t *testing.T) {
	d := newTestDevice(t)
	data := pageOf(d, 30)
	if err := d.Write(5, data); err != nil {
		t.Fatal(err)
	}
	got, err := d.Read(5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip corrupted")
	}
}

func TestPublicStats(t *testing.T) {
	d := newTestDevice(t)
	x, y := pageOf(d, 40), pageOf(d, 41)
	d.WriteOperand(0, x)
	d.WriteOperand(1, y)
	if _, err := d.Bitwise(And, 0, 1, Reallocated); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.Op.BitwiseOps != 1 || s.Op.Reallocations != 1 || s.Flash.Programs < 4 {
		t.Fatalf("stats %+v", s)
	}
	if wa := s.FTL.WriteAmplification(); wa <= 1 {
		t.Fatalf("WA = %v, expected > 1 after realloc", wa)
	}
	if d.Elapsed() <= 0 {
		t.Fatal("no virtual time elapsed")
	}
}

func TestPublicErrorModel(t *testing.T) {
	// With the error model installed and a cycled device, ParaBit results
	// can carry bit flips; a fresh device's results are clean.
	d := newTestDevice(t, WithErrorModel(1))
	x, y := pageOf(d, 50), pageOf(d, 51)
	d.WriteOperandPair(0, 1, x, y)
	r, err := d.Bitwise(Xor, 0, 1, PreAllocated)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh blocks: zero P/E, so no injected errors.
	for i := range r.Data {
		if r.Data[i] != x[i]^y[i] {
			t.Fatal("fresh-device result corrupted")
		}
	}
	if d.Stats().Flash.InjectedFlips != 0 {
		t.Fatal("flips injected at zero P/E")
	}
}

func TestPublicBitwiseToHost(t *testing.T) {
	d := newTestDevice(t)
	x, y := pageOf(d, 60), pageOf(d, 61)
	d.WriteOperandPair(0, 1, x, y)
	r, err := d.BitwiseToHost(Or, 0, 1, PreAllocated)
	if err != nil {
		t.Fatal(err)
	}
	if r.HostLatency <= r.Latency {
		t.Fatal("host latency not larger than device latency")
	}
}

func TestPlanReducePublic(t *testing.T) {
	p, err := PlanReduce(Reallocated, And, 360, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if p.ComputeSeconds < 5.5 || p.ComputeSeconds > 7 {
		t.Errorf("bitmap ReAlloc plan = %.2fs, want ≈6.1", p.ComputeSeconds)
	}
	if p.Reallocations != 359 {
		t.Errorf("reallocations = %d", p.Reallocations)
	}
}

// TestPlanReduceRefuses pins that PlanReduce either prices a reduction
// or refuses it, for every scheme, op and operand count: it never panics
// and never returns a negative plan. It refuses what Device.Reduce
// refuses, an op other than And, Or or Xor, and fewer than two operands.
func TestPlanReduceRefuses(t *testing.T) {
	for _, scheme := range Schemes {
		for _, op := range Ops {
			for _, k := range []int{0, 1, 2, 3, 40} {
				p, err := PlanReduce(scheme, op, k, 100_000_000)
				refuse := k < 2 || (op != And && op != Or && op != Xor)
				if refuse != (err != nil) {
					t.Errorf("PlanReduce(%v, %v, %d) err = %v, want refusal %v", scheme, op, k, err, refuse)
				}
				if op != And && op != Or && op != Xor && !errors.Is(err, errReduceOp) {
					t.Errorf("PlanReduce(%v, %v, %d) err = %v, want errReduceOp", scheme, op, k, err)
				}
				if err == nil && (p.ComputeSeconds <= 0 || p.Reallocations < 0 || p.ReallocBytes < 0) {
					t.Errorf("PlanReduce(%v, %v, %d) = %+v, want a positive plan", scheme, op, k, p)
				}
			}
		}
	}
}

func TestRunExperimentPublic(t *testing.T) {
	out, err := RunExperiment("fig13a")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "XOR") || !strings.Contains(out, "100.0µs") {
		t.Fatalf("fig13a output:\n%s", out)
	}
	if _, err := RunExperiment("nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	ids := Experiments()
	if len(ids) != 16 {
		t.Fatalf("%d experiments", len(ids))
	}
}

func TestBadOpAndSchemePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid op accepted")
		}
	}()
	_ = Op(99).String()
}

func TestPublicECCAsymmetry(t *testing.T) {
	// With ECC + an aggressive noise model on a cycled device, baseline
	// reads come back clean while ParaBit results carry errors — §4.4.3
	// made observable through the public API.
	d := newTestDevice(t, WithErrorModel(7), WithECC())
	// Age a block by cycling the whole device's first blocks via churn:
	// write/overwrite the same LPNs enough to trigger GC erases.
	data := pageOf(d, 70)
	// Over a device-capacity of overwrites so GC erases blocks.
	for i := 0; i < 40000; i++ {
		if err := d.Write(uint64(i%16), data); err != nil {
			t.Fatal(err)
		}
	}
	// Baseline read: corrected, identical to the last write.
	got, err := d.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("baseline read corrupted despite ECC")
	}
	s := d.Stats()
	if s.Flash.Erases == 0 {
		t.Fatal("churn did not cycle any blocks")
	}
}

func TestStudiesPublicAPI(t *testing.T) {
	seg, err := SegmentationStudy(200_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(seg) != 5 {
		t.Fatalf("%d breakdowns", len(seg))
	}
	// Order: PIM, ISC, ReAlloc, ParaBit, LocFree; ParaBit moves no
	// operands and wins against PIM.
	if seg[0].Scheme != "PIM" || seg[3].Scheme != "ParaBit" {
		t.Fatalf("order: %v, %v", seg[0].Scheme, seg[3].Scheme)
	}
	if seg[3].OperandMoveSeconds != 0 {
		t.Fatal("ParaBit moved operands")
	}
	if seg[3].PipelinedSeconds >= seg[0].TotalSeconds {
		t.Fatal("ParaBit not faster than PIM")
	}
	if _, err := SegmentationStudy(0); err == nil {
		t.Fatal("zero images accepted")
	}
	bm, err := BitmapStudy(12)
	if err != nil {
		t.Fatal(err)
	}
	if bm[2].ReallocatedGB <= 0 {
		t.Fatal("bitmap ReAlloc volume missing")
	}
	if _, err := BitmapStudy(-1); err == nil {
		t.Fatal("negative months accepted")
	}
	enc, err := EncryptionStudy(100_000)
	if err != nil {
		t.Fatal(err)
	}
	if enc[2].TotalSeconds != enc[3].TotalSeconds {
		t.Fatal("encryption ParaBit != ReAlloc")
	}
	if _, err := EncryptionStudy(0); err == nil {
		t.Fatal("zero images accepted")
	}
}

func TestRunExperimentCSV(t *testing.T) {
	out, err := RunExperimentCSV("endurance")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header + 3 workloads
		t.Fatalf("%d CSV lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "workload,") {
		t.Fatalf("header: %q", lines[0])
	}
	if _, err := RunExperimentCSV("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// TestInstallFaultPlanPublicAPI arms a plan before telemetry is enabled,
// clears it, then arms a second one after: each plan's injections reach
// the sink's faults/injected lane and faults.* metrics, a cleared plan's
// counts stay in Stats, and a new plan replaces them.
func TestInstallFaultPlanPublicAPI(t *testing.T) {
	d := newTestDevice(t)
	if err := d.InstallFaultPlan([]byte(`{"rules": [{"type": "warp-core-breach"}]}`)); err == nil {
		t.Fatal("invalid plan accepted")
	}
	if err := d.InstallFaultPlan([]byte(`not json`)); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	plan := `{"seed": 11, "rules": [{"type": "stuck-block", "plane": 0, "block": 0}]}`
	if err := d.InstallFaultPlan([]byte(plan)); err != nil {
		t.Fatal(err)
	}
	sink := d.EnableTelemetry(true)
	write := func(from, to uint64) {
		t.Helper()
		for lpn := from; lpn < to; lpn++ {
			if err := d.Write(lpn, pageOf(d, int64(lpn))); err != nil {
				t.Fatalf("write %d: %v", lpn, err)
			}
		}
	}
	// checkExport compares the faults.* metrics with fs and the
	// faults/injected lane's instants with the injections of every plan.
	lane := int64(0)
	checkExport := func(fs faults.Stats) {
		t.Helper()
		got := exported(t, d)
		if got["counter faults.stuck_block"] != fs.StuckBlock || got["counter faults.jitter_events"] != fs.JitterEvents {
			t.Errorf("faults.* metrics %v, Stats %+v", got, fs)
		}
		lane += fs.Faults() + fs.JitterEvents
		if n := faultInstants(sink); n != lane {
			t.Errorf("faults/injected lane holds %d instants, want %d", n, lane)
		}
	}
	// Enough writes that one allocation lands on plane 0 block 0.
	write(0, 16)
	st := d.Stats()
	if st.Faults.StuckBlock == 0 || st.Faults.Faults() == 0 {
		t.Errorf("stuck block never hit: %+v", st.Faults)
	}
	if st.FTL.BlocksRetired == 0 || st.FTL.ResteeredWrites == 0 {
		t.Errorf("no graceful degradation recorded: %+v", st.FTL)
	}
	if st.Flash.InjectedFaults == 0 {
		t.Errorf("Stats.Flash.InjectedFaults = 0 after injections")
	}
	checkExport(st.Faults)
	d.ClearFaultPlan()
	write(16, 24)
	if got := d.Stats().Faults; got != st.Faults {
		t.Errorf("disarmed plan's counts moved: %+v -> %+v", st.Faults, got)
	}

	jitter := `{"seed": 2, "rules": [{"type": "jitter", "rate": 1, "op": "program", "max_jitter_us": 2}]}`
	if err := d.InstallFaultPlan([]byte(jitter)); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().Faults; got != (faults.Stats{}) {
		t.Errorf("a new plan kept the old plan's counts: %+v", got)
	}
	write(24, 32)
	fs := d.Stats().Faults
	if fs.JitterEvents == 0 || fs.Faults() != 0 {
		t.Errorf("second plan's counts %+v, want jitter only", fs)
	}
	checkExport(fs)
}

// faultInstants counts the instants recorded on the faults/injected lane.
func faultInstants(sink *telemetry.Sink) int64 {
	pid, tid := -1, -1
	var n int64
	for _, ev := range sink.Trace().Events() {
		switch {
		case ev.Name == "process_name" && ev.Args["name"] == "faults":
			pid = ev.PID
		case ev.Name == "thread_name" && ev.PID == pid && ev.Args["name"] == "injected":
			tid = ev.TID
		case ev.Ph == "i" && ev.PID == pid && ev.TID == tid:
			n++
		}
	}
	return n
}

// TestSyncAndAsyncRefuseAlike checks that each blocking call returns the
// same error as its Async form followed by Wait, for every bad input: the
// blocking call is that pair, so each command is checked in one place.
// Each form runs on a fresh device, as a refused write still moves the
// striping cursor and with it the address the error names.
func TestSyncAndAsyncRefuseAlike(t *testing.T) {
	short := []byte{1}
	const unmapped = 7
	cases := []struct {
		name        string
		sync, async func(d *Device) error
	}{
		{"write short page",
			func(d *Device) error { return d.Write(0, short) },
			func(d *Device) error { _, err := d.WriteAsync(0, short).Wait(); return err }},
		{"write beyond capacity",
			func(d *Device) error { return d.Write(d.UserPages(), pageOf(d, 1)) },
			func(d *Device) error { _, err := d.WriteAsync(d.UserPages(), pageOf(d, 1)).Wait(); return err }},
		{"operand short page",
			func(d *Device) error { return d.WriteOperand(0, short) },
			func(d *Device) error { _, err := d.WriteOperandAsync(0, short).Wait(); return err }},
		{"read unmapped",
			func(d *Device) error { _, err := d.Read(unmapped); return err },
			func(d *Device) error { _, err := d.ReadAsync(unmapped).Wait(); return err }},
		{"bitwise unmapped",
			func(d *Device) error { _, err := d.Bitwise(And, unmapped, unmapped+1, LocationFree); return err },
			func(d *Device) error {
				_, err := d.BitwiseAsync(And, unmapped, unmapped+1, LocationFree).Wait()
				return err
			}},
		{"reduce non-fold op",
			func(d *Device) error { _, err := d.Reduce(Xnor, []uint64{1, 2}, LocationFree); return err },
			func(d *Device) error { _, err := d.ReduceAsync(Xnor, []uint64{1, 2}, LocationFree).Wait(); return err }},
		{"reduce unmapped",
			func(d *Device) error {
				_, err := d.Reduce(Or, []uint64{unmapped, unmapped + 1}, FlashCosmos)
				return err
			},
			func(d *Device) error {
				_, err := d.ReduceAsync(Or, []uint64{unmapped, unmapped + 1}, FlashCosmos).Wait()
				return err
			}},
		{"zero query",
			func(d *Device) error { _, err := d.Query(Query{}, LocationFree); return err },
			func(d *Device) error { _, err := d.QueryAsync(Query{}, LocationFree).Wait(); return err }},
		{"query unmapped",
			func(d *Device) error { _, err := d.Query(QueryLPN(unmapped), LocationFree); return err },
			func(d *Device) error { _, err := d.QueryAsync(QueryLPN(unmapped), LocationFree).Wait(); return err }},
	}
	for _, c := range cases {
		serr := c.sync(newTestDevice(t, WithSmallGeometry()))
		aerr := c.async(newTestDevice(t, WithSmallGeometry()))
		if serr == nil || aerr == nil || serr.Error() != aerr.Error() {
			t.Errorf("%s: blocking call %v, Async+Wait %v: want the same refusal", c.name, serr, aerr)
		}
	}
}

// TestOpenKeepsStoredECC pins how WithECC meets a persistent store: the
// codec is part of the stored configuration, so a store created with
// WithECC reads through it when opened with an error model alone, and
// WithECC cannot add a codec to a store created without one.
func TestOpenKeepsStoredECC(t *testing.T) {
	plain := t.TempDir()
	if err := newTestDevice(t, WithPersistence(plain)).Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(plain, WithECC()); err == nil {
		t.Fatal("WithECC accepted for a store created without a codec")
	}

	dir := t.TempDir()
	d := newTestDevice(t, WithPersistence(dir), WithECC())
	data := pageOf(d, 5)
	for lpn := uint64(0); lpn < 8; lpn++ {
		if err := d.Write(lpn, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re, _, err := Open(dir, WithErrorModel(7))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for lpn := uint64(0); lpn < 8; lpn++ {
		got, err := re.Read(lpn)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("LPN %d read back wrong after reopening", lpn)
		}
	}
}
