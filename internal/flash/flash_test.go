package flash

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"parabit/internal/latch"
	"parabit/internal/sim"
)

func testArray() *Array { return NewArray(Small(), DefaultTiming()) }

func fillPattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed ^ byte(i*7)
	}
	return b
}

func TestGeometryDefaults(t *testing.T) {
	g := Default()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Chips() != 128 {
		t.Errorf("chips = %d, want 128 (paper §5.1)", g.Chips())
	}
	if g.Planes() != 1024 {
		t.Errorf("planes = %d, want 1024", g.Planes())
	}
	if got := g.WaveBytes(); got != 8<<20 {
		t.Errorf("wave bytes = %d, want 8 MiB (two 8 MB operands per wave)", got)
	}
	if got := g.CapacityBytes(); got != 512<<30 {
		t.Errorf("capacity = %d, want 512 GiB", got)
	}
}

func TestGeometryValidateRejectsZeros(t *testing.T) {
	g := Default()
	g.Channels = 0
	if g.Validate() == nil {
		t.Fatal("zero channels accepted")
	}
	g = Default()
	g.PageSize = -1
	if g.Validate() == nil {
		t.Fatal("negative page size accepted")
	}
}

func TestPlaneIndexRoundTrip(t *testing.T) {
	g := Small()
	seen := map[int]bool{}
	for ch := 0; ch < g.Channels; ch++ {
		for c := 0; c < g.ChipsPerChannel; c++ {
			for d := 0; d < g.DiesPerChip; d++ {
				for p := 0; p < g.PlanesPerDie; p++ {
					addr := PlaneAddr{ch, c, d, p}
					idx := g.PlaneIndex(addr)
					if seen[idx] {
						t.Fatalf("duplicate plane index %d", idx)
					}
					seen[idx] = true
					if g.PlaneAt(idx) != addr {
						t.Fatalf("PlaneAt(PlaneIndex(%v)) = %v", addr, g.PlaneAt(idx))
					}
				}
			}
		}
	}
	if len(seen) != g.Planes() {
		t.Fatalf("enumerated %d planes, want %d", len(seen), g.Planes())
	}
}

func TestPPNRoundTrip(t *testing.T) {
	g := Small()
	f := func(rawPlane, rawBlock, rawWL uint16, kindRaw bool) bool {
		addr := PageAddr{
			WordlineAddr: WordlineAddr{
				PlaneAddr: g.PlaneAt(int(rawPlane) % g.Planes()),
				Block:     int(rawBlock) % g.BlocksPerPlane,
				WL:        int(rawWL) % g.WordlinesPerBlock,
			},
			Kind: LSBPage,
		}
		if kindRaw {
			addr.Kind = MSBPage
		}
		return g.PageAt(g.PPN(addr)) == addr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestErasedPageReadsAllOnes(t *testing.T) {
	a := testArray()
	addr := PageAddr{WordlineAddr: WordlineAddr{Block: 3, WL: 5}, Kind: LSBPage}
	data, done, err := a.Read(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range data {
		if b != 0xFF {
			t.Fatalf("erased byte %d = %02x, want ff", i, b)
		}
	}
	if done <= 0 {
		t.Fatal("read completed at t<=0")
	}
}

func TestProgramReadRoundTrip(t *testing.T) {
	a := testArray()
	wl := WordlineAddr{Block: 1, WL: 0}
	lsbData := fillPattern(a.Geometry().PageSize, 0xA5)
	msbData := fillPattern(a.Geometry().PageSize, 0x3C)
	if _, err := a.Program(PageAddr{wl, LSBPage}, lsbData, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Program(PageAddr{wl, MSBPage}, msbData, 0); err != nil {
		t.Fatal(err)
	}
	got, _, err := a.Read(PageAddr{wl, LSBPage}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != lsbData[i] {
			t.Fatalf("LSB byte %d corrupted", i)
		}
	}
	got, _, _ = a.Read(PageAddr{wl, MSBPage}, 0)
	for i := range got {
		if got[i] != msbData[i] {
			t.Fatalf("MSB byte %d corrupted", i)
		}
	}
}

func TestProgramCopiesData(t *testing.T) {
	a := testArray()
	wl := WordlineAddr{}
	data := fillPattern(a.Geometry().PageSize, 1)
	if _, err := a.Program(PageAddr{wl, LSBPage}, data, 0); err != nil {
		t.Fatal(err)
	}
	data[0] = ^data[0] // mutate caller's buffer
	got, _, _ := a.Read(PageAddr{wl, LSBPage}, 0)
	if got[0] == data[0] {
		t.Fatal("array aliased the caller's buffer")
	}
}

func TestMLCProgramOrder(t *testing.T) {
	a := testArray()
	wl := WordlineAddr{Block: 2}
	page := make([]byte, a.Geometry().PageSize)
	if _, err := a.Program(PageAddr{wl, MSBPage}, page, 0); !errors.Is(err, ErrProgramOrder) {
		t.Fatalf("MSB-first program: err = %v, want ErrProgramOrder", err)
	}
	if _, err := a.Program(PageAddr{wl, LSBPage}, page, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Program(PageAddr{wl, LSBPage}, page, 0); !errors.Is(err, ErrNotErased) {
		t.Fatalf("double LSB program: err = %v, want ErrNotErased", err)
	}
	if _, err := a.Program(PageAddr{wl, MSBPage}, page, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Program(PageAddr{wl, MSBPage}, page, 0); !errors.Is(err, ErrNotErased) {
		t.Fatalf("double MSB program: err = %v, want ErrNotErased", err)
	}
}

func TestProgramWrongSize(t *testing.T) {
	a := testArray()
	if _, err := a.Program(PageAddr{}, []byte{1, 2, 3}, 0); !errors.Is(err, ErrPageSize) {
		t.Fatalf("err = %v, want ErrPageSize", err)
	}
}

func TestEraseResetsAndCounts(t *testing.T) {
	a := testArray()
	wl := WordlineAddr{Block: 4}
	page := fillPattern(a.Geometry().PageSize, 9)
	if _, err := a.Program(PageAddr{wl, LSBPage}, page, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Erase(wl.PlaneAddr, wl.Block, 0); err != nil {
		t.Fatal(err)
	}
	if a.EraseCount(wl.PlaneAddr, wl.Block) != 1 {
		t.Fatalf("erase count = %d, want 1", a.EraseCount(wl.PlaneAddr, wl.Block))
	}
	got, _, _ := a.Read(PageAddr{wl, LSBPage}, 0)
	if got[0] != 0xFF {
		t.Fatal("erase did not reset data")
	}
	// Program again after erase must succeed.
	if _, err := a.Program(PageAddr{wl, LSBPage}, page, 0); err != nil {
		t.Fatalf("program after erase: %v", err)
	}
}

// programBlock programs every page of one block, in kind order per
// wordline, with pages derived from seed; page is the caller's scratch
// buffer, so the helper allocates nothing itself.
func programBlock(tb testing.TB, a *Array, blk int, page []byte, seed byte) {
	tb.Helper()
	for i := range page {
		page[i] = seed ^ byte(i*7)
	}
	for w := 0; w < a.Geometry().WordlinesPerBlock; w++ {
		for k := 0; k < a.Geometry().CellBits; k++ {
			page[0] = seed + byte(w*3+k)
			if _, err := a.Program(PageAddr{WordlineAddr{Block: blk, WL: w}, PageKind(k)}, page, 0); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// eraseFailer fails every erase with a program/erase-status fault.
type eraseFailer struct{}

func (eraseFailer) Inspect(op FaultOp, _ PlaneAddr, _ int, _ sim.Time) FaultOutcome {
	if op == FaultErase {
		return FaultOutcome{Err: &FaultError{Op: op, Kind: FaultEraseFail}}
	}
	return FaultOutcome{}
}

// TestEraseRecyclesPages pins that an erase hands the block's page
// buffers back for its next program cycle: once warm, reprogramming an
// erased block allocates nothing. A faulted erase keeps every page.
func TestEraseRecyclesPages(t *testing.T) {
	a := testArray()
	const blk = 3
	page := make([]byte, a.Geometry().PageSize)
	programBlock(t, a, blk, page, 1)
	if _, err := a.Erase(PlaneAddr{}, blk, 0); err != nil {
		t.Fatal(err)
	}
	seed := byte(0)
	allocs := testing.AllocsPerRun(20, func() {
		seed++
		programBlock(t, a, blk, page, seed)
		if _, err := a.Erase(PlaneAddr{}, blk, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("program+erase cycle of a warm block allocates %v objects, want 0", allocs)
	}
	programBlock(t, a, blk, page, 0x5A)
	want := fillPattern(a.Geometry().PageSize, 0x5A)
	want[0] = 0x5A + 3 // wordline 1, LSB
	if got, _, err := a.Read(PageAddr{WordlineAddr{Block: blk, WL: 1}, LSBPage}, 0); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("recycled page reads back wrong (err %v)", err)
	}
	free := len(a.free)
	a.SetFaultInjector(eraseFailer{})
	if _, err := a.Erase(PlaneAddr{}, blk, 0); !IsEraseFault(err) {
		t.Fatalf("erase under eraseFailer: %v", err)
	}
	if len(a.free) != free || !a.PageProgrammed(PageAddr{WordlineAddr{Block: blk}, MSBPage}) {
		t.Fatal("a faulted erase released the block's pages")
	}
}

// TestFreeListCap pins the free list's bound: one block per plane, and
// at most 1 MiB of pages.
func TestFreeListCap(t *testing.T) {
	for _, c := range []struct {
		geo  Geometry
		want int
	}{{Small(), 512}, {Default(), 128}} {
		if got := NewArray(c.geo, DefaultTiming()).freeCap; got != c.want {
			t.Errorf("%+v: free list holds %d pages, want %d", c.geo, got, c.want)
		}
	}
	a := testArray()
	page := make([]byte, a.Geometry().PageSize)
	// Ten blocks of one plane hold more pages than the cap.
	for blk := 0; blk < 10; blk++ {
		programBlock(t, a, blk, page, byte(blk))
	}
	for blk := 0; blk < 10; blk++ {
		if _, err := a.Erase(PlaneAddr{}, blk, 0); err != nil {
			t.Fatal(err)
		}
	}
	if len(a.free) != a.freeCap {
		t.Fatalf("free list holds %d pages after erasing 10 blocks, want the cap %d", len(a.free), a.freeCap)
	}
}

// BenchmarkProgramErase programs every page of one paper-geometry block
// and erases it: one program/erase cycle per iteration.
func BenchmarkProgramErase(b *testing.B) {
	a := NewArray(Default(), DefaultTiming())
	page := make([]byte, a.Geometry().PageSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		programBlock(b, a, 1, page, byte(i))
		if _, err := a.Erase(PlaneAddr{}, 1, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func TestBadAddressesRejected(t *testing.T) {
	a := testArray()
	bad := PageAddr{WordlineAddr: WordlineAddr{PlaneAddr: PlaneAddr{Channel: 99}}}
	if _, _, err := a.Read(bad, 0); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("read: err = %v, want ErrBadAddress", err)
	}
	if _, err := a.Program(bad, make([]byte, a.Geometry().PageSize), 0); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("program: err = %v, want ErrBadAddress", err)
	}
	if _, err := a.Erase(PlaneAddr{Channel: 99}, 0, 0); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("erase: err = %v, want ErrBadAddress", err)
	}
	if _, err := a.Erase(PlaneAddr{}, -1, 0); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("erase bad block: err = %v, want ErrBadAddress", err)
	}
}

// readLatency is the sense time of a page read of kind on a, with
// retries calibrated re-reads: its read program's price.
func readLatency(a *Array, kind PageKind, retries int) sim.Duration {
	return a.Timing().SenseLatency(latch.ReadCost(a.Geometry().CellBits, int(kind), retries), a.Geometry().PageSize)
}

func TestReadTiming(t *testing.T) {
	a := testArray()
	tm := a.Timing()
	// A read senses its page's read program, then crosses the channel.
	for _, kind := range []PageKind{LSBPage, MSBPage} {
		a.ResetTiming()
		_, done, err := a.Read(PageAddr{WordlineAddr{}, kind}, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := sim.Time(0).Add(readLatency(a, kind, 0)).Add(tm.Transfer(a.Geometry().PageSize))
		if done != want {
			t.Fatalf("%v read done at %v, want %v", kind, done, want)
		}
	}
	if readLatency(a, MSBPage, 0) <= readLatency(a, LSBPage, 0) {
		t.Fatal("MSB read no slower than LSB read")
	}
}

func TestPlaneSerializationAndParallelism(t *testing.T) {
	a := testArray()
	same := PageAddr{WordlineAddr{}, LSBPage}
	// Two reads of the same plane serialize on the sense path.
	_, r1, _ := a.Read(same, 0)
	_, r2, _ := a.Read(same, 0)
	if r2 != r1.Add(readLatency(a, LSBPage, 0)) {
		t.Fatalf("same-plane reads did not serialize: %v then %v", r1, r2)
	}
	// A read of a different plane on a different channel is independent.
	other := PageAddr{WordlineAddr{PlaneAddr: PlaneAddr{Channel: 1}}, LSBPage}
	_, r3, _ := a.Read(other, 0)
	if r3 != r1 {
		t.Fatalf("cross-plane read not parallel: done at %v, first read at %v", r3, r1)
	}
}

func TestChannelSharedByPlanesOfSameChannel(t *testing.T) {
	a := testArray()
	tm := a.Timing()
	g := a.Geometry()
	// Two planes on channel 0 sense in parallel but serialize transfers.
	p0 := PageAddr{WordlineAddr{PlaneAddr: PlaneAddr{Plane: 0}}, LSBPage}
	p1 := PageAddr{WordlineAddr{PlaneAddr: PlaneAddr{Plane: 1}}, LSBPage}
	_, d0, _ := a.Read(p0, 0)
	_, d1, _ := a.Read(p1, 0)
	tx := tm.Transfer(g.PageSize)
	if d0 != sim.Time(0).Add(readLatency(a, LSBPage, 0)).Add(tx) {
		t.Fatalf("first read done %v", d0)
	}
	if d1 != d0.Add(tx) {
		t.Fatalf("second transfer did not queue on channel: %v vs first %v", d1, d0)
	}
}

// writeOperands programs x into the LSB page and y into the MSB page of a
// wordline, as ParaBit's co-located layout requires.
func writeOperands(t *testing.T, a *Array, wl WordlineAddr, x, y []byte) {
	t.Helper()
	if _, err := a.Program(PageAddr{wl, LSBPage}, x, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Program(PageAddr{wl, MSBPage}, y, 0); err != nil {
		t.Fatal(err)
	}
}

func TestBitwiseAllOpsCorrect(t *testing.T) {
	a := testArray()
	n := a.Geometry().PageSize
	x, y := fillPattern(n, 0x5A), fillPattern(n, 0xC3)
	wl := WordlineAddr{Block: 7, WL: 3}
	writeOperands(t, a, wl, x, y)
	for _, op := range latch.Ops {
		res, err := a.Sense(Sense{Kind: latch.SensePair, Op: op, WLs: []WordlineAddr{wl}}, 0)
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		got := res.Data
		for i := range got {
			for b := 0; b < 8; b++ {
				lsb := x[i]&(1<<b) != 0
				msb := y[i]&(1<<b) != 0
				want := op.Eval(lsb, msb)
				if (got[i]&(1<<b) != 0) != want {
					t.Fatalf("%v bit %d.%d: got %v, want %v", op, i, b, !want, want)
				}
			}
		}
	}
}

// senseLatency prices one sense of kind on the test array's pages.
func senseLatency(t *testing.T, tm Timing, kind latch.SenseKind, op latch.Op, k int) sim.Duration {
	t.Helper()
	c, err := latch.Price(kind, op, k)
	if err != nil {
		t.Fatal(err)
	}
	return tm.SenseLatency(c, Small().PageSize)
}

func TestSenseLatencyMatchesSROs(t *testing.T) {
	tm := DefaultTiming()
	// §5.2: XNOR and XOR take 100 µs; AND one sense (25 µs).
	if got := senseLatency(t, tm, latch.SensePair, latch.OpXor, 1); got != 100*sim.Microsecond {
		t.Errorf("XOR latency %v, want 100µs", got)
	}
	if got := senseLatency(t, tm, latch.SensePair, latch.OpXnor, 1); got != 100*sim.Microsecond {
		t.Errorf("XNOR latency %v, want 100µs", got)
	}
	if got := senseLatency(t, tm, latch.SensePair, latch.OpAnd, 1); got != 25*sim.Microsecond {
		t.Errorf("AND latency %v, want 25µs", got)
	}
	if got := senseLatency(t, tm, latch.SenseLocFree, latch.OpAnd, 2); got != 75*sim.Microsecond {
		t.Errorf("locfree AND latency %v, want 75µs", got)
	}
	// A multi-wordline sense develops once and settles each extra
	// wordline; a chained XOR reloads two pages per extra operand.
	if got, want := senseLatency(t, tm, latch.SenseMWS, latch.OpAnd, 8), tm.SenseMWS+7*tm.MWSSettlePerWL; got != want {
		t.Errorf("8-wordline MWS latency %v, want %v", got, want)
	}
	if got, want := senseLatency(t, tm, latch.SenseChainLSB, latch.OpXor, 3), 6*tm.SenseSRO+2*tm.Transfer(Small().PageSize); got != want {
		t.Errorf("3-operand XOR chain latency %v, want %v", got, want)
	}
	a := testArray()
	wl := WordlineAddr{}
	res, err := a.Sense(Sense{Kind: latch.SensePair, Op: latch.OpXor, WLs: []WordlineAddr{wl}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ready != sim.Time(100*sim.Microsecond) {
		t.Errorf("XOR sense ready at %v, want 100µs", res.Ready)
	}
}

func TestBitwiseLocFree(t *testing.T) {
	a := testArray()
	n := a.Geometry().PageSize
	mData := fillPattern(n, 0x11) // second operand M, stored in MSB page
	nData := fillPattern(n, 0xEE) // first operand N, stored in LSB page
	filler := make([]byte, n)
	// Operand M on wordline (blk 0, wl 0) MSB page; operand N on an
	// aligned wordline in a *different block*, LSB page.
	wlM := WordlineAddr{Block: 0, WL: 0}
	wlN := WordlineAddr{Block: 9, WL: 4}
	writeOperands(t, a, wlM, filler, mData)
	if _, err := a.Program(PageAddr{wlN, LSBPage}, nData, 0); err != nil {
		t.Fatal(err)
	}
	for _, op := range latch.BinaryOps {
		res, err := a.Sense(Sense{Kind: latch.SenseLocFree, Op: op, WLs: []WordlineAddr{wlM, wlN}}, 0)
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		got := res.Data
		for i := range got {
			for b := 0; b < 8; b++ {
				lsb := nData[i]&(1<<b) != 0
				msb := mData[i]&(1<<b) != 0
				want := op.Eval(lsb, msb)
				if (got[i]&(1<<b) != 0) != want {
					t.Fatalf("locfree %v bit %d.%d wrong", op, i, b)
				}
			}
		}
	}
}

func TestLocFreeRejectsCrossPlane(t *testing.T) {
	a := testArray()
	m := WordlineAddr{}
	n := WordlineAddr{PlaneAddr: PlaneAddr{Plane: 1}}
	if _, err := a.Sense(Sense{Kind: latch.SenseLocFree, Op: latch.OpAnd, WLs: []WordlineAddr{m, n}}, 0); !errors.Is(err, ErrPlaneMismatch) {
		t.Fatalf("err = %v, want ErrPlaneMismatch", err)
	}
}

// countingCorruptor flips the first bit of every page and counts calls.
type countingCorruptor struct {
	calls   int
	lastPE  int
	lastSRO int
}

func (c *countingCorruptor) Corrupt(data []byte, pe, sros int) int {
	c.calls++
	c.lastPE = pe
	c.lastSRO = sros
	data[0] ^= 1
	return 1
}

func TestCorruptorHookApplied(t *testing.T) {
	a := testArray()
	cc := &countingCorruptor{}
	a.SetCorruptor(cc)
	wl := WordlineAddr{Block: 5}
	// Give the block some P/E history.
	if _, err := a.Erase(wl.PlaneAddr, wl.Block, 0); err != nil {
		t.Fatal(err)
	}
	res, err := a.Sense(Sense{Kind: latch.SensePair, Op: latch.OpXor, WLs: []WordlineAddr{wl}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cc.calls != 1 || res.FlipCount != 1 {
		t.Fatalf("corruptor calls=%d flips=%d", cc.calls, res.FlipCount)
	}
	if cc.lastPE != 1 {
		t.Errorf("corruptor saw PE=%d, want 1", cc.lastPE)
	}
	if cc.lastSRO != 4 {
		t.Errorf("corruptor saw sros=%d, want 4 (XOR)", cc.lastSRO)
	}
	if a.Stats().InjectedFlips != 1 {
		t.Errorf("stats flips = %d", a.Stats().InjectedFlips)
	}
	// Baseline reads stay ideal (ECC-protected): no corruptor call.
	if _, _, err := a.Read(PageAddr{wl, LSBPage}, 0); err != nil {
		t.Fatal(err)
	}
	if cc.calls != 1 {
		t.Error("baseline read went through the corruptor")
	}
}

func TestStatsAccumulate(t *testing.T) {
	a := testArray()
	page := make([]byte, a.Geometry().PageSize)
	wl := WordlineAddr{}
	a.Program(PageAddr{wl, LSBPage}, page, 0)
	a.Program(PageAddr{wl, MSBPage}, page, 0)
	a.Read(PageAddr{wl, LSBPage}, 0)
	res, _ := a.Sense(Sense{Kind: latch.SensePair, Op: latch.OpAnd, WLs: []WordlineAddr{wl}}, 0)
	a.transferOut(wl.Channel, res.Ready, len(res.Data))
	a.Erase(PlaneAddr{Channel: 1}, 0, 0)
	s := a.Stats()
	if s.Programs != 2 || s.Erases != 1 || s.BitwiseOps != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if want := latch.ReadCost(a.Geometry().CellBits, int(LSBPage), 0).SROs + latch.MustPrice(latch.SensePair, latch.OpAnd, 1).SROs; s.SROs != int64(want) {
		t.Fatalf("SROs = %d, want %d (the LSB read's and the AND's)", s.SROs, want)
	}
	if s.BytesIn != int64(2*a.Geometry().PageSize) || s.BytesOut != int64(2*a.Geometry().PageSize) {
		t.Fatalf("bytes in/out = %d/%d", s.BytesIn, s.BytesOut)
	}
	var sum Stats
	sum.Add(s)
	sum.Add(s)
	if sum.Programs != 4 {
		t.Fatal("Stats.Add wrong")
	}
}

func TestDrainTimeAndReset(t *testing.T) {
	a := testArray()
	a.Read(PageAddr{WordlineAddr{}, MSBPage}, 0)
	if a.DrainTime() != sim.Time(readLatency(a, MSBPage, 0)+a.Timing().Transfer(a.Geometry().PageSize)) {
		t.Fatalf("drain = %v", a.DrainTime())
	}
	a.ResetTiming()
	if a.DrainTime() != 0 {
		t.Fatal("reset did not clear occupancy")
	}
}

func TestDefaultGeometryConstructible(t *testing.T) {
	// The paper-scale 512 GB geometry must be constructible in memory
	// (lazy page storage) and usable for timing-only operations.
	a := NewArray(Default(), DefaultTiming())
	res, err := a.Sense(Sense{Kind: latch.SensePair, Op: latch.OpAnd, WLs: []WordlineAddr{{Block: 100, WL: 10}}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ready != sim.Time(25*sim.Microsecond) {
		t.Fatalf("ready at %v", res.Ready)
	}
	if len(res.Data) != 8192 {
		t.Fatalf("page size %d", len(res.Data))
	}
}

func BenchmarkBitwisePage8KB(b *testing.B) {
	a := NewArray(Default(), DefaultTiming())
	wl := WordlineAddr{}
	page := make([]byte, a.Geometry().PageSize)
	rand.New(rand.NewSource(1)).Read(page)
	a.Program(PageAddr{wl, LSBPage}, page, 0)
	a.Program(PageAddr{wl, MSBPage}, page, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Sense(Sense{Kind: latch.SensePair, Op: latch.OpXor, WLs: []WordlineAddr{wl}}, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func TestBitwiseLocFreeLSB(t *testing.T) {
	a := testArray()
	n := a.Geometry().PageSize
	mData := fillPattern(n, 0x0F)
	nData := fillPattern(n, 0x99)
	wlM := WordlineAddr{Block: 2, WL: 1}
	wlN := WordlineAddr{Block: 6, WL: 9}
	if _, err := a.Program(PageAddr{wlM, LSBPage}, mData, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Program(PageAddr{wlN, LSBPage}, nData, 0); err != nil {
		t.Fatal(err)
	}
	for _, op := range latch.BinaryOps {
		res, err := a.Sense(Sense{Kind: latch.SenseLocFreeLSB, Op: op, WLs: []WordlineAddr{wlM, wlN}}, 0)
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		got := res.Data
		for i := range got {
			for b := 0; b < 8; b++ {
				m := mData[i]&(1<<b) != 0
				nn := nData[i]&(1<<b) != 0
				if (got[i]&(1<<b) != 0) != op.Eval(nn, m) {
					t.Fatalf("lsb locfree %v bit %d.%d wrong", op, i, b)
				}
			}
		}
	}
	// NOT variants: NotLSB inverts M, NotMSB inverts N.
	res, _ := a.Sense(Sense{Kind: latch.SenseLocFreeLSB, Op: latch.OpNotLSB, WLs: []WordlineAddr{wlM, wlN}}, 0)
	if res.Data[0] != ^mData[0] {
		t.Fatal("NotLSB (first operand) wrong")
	}
	res, _ = a.Sense(Sense{Kind: latch.SenseLocFreeLSB, Op: latch.OpNotMSB, WLs: []WordlineAddr{wlM, wlN}}, 0)
	if res.Data[0] != ^nData[0] {
		t.Fatal("NotMSB (second operand) wrong")
	}
}

func TestLocFreeLSBTiming(t *testing.T) {
	tm := DefaultTiming()
	if got := senseLatency(t, tm, latch.SenseLocFreeLSB, latch.OpAnd, 2); got != 50*sim.Microsecond {
		t.Errorf("LSB locfree AND = %v, want 50µs (2 SROs)", got)
	}
	if got := senseLatency(t, tm, latch.SenseLocFreeLSB, latch.OpXor, 2); got != 100*sim.Microsecond {
		t.Errorf("LSB locfree XOR = %v, want 100µs (4 SROs)", got)
	}
}

func TestCacheReadPipelines(t *testing.T) {
	// Successive reads of the same plane pipeline through the cache
	// register: the second sense starts as soon as the first finishes,
	// while the first transfer drains concurrently.
	geo := Small()
	geo.PageSize = 8192 // make transfers significant (≈20.7µs)
	tm := DefaultTiming()
	a := NewArray(geo, tm)
	addr := PageAddr{WordlineAddr{}, LSBPage}
	var last sim.Time
	for i := 0; i < 4; i++ {
		_, done, err := a.Read(addr, 0)
		if err != nil {
			t.Fatal(err)
		}
		last = done
	}
	// 4 senses back to back + one final transfer.
	if want := sim.Time(4*readLatency(a, LSBPage, 0) + tm.Transfer(geo.PageSize)); last != want {
		t.Errorf("cache-read burst done at %v, want %v", last, want)
	}
}
