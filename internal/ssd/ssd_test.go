package ssd

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"parabit/internal/bitvec"
	"parabit/internal/flash"
	"parabit/internal/latch"
	"parabit/internal/nvme"
	"parabit/internal/persist"
	"parabit/internal/sim"
	"parabit/internal/telemetry"
)

func newDevice(t *testing.T) *Device {
	t.Helper()
	d, err := New(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func randPage(d *Device, seed int64) []byte {
	b := make([]byte, d.PageSize())
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func golden(op latch.Op, m, n []byte) []byte {
	vm, vn := bitvec.FromBytes(m), bitvec.FromBytes(n)
	var out *bitvec.Vector
	switch op {
	case latch.OpAnd:
		out = bitvec.And(vn, vm)
	case latch.OpOr:
		out = bitvec.Or(vn, vm)
	case latch.OpXor:
		out = bitvec.Xor(vn, vm)
	case latch.OpNand:
		out = bitvec.Nand(vn, vm)
	case latch.OpNor:
		out = bitvec.Nor(vn, vm)
	case latch.OpXnor:
		out = bitvec.Xnor(vn, vm)
	case latch.OpNotLSB:
		out = bitvec.Not(vm)
	case latch.OpNotMSB:
		out = bitvec.Not(vn)
	default:
		panic("bad op")
	}
	return out.Bytes()
}

func TestWriteReadScrambled(t *testing.T) {
	d := newDevice(t)
	data := randPage(d, 1)
	if _, err := d.WritePages(persist.OpWrite, 0, []uint64{3}, [][]byte{data}, 0); err != nil {
		t.Fatal(err)
	}
	// Controller-level read returns descrambled data.
	got, _, err := d.Read(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("descrambled read differs from written data")
	}
	// The flash itself must hold scrambled (different) bytes.
	addr, _ := d.FTL().Lookup(3)
	raw, _, _ := d.Array().Read(addr, 0)
	if bytes.Equal(raw, data) {
		t.Fatal("flash holds plaintext despite scrambling enabled")
	}
}

func TestOperandWritesAreUnscrambled(t *testing.T) {
	d := newDevice(t)
	data := randPage(d, 2)
	if _, err := d.WriteOperand(4, data, 0); err != nil {
		t.Fatal(err)
	}
	addr, _ := d.FTL().Lookup(4)
	raw, _, _ := d.Array().Read(addr, 0)
	if !bytes.Equal(raw, data) {
		t.Fatal("operand page was scrambled")
	}
}

func TestBitwisePreAllocAllOps(t *testing.T) {
	d := newDevice(t)
	m, n := randPage(d, 3), randPage(d, 4)
	if _, err := d.WritePages(persist.OpWritePair, 0, []uint64{0, 1}, [][]byte{m, n}, 0); err != nil {
		t.Fatal(err)
	}
	for _, op := range latch.Ops {
		r, err := d.Bitwise(op, 0, 1, SchemePreAlloc, 0)
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		if !bytes.Equal(r.Data, golden(op, m, n)) {
			t.Fatalf("%v result wrong", op)
		}
	}
	if d.Stats().Fallbacks != 0 {
		t.Fatalf("pre-allocated operands caused %d fallbacks", d.Stats().Fallbacks)
	}
}

// TestBitwiseFirstOperandInMSB pins the operand a complement names when
// the first operand sits in the MSB page: NOT-LSB still inverts the
// first operand and NOT-MSB the second, on both sense paths that run
// without reallocating.
func TestBitwiseFirstOperandInMSB(t *testing.T) {
	for _, scheme := range []Scheme{SchemePreAlloc, SchemeLocFree} {
		d := newDevice(t)
		m, n := randPage(d, 21), randPage(d, 22)
		// N goes to the LSB page, M to the MSB page of the same wordline.
		if _, err := d.WritePages(persist.OpWritePair, 0, []uint64{1, 0}, [][]byte{n, m}, 0); err != nil {
			t.Fatal(err)
		}
		for _, op := range latch.Ops {
			r, err := d.Bitwise(op, 0, 1, scheme, 0)
			if err != nil {
				t.Fatalf("%v/%v: %v", scheme, op, err)
			}
			if !bytes.Equal(r.Data, golden(op, m, n)) {
				t.Fatalf("%v/%v result wrong with the first operand in the MSB page", scheme, op)
			}
		}
		if d.Stats().Fallbacks != 0 {
			t.Fatalf("%v: %d fallbacks, want a direct sense", scheme, d.Stats().Fallbacks)
		}
	}
}

func TestBitwisePreAllocTiming(t *testing.T) {
	d := newDevice(t)
	m, n := randPage(d, 5), randPage(d, 6)
	d.WritePages(persist.OpWritePair, 0, []uint64{0, 1}, [][]byte{m, n}, 0)
	d.ResetTiming()
	r, err := d.Bitwise(latch.OpXor, 0, 1, SchemePreAlloc, 0)
	if err != nil {
		t.Fatal(err)
	}
	// §5.2: XOR without reallocation takes 100 µs of sensing.
	if r.Done != sim.Time(100*sim.Microsecond) {
		t.Fatalf("XOR done at %v, want 100µs", r.Done)
	}
	d.ResetTiming()
	r, _ = d.Bitwise(latch.OpAnd, 0, 1, SchemePreAlloc, 0)
	if r.Done != sim.Time(25*sim.Microsecond) {
		t.Fatalf("AND done at %v, want 25µs", r.Done)
	}
}

func TestBitwiseReAllocAllOps(t *testing.T) {
	d := newDevice(t)
	m, n := randPage(d, 7), randPage(d, 8)
	// Operands written independently (not co-located), scrambled even.
	if _, err := d.WritePages(persist.OpWrite, 0, []uint64{0}, [][]byte{m}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WritePages(persist.OpWrite, 0, []uint64{1}, [][]byte{n}, 0); err != nil {
		t.Fatal(err)
	}
	for _, op := range latch.Ops {
		r, err := d.Bitwise(op, 0, 1, SchemeReAlloc, 0)
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		if !bytes.Equal(r.Data, golden(op, m, n)) {
			t.Fatalf("%v result wrong (scrambled operands must be descrambled in realloc)", op)
		}
	}
	s := d.Stats()
	if s.Reallocations != int64(len(latch.Ops)) {
		t.Fatalf("reallocations = %d, want %d", s.Reallocations, len(latch.Ops))
	}
	if s.DescrambledOps == 0 {
		t.Fatal("no descrambles recorded for scrambled operands")
	}
}

func TestBitwiseReAllocTiming(t *testing.T) {
	d := newDevice(t)
	m, n := randPage(d, 9), randPage(d, 10)
	d.WriteOperand(0, m, 0)
	d.WriteOperand(1, n, 0)
	d.ResetTiming()
	r, err := d.Bitwise(latch.OpNotMSB, 0, 1, SchemeReAlloc, 0)
	if err != nil {
		t.Fatal(err)
	}
	// ReAlloc NOT-MSB ≈ operand reads + paired program + 2-SRO sense.
	// Reads overlap across planes (~25-50µs), programs serialize
	// (2x640µs) plus transfers, sense 50µs: expect ~1.4ms, and
	// definitely > 1.28ms of programming.
	if r.Done < sim.Time(1280*sim.Microsecond) || r.Done > sim.Time(1600*sim.Microsecond) {
		t.Fatalf("ReAlloc NOT-MSB done at %v, want ≈1.4ms", r.Done)
	}
}

func TestBitwiseLocFree(t *testing.T) {
	d := newDevice(t)
	m, n := randPage(d, 11), randPage(d, 12)
	if _, err := d.WriteOperandLSBGroup([]uint64{0, 1}, [][]byte{m, n}, 0); err != nil {
		t.Fatal(err)
	}
	for _, op := range latch.BinaryOps {
		r, err := d.Bitwise(op, 0, 1, SchemeLocFree, 0)
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		if !bytes.Equal(r.Data, golden(op, m, n)) {
			t.Fatalf("%v locfree result wrong", op)
		}
	}
	if d.Stats().Fallbacks != 0 {
		t.Fatalf("aligned operands caused %d fallbacks", d.Stats().Fallbacks)
	}
	if d.Stats().Reallocations != 0 {
		t.Fatal("locfree performed reallocations")
	}
}

func TestLocFreeTiming(t *testing.T) {
	d := newDevice(t)
	m, n := randPage(d, 13), randPage(d, 14)
	d.WriteOperandLSBGroup([]uint64{0, 1}, [][]byte{m, n}, 0)
	d.ResetTiming()
	r, _ := d.Bitwise(latch.OpAnd, 0, 1, SchemeLocFree, 0)
	if r.Done != sim.Time(50*sim.Microsecond) {
		t.Fatalf("locfree AND done at %v, want 50µs (2 SROs)", r.Done)
	}
}

// TestLocFreeFallbackWhenMisaligned: two operands on different planes
// share no sense, so LocFree reads both and combines them in the
// controller buffer: one fallback and one controller combine, no
// reallocation and no program.
func TestLocFreeFallbackWhenMisaligned(t *testing.T) {
	d := newDevice(t)
	sink := telemetry.New()
	d.SetTelemetry(sink)
	m, n := randPage(d, 15), randPage(d, 16)
	// Striped single writes land on different planes.
	d.WriteOperand(0, m, 0)
	d.WriteOperand(1, n, 0)
	programs := d.Array().Stats().Programs
	r, err := d.Bitwise(latch.OpAnd, 0, 1, SchemeLocFree, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.Data, golden(latch.OpAnd, m, n)) {
		t.Fatal("fallback result wrong")
	}
	if s := d.Stats(); s.Fallbacks != 1 || s.Reallocations != 0 {
		t.Fatalf("fallbacks = %d, reallocations = %d, want 1 and 0", s.Fallbacks, s.Reallocations)
	}
	if n := d.Array().Stats().Programs - programs; n != 0 {
		t.Fatalf("%d programs, want 0", n)
	}
	if n := sink.Counter("ssd.combine.controller").Value(); n != 1 {
		t.Fatalf("%d controller combines, want 1", n)
	}
}

// TestTLCLocationFreeBitwiseMiss: on TLC cells, which have no pair
// sense, a LocFree or Flash-Cosmos pairwise op over two striped operands
// answers with the page kernel's result over the two pages, the first
// in the LSB slot, where a reallocation would refuse.
func TestTLCLocationFreeBitwiseMiss(t *testing.T) {
	for _, scheme := range []Scheme{SchemeLocFree, SchemeFlashCosmos} {
		d := MustNew(SmallTLCConfig())
		m, n := randPage(d, 31), randPage(d, 32)
		for lpn, p := range [][]byte{m, n} {
			if _, err := d.WriteOperand(uint64(lpn), p, 0); err != nil {
				t.Fatal(err)
			}
		}
		for _, op := range latch.Ops {
			r, err := d.Bitwise(op, 0, 1, scheme, d.DrainTime())
			if err != nil {
				t.Fatalf("%v %v: %v", scheme, op, err)
			}
			want := make([]byte, len(m))
			op.Apply(want, m, n)
			if !bytes.Equal(r.Data, want) {
				t.Fatalf("%v %v: result differs from the page kernel", scheme, op)
			}
		}
		if s := d.Stats(); s.Reallocations != 0 {
			t.Fatalf("%v: %d reallocations, want 0", scheme, s.Reallocations)
		}
	}
}

// TestReduceLocFreeReadsMSBAndScrambled: an MSB or scrambled operand
// cannot join the LSB chain, so LocFree reads it beside its plane
// group's chain. The reduction counts one fallback however many such
// operands it has, and reallocates and programs nothing.
func TestReduceLocFreeReadsMSBAndScrambled(t *testing.T) {
	d := newDevice(t)
	lpns, pages := spreadOperands(d, 0, 6)
	// 0..2 an aligned LSB group, 3 and 4 a pair (4 on the MSB page), 5 a
	// scrambled host write.
	if _, err := d.WriteOperandLSBGroup(lpns[:3], pages[:3], 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WritePages(persist.OpWritePair, 0, lpns[3:5], pages[3:5], 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WritePages(persist.OpWrite, 0, lpns[5:], pages[5:], 0); err != nil {
		t.Fatal(err)
	}
	for _, op := range []latch.Op{latch.OpAnd, latch.OpOr, latch.OpXor} {
		before, programs := d.Stats(), d.Array().Stats().Programs
		r, err := d.Reduce(op, lpns, SchemeLocFree, d.DrainTime())
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		if !bytes.Equal(r.Data, softwareFold(op, pages)) {
			t.Fatalf("%v: result differs from the software fold", op)
		}
		s := d.Stats()
		if n := s.Fallbacks - before.Fallbacks; n != 1 {
			t.Errorf("%v: %d fallbacks, want 1", op, n)
		}
		if n := s.Reallocations - before.Reallocations; n != 0 {
			t.Errorf("%v: %d reallocations, want 0", op, n)
		}
		if n := d.Array().Stats().Programs - programs; n != 0 {
			t.Errorf("%v: %d programs, want 0", op, n)
		}
	}
}

func TestPreAllocFallbackWhenUnpaired(t *testing.T) {
	d := newDevice(t)
	m, n := randPage(d, 17), randPage(d, 18)
	d.WriteOperand(0, m, 0)
	d.WriteOperand(1, n, 0)
	r, err := d.Bitwise(latch.OpOr, 0, 1, SchemePreAlloc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.Data, golden(latch.OpOr, m, n)) {
		t.Fatal("fallback result wrong")
	}
	if d.Stats().Fallbacks != 1 || d.Stats().Reallocations != 1 {
		t.Fatalf("stats %+v", d.Stats())
	}
}

func TestReduceCorrectAllSchemes(t *testing.T) {
	const k = 6
	for _, scheme := range Schemes {
		d := newDevice(t)
		operands := make([][]byte, k)
		lpns := make([]uint64, k)
		for i := range operands {
			operands[i] = randPage(d, int64(100+i))
			lpns[i] = uint64(i)
		}
		// Lay out per scheme.
		switch scheme {
		case SchemePreAlloc:
			for i := 0; i+1 < k; i += 2 {
				if _, err := d.WritePages(persist.OpWritePair, 0, []uint64{lpns[i], lpns[i+1]}, [][]byte{operands[i], operands[i+1]}, 0); err != nil {
					t.Fatal(err)
				}
			}
		case SchemeLocFree:
			for i := 0; i+1 < k; i += 2 {
				if _, err := d.WriteOperandLSBGroup([]uint64{lpns[i], lpns[i+1]}, [][]byte{operands[i], operands[i+1]}, 0); err != nil {
					t.Fatal(err)
				}
			}
		case SchemeFlashCosmos:
			if _, err := d.WritePages(persist.OpWriteMWSGroup, 0, lpns, operands, 0); err != nil {
				t.Fatal(err)
			}
		default:
			for i := range lpns {
				if _, err := d.WriteOperand(lpns[i], operands[i], 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		r, err := d.Reduce(latch.OpAnd, lpns, scheme, 0)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		want := operands[0]
		for _, o := range operands[1:] {
			want = golden(latch.OpAnd, want, o)
		}
		if !bytes.Equal(r.Data, want) {
			t.Fatalf("%v: reduction wrong", scheme)
		}
	}
}

// TestReduceCountsEveryDescramble pins the descramble count: a reduction
// over k scrambled operands descrambles each one once, whichever scheme
// and whichever read path (the fold's first operand, PreAlloc's odd
// leftover, the one-operand shortcut) brings it into the buffer.
func TestReduceCountsEveryDescramble(t *testing.T) {
	for _, k := range []int{1, 3} {
		for _, scheme := range Schemes {
			d := newDevice(t)
			lpns, pages := make([]uint64, k), make([][]byte, k)
			for i := range lpns {
				lpns[i], pages[i] = uint64(i), randPage(d, int64(200+i))
				if _, err := d.WritePages(persist.OpWrite, 0, lpns[i:i+1], pages[i:i+1], 0); err != nil {
					t.Fatal(err)
				}
			}
			before := d.Stats().DescrambledOps
			if _, err := d.Reduce(latch.OpAnd, lpns, scheme, 0); err != nil {
				t.Fatalf("%v k=%d: %v", scheme, k, err)
			}
			if got := d.Stats().DescrambledOps - before; got != int64(k) {
				t.Errorf("%v k=%d: %d descrambles, want %d", scheme, k, got, k)
			}
		}
	}
}

func TestReduceSchemeCostOrdering(t *testing.T) {
	// The §5.3.2 ordering on a k-ary AND reduction:
	// LocFree < PreAlloc < ReAlloc in completion time, and
	// reallocation counts 0 / (k/2-1) / (k-1).
	const k = 8
	times := map[Scheme]sim.Time{}
	reallocs := map[Scheme]int64{}
	for _, scheme := range Schemes {
		d := newDevice(t)
		lpns := make([]uint64, k)
		for i := range lpns {
			lpns[i] = uint64(i)
		}
		pages := make([][]byte, k)
		for i := range pages {
			pages[i] = randPage(d, int64(200+i))
		}
		switch scheme {
		case SchemePreAlloc:
			for i := 0; i+1 < k; i += 2 {
				d.WritePages(persist.OpWritePair, 0, []uint64{lpns[i], lpns[i+1]}, [][]byte{pages[i], pages[i+1]}, 0)
			}
		case SchemeLocFree:
			for i := 0; i+1 < k; i += 2 {
				d.WriteOperandLSBGroup([]uint64{lpns[i], lpns[i+1]}, [][]byte{pages[i], pages[i+1]}, 0)
			}
		default:
			for i := range lpns {
				d.WriteOperand(lpns[i], pages[i], 0)
			}
		}
		d.ResetTiming()
		r, err := d.Reduce(latch.OpAnd, lpns, scheme, 0)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		times[scheme] = r.Done
		reallocs[scheme] = d.Stats().Reallocations
	}
	if !(times[SchemeLocFree] < times[SchemePreAlloc] && times[SchemePreAlloc] < times[SchemeReAlloc]) {
		t.Fatalf("time ordering violated: locfree=%v prealloc=%v realloc=%v",
			times[SchemeLocFree], times[SchemePreAlloc], times[SchemeReAlloc])
	}
	if reallocs[SchemeLocFree] != 0 {
		t.Fatalf("locfree reallocs = %d", reallocs[SchemeLocFree])
	}
	if reallocs[SchemeReAlloc] != k-1 {
		t.Fatalf("realloc reallocs = %d, want %d", reallocs[SchemeReAlloc], k-1)
	}
	if reallocs[SchemePreAlloc] != k/2-1 {
		t.Fatalf("prealloc reallocs = %d, want %d", reallocs[SchemePreAlloc], k/2-1)
	}
}

func TestReduceOperandCounts(t *testing.T) {
	d := newDevice(t)
	if _, err := d.Reduce(latch.OpAnd, nil, SchemeReAlloc, 0); !errors.Is(err, ErrNeedOperands) {
		t.Fatalf("empty reduce err = %v", err)
	}
	// A single-operand reduce is the identity: a plain read, not an error.
	page := randPage(d, 77)
	d.WriteOperand(9, page, 0)
	res, err := d.Reduce(latch.OpAnd, []uint64{9}, SchemeReAlloc, 0)
	if err != nil {
		t.Fatalf("single-operand reduce err = %v", err)
	}
	if !bytes.Equal(res.Data, page) {
		t.Fatal("single-operand reduce is not the identity")
	}
}

// TestScrambledOperandsAreDescrambledFirst pins that no scheme senses a
// scrambled page in place: pages from normal host writes are read,
// descrambled and reallocated, so every scheme's result matches the
// host-side fold of the written data.
func TestScrambledOperandsAreDescrambledFirst(t *testing.T) {
	for _, scheme := range Schemes {
		d := newDevice(t)
		pages := make([][]byte, 6)
		lpns := make([]uint64, len(pages))
		for i := range pages {
			pages[i], lpns[i] = randPage(d, int64(700+i)), uint64(i)
			if _, err := d.WritePages(persist.OpWrite, 0, lpns[i:i+1], pages[i:i+1], 0); err != nil {
				t.Fatal(err)
			}
		}
		for _, op := range []latch.Op{latch.OpAnd, latch.OpOr, latch.OpXor} {
			want := pages[0]
			for _, p := range pages[1:] {
				want = golden(op, want, p)
			}
			r, err := d.Reduce(op, lpns, scheme, 0)
			if err != nil {
				t.Fatalf("%v reduce %v: %v", scheme, op, err)
			}
			if !bytes.Equal(r.Data, want) {
				t.Errorf("%v reduce %v over scrambled pages is wrong", scheme, op)
			}
		}
		for _, op := range latch.Ops {
			r, err := d.Bitwise(op, 0, 2, scheme, 0)
			if err != nil {
				t.Fatalf("%v bitwise %v: %v", scheme, op, err)
			}
			if !bytes.Equal(r.Data, golden(op, pages[0], pages[2])) {
				t.Errorf("%v bitwise %v over scrambled pages is wrong", scheme, op)
			}
		}
	}
}

// TestReduceRefusesComplementingOpAtAnyCount pins that Reduce checks its
// op before the one-operand shortcut: a complementing op is refused for
// one operand as for two.
func TestReduceRefusesComplementingOpAtAnyCount(t *testing.T) {
	d := newDevice(t)
	for lpn := uint64(0); lpn < 2; lpn++ {
		if _, err := d.WriteOperand(lpn, randPage(d, int64(lpn)), 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, op := range []latch.Op{latch.OpNand, latch.OpNor, latch.OpXnor, latch.OpNotLSB} {
		for _, lpns := range [][]uint64{{0}, {0, 1}} {
			if _, err := d.Reduce(op, lpns, SchemeReAlloc, 0); err == nil {
				t.Errorf("Reduce(%v, %d operands) succeeded", op, len(lpns))
			}
		}
	}
}

func TestExecuteFormula(t *testing.T) {
	// (A AND B) XOR (C AND D): two terms, one combine.
	d := newDevice(t)
	pages := make([][]byte, 4)
	for i := range pages {
		pages[i] = randPage(d, int64(300+i))
	}
	d.WritePages(persist.OpWritePair, 0, []uint64{0, 1}, [][]byte{pages[0], pages[1]}, 0)
	d.WritePages(persist.OpWritePair, 0, []uint64{2, 3}, [][]byte{pages[2], pages[3]}, 0)
	f := nvme.Formula{
		Terms: []nvme.Term{
			{M: nvme.Operand{LBA: 0, Length: d.PageSize()}, N: nvme.Operand{LBA: 1, Length: d.PageSize()}, Op: latch.OpAnd},
			{M: nvme.Operand{LBA: 2, Length: d.PageSize()}, N: nvme.Operand{LBA: 3, Length: d.PageSize()}, Op: latch.OpAnd},
		},
		Combine: []latch.Op{latch.OpXor},
	}
	res, err := d.ExecuteFormula(batchesOf(t, f, d.PageSize()), SchemePreAlloc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pages) != 1 {
		t.Fatalf("result pages = %d", len(res.Pages))
	}
	want := golden(latch.OpXor, golden(latch.OpAnd, pages[0], pages[1]), golden(latch.OpAnd, pages[2], pages[3]))
	if !bytes.Equal(res.Pages[0], want) {
		t.Fatal("formula result wrong")
	}
	if res.HostDone <= res.Done {
		t.Fatal("host transfer not accounted")
	}
}

func TestExecuteFormulaMultiPage(t *testing.T) {
	// One term with 2-page operands -> two sub-operations -> two result
	// pages, exercised across two planes in parallel.
	d := newDevice(t)
	ps := d.PageSize()
	m0, m1 := randPage(d, 400), randPage(d, 401)
	n0, n1 := randPage(d, 402), randPage(d, 403)
	d.WritePages(persist.OpWritePair, 0, []uint64{10, 12}, [][]byte{m0, n0}, 0)
	d.WritePages(persist.OpWritePair, 0, []uint64{11, 13}, [][]byte{m1, n1}, 0)
	f := nvme.Formula{Terms: []nvme.Term{{
		M:  nvme.Operand{LBA: 10, Length: 2 * ps},
		N:  nvme.Operand{LBA: 12, Length: 2 * ps},
		Op: latch.OpXor,
	}}}
	res, err := d.ExecuteFormula(batchesOf(t, f, d.PageSize()), SchemePreAlloc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pages) != 2 {
		t.Fatalf("result pages = %d, want 2", len(res.Pages))
	}
	if !bytes.Equal(res.Pages[0], golden(latch.OpXor, m0, n0)) ||
		!bytes.Equal(res.Pages[1], golden(latch.OpXor, m1, n1)) {
		t.Fatal("multi-page formula wrong")
	}
}

func TestShipToHost(t *testing.T) {
	d := newDevice(t)
	m, n := randPage(d, 20), randPage(d, 21)
	d.WritePages(persist.OpWritePair, 0, []uint64{0, 1}, [][]byte{m, n}, 0)
	r, _ := d.Bitwise(latch.OpAnd, 0, 1, SchemePreAlloc, 0)
	d.ShipToHost(&r)
	if r.HostDone <= r.Done {
		t.Fatal("host transfer time missing")
	}
	if d.Stats().ResultBytes != int64(d.PageSize()) {
		t.Fatalf("result bytes = %d", d.Stats().ResultBytes)
	}
}

// TestReallocTrimsItsPages runs ten times as many reallocations as the
// controller-reserved range has LPNs, with no reclaim between them: each
// must succeed and answer correctly, and afterwards no reserved LPN is
// mapped, since every reallocation trims its pair once its sense returns.
func TestReallocTrimsItsPages(t *testing.T) {
	d := MustNew(tinyConfig())
	m, n := randPage(d, 22), randPage(d, 23)
	for lpn, p := range [][]byte{m, n} {
		if _, err := d.WriteOperand(uint64(lpn), p, 0); err != nil {
			t.Fatal(err)
		}
	}
	want := golden(latch.OpAnd, m, n)
	logical := uint64(d.FTL().LogicalPages())
	ops := 10 * (logical - d.UserPages())
	for i := uint64(0); i < ops; i++ {
		r, err := d.Bitwise(latch.OpAnd, 0, 1, SchemeReAlloc, d.DrainTime())
		if err != nil {
			t.Fatalf("reallocation %d of %d: %v", i, ops, err)
		}
		if !bytes.Equal(r.Data, want) {
			t.Fatalf("reallocation %d: wrong result", i)
		}
	}
	if got := d.Stats().Reallocations; got != int64(ops) {
		t.Fatalf("%d reallocations, want %d", got, ops)
	}
	if d.FTL().Stats().GCRuns == 0 {
		t.Fatal("no garbage collection ran; the trimmed pairs were never collected")
	}
	for lpn := d.UserPages(); lpn < logical; lpn++ {
		if _, ok := d.FTL().Lookup(lpn); ok {
			t.Fatalf("reserved lpn %d still mapped", lpn)
		}
	}
	if err := d.FTL().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUserCannotTouchInternalRange(t *testing.T) {
	d := newDevice(t)
	data := randPage(d, 24)
	if _, err := d.WritePages(persist.OpWrite, 0, []uint64{d.UserPages()}, [][]byte{data}, 0); err == nil {
		t.Fatal("write into controller-reserved range accepted")
	}
}

func TestUnmappedOperandRejected(t *testing.T) {
	d := newDevice(t)
	if _, err := d.Bitwise(latch.OpAnd, 50, 51, SchemeReAlloc, 0); err == nil {
		t.Fatal("bitwise on unmapped operands accepted")
	}
}

func TestSchemeStrings(t *testing.T) {
	if SchemePreAlloc.String() != "ParaBit" ||
		SchemeReAlloc.String() != "ParaBit-ReAlloc" ||
		SchemeLocFree.String() != "ParaBit-LocFree" ||
		SchemeFlashCosmos.String() != "Flash-Cosmos" {
		t.Fatal("scheme names wrong")
	}
}

// TestSchemeRegistryRoundTrip pins the registry contract: every scheme's
// String() parses back to itself (case-insensitively), Schemes covers the
// whole table in declaration order, and unknown names are refused.
func TestSchemeRegistryRoundTrip(t *testing.T) {
	if len(Schemes) != len(schemeNames) {
		t.Fatalf("Schemes lists %d of %d registry entries", len(Schemes), len(schemeNames))
	}
	for i, sc := range Schemes {
		if int(sc) != i {
			t.Fatalf("Schemes[%d] = %v, want declaration order", i, sc)
		}
		got, err := ParseScheme(sc.String())
		if err != nil || got != sc {
			t.Errorf("ParseScheme(%q) = %v, %v", sc.String(), got, err)
		}
		got, err = ParseScheme(strings.ToUpper(sc.String()))
		if err != nil || got != sc {
			t.Errorf("ParseScheme upper-case of %q = %v, %v", sc.String(), got, err)
		}
	}
	for alias, want := range schemeAliases {
		if got, err := ParseScheme(strings.ToUpper(alias)); err != nil || got != want {
			t.Errorf("ParseScheme(%q) = %v, %v, want %v", alias, got, err, want)
		}
	}
	if _, err := ParseScheme("no-such-scheme"); err == nil {
		t.Error("unknown scheme name accepted")
	}
}

func TestParallelWaveAcrossPlanes(t *testing.T) {
	// Pairs spread over all planes must compute in one wave: total time
	// ≈ single-op latency, not N x single-op.
	d := newDevice(t)
	g := d.Config().Geometry
	numPairs := g.Planes()
	lpn := uint64(0)
	for i := 0; i < numPairs; i++ {
		m, n := randPage(d, int64(i*2)), randPage(d, int64(i*2+1))
		if _, err := d.WritePages(persist.OpWritePair, 0, []uint64{lpn, lpn + 1}, [][]byte{m, n}, 0); err != nil {
			t.Fatal(err)
		}
		lpn += 2
	}
	d.ResetTiming()
	var latest sim.Time
	for i := 0; i < numPairs; i++ {
		r, err := d.Bitwise(latch.OpAnd, uint64(i*2), uint64(i*2+1), SchemePreAlloc, 0)
		if err != nil {
			t.Fatal(err)
		}
		if r.Done > latest {
			latest = r.Done
		}
	}
	if latest != sim.Time(25*sim.Microsecond) {
		t.Fatalf("wave of %d ANDs completed at %v, want 25µs (full parallelism)", numPairs, latest)
	}
}

// TestLocFreeBothOrientations is the regression test for the swapped
// MSB/LSB orientation: location-free sensing must fire whether the first
// operand is the MSB-resident page and the second the LSB-resident one or
// vice versa. The ParaBit two-input ops are commutative and the NOT latch
// sequences act on resident pages, so neither orientation needs the
// reallocation fallback.
func TestLocFreeBothOrientations(t *testing.T) {
	d := newDevice(t)
	// Paired writes stripe round-robin over the planes; keep writing pairs
	// until one lands on the same plane as the first, giving us an MSB page
	// (first pair) and an LSB page (later pair) co-resident on one plane in
	// different wordlines.
	firstL, firstM := randPage(d, 41), randPage(d, 42)
	if _, err := d.WritePages(persist.OpWritePair, 0, []uint64{0, 1}, [][]byte{firstL, firstM}, 0); err != nil {
		t.Fatal(err)
	}
	msbAddr, _ := d.FTL().Lookup(1)
	var lsbLPN uint64
	var lsbData []byte
	found := false
	for i := 1; i <= d.cfg.Geometry.Planes(); i++ {
		l, m := randPage(d, int64(100+2*i)), randPage(d, int64(101+2*i))
		lpnL, lpnM := uint64(2*i), uint64(2*i+1)
		if _, err := d.WritePages(persist.OpWritePair, 0, []uint64{lpnL, lpnM}, [][]byte{l, m}, 0); err != nil {
			t.Fatal(err)
		}
		addr, _ := d.FTL().Lookup(lpnL)
		if addr.PlaneAddr == msbAddr.PlaneAddr {
			lsbLPN, lsbData, found = lpnL, l, true
			break
		}
	}
	if !found {
		t.Fatal("no pair wrapped back onto the first pair's plane")
	}
	for _, op := range latch.BinaryOps {
		want := golden(op, lsbData, firstM)
		// Matched orientation: M is the MSB-resident page, N the LSB.
		r, err := d.Bitwise(op, 1, lsbLPN, SchemeLocFree, 0)
		if err != nil {
			t.Fatalf("%v matched: %v", op, err)
		}
		if !bytes.Equal(r.Data, want) {
			t.Fatalf("%v matched orientation result wrong", op)
		}
		// Swapped orientation: first operand LSB-resident, second MSB.
		r, err = d.Bitwise(op, lsbLPN, 1, SchemeLocFree, 0)
		if err != nil {
			t.Fatalf("%v swapped: %v", op, err)
		}
		if !bytes.Equal(r.Data, want) {
			t.Fatalf("%v swapped orientation result wrong", op)
		}
	}
	if s := d.Stats(); s.Fallbacks != 0 || s.Reallocations != 0 {
		t.Fatalf("mixed-kind same-plane operands must sense location-free both ways: %+v", s)
	}
}

// TestLocFreeNotChargesItsProgram pins a location-free complement's read
// disturb to its program. With an LSB operand and an MSB operand on one
// plane in two blocks, Bitwise(NOT-LSB, lsb, msb, LocFree) senses the
// location-free NOT-LSB program, which senses the LSB operand's wordline
// once and never the MSB operand's: after three such senses the LSB
// block has absorbed 3 reads and the MSB block none.
func TestLocFreeNotChargesItsProgram(t *testing.T) {
	d := newDevice(t)
	if _, err := d.WritePages(persist.OpWritePair, 0, []uint64{0, 1}, [][]byte{randPage(d, 1), randPage(d, 2)}, 0); err != nil {
		t.Fatal(err)
	}
	msb, _ := d.FTL().Lookup(1)
	g := d.cfg.Geometry
	var lsbLPN uint64
	var lsb flash.PageAddr
	for i := uint64(1); lsbLPN == 0 && i <= uint64(g.Planes()*(g.WordlinesPerBlock+1)); i++ {
		if _, err := d.WritePages(persist.OpWritePair, 0, []uint64{2 * i, 2*i + 1}, [][]byte{randPage(d, int64(2*i)), randPage(d, int64(2*i+1))}, 0); err != nil {
			t.Fatal(err)
		}
		if a, _ := d.FTL().Lookup(2 * i); a.PlaneAddr == msb.PlaneAddr && a.Block != msb.Block {
			lsbLPN, lsb = 2*i, a
		}
	}
	if lsbLPN == 0 {
		t.Fatal("no pair landed in another block of the first pair's plane")
	}
	a := d.Array()
	lsbBefore, msbBefore := a.ReadCount(lsb.PlaneAddr, lsb.Block), a.ReadCount(msb.PlaneAddr, msb.Block)
	for i := 0; i < 3; i++ {
		if _, err := d.Bitwise(latch.OpNotLSB, lsbLPN, 1, SchemeLocFree, 0); err != nil {
			t.Fatal(err)
		}
	}
	if s := d.Stats(); s.Fallbacks != 0 || s.Reallocations != 0 {
		t.Fatalf("the complement did not sense location-free: %+v", s)
	}
	if got := a.ReadCount(lsb.PlaneAddr, lsb.Block) - lsbBefore; got != 3 {
		t.Errorf("LSB operand's block absorbed %d reads, want 3", got)
	}
	if got := a.ReadCount(msb.PlaneAddr, msb.Block) - msbBefore; got != 0 {
		t.Errorf("MSB operand's block absorbed %d reads, want 0", got)
	}
}

// TestTLCReallocRefusesFirst pins that a reallocation on TLC cells,
// whose pair sense is MLC-only, refuses before it reads, allocates or
// programs anything: no flash, FTL or device counter moves.
func TestTLCReallocRefusesFirst(t *testing.T) {
	d := MustNew(SmallTLCConfig())
	for lpn := uint64(0); lpn < 2; lpn++ {
		if _, err := d.WriteOperand(lpn, randPage(d, int64(lpn)), 0); err != nil {
			t.Fatal(err)
		}
	}
	ops, tl, fl := d.Stats(), d.FTL().Stats(), d.Array().Stats()
	if _, err := d.Bitwise(latch.OpAnd, 0, 1, SchemeReAlloc, d.DrainTime()); !errors.Is(err, flash.ErrCellMode) {
		t.Fatalf("TLC reallocation: got %v, want flash.ErrCellMode", err)
	}
	if d.Stats() != ops || d.FTL().Stats() != tl || d.Array().Stats() != fl {
		t.Fatalf("refused reallocation moved counters: op %+v -> %+v, ftl %+v -> %+v, flash %+v -> %+v",
			ops, d.Stats(), tl, d.FTL().Stats(), fl, d.Array().Stats())
	}
}

// TestExecuteFormulaSubPage pins that a sub-page formula yields the bytes
// its operands name, under every scheme: operands at one offset, at
// different offsets, and a two-term formula combining sub-page terms at
// different offsets. Each result is checked against a host-side golden
// over the named ranges.
func TestExecuteFormulaSubPage(t *testing.T) {
	sector := nvme.SectorFor(SmallConfig().Geometry.PageSize)
	operand := func(lba uint64, off int) nvme.Operand {
		return nvme.Operand{LBA: lba, Offset: off * sector, Length: 2 * sector}
	}
	for _, scheme := range Schemes {
		for _, tc := range []struct {
			name string
			f    nvme.Formula
		}{
			{"equal offsets", nvme.Formula{Terms: []nvme.Term{
				{M: operand(0, 1), N: operand(1, 1), Op: latch.OpXor}}}},
			{"different offsets", nvme.Formula{Terms: []nvme.Term{
				{M: operand(0, 1), N: operand(1, 3), Op: latch.OpAnd}}}},
			{"two terms", nvme.Formula{Terms: []nvme.Term{
				{M: operand(0, 1), N: operand(1, 1), Op: latch.OpNand},
				{M: operand(2, 2), N: operand(3, 4), Op: latch.OpOr}},
				Combine: []latch.Op{latch.OpXor}}},
		} {
			d := newDevice(t)
			pages := make([][]byte, 4)
			for i := range pages {
				pages[i] = randPage(d, int64(500+i))
			}
			d.WritePages(persist.OpWritePair, 0, []uint64{0, 1}, pages[:2], 0)
			d.WritePages(persist.OpWritePair, 0, []uint64{2, 3}, pages[2:], 0)
			res, err := d.ExecuteFormula(batchesOf(t, tc.f, d.PageSize()), scheme, 0)
			if err != nil {
				t.Fatalf("%v %s: %v", scheme, tc.name, err)
			}
			span := func(o nvme.Operand) []byte { return pages[o.LBA][o.Offset : o.Offset+o.Length] }
			want := golden(tc.f.Terms[0].Op, span(tc.f.Terms[0].M), span(tc.f.Terms[0].N))
			for i, op := range tc.f.Combine {
				term := tc.f.Terms[i+1]
				want = golden(op, want, golden(term.Op, span(term.M), span(term.N)))
			}
			if len(res.Pages) != 1 || !bytes.Equal(res.Pages[0], want) {
				t.Fatalf("%v %s: got %x, want %x", scheme, tc.name, res.Pages, want)
			}
		}
	}
	// Terms spanning different byte counts have no common result range.
	d := newDevice(t)
	d.WritePages(persist.OpWritePair, 0, []uint64{0, 1}, [][]byte{randPage(d, 1), randPage(d, 2)}, 0)
	short := nvme.Operand{LBA: 0, Length: sector}
	f := nvme.Formula{Terms: []nvme.Term{
		{M: operand(0, 1), N: operand(1, 1), Op: latch.OpAnd},
		{M: short, N: nvme.Operand{LBA: 1, Length: sector}, Op: latch.OpAnd}},
		Combine: []latch.Op{latch.OpOr}}
	ops, fl := d.Stats(), d.Array().Stats()
	if _, err := d.ExecuteFormula(batchesOf(t, f, d.PageSize()), SchemePreAlloc, 0); err == nil {
		t.Fatal("terms of 2 and 1 sectors combined without an error")
	}
	// The shapes are checked before any flash work issues.
	if d.Stats() != ops || d.Array().Stats() != fl {
		t.Fatalf("refused formula moved counters: op %+v -> %+v, flash %+v -> %+v", ops, d.Stats(), fl, d.Array().Stats())
	}
}

// batchesOf carries f across the host boundary: encoded to wire commands
// and parsed back into the batches ExecuteFormula takes.
func batchesOf(t testing.TB, f nvme.Formula, pageSize int) []nvme.Batch {
	t.Helper()
	batches, err := nvme.RoundTrip(f, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	return batches
}
