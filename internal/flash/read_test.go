package flash

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"parabit/internal/ecc"
	"parabit/internal/latch"
	"parabit/internal/sim"
)

// TestReadChargesItsProgram is the read twin of TestSenseChargesItsProgram:
// on a fresh array, one read of each page of an MLC and a TLC wordline
// counts its read program's SROs (latch.ReadCost), books the plane once
// for the program's latency, and charges its block the senses the
// program gives the wordline.
func TestReadChargesItsProgram(t *testing.T) {
	for _, mk := range []func() *Array{testArray, tlcArray} {
		geo := mk().Geometry()
		for kind := LSBPage; int(kind) < geo.CellBits; kind++ {
			a := mk()
			name := fmt.Sprintf("%d-bit %v read", geo.CellBits, kind)
			wl := WordlineAddr{Block: 2, WL: 3}
			for k := LSBPage; k <= kind; k++ {
				if _, err := a.Program(PageAddr{wl, k}, fillPattern(geo.PageSize, byte(k)), 0); err != nil {
					t.Fatal(err)
				}
			}
			a.ResetTiming()
			got := observePlanes(a)
			before := a.Stats()
			if _, _, err := a.Read(PageAddr{wl, kind}, 0); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			c := latch.ReadCost(geo.CellBits, int(kind), 0)
			if n := a.Stats().SROs - before.SROs; n != int64(c.SROs) {
				t.Errorf("%s: %d SROs, its program senses %d times", name, n, c.SROs)
			}
			bs := got["plane-0"]
			if len(bs) != 1 || bs[0].label != "sense" || bs[0].start != 0 ||
				bs[0].end.Sub(bs[0].start) != a.Timing().SenseLatency(c, geo.PageSize) {
				t.Errorf("%s: plane bookings %v, want one sense of %v from 0", name, bs, a.Timing().SenseLatency(c, geo.PageSize))
			}
			if n := a.ReadCount(wl.PlaneAddr, wl.Block); n != c.Reads(0) {
				t.Errorf("%s: block read %d times, its program senses it %d times", name, n, c.Reads(0))
			}
		}
	}
}

// TestReadRetriesFollowFirstSense pins that a read's calibrated re-reads
// are booked with its first sense as one span. A program already booked
// on the plane leaves an idle gap that fits the first sense but not the
// sense and its retry; the read must not split across that program.
func TestReadRetriesFollowFirstSense(t *testing.T) {
	a := eccArray(t, &decayingCorruptor{})
	p := PageAddr{WordlineAddr{Block: 6}, LSBPage}
	data := fillPattern(a.Geometry().PageSize, 0x42)
	if _, err := a.Program(p, data, 0); err != nil {
		t.Fatal(err)
	}
	a.ResetTiming()
	got := observePlanes(a)
	first := readLatency(a, LSBPage, 0)
	// The later program's data crosses the channel from 1.2 first senses
	// on, so its plane booking starts in (first, first+retry).
	later := PageAddr{WordlineAddr{Block: 7}, LSBPage}
	if _, err := a.Program(later, data, sim.Time(first+first/5)); err != nil {
		t.Fatal(err)
	}
	prog := lastOf(t, got, "program")
	if retry := readLatency(a, LSBPage, 1) - first; prog.start < sim.Time(first) || prog.start >= sim.Time(first+retry) {
		t.Fatalf("later program booked at %v, want inside (%v, %v)", prog.start, first, first+retry)
	}
	page, _, err := a.Read(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(page, data) || a.Stats().ReadRetries != 1 {
		t.Fatalf("read took %d retries, bytes equal %v; want 1 and true", a.Stats().ReadRetries, bytes.Equal(page, data))
	}
	var start, end sim.Time
	senses := 0
	for _, b := range got["plane-0"] {
		if b.label != "sense" {
			continue
		}
		if senses == 0 || b.start < start {
			start = b.start
		}
		end = sim.Max(end, b.end)
		senses++
	}
	if span := end.Sub(start); span != readLatency(a, LSBPage, 1) {
		t.Fatalf("read sensed over [%v,%v) in %d bookings around a program at [%v,%v); want one span of %v",
			start, end, senses, prog.start, prog.end, readLatency(a, LSBPage, 1))
	}
	if start < prog.end && end > prog.start {
		t.Fatalf("read span [%v,%v) overlaps the program [%v,%v)", start, end, prog.start, prog.end)
	}
}

// readFixture programs one wordline of a's every page with random bytes
// and returns the wordline.
func readFixture(tb testing.TB, a *Array) WordlineAddr {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	wl := WordlineAddr{Block: 1}
	for kind := LSBPage; int(kind) < a.Geometry().CellBits; kind++ {
		page := make([]byte, a.Geometry().PageSize)
		rng.Read(page)
		if _, err := a.Program(PageAddr{wl, kind}, page, 0); err != nil {
			tb.Fatal(err)
		}
	}
	return wl
}

// withECC installs a codec of sectors up to 512 bytes and a noise model
// whose one flip per 512 bytes the codec corrects, so every read of a
// programmed page runs the decode path without retrying.
func withECC(tb testing.TB, a *Array) *Array {
	tb.Helper()
	codec, err := ecc.NewCodec(a.Geometry().PageSize, min(512, a.Geometry().PageSize))
	if err != nil {
		tb.Fatal(err)
	}
	a.SetECC(codec)
	a.SetCorruptor(&spreadCorruptor{})
	return a
}

// TestWarmReadAllocatesNothing pins that a warm ReadInto allocates
// nothing, on every page of an MLC and a TLC wordline, with and without
// an ECC codec correcting injected errors. The garbage collector's
// relocation reads every valid page through it.
func TestWarmReadAllocatesNothing(t *testing.T) {
	for _, mk := range []func() *Array{
		testArray, tlcArray,
		func() *Array { return withECC(t, testArray()) },
		func() *Array { return withECC(t, tlcArray()) },
	} {
		a := mk()
		wl := readFixture(t, a)
		dst := make([]byte, a.Geometry().PageSize)
		for kind := LSBPage; int(kind) < a.Geometry().CellBits; kind++ {
			p := PageAddr{wl, kind}
			allocs := testing.AllocsPerRun(100, func() {
				if _, err := a.ReadInto(dst, p, 0); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%d-bit %v ReadInto (ECC %v) allocates %v times, want 0", a.Geometry().CellBits, kind, a.codec != nil, allocs)
			}
		}
		if a.codec != nil && a.Stats().CorrectedBits == 0 {
			t.Errorf("%d-bit ECC reads corrected nothing", a.Geometry().CellBits)
		}
	}
}

// BenchmarkArrayRead reads the MSB page of one 8 KB MLC wordline into a
// caller's page, plain and through the ECC path correcting one flip per
// 512 bytes.
func BenchmarkArrayRead(b *testing.B) {
	for _, c := range []struct {
		name string
		mk   func() *Array
	}{
		{"plain", func() *Array { return NewArray(Default(), DefaultTiming()) }},
		{"ecc", func() *Array { return withECC(b, NewArray(Default(), DefaultTiming())) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			a := c.mk()
			p := PageAddr{readFixture(b, a), MSBPage}
			dst := make([]byte, a.Geometry().PageSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.ReadInto(dst, p, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
