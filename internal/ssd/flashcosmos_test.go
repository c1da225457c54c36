package ssd

import (
	"bytes"
	"testing"

	"parabit/internal/flash"
	"parabit/internal/latch"
	"parabit/internal/persist"
	"parabit/internal/sim"
	"parabit/internal/telemetry"
)

// writeSpread writes each page to plane alone and fills the rest of its
// block with filler pages, so every operand is an LSB page of plane in a
// block of its own: sensable in place by the location-free chain, but
// colocated with no other operand for a multi-wordline sense.
func writeSpread(t *testing.T, d *Device, plane int, lpns []uint64, pages [][]byte) {
	t.Helper()
	filler := uint64(1 << 12)
	blocks := map[blockKey]bool{}
	for i, lpn := range lpns {
		if _, err := d.WritePages(persist.OpWriteOnPlane, plane, []uint64{lpn}, [][]byte{pages[i]}, 0); err != nil {
			t.Fatal(err)
		}
		for range d.cfg.Geometry.WordlinesPerBlock - 1 {
			if _, err := d.WritePages(persist.OpWriteOnPlane, plane, []uint64{filler}, [][]byte{randPage(d, int64(filler))}, 0); err != nil {
				t.Fatal(err)
			}
			filler++
		}
		addr, err := d.operandLoc(lpn)
		if err != nil {
			t.Fatal(err)
		}
		key := blockKey{addr.PlaneAddr, addr.Block}
		if addr.Kind != flash.LSBPage || blocks[key] {
			t.Fatalf("operand %d at %v: want an LSB page in a block of its own", lpn, addr)
		}
		blocks[key] = true
	}
}

// softwareFold is the reference reduction of pages under op.
func softwareFold(op latch.Op, pages [][]byte) []byte {
	want := pages[0]
	for _, p := range pages[1:] {
		want = golden(op, want, p)
	}
	return want
}

// spreadOperands returns k operand LPNs from base and their pages.
func spreadOperands(d *Device, base uint64, k int) ([]uint64, [][]byte) {
	lpns := make([]uint64, k)
	pages := make([][]byte, k)
	for i := range lpns {
		lpns[i] = base + uint64(i)
		pages[i] = randPage(d, int64(lpns[i])+500)
	}
	return lpns, pages
}

// TestFlashCosmosStraysSenseLocationFree: operands that are LSB pages of
// one plane but share no block form no multi-wordline sense. Flash-Cosmos
// then runs the reduction as the location-free chain it is: no
// reallocation, no program, the same completion time as SchemeLocFree on
// the same layout, and the software fold's bytes.
func TestFlashCosmosStraysSenseLocationFree(t *testing.T) {
	for _, op := range []latch.Op{latch.OpAnd, latch.OpOr} {
		done := map[Scheme]sim.Time{}
		for _, scheme := range []Scheme{SchemeFlashCosmos, SchemeLocFree} {
			d := newDevice(t)
			lpns, pages := spreadOperands(d, 0, 5)
			writeSpread(t, d, 1, lpns, pages)
			d.ResetTiming()
			before := d.Array().Stats()
			r, err := d.Reduce(op, lpns, scheme, 0)
			if err != nil {
				t.Fatalf("%v %v: %v", op, scheme, err)
			}
			if !bytes.Equal(r.Data, softwareFold(op, pages)) {
				t.Fatalf("%v %v: result differs from the software fold", op, scheme)
			}
			after := d.Array().Stats()
			if n := d.Stats().Reallocations; n != 0 {
				t.Errorf("%v %v: %d reallocations, want 0", op, scheme, n)
			}
			if n := after.Programs - before.Programs; n != 0 {
				t.Errorf("%v %v: %d programs, want 0", op, scheme, n)
			}
			if n := after.BitwiseOps - before.BitwiseOps; n != 1 {
				t.Errorf("%v %v: %d senses, want one chained sense", op, scheme, n)
			}
			done[scheme] = r.Done
		}
		if done[SchemeFlashCosmos] != done[SchemeLocFree] {
			t.Errorf("%v: Flash-Cosmos done at %v, LocFree at %v on the same layout",
				op, done[SchemeFlashCosmos], done[SchemeLocFree])
		}
	}
}

// TestFlashCosmosChunkPlusStrays: one multi-wordline chunk beside three
// strays on another plane. The chunk is one MWS, the strays one
// location-free chain, and the two partials join in exactly one
// controller combine: no reallocation, no program.
func TestFlashCosmosChunkPlusStrays(t *testing.T) {
	for _, op := range []latch.Op{latch.OpAnd, latch.OpOr} {
		d := newDevice(t)
		sink := telemetry.New()
		d.SetTelemetry(sink)
		group, groupPages := spreadOperands(d, 0, 4)
		if _, err := d.WritePages(persist.OpWriteMWSGroup, 0, group, groupPages, 0); err != nil {
			t.Fatal(err)
		}
		strays, strayPages := spreadOperands(d, 100, 3)
		writeSpread(t, d, 2, strays, strayPages)
		// Interleave the two sets: grouping is by block, not by position.
		lpns := []uint64{strays[0], group[0], group[1], strays[1], group[2], strays[2], group[3]}
		pages := [][]byte{strayPages[0], groupPages[0], groupPages[1], strayPages[1], groupPages[2], strayPages[2], groupPages[3]}
		before := d.Array().Stats()
		r, err := d.Reduce(op, lpns, SchemeFlashCosmos, 0)
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		if !bytes.Equal(r.Data, softwareFold(op, pages)) {
			t.Fatalf("%v: result differs from the software fold", op)
		}
		after := d.Array().Stats()
		if n := d.Stats().Reallocations; n != 0 {
			t.Errorf("%v: %d reallocations, want 0", op, n)
		}
		if n := after.Programs - before.Programs; n != 0 {
			t.Errorf("%v: %d programs, want 0", op, n)
		}
		if n := sink.Counter("ssd.combine.controller").Value(); n != 1 {
			t.Errorf("%v: %d controller combines, want 1", op, n)
		}
		if n := after.MWSSenses - before.MWSSenses; n != 1 {
			t.Errorf("%v: %d multi-wordline senses, want 1", op, n)
		}
		if n := d.Stats().Fallbacks; n != 1 {
			t.Errorf("%v: %d fallbacks, want 1 for the strays", op, n)
		}
	}
}

// TestComplementSensesInPlace: a NOT is its op with the operand given
// twice. Under LocFree and Flash-Cosmos it senses the page's own wordline
// once, with the read shape of the page's slot (one SRO for an LSB page,
// two for an MSB page), and programs nothing, whichever complement op
// names it and whichever slot the page sits in.
func TestComplementSensesInPlace(t *testing.T) {
	for _, scheme := range []Scheme{SchemeLocFree, SchemeFlashCosmos} {
		for _, op := range []latch.Op{latch.OpNotLSB, latch.OpNotMSB} {
			d := newDevice(t)
			lsb, msb := randPage(d, 41), randPage(d, 42)
			if _, err := d.WritePages(persist.OpWritePair, 0, []uint64{0, 1}, [][]byte{lsb, msb}, 0); err != nil {
				t.Fatal(err)
			}
			for lpn, page := range [][]byte{lsb, msb} {
				addr, err := d.operandLoc(uint64(lpn))
				if err != nil {
					t.Fatal(err)
				}
				before, stats := d.Array().Stats(), d.Stats()
				r, err := d.Bitwise(op, uint64(lpn), uint64(lpn), scheme, 0)
				if err != nil {
					t.Fatalf("%v %v %v: %v", scheme, op, addr.Kind, err)
				}
				if !bytes.Equal(r.Data, golden(latch.OpNotLSB, page, page)) {
					t.Fatalf("%v %v %v: result is not the page's complement", scheme, op, addr.Kind)
				}
				after := d.Array().Stats()
				wantSROs := int64(1)
				if addr.Kind == flash.MSBPage {
					wantSROs = 2
				}
				if n := after.BitwiseOps - before.BitwiseOps; n != 1 {
					t.Errorf("%v %v %v: %d senses, want 1", scheme, op, addr.Kind, n)
				}
				if n := after.SROs - before.SROs; n != wantSROs {
					t.Errorf("%v %v %v: %d SROs, want %d", scheme, op, addr.Kind, n, wantSROs)
				}
				if n := after.Programs - before.Programs; n != 0 {
					t.Errorf("%v %v %v: %d programs, want 0", scheme, op, addr.Kind, n)
				}
				if n := d.Stats().Reallocations - stats.Reallocations; n != 0 {
					t.Errorf("%v %v %v: %d reallocations, want 0", scheme, op, addr.Kind, n)
				}
			}
		}
	}
}

// TestFlashCosmosCountsOneFallbackPerCall: a Flash-Cosmos call that
// misses its multi-wordline sense and runs location-free counts one
// fallback, as the same call under LocFree does, not one per path it
// passes through. The calls are a pairwise op over two planes and a
// reduction whose strays, one of them an MSB page, reduce location-free
// beside a multi-wordline chunk.
func TestFlashCosmosCountsOneFallbackPerCall(t *testing.T) {
	for _, scheme := range []Scheme{SchemeFlashCosmos, SchemeLocFree} {
		d := newDevice(t)
		pages := make([][]byte, 7)
		for i := range pages {
			pages[i] = randPage(d, int64(900+i))
		}
		write := func(op persist.Op, plane int, lpns ...uint64) {
			t.Helper()
			data := make([][]byte, len(lpns))
			for i, lpn := range lpns {
				data[i] = pages[lpn]
			}
			if _, err := d.WritePages(op, plane, lpns, data, 0); err != nil {
				t.Fatal(err)
			}
		}
		write(persist.OpWriteOnPlane, 0, 0)
		write(persist.OpWriteOnPlane, 1, 1)
		write(persist.OpWriteMWSGroup, 0, 2, 3, 4)
		write(persist.OpWritePair, 0, 5, 6)
		if addr, _ := d.FTL().Lookup(6); addr.Kind != flash.MSBPage {
			t.Fatalf("operand 6 at %v, want an MSB page", addr)
		}
		for _, c := range []struct {
			name string
			run  func() (BitwiseResult, error)
			want []byte
			mws  int64 // multi-wordline senses under Flash-Cosmos
		}{
			{"cross-plane pair", func() (BitwiseResult, error) {
				return d.Bitwise(latch.OpAnd, 0, 1, scheme, 0)
			}, golden(latch.OpAnd, pages[0], pages[1]), 0},
			{"reduce with an MSB stray", func() (BitwiseResult, error) {
				return d.Reduce(latch.OpAnd, []uint64{2, 3, 4, 5, 6}, scheme, 0)
			}, softwareFold(latch.OpAnd, pages[2:]), 1},
		} {
			fallbacks, mws := d.Stats().Fallbacks, d.Array().Stats().MWSSenses
			r, err := c.run()
			if err != nil {
				t.Fatalf("%v %s: %v", scheme, c.name, err)
			}
			if !bytes.Equal(r.Data, c.want) {
				t.Errorf("%v %s: wrong result", scheme, c.name)
			}
			if n := d.Stats().Fallbacks - fallbacks; n != 1 {
				t.Errorf("%v %s: %d fallbacks, want 1", scheme, c.name, n)
			}
			if want := map[Scheme]int64{SchemeFlashCosmos: c.mws}[scheme]; d.Array().Stats().MWSSenses-mws != want {
				t.Errorf("%v %s: %d multi-wordline senses, want %d", scheme, c.name, d.Array().Stats().MWSSenses-mws, want)
			}
		}
	}
}
