package flash

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// fuzzGeometry is a two-block array with four-byte pages, so short
// inputs reach every block tag and wordline mask.
func fuzzGeometry() Geometry {
	return Geometry{
		Channels: 1, ChipsPerChannel: 1, DiesPerChip: 1, PlanesPerDie: 1,
		BlocksPerPlane: 2, WordlinesPerBlock: 2, PageSize: 4, CellBits: 2,
	}
}

// stubSegments resolves references into one segment, epoch 1, whose
// pages lie at offsets 8, 16, ..., 64; segment 2 answers with a page of
// the wrong size. Anything else is out of range and refused.
type stubSegments struct{ t *testing.T }

var errStubRange = errors.New("stub: no such page")

func stubPage(off uint32) []byte {
	return []byte{byte(off), byte(off >> 8), 0xA5, 0x5A}
}

func (s stubSegments) ResolvePage(ref PageRef) ([]byte, error) {
	if ref == 0 || ref == HoleRef {
		s.t.Errorf("ReadState asked to resolve %#x", uint64(ref))
		return nil, errStubRange
	}
	switch off := ref.Offset(); {
	case ref.Segment() == 1 && off >= 8 && off <= 64 && off%8 == 0:
		return stubPage(off), nil
	case ref.Segment() == 2:
		return make([]byte, 3), nil
	}
	return nil, fmt.Errorf("%w: %#x", errStubRange, uint64(ref))
}

// inRange reports whether stubSegments resolves ref to a page.
func inRange(ref PageRef) bool {
	off := ref.Offset()
	return ref.Segment() == 1 && off >= 8 && off <= 64 && off%8 == 0
}

// fuzzArray returns an erased array over fuzzGeometry that tracks
// references.
func fuzzArray() *Array {
	a := NewArray(fuzzGeometry(), DefaultTiming())
	a.TrackRefs()
	return a
}

// encode returns a's state encoding.
func encode(t testing.TB, a *Array, delta bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, _, _, err := a.WriteState(&buf, delta, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// arrayStateSeeds builds encodings of every block tag: inline pages,
// referenced pages and a hole (blockRefs), an erased block, and a delta
// that defers a block to its parent. It returns full/parent pairs.
func arrayStateSeeds(t testing.TB) [][2][]byte {
	a := fuzzArray()
	w := WordlineAddr{PlaneAddr: a.geo.PlaneAt(0), Block: 0}
	for wl := 0; wl < 2; wl++ {
		w.WL = wl
		for k := PageKind(0); k < 2; k++ {
			p := PageAddr{WordlineAddr: w, Kind: k}
			if _, err := a.Program(p, stubPage(uint32(8+8*(2*wl+int(k)))), 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	a.SetRef(a.geo.PPN(PageAddr{WordlineAddr: WordlineAddr{PlaneAddr: w.PlaneAddr, Block: 0, WL: 0}, Kind: LSBPage}), NewPageRef(1, 8))
	a.SetRef(a.geo.PPN(PageAddr{WordlineAddr: WordlineAddr{PlaneAddr: w.PlaneAddr, Block: 0, WL: 1}, Kind: LSBPage}), HoleRef)
	full := encode(t, a, false)
	a.ClearChanged()
	if _, err := a.ProgramESP(PageAddr{WordlineAddr: WordlineAddr{PlaneAddr: w.PlaneAddr, Block: 1}}, []byte{1, 2, 3, 4}, 0); err != nil {
		t.Fatal(err)
	}
	delta := encode(t, a, true)
	return [][2][]byte{{full, nil}, {delta, full}}
}

// FuzzArrayState feeds arbitrary array sections to Array.ReadState, as
// the newest encoding and one parent, with references resolved through
// stubSegments. Every refusal must be an error, never a panic; an array
// that restores holds only pages of its size, each reference in range
// and backed by the page it names, and re-encodes canonically.
func FuzzArrayState(f *testing.F) {
	for _, seed := range arrayStateSeeds(f) {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, newest, parent []byte) {
		a := fuzzArray()
		if err := a.ReadState(bytes.NewReader(newest), stubSegments{t}, bytes.NewReader(parent)); err != nil {
			return
		}
		for pi, pl := range a.planes {
			for bi := range pl.blocks {
				blk := &pl.blocks[bi]
				refs := a.refsOf(pi, bi)
				used := 0
				for i, ref := range refs {
					var page []byte
					if blk.wl != nil {
						page = blk.wl[i/a.geo.CellBits].pages[i%a.geo.CellBits]
					}
					if page != nil {
						used++
						if len(page) != a.geo.PageSize {
							t.Fatalf("block %d page %d holds %d bytes", bi, i, len(page))
						}
					}
					switch {
					case ref == 0:
					case page == nil:
						t.Fatalf("block %d page %d: reference %#x on an erased page", bi, i, uint64(ref))
					case ref == HoleRef:
						if !bytes.Equal(page, make([]byte, a.geo.PageSize)) {
							t.Fatalf("block %d page %d: hole restored as %x", bi, i, page)
						}
					case !inRange(ref):
						t.Fatalf("block %d page %d: out-of-range reference %#x restored", bi, i, uint64(ref))
					case !bytes.Equal(page, stubPage(ref.Offset())):
						t.Fatalf("block %d page %d: reference %#x restored as %x", bi, i, uint64(ref), page)
					}
				}
				if used != blk.used {
					t.Fatalf("block %d counts %d pages, holds %d", bi, blk.used, used)
				}
			}
		}
		got := encode(t, a, false)
		again := fuzzArray()
		if err := again.ReadState(bytes.NewReader(got), stubSegments{t}); err != nil {
			t.Fatalf("re-encoded state does not decode: %v", err)
		}
		if !bytes.Equal(encode(t, again, false), got) {
			t.Fatal("re-encoded state is not canonical")
		}
	})
}
