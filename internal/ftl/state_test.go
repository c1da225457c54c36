package ftl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"parabit/internal/flash"
	"parabit/internal/sim"
)

// tinyGeometry keeps state blobs a few kilobytes long, so the fuzzer
// mutates whole blobs quickly: 2 planes of 16 blocks of 4 wordlines,
// a quarter overprovisioned so every logical page fits beside GC's
// reserve.
func tinyGeometry() flash.Geometry {
	return flash.Geometry{
		Channels: 2, ChipsPerChannel: 1, DiesPerChip: 1, PlanesPerDie: 1,
		BlocksPerPlane: 16, WordlinesPerBlock: 4, PageSize: 16, CellBits: 2,
	}
}

func newTinyFTL() *FTL {
	return New(flash.NewArray(tinyGeometry(), flash.DefaultTiming()),
		Config{OverprovisionPct: 0.25, GCFreeBlockLow: 2})
}

func stateOf(t testing.TB, f *FTL) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.WriteState(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// stateSeeds returns the WriteState blobs of a fresh FTL, one with every
// logical page written, and one churned through garbage collection with
// trims mixed in.
func stateSeeds(t testing.TB) map[string][]byte {
	full := newTinyFTL()
	for lpn := uint64(0); lpn < uint64(full.LogicalPages()); lpn++ {
		if _, err := full.Write(lpn, page(full, byte(lpn)), 0); err != nil {
			t.Fatal(err)
		}
	}
	churned := newTinyFTL()
	rng := rand.New(rand.NewSource(5))
	hot := int(churned.LogicalPages() / 2)
	for i := 0; i < 2000; i++ {
		if _, err := churned.Write(uint64(rng.Intn(hot)), page(churned, byte(i)), 0); err != nil {
			t.Fatal(err)
		}
		if i%7 == 0 {
			churned.Trim(uint64(rng.Intn(hot)))
		}
	}
	if churned.Stats().GCRuns == 0 {
		t.Fatal("churn ran no garbage collection")
	}
	return map[string][]byte{
		"fresh":   stateOf(t, newTinyFTL()),
		"full":    stateOf(t, full),
		"churned": stateOf(t, churned),
	}
}

func TestStateRoundTrip(t *testing.T) {
	for name, blob := range stateSeeds(t) {
		f := newTinyFTL()
		if err := f.ReadState(bytes.NewReader(blob)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := stateOf(t, f); !bytes.Equal(got, blob) {
			t.Fatalf("%s: re-encoded state differs", name)
		}
		// The fresh and full states are sound. The churned one is not: on
		// two planes, GC relocates onto the plane it collects, and the
		// allocation that triggered it then replaces the block the
		// relocation opened, dropping that block from every list. A
		// restore must keep exactly that verdict.
		want := "<nil>"
		if name == "churned" {
			want = "ftl: plane 0 block 14 on no list"
		}
		if got := fmt.Sprint(f.CheckInvariants()); got != want {
			t.Fatalf("%s: restored state checks %s, want %s", name, got, want)
		}
	}
}

// TestReadStateIsCanonical patches the version section of a two-page
// state: every blob ReadState accepts must re-encode to itself, so it
// refuses what WriteState never writes.
func TestReadStateIsCanonical(t *testing.T) {
	f := newTinyFTL()
	for _, lpn := range []uint64{3, 9} {
		if _, err := f.Write(lpn, page(f, 1), 0); err != nil {
			t.Fatal(err)
		}
	}
	blob := stateOf(t, f)
	// magic, two mapping entries, then the version count and entries.
	const versions = 4 + 8 + 2*16 + 8
	entry := func(b []byte, i int, lpn, v uint64) {
		binary.LittleEndian.PutUint64(b[versions+16*i:], lpn)
		binary.LittleEndian.PutUint64(b[versions+16*i+8:], v)
	}
	for _, tc := range []struct {
		name   string
		mutate func(b []byte)
	}{
		{"duplicate version", func(b []byte) { entry(b, 1, 3, 2) }},
		{"zero version", func(b []byte) { entry(b, 1, 9, 0) }},
		{"versions out of order", func(b []byte) { entry(b, 0, 9, 1); entry(b, 1, 3, 1) }},
	} {
		b := bytes.Clone(blob)
		tc.mutate(b)
		if err := newTinyFTL().ReadState(bytes.NewReader(b)); !errors.Is(err, ErrBadState) {
			t.Errorf("%s: ReadState = %v, want ErrBadState", tc.name, err)
		}
	}
	if err := newTinyFTL().ReadState(bytes.NewReader(blob)); err != nil {
		t.Fatalf("unpatched blob: %v", err)
	}
}

// FuzzFTLState feeds arbitrary bytes to ReadState. Nothing may panic:
// not the decode, not CheckInvariants on what it accepted. An accepted
// blob must re-encode to exactly the bytes ReadState consumed.
func FuzzFTLState(f *testing.F) {
	for _, blob := range stateSeeds(f) {
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		ftl := newTinyFTL()
		r := bytes.NewReader(blob)
		if err := ftl.ReadState(r); err != nil {
			return
		}
		_ = ftl.CheckInvariants()
		consumed := blob[:len(blob)-r.Len()]
		if got := stateOf(t, ftl); !bytes.Equal(got, consumed) {
			t.Fatalf("re-encoded state differs:\n got  %x\n want %x", got, consumed)
		}
	})
}

// tableBytes is the memory the mapping tables hold: page directories,
// allocated pages and reverse-map leaves.
func tableBytes(f *FTL) int {
	n := 8 * (len(f.l2p.pages) + len(f.vers.pages))
	for _, p := range f.l2p.pages {
		if p != nil {
			n += 4 * tablePageLen
		}
	}
	for _, p := range f.vers.pages {
		if p != nil {
			n += 8 * tablePageLen
		}
	}
	for _, pa := range f.planes {
		n += 24 * len(pa.owners)
		for _, l := range pa.owners {
			n += 4 * len(l)
		}
	}
	return n
}

// TestMappingTablesArePaged builds an FTL over the paper's full geometry,
// whose flat tables would take hundreds of megabytes, and checks they
// cost under 1 MB until data lands and grow by a page per write.
func TestMappingTablesArePaged(t *testing.T) {
	f := New(flash.NewArray(flash.Default(), flash.DefaultTiming()), DefaultConfig())
	empty := tableBytes(f)
	if empty >= 1<<20 {
		t.Fatalf("tables hold %d bytes before the first write", empty)
	}
	lpn := uint64(f.LogicalPages() - 1)
	if _, err := f.Write(lpn, make([]byte, f.PageSize()), 0); err != nil {
		t.Fatal(err)
	}
	leaf := 24*f.geo.BlocksPerPlane + 4*f.geo.PagesPerBlock()
	if got, want := tableBytes(f)-empty, 12*tablePageLen+leaf; got != want {
		t.Fatalf("one write grew the tables by %d bytes, want %d", got, want)
	}
	if addr, ok := f.Lookup(lpn); !ok || f.Version(lpn) != 1 || f.MappedPages() != 1 {
		t.Fatalf("lookup %v %v, version %d, mapped %d", addr, ok, f.Version(lpn), f.MappedPages())
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFTLLookup(b *testing.B) {
	f := newFTL()
	n := uint64(f.LogicalPages() / 2)
	for lpn := uint64(0); lpn < n; lpn++ {
		if _, err := f.Write(lpn, page(f, byte(lpn)), 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := f.Lookup(uint64(i) % n); !ok {
			b.Fatal("unmapped")
		}
	}
}

// BenchmarkFTLOverwrite rewrites a hot half of the logical space at
// random, so garbage collection and its reverse lookups run throughout.
func BenchmarkFTLOverwrite(b *testing.B) {
	f := newFTL()
	hot := int(f.LogicalPages() / 2)
	data := page(f, 7)
	rng := rand.New(rand.NewSource(1))
	var at sim.Time
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done, err := f.Write(uint64(rng.Intn(hot)), data, at)
		if err != nil {
			b.Fatal(err)
		}
		at = done
	}
}
