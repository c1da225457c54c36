package ftl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
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
	if err := f.WriteState(&buf, false); err != nil {
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
		// Every seed is sound, the churned one included: GC that
		// relocates onto the plane it collects leaves the block it opened
		// there on a list.
		if err := f.CheckInvariants(); err != nil {
			t.Fatalf("%s: restored state checks %v", name, err)
		}
	}
}

// v1State encodes f in the FTL1 layout older stores hold: a (lpn, ppn)
// list, a (lpn, version) list, then the tail FTL2 shares.
func v1State(t testing.TB, f *FTL) []byte {
	t.Helper()
	full := stateOf(t, f)
	le := binary.LittleEndian
	b := le.AppendUint32(nil, stateMagicV1)
	b = le.AppendUint64(b, uint64(f.mapped))
	f.l2p.each(func(lpn uint64, v uint32) {
		b = le.AppendUint64(le.AppendUint64(b, lpn), uint64(v-1))
	})
	b = le.AppendUint64(b, uint64(f.versioned))
	f.vers.each(func(lpn, v uint64) {
		b = le.AppendUint64(le.AppendUint64(b, lpn), v)
	})
	return append(b, full[entriesAt+entryLen*f.versioned:]...)
}

// entriesAt is where an FTL2 blob's entries start: magic, flag, count.
const entriesAt = 4 + 1 + 8

// deltaOf returns f's delta encoding against the last ClearDirty.
func deltaOf(t testing.TB, f *FTL) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.WriteState(&buf, true); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// churn overwrites and trims random pages of f's hot first half.
func churn(t testing.TB, f *FTL, rng *rand.Rand, n int) {
	t.Helper()
	hot := int(f.LogicalPages() / 2)
	for i := 0; i < n; i++ {
		if _, err := f.Write(uint64(rng.Intn(hot)), page(f, byte(i)), 0); err != nil {
			t.Fatal(err)
		}
		if i%7 == 0 {
			f.Trim(uint64(rng.Intn(hot)))
		}
	}
}

// readChain restores a chain of encodings, newest first, into a fresh
// FTL.
func readChain(chain ...[]byte) (*FTL, error) {
	f := newTinyFTL()
	parents := make([]io.Reader, len(chain)-1)
	for i, p := range chain[1:] {
		parents[i] = bytes.NewReader(p)
	}
	return f, f.ReadState(bytes.NewReader(chain[0]), parents...)
}

// TestStateDeltaChain restores a full encoding and two deltas over it,
// each taken after churn that runs garbage collection, and an FTL1
// encoding: every restore encodes exactly like the FTL it was taken
// from. A delta lists only what changed since ClearDirty.
func TestStateDeltaChain(t *testing.T) {
	f := newTinyFTL()
	rng := rand.New(rand.NewSource(11))
	churn(t, f, rng, 400)
	full := stateOf(t, f)
	f.ClearDirty()
	if got := deltaOf(t, f); len(got) >= len(full) || binary.LittleEndian.Uint64(got[5:]) != 0 {
		t.Fatalf("delta of a clean FTL lists %d entries", binary.LittleEndian.Uint64(got[5:]))
	}
	gc := f.Stats().GCRuns
	churn(t, f, rng, 60)
	d1 := deltaOf(t, f)
	f.ClearDirty()
	churn(t, f, rng, 60)
	d2 := deltaOf(t, f)
	if f.Stats().GCRuns == gc {
		t.Fatal("churn between deltas ran no garbage collection")
	}
	want := stateOf(t, f)
	for name, chain := range map[string][][]byte{
		"delta-delta-full": {d2, d1, full},
		"full":             {want},
		"v1":               {v1State(t, f)},
	} {
		got, err := readChain(chain...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(stateOf(t, got), want) {
			t.Fatalf("%s: restored state differs from the live FTL", name)
		}
	}
	// A full encoding ends the walk: parents past it are never read.
	if _, err := readChain(d2, d1, full, []byte("not a state")); err != nil {
		t.Fatalf("chain with a stray parent past its full image: %v", err)
	}
}

// TestReadStateIsCanonical patches the entries of a two-page state:
// every full blob ReadState accepts must re-encode to itself, so it
// refuses what WriteState never writes. Deltas keep the same rules and
// must reach a full ancestor, FTL1 or FTL2.
func TestReadStateIsCanonical(t *testing.T) {
	f := newTinyFTL()
	write := func(lpns ...uint64) {
		for _, lpn := range lpns {
			if _, err := f.Write(lpn, page(f, 1), 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	write(3, 9)
	blob := stateOf(t, f)
	v1 := v1State(t, f)
	f.ClearDirty()
	write(5, 9)
	delta := deltaOf(t, f)
	live := stateOf(t, f)
	entry := func(b []byte, i int, lpn, v uint64) {
		binary.LittleEndian.PutUint64(b[entriesAt+entryLen*i:], lpn)
		binary.LittleEndian.PutUint64(b[entriesAt+entryLen*i+12:], v)
	}
	// stat sets stats slot i of blob's layout (two entries, then the
	// cursor) to v.
	stat := func(b []byte, i int, v int64) {
		binary.LittleEndian.PutUint64(b[entriesAt+2*entryLen+8+8*i:], uint64(v))
	}
	for _, tc := range []struct {
		name    string
		chain   [][]byte
		mutate  func(b []byte)
		wantErr bool
	}{
		{"unpatched", [][]byte{blob}, nil, false},
		{"duplicate entry", [][]byte{blob}, func(b []byte) { entry(b, 1, 3, 2) }, true},
		{"zero version", [][]byte{blob}, func(b []byte) { entry(b, 1, 9, 0) }, true},
		{"entries out of order", [][]byte{blob}, func(b []byte) { entry(b, 0, 9, 1); entry(b, 1, 3, 1) }, true},
		{"unknown list flag", [][]byte{blob}, func(b []byte) { b[4] = 2 }, true},
		{"live stats slot", [][]byte{blob}, func(b []byte) { stat(b, 4, 7) }, false},
		{"first retired stats slot", [][]byte{blob}, func(b []byte) { stat(b, 5, 1) }, true},
		{"last retired stats slot", [][]byte{blob}, func(b []byte) { stat(b, 8, -1) }, true},
		{"delta", [][]byte{delta, blob}, nil, false},
		{"delta out of order", [][]byte{delta, blob}, func(b []byte) { entry(b, 0, 9, 2); entry(b, 1, 5, 1) }, true},
		{"delta zero version", [][]byte{delta, blob}, func(b []byte) { entry(b, 0, 5, 0) }, true},
		{"delta with no full ancestor", [][]byte{delta}, nil, true},
		{"delta over a delta only", [][]byte{delta, delta}, nil, true},
		{"delta over FTL1", [][]byte{delta, v1}, nil, false},
	} {
		chain := append([][]byte(nil), tc.chain...)
		if tc.mutate != nil {
			chain[0] = bytes.Clone(chain[0])
			tc.mutate(chain[0])
		}
		got, err := readChain(chain...)
		// An accepted full blob re-encodes to itself, a chain to the
		// live FTL it was taken from.
		want := live
		if len(chain) == 1 {
			want = chain[0]
		}
		switch {
		case tc.wantErr && !errors.Is(err, ErrBadState):
			t.Errorf("%s: ReadState = %v, want ErrBadState", tc.name, err)
		case !tc.wantErr && err != nil:
			t.Errorf("%s: ReadState = %v", tc.name, err)
		case !tc.wantErr && !bytes.Equal(stateOf(t, got), want):
			t.Errorf("%s: restored state re-encodes differently", tc.name)
		}
	}
}

// FuzzFTLState feeds arbitrary bytes to ReadState as a newest encoding
// and one parent. Nothing may panic: not the decode, not CheckInvariants
// on what it accepted. An accepted full FTL2 blob must re-encode to
// exactly the bytes ReadState consumed; any other accepted chain must
// re-encode to a full blob that does.
func FuzzFTLState(f *testing.F) {
	for _, blob := range stateSeeds(f) {
		f.Add(blob, []byte(nil))
	}
	base := newTinyFTL()
	churn(f, base, rand.New(rand.NewSource(2)), 300)
	full := stateOf(f, base)
	f.Add(v1State(f, base), []byte(nil))
	base.ClearDirty()
	churn(f, base, rand.New(rand.NewSource(3)), 40)
	f.Add(deltaOf(f, base), full)
	f.Fuzz(func(t *testing.T, newest, parent []byte) {
		ftl := newTinyFTL()
		r := bytes.NewReader(newest)
		if err := ftl.ReadState(r, bytes.NewReader(parent)); err != nil {
			return
		}
		_ = ftl.CheckInvariants()
		got := stateOf(t, ftl)
		if len(newest) > entriesAt && binary.LittleEndian.Uint32(newest) == stateMagic && newest[4] == entriesFull {
			if consumed := newest[:len(newest)-r.Len()]; !bytes.Equal(got, consumed) {
				t.Fatalf("re-encoded state differs:\n got  %x\n want %x", got, consumed)
			}
			return
		}
		again, err := readChain(got)
		if err != nil {
			t.Fatalf("re-encoded state does not decode: %v", err)
		}
		if !bytes.Equal(stateOf(t, again), got) {
			t.Fatal("re-encoded state is not canonical")
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
