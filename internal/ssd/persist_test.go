package ssd

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parabit/internal/flash"
	"parabit/internal/ftl"
	"parabit/internal/latch"
	"parabit/internal/persist"
)

// TestOpenTrimsInternalPages mounts a snapshot that still maps a
// controller-reserved LPN, as stores did while reallocated pages waited
// for a reclaim: the mount trims it and drops its plain bit, and the FTL
// audit passes.
func TestOpenTrimsInternalPages(t *testing.T) {
	dir := t.TempDir()
	d, err := Create(dir, SmallConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	lpn := uint64(d.FTL().LogicalPages()) - 1
	if _, err := d.ftl.Place(ftl.Layout{}, []uint64{lpn}, [][]byte{randPage(d, 1)}, 0); err != nil {
		t.Fatal(err)
	}
	d.plain.add(lpn)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re, _, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, ok := re.FTL().Lookup(lpn); ok {
		t.Fatalf("internal lpn %d still mapped after mount", lpn)
	}
	if re.plain.has(lpn) {
		t.Fatalf("internal lpn %d still in the plain set", lpn)
	}
	if err := re.FTL().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPersistRoundTrip writes through every journaled layout, closes
// cleanly, remounts and requires byte-identical reads, identical
// controller counters and a clean FTL audit. Clean close compacts, so
// the mount replays zero records.
func TestPersistRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d, err := Create(dir, SmallConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.PersistStats(); !ok {
		t.Fatal("Create built a non-persistent device")
	}

	written := map[uint64][]byte{}
	host := randPage(d, 1)
	if _, err := d.WritePages(persist.OpWrite, 0, []uint64{0}, [][]byte{host}, 0); err != nil {
		t.Fatal(err)
	}
	written[0] = host
	op := randPage(d, 2)
	if _, err := d.WriteOperand(1, op, 0); err != nil {
		t.Fatal(err)
	}
	written[1] = op
	a, b := randPage(d, 3), randPage(d, 4)
	if _, err := d.WritePages(persist.OpWritePair, 0, []uint64{2, 3}, [][]byte{a, b}, 0); err != nil {
		t.Fatal(err)
	}
	written[2], written[3] = a, b
	g0, g1, g2 := randPage(d, 5), randPage(d, 6), randPage(d, 7)
	if _, err := d.WriteOperandLSBGroup([]uint64{4, 5, 6}, [][]byte{g0, g1, g2}, 0); err != nil {
		t.Fatal(err)
	}
	written[4], written[5], written[6] = g0, g1, g2
	m0, m1 := randPage(d, 8), randPage(d, 9)
	if _, err := d.WritePages(persist.OpWriteMWSGroup, 0, []uint64{7, 8}, [][]byte{m0, m1}, 0); err != nil {
		t.Fatal(err)
	}
	written[7], written[8] = m0, m1
	pl := randPage(d, 10)
	if _, err := d.WritePages(persist.OpWriteOnPlane, 1, []uint64{9}, [][]byte{pl}, 0); err != nil {
		t.Fatal(err)
	}
	written[9] = pl
	// A bitwise op (reallocation path) populates the controller stats.
	if _, err := d.Bitwise(latch.OpAnd, 1, 4, SchemeReAlloc, 0); err != nil {
		t.Fatal(err)
	}
	preStats := d.Stats()

	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re, info, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.ReplayedRecords != 0 || info.TornBytes != 0 {
		t.Fatalf("clean close still replayed: %+v", info)
	}
	for lpn, want := range written {
		got, _, err := re.Read(lpn, 0)
		if err != nil {
			t.Fatalf("read %d after remount: %v", lpn, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("lpn %d differs after remount", lpn)
		}
	}
	if re.Stats() != preStats {
		t.Fatalf("controller stats drifted: %+v -> %+v", preStats, re.Stats())
	}
	if err := re.FTL().CheckInvariants(); err != nil {
		t.Fatalf("post-remount audit: %v", err)
	}
	// The remounted device still computes: ParaBit results survive the
	// reload of the pair layout.
	res, err := re.Bitwise(latch.OpXor, 2, 3, SchemePreAlloc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, golden(latch.OpXor, a, b)) {
		t.Fatal("bitwise result wrong after remount")
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPersistCrashReplaysJournal crashes without a final snapshot: the
// mount must rebuild every acknowledged write from the journal alone.
func TestPersistCrashReplaysJournal(t *testing.T) {
	dir := t.TempDir()
	d, err := Create(dir, SmallConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	pages := map[uint64][]byte{}
	for lpn := uint64(0); lpn < 6; lpn++ {
		p := randPage(d, int64(lpn)+20)
		if _, err := d.WritePages(persist.OpWrite, 0, []uint64{lpn}, [][]byte{p}, 0); err != nil {
			t.Fatal(err)
		}
		pages[lpn] = p
	}
	// Overwrite one page so replay must preserve last-write-wins order.
	over := randPage(d, 99)
	if _, err := d.WritePages(persist.OpWrite, 0, []uint64{2}, [][]byte{over}, 0); err != nil {
		t.Fatal(err)
	}
	pages[2] = over
	d.Crash()

	re, info, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.ReplayedRecords != 7 {
		t.Fatalf("replayed %d records, want 7", info.ReplayedRecords)
	}
	for lpn, want := range pages {
		got, _, err := re.Read(lpn, 0)
		if err != nil {
			t.Fatalf("read %d: %v", lpn, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("lpn %d differs after crash recovery", lpn)
		}
	}
	// A page never written stays explicitly unmapped — no ghost data.
	if _, _, err := re.Read(17, 0); !errors.Is(err, ftl.ErrUnmapped) {
		t.Fatalf("unwritten lpn read: %v, want ErrUnmapped", err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPersistSnapshotCompaction drives enough commits to trigger
// automatic rotation and proves the post-rotation mount needs only the
// journal tail.
func TestPersistSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	d, err := Create(dir, SmallConfig(), 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 19; i++ {
		if _, err := d.WritePages(persist.OpWrite, 0, []uint64{uint64(i % 4)}, [][]byte{randPage(d, int64(i))}, 0); err != nil {
			t.Fatal(err)
		}
	}
	st, ok := d.PersistStats()
	if !ok || st.Snapshots < 2 {
		t.Fatalf("19 writes at SnapshotEvery=8 took %d snapshots, want >=2", st.Snapshots)
	}
	last := randPage(d, 77)
	if _, err := d.WritePages(persist.OpWrite, 0, []uint64{3}, [][]byte{last}, 0); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	re, info, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.ReplayedRecords == 0 || info.ReplayedRecords >= 20 {
		t.Fatalf("replayed %d records: compaction should leave only the tail", info.ReplayedRecords)
	}
	got, _, err := re.Read(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, last) {
		t.Fatal("post-compaction write lost")
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPersistTornJournalTail appends garbage (a torn frame) to the
// journal of a crashed device: the mount truncates it and recovers
// everything before it.
func TestPersistTornJournalTail(t *testing.T) {
	dir := t.TempDir()
	d, err := Create(dir, SmallConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	page := randPage(d, 5)
	if _, err := d.WritePages(persist.OpWrite, 0, []uint64{1}, [][]byte{page}, 0); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	jpath := filepath.Join(dir, "journal-1.log")
	f, err := os.OpenFile(jpath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x21, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	re, info, err := Open(dir, 0)
	if err != nil {
		t.Fatalf("torn tail must not be fatal: %v", err)
	}
	if info.TornBytes != 6 {
		t.Fatalf("torn bytes %d, want 6", info.TornBytes)
	}
	got, _, err := re.Read(1, 0)
	if err != nil || !bytes.Equal(got, page) {
		t.Fatalf("acked write lost under torn tail: %v", err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPersistOpenRejectsCorruptSnapshot flips one snapshot body byte
// and requires ErrCorrupt — never a silently different device.
func TestPersistOpenRejectsCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	d, err := Create(dir, SmallConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.WritePages(persist.OpWrite, 0, []uint64{0}, [][]byte{randPage(d, 1)}, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.bin"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshots on disk: %v (%v)", snaps, err)
	}
	raw, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x04
	if err := os.WriteFile(snaps[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, 0); !errors.Is(err, persist.ErrCorrupt) {
		t.Fatalf("corrupt snapshot mounted: %v", err)
	}
}

// TestPersistTLCTripleRoundTrip covers the TLC triple layout through a
// crash-recovery cycle.
func TestPersistTLCTripleRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d, err := Create(dir, SmallTLCConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	p0, p1, p2 := randPage(d, 1), randPage(d, 2), randPage(d, 3)
	if _, err := d.WritePages(persist.OpWriteTriple, 0, []uint64{0, 1, 2}, [][]byte{p0, p1, p2}, 0); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	re, info, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.ReplayedRecords != 1 {
		t.Fatalf("replayed %d, want 1", info.ReplayedRecords)
	}
	for lpn, want := range map[uint64][]byte{0: p0, 1: p1, 2: p2} {
		got, _, err := re.Read(lpn, 0)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("triple page %d lost: %v", lpn, err)
		}
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
}

// benchPreload is the number of pages the rotation benchmarks write
// before timing: the durable-ingest working set, rounded up to a whole
// number of default rotation lengths.
const benchPreload = 55 * persist.DefaultSnapshotEvery

// preloadedDevice creates a persistent Small device at the default
// rotation length holding benchPreload written pages.
func preloadedDevice(b *testing.B) *Device {
	d, err := Create(b.TempDir(), SmallConfig(), 0)
	if err != nil {
		b.Fatal(err)
	}
	for lpn := uint64(0); lpn < benchPreload; lpn++ {
		if _, err := d.WriteOperand(lpn, randPage(d, int64(lpn)), 0); err != nil {
			b.Fatal(err)
		}
	}
	return d
}

// BenchmarkDeviceSnapshot measures one full-image snapshot rotation of
// a Small device holding benchPreload written pages: encode, stream,
// sync and publish. The writer ignores the store's delta request, so
// every rotation writes the whole image.
func BenchmarkDeviceSnapshot(b *testing.B) {
	d := preloadedDevice(b)
	full := func(w io.Writer, _ bool, tally flash.SegmentTally) (persist.Payload, error) {
		return d.writeSnapshot(w, false, tally)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.store.Snapshot(full); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := d.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkDeviceRotation measures the steady-state persistence cost of
// one rotation period: each iteration is one default rotation length of
// Zipf-skewed single-page overwrites over the preloaded working set, the
// last of which triggers the rotation. Full images come due under the
// store's compaction rule, so their amortized cost is included. Beside
// the snapshot bytes per rotation it reports the page bytes those carry
// inline and the segment bytes the store keeps on disk at the end.
func BenchmarkDeviceRotation(b *testing.B) {
	d := preloadedDevice(b)
	rng := rand.New(rand.NewSource(1))
	pick := rand.NewZipf(rng, 1.1, 1, benchPreload-1)
	pages := make([][]byte, 64)
	for i := range pages {
		pages[i] = randPage(d, int64(-1-i))
	}
	before, _ := d.PersistStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < persist.DefaultSnapshotEvery; j++ {
			if _, err := d.WriteOperand(pick.Uint64(), pages[j%len(pages)], 0); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	after, _ := d.PersistStats()
	rotations := float64(after.Snapshots - before.Snapshots)
	b.ReportMetric(float64(after.SnapshotBytes-before.SnapshotBytes)/rotations, "B/rotation")
	b.ReportMetric(float64(after.InlineBytes-before.InlineBytes)/rotations, "inline-B/rotation")
	b.ReportMetric(float64(after.SegmentBytes), "segment-B")
	if err := d.Close(); err != nil {
		b.Fatal(err)
	}
}

// TestFailedCommitKeepsPagesInline pins journaled's failure path: a
// commit that fails drops the journal references of the pages its
// record programmed, because a failed write is cut back together with
// the intent they name, so a snapshot carries those pages inline. The
// commit here fails by a power cut at its journal boundary.
func TestFailedCommitKeepsPagesInline(t *testing.T) {
	d, err := Create(t.TempDir(), SmallConfig(), -1)
	if err != nil {
		t.Fatal(err)
	}
	inline := func() int64 {
		t.Helper()
		p, err := d.writeSnapshot(io.Discard, false, keepSegments{})
		if err != nil {
			t.Fatal(err)
		}
		return p.Inline
	}
	for lpn := uint64(0); lpn < 4; lpn++ {
		if _, err := d.WriteOperand(lpn, randPage(d, int64(lpn)), 0); err != nil {
			t.Fatal(err)
		}
	}
	before := inline()
	// The first pre-journal crossing is the intent's, the second its
	// commit's.
	d.store.SetCutInjector(&boundaryCut{point: persist.PointPreJournal, n: 2})
	if _, err := d.WriteOperand(4, randPage(d, 4), 0); !errors.Is(err, persist.ErrPowerCut) {
		t.Fatalf("write with its commit cut: %v, want ErrPowerCut", err)
	}
	if got, want := inline(), before+int64(d.PageSize()); got != want {
		t.Fatalf("snapshot carries %d inline bytes after the failed commit, want %d", got, want)
	}
	d.Crash()
}

// keepSegments is a SegmentTally that keeps every segment.
type keepSegments struct{}

func (keepSegments) Tally(uint32, int64) bool                   { return false }
func (keepSegments) Carry(flash.PageAddr, []byte) flash.PageRef { return 0 }

// BenchmarkDeviceJournaledWrite measures one acknowledged single-page
// write of a persistent Small device at the default rotation length:
// the intent framed and held, the program, the intent and its commit in
// one journal write, and every default rotation length a rotation. The
// overwrites cycle over the preloaded working set.
func BenchmarkDeviceJournaledWrite(b *testing.B) {
	d := preloadedDevice(b)
	lpns, pages := []uint64{0}, [][]byte{randPage(d, -1)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lpns[0] = uint64(i) % benchPreload
		if _, err := d.WritePages(persist.OpWriteOperand, 0, lpns, pages, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := d.Close(); err != nil {
		b.Fatal(err)
	}
}

// TestOpenFailsOnBrokenSegment pins the mount's segment checks: the
// chain names operand pages by reference into the journal segments it
// keeps, and a segment that is gone, or whose frame holding a named page
// no longer passes its checksum, fails Open with ErrCorrupt naming it.
func TestOpenFailsOnBrokenSegment(t *testing.T) {
	build := func(t *testing.T) (string, string) {
		dir := t.TempDir()
		d, err := Create(dir, SmallConfig(), 4)
		if err != nil {
			t.Fatal(err)
		}
		for lpn := uint64(0); lpn < 10; lpn++ {
			if _, err := d.WriteOperand(lpn, randPage(d, int64(lpn)), 0); err != nil {
				t.Fatal(err)
			}
		}
		d.Crash()
		seg := filepath.Join(dir, "journal-1.log")
		if _, err := os.Stat(seg); err != nil {
			t.Fatalf("no segment kept for the first epoch's operand pages: %v", err)
		}
		return dir, seg
	}
	requireCorrupt := func(t *testing.T, dir string) {
		t.Helper()
		_, _, err := Open(dir, 4)
		if !errors.Is(err, persist.ErrCorrupt) || !strings.Contains(err.Error(), "journal-1.log") {
			t.Fatalf("mount over a broken segment: %v, want ErrCorrupt naming journal-1.log", err)
		}
	}
	t.Run("missing", func(t *testing.T) {
		dir, seg := build(t)
		if err := os.Remove(seg); err != nil {
			t.Fatal(err)
		}
		requireCorrupt(t, dir)
	})
	t.Run("corrupt", func(t *testing.T) {
		dir, seg := build(t)
		raw, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0x10
		if err := os.WriteFile(seg, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		requireCorrupt(t, dir)
	})
}
