package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"parabit/internal/flash"
)

// sizedSnap writes body and reports written payload bytes for a delta
// (all of live for a full image) against a live image of live bytes, so
// a test can steer the compaction rule.
func sizedSnap(body []byte, written, live int64) SnapshotWriter {
	return func(w io.Writer, delta bool, _ flash.SegmentTally) (Payload, error) {
		if _, err := w.Write(body); err != nil {
			return Payload{}, err
		}
		if !delta {
			written = live
		}
		return Payload{Written: written, Live: live}, nil
	}
}

// snapFiles lists the snap-*.bin files in dir.
func snapFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "snap-*.bin"))
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range names {
		names[i] = filepath.Base(n)
	}
	slices.Sort(names)
	return names
}

// parentOf reads the parent epoch a PBSNAP2 file names.
func parentOf(t *testing.T, dir string, epoch uint64) uint64 {
	t.Helper()
	raw, err := os.ReadFile(snapPath(dir, epoch))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, snapMagic) {
		t.Fatalf("snapshot %d lacks the %q magic", epoch, snapMagic)
	}
	return binary.LittleEndian.Uint64(raw[len(snapMagic):])
}

// TestChainCompactionRule walks the store through the rule: with a live
// image of 100 payload bytes and deltas of 40, three deltas stack up
// (superseded 40, 80, 120) and the rotation after the third writes a
// full image, which retires the whole old chain. A mount reads the
// chain newest first, and the stats count bytes and full images.
func TestChainCompactionRule(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(Config{Dir: dir, SnapshotEvery: -1}, sizedSnap([]byte("e1"), 0, 100))
	if err != nil {
		t.Fatal(err)
	}
	for e := uint64(2); e <= 4; e++ {
		if err := s.Snapshot(sizedSnap([]byte(fmt.Sprintf("e%d", e)), 40, 100)); err != nil {
			t.Fatal(err)
		}
		if p := parentOf(t, dir, e); p != e-1 {
			t.Fatalf("epoch %d names parent %d, want a delta on %d", e, p, e-1)
		}
	}
	want := []string{"snap-1.bin", "snap-2.bin", "snap-3.bin", "snap-4.bin"}
	if got := snapFiles(t, dir); !slices.Equal(got, want) {
		t.Fatalf("chain files %v, want %v", got, want)
	}
	rec, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var bodies []string
	for _, b := range rec.Chain() {
		bodies = append(bodies, string(b))
	}
	if want := []string{"e4", "e3", "e2", "e1"}; !slices.Equal(bodies, want) {
		t.Fatalf("mounted chain %v, want %v", bodies, want)
	}

	if err := s.Snapshot(sizedSnap([]byte("e5"), 40, 100)); err != nil {
		t.Fatal(err)
	}
	if p := parentOf(t, dir, 5); p != 0 {
		t.Fatalf("epoch 5 names parent %d after superseded payload passed live, want a full image", p)
	}
	s.removing.Wait() // retired files go in the background
	if got := snapFiles(t, dir); !slices.Equal(got, []string{"snap-5.bin"}) {
		t.Fatalf("files after a full image %v, want only snap-5.bin", got)
	}
	st := s.Stats()
	fileSize := int64(len(snapMagic) + snapParentSize + 2 + 4 + len(snapEnd))
	if st.Snapshots != 4 || st.FullSnapshots != 1 || st.SnapshotBytes != 4*fileSize {
		t.Fatalf("stats %+v, want 4 rotations, 1 full, %d bytes", st, 4*fileSize)
	}
	if err := s.Close(sizedSnap([]byte("end"), 40, 100)); err != nil {
		t.Fatal(err)
	}
	if p := parentOf(t, dir, 6); p != 0 {
		t.Fatalf("Close wrote a delta on %d, want a full image", p)
	}
}

// TestOpenDirBrokenChain pins the mount's chain checks: a missing
// member, a member failing its checksum and a parent that is not older
// than its child all fail with ErrCorrupt.
func TestOpenDirBrokenChain(t *testing.T) {
	build := func(t *testing.T) string {
		dir := t.TempDir()
		s, err := Create(Config{Dir: dir, SnapshotEvery: -1}, sizedSnap([]byte("full"), 0, 100))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if err := s.Snapshot(sizedSnap([]byte("delta"), 10, 100)); err != nil {
				t.Fatal(err)
			}
		}
		s.Abandon()
		if _, err := OpenDir(dir); err != nil {
			t.Fatalf("intact chain: %v", err)
		}
		return dir
	}
	t.Run("missing", func(t *testing.T) {
		dir := build(t)
		if err := os.Remove(snapPath(dir, 2)); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenDir(dir); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("chain without its middle member mounted: %v", err)
		}
	})
	t.Run("checksum", func(t *testing.T) {
		dir := build(t)
		raw, err := os.ReadFile(snapPath(dir, 1))
		if err != nil {
			t.Fatal(err)
		}
		raw[len(snapMagic)+snapParentSize] ^= 0x01
		if err := os.WriteFile(snapPath(dir, 1), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenDir(dir); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("chain with a corrupt full image mounted: %v", err)
		}
	})
	t.Run("parent-not-older", func(t *testing.T) {
		dir := build(t)
		body := []byte("loop")
		sealed := binary.LittleEndian.AppendUint64(nil, 3)
		sealed = append(sealed, body...)
		raw := append(append([]byte(nil), snapMagic...), sealed...)
		raw = binary.LittleEndian.AppendUint32(raw, crc32.ChecksumIEEE(sealed))
		raw = append(raw, snapEnd...)
		if err := os.WriteFile(snapPath(dir, 3), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenDir(dir); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("snapshot naming itself as parent mounted: %v", err)
		}
	})
}

// TestOpenDirReadsV1Snapshot pins compatibility: a PBSNAP1 file, whose
// checksum covers the body alone, mounts as a full image.
func TestOpenDirReadsV1Snapshot(t *testing.T) {
	dir := t.TempDir()
	body := []byte("version-one body")
	raw := append(append([]byte(nil), snapMagicV1...), body...)
	raw = binary.LittleEndian.AppendUint32(raw, crc32.ChecksumIEEE(body))
	raw = append(raw, snapEnd...)
	if err := os.WriteFile(snapPath(dir, 7), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, currentFile), []byte("7\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Chain()) != 1 || !bytes.Equal(rec.Chain()[0], body) {
		t.Fatalf("v1 snapshot mounted as %q", rec.Chain())
	}
}

// image stands in for a device in the store tests: pages it names by
// reference when it writes a snapshot.
type image struct {
	refs  []flash.PageRef
	pages [][]byte
}

// add journals and commits one single-page write per page and names the
// pages by their references.
func (m *image) add(t *testing.T, s *Store, pages ...[]byte) {
	t.Helper()
	m.refs = append(m.refs, appendPages(t, s, pages...)...)
	m.pages = append(m.pages, pages...)
}

// drop forgets page i, as an erase does.
func (m *image) drop(i int) { m.refs[i] = 0 }

// snap writes body after reporting every named page to the tally and
// carrying forward the pages of retiring segments, as the flash array's
// encoder does.
func (m *image) snap(body []byte) SnapshotWriter {
	return func(w io.Writer, _ bool, tally flash.SegmentTally) (Payload, error) {
		for i, r := range m.refs {
			if r != 0 && tally.Tally(r.Segment(), int64(len(m.pages[i]))) {
				m.refs[i] = tally.Carry(flash.PageAddr{}, m.pages[i])
			}
		}
		_, err := w.Write(body)
		return Payload{Written: int64(len(body)), Live: int64(len(body))}, err
	}
}

// requireResolves fails unless every page m names resolves to its bytes
// in the store dir holds.
func (m *image) requireResolves(t *testing.T, dir string) {
	t.Helper()
	rec, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range m.refs {
		if r == 0 {
			continue
		}
		got, err := rec.ResolvePage(r)
		if err != nil || !bytes.Equal(got, m.pages[i]) {
			t.Fatalf("page %d (%#x): %v", i, uint64(r), err)
		}
	}
}

// appendPages journals and commits one single-page write per page and
// returns the pages' references.
func appendPages(t *testing.T, s *Store, pages ...[]byte) []flash.PageRef {
	t.Helper()
	var refs []flash.PageRef
	for i, p := range pages {
		seq, r, err := s.AppendIntent(intentRec(0, uint64(i), p), refs)
		if err != nil {
			t.Fatal(err)
		}
		refs = r
		if err := s.AppendCommit(seq); err != nil {
			t.Fatal(err)
		}
	}
	return refs
}

// dirNames lists dir.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	return got
}

// TestSweepStaleKeepsChain pins the mount-time sweep: every snapshot the
// current chain references, every segment kept and the current journal
// stay; older snapshots, other journals and temporary files go. Then a
// real mount: the segments the chain's image names survive Resume and
// its sweep and still resolve, and a journal no image names goes.
func TestSweepStaleKeepsChain(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{
		"CURRENT", "snap-1.bin", "snap-2.bin", "snap-3.bin", "snap-4.bin", "snap-5.bin",
		"journal-1.log", "journal-2.log", "journal-3.log", "journal-4.log", "journal-5.log",
		"snap-6.bin.tmp", "CURRENT.tmp", "notes.txt",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sweepStale(dir, 5, []uint64{3, 4, 5}, []segment{{epoch: 2}, {epoch: 3}})
	want := []string{"CURRENT", "journal-2.log", "journal-3.log", "journal-5.log", "notes.txt",
		"snap-3.bin", "snap-4.bin", "snap-5.bin"}
	if got := dirNames(t, dir); !slices.Equal(got, want) {
		t.Fatalf("after sweep %v, want %v", got, want)
	}

	dir = t.TempDir()
	s, err := Create(Config{Dir: dir, SnapshotEvery: -1}, staticSnap([]byte("base")))
	if err != nil {
		t.Fatal(err)
	}
	page := func(b byte) []byte { return bytes.Repeat([]byte{b}, 200) }
	var m image
	m.add(t, s, page(1), page(2))
	if err := s.Snapshot(m.snap([]byte("e2"))); err != nil {
		t.Fatal(err)
	}
	appendPages(t, s, page(3)) // journal 2: no image names it
	if err := s.Snapshot(m.snap([]byte("e3"))); err != nil {
		t.Fatal(err)
	}
	m.add(t, s, page(4))
	s.Abandon()
	if err := os.WriteFile(journalPath(dir, 9), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := rec.Resume(Config{}, m.snap([]byte("e4")), 0)
	if err != nil {
		t.Fatal(err)
	}
	want = []string{"CURRENT", "journal-1.log", "journal-3.log", "journal-4.log", "snap-4.bin"}
	if got := dirNames(t, dir); !slices.Equal(got, want) {
		t.Fatalf("after Resume %v, want %v", got, want)
	}
	if st := s2.Stats(); st.Segments != 2 {
		t.Fatalf("stats %+v, want 2 segments", st)
	}
	s2.Abandon()
	m.requireResolves(t, dir)
}
