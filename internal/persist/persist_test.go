package persist

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"parabit/internal/flash"

	"parabit/internal/sim"
)

// frames concatenates framed records into a raw journal.
func frames(recs ...[]byte) []byte { return bytes.Join(recs, nil) }

func intentFrame(r Record) []byte { return appendIntent(nil, r) }

func commitFrame(seq uint64) []byte { return appendCommit(nil, seq) }

// rawFrame frames an arbitrary payload, for records the encoders never
// produce.
func rawFrame(payload []byte) []byte {
	return sealFrame(append(make([]byte, frameHeader), payload...), 0)
}

func intentRec(seq uint64, lpn uint64, page []byte) Record {
	return Record{Op: OpWrite, Seq: seq, LPNs: []uint64{lpn}, Pages: [][]byte{page}}
}

// TestScanJournalRoundTrip pins the framing: intents and commits come
// back in order with the right commit status, and an uncommitted final
// intent is reported but not committed.
func TestScanJournalRoundTrip(t *testing.T) {
	// One buffer, appended to record by record, as the store frames them.
	raw := appendIntent(nil, intentRec(1, 7, []byte("aaaa")))
	raw = appendCommit(raw, 1)
	raw = appendIntent(raw, intentRec(2, 9, []byte("bbbb")))
	entries, used, err := ScanJournal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if used != int64(len(raw)) {
		t.Fatalf("used %d of %d bytes", used, len(raw))
	}
	if len(entries) != 2 {
		t.Fatalf("got %d entries, want 2", len(entries))
	}
	if !entries[0].Committed || entries[0].Record.Seq != 1 || entries[0].Record.LPNs[0] != 7 {
		t.Fatalf("entry 0 wrong: %+v", entries[0])
	}
	if entries[1].Committed {
		t.Fatal("uncommitted intent scanned as committed")
	}
	if !bytes.Equal(entries[1].Record.Pages[0], []byte("bbbb")) {
		t.Fatalf("payload mangled: %q", entries[1].Record.Pages[0])
	}
}

// TestScanJournalTornTail pins the crash contract: an incomplete or
// checksum-failing final frame ends the scan without error, and the
// offset reports exactly where the valid prefix ends.
func TestScanJournalTornTail(t *testing.T) {
	valid := frames(intentFrame(intentRec(1, 3, []byte("page"))), commitFrame(1))
	for name, tail := range map[string][]byte{
		"truncated-header":  {0x01, 0x02},
		"truncated-payload": append([]byte{0xff, 0x00, 0x00, 0x00}, 0, 0, 0, 0),
		"bad-crc": func() []byte {
			f := commitFrame(9)
			f[len(f)-1] ^= 0x40
			return f
		}(),
		"oversized-length": {0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1, 2, 3},
	} {
		raw := append(append([]byte(nil), valid...), tail...)
		entries, used, err := ScanJournal(raw)
		if err != nil {
			t.Fatalf("%s: torn tail reported as error: %v", name, err)
		}
		if used != int64(len(valid)) {
			t.Errorf("%s: used %d, want %d", name, used, len(valid))
		}
		if len(entries) != 1 || !entries[0].Committed {
			t.Errorf("%s: valid prefix not recovered: %+v", name, entries)
		}
	}
}

// TestScanJournalRejectsNonsense pins the corruption contract: frames
// that pass their checksum but decode to nonsense are ErrCorrupt, never
// silently truncated.
func TestScanJournalRejectsNonsense(t *testing.T) {
	cases := map[string][]byte{
		"commit-without-intent": commitFrame(5),
		"non-monotonic-seq": frames(
			intentFrame(intentRec(2, 1, []byte("x"))), commitFrame(2),
			intentFrame(intentRec(2, 1, []byte("y"))),
		),
		"unknown-type": rawFrame([]byte{0x7f, 0, 0}),
		"bad-shape": intentFrame(Record{
			Op: OpWritePair, Seq: 1, LPNs: []uint64{1}, Pages: [][]byte{[]byte("z")},
		}),
		"trailing-bytes": rawFrame(append(commitFrame(1)[frameHeader:], 0xee)),
	}
	for name, raw := range cases {
		if _, _, err := ScanJournal(raw); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
}

// staticSnap returns a SnapshotWriter that always writes body.
func staticSnap(body []byte) SnapshotWriter {
	return func(w io.Writer, _ bool, _ flash.SegmentTally) (Payload, error) {
		n, err := w.Write(body)
		return Payload{Written: int64(n), Live: int64(len(body))}, err
	}
}

// TestStoreLifecycle drives a store through create, journal appends,
// rotation and close, checking the on-disk layout at each step.
func TestStoreLifecycle(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(Config{Dir: dir, SnapshotEvery: 2}, staticSnap([]byte("state-0")))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Create(Config{Dir: dir}, staticSnap(nil)); err == nil {
		t.Fatal("Create accepted a directory that already holds a store")
	}

	for i := 0; i < 3; i++ {
		seq, _, err := s.AppendIntent(intentRec(0, uint64(i), []byte{byte(i)}), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AppendCommit(seq); err != nil {
			t.Fatal(err)
		}
	}
	if !s.ShouldSnapshot() {
		t.Fatal("3 commits past SnapshotEvery=2 and ShouldSnapshot is false")
	}
	if err := s.Snapshot(staticSnap([]byte("state-1"))); err != nil {
		t.Fatal(err)
	}
	if s.ShouldSnapshot() {
		t.Fatal("ShouldSnapshot true right after a rotation")
	}
	st := s.Stats()
	if st.JournalRecords != 6 || st.Snapshots != 1 {
		t.Fatalf("stats %+v, want 6 journal records and 1 snapshot", st)
	}
	if err := s.Close(staticSnap([]byte("state-2"))); err != nil {
		t.Fatal(err)
	}

	rec, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Close rotated: epoch 3 snapshot holds state-2, journal is empty.
	if rec.Epoch() != 3 {
		t.Fatalf("epoch %d, want 3", rec.Epoch())
	}
	if !bytes.Equal(rec.Chain()[0], []byte("state-2")) {
		t.Fatalf("snapshot %q, want state-2", rec.Chain()[0])
	}
	if len(rec.Entries()) != 0 || rec.TornBytes() != 0 {
		t.Fatalf("clean close left %d entries, %d torn bytes", len(rec.Entries()), rec.TornBytes())
	}
	// Old epoch files are retired.
	for _, stale := range []string{snapPath(dir, 1), journalPath(dir, 1), snapPath(dir, 2)} {
		if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("stale file %s survived rotation", stale)
		}
	}
}

// TestResumeReplaysAndCompacts pins the mount path: an abandoned store
// (crash) reopens with its committed entries visible, uncommitted ones
// skipped, and Resume rotates to a fresh epoch and sweeps strays.
func TestResumeReplaysAndCompacts(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(Config{Dir: dir}, staticSnap([]byte("base")))
	if err != nil {
		t.Fatal(err)
	}
	seq, _, err := s.AppendIntent(intentRec(0, 1, []byte("done")), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendCommit(seq); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.AppendIntent(intentRec(0, 2, []byte("lost")), nil); err != nil {
		t.Fatal(err)
	}
	s.Abandon() // crash: no final snapshot, journal as-is
	if _, _, err := s.AppendIntent(intentRec(0, 3, nil), nil); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("append on abandoned store: %v, want ErrPowerCut", err)
	}
	// A stray .tmp from a hypothetical interrupted rotation.
	stray := filepath.Join(dir, "snap-9.bin.tmp")
	if err := os.WriteFile(stray, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	rec, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rec.Entries()); got != 2 {
		t.Fatalf("%d entries, want 2", got)
	}
	if !rec.Entries()[0].Committed || rec.Entries()[1].Committed {
		t.Fatalf("commit status wrong: %+v", rec.Entries())
	}
	s2, err := rec.Resume(Config{}, staticSnap([]byte("replayed")), 42*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	st := s2.Stats()
	if st.ReplayedRecords != 1 || st.SkippedIntents != 1 {
		t.Fatalf("recovery stats %+v, want 1 replayed / 1 skipped", st)
	}
	if st.RecoveryTime != 42*sim.Microsecond {
		t.Fatalf("recovery time %v", st.RecoveryTime)
	}
	if _, err := os.Stat(stray); !errors.Is(err, os.ErrNotExist) {
		t.Error("stray .tmp survived Resume")
	}
	if err := s2.Close(staticSnap([]byte("end"))); err != nil {
		t.Fatal(err)
	}
}

// scriptedCut fires a power cut on the n'th crossing of one boundary.
type scriptedCut struct {
	point string
	n     int
	seen  int
	dead  bool
}

func (c *scriptedCut) CutAtBoundary(point string) bool {
	if c.dead {
		return true
	}
	if point == c.point {
		c.seen++
		if c.seen == c.n {
			c.dead = true
		}
	}
	return c.dead
}

func (c *scriptedCut) PowerDead() bool { return c.dead }

// TestCutBoundaries pins the durability point against each injectable
// boundary: pre-journal leaves no bytes, post-journal leaves an
// uncommitted intent, pre-snapshot keeps the old epoch authoritative.
func TestCutBoundaries(t *testing.T) {
	t.Run(PointPreJournal, func(t *testing.T) {
		dir := t.TempDir()
		s, err := Create(Config{Dir: dir}, staticSnap([]byte("s")))
		if err != nil {
			t.Fatal(err)
		}
		s.SetCutInjector(&scriptedCut{point: PointPreJournal, n: 1})
		if _, _, err := s.AppendIntent(intentRec(0, 1, []byte("x")), nil); !errors.Is(err, ErrPowerCut) {
			t.Fatalf("got %v, want ErrPowerCut", err)
		}
		if err := s.Close(nil); err != nil {
			t.Fatal(err)
		}
		rec, err := OpenDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Entries()) != 0 {
			t.Fatalf("pre-journal cut left %d journal entries", len(rec.Entries()))
		}
	})
	t.Run(PointPostJournal, func(t *testing.T) {
		dir := t.TempDir()
		s, err := Create(Config{Dir: dir}, staticSnap([]byte("s")))
		if err != nil {
			t.Fatal(err)
		}
		s.SetCutInjector(&scriptedCut{point: PointPostJournal, n: 1})
		if _, _, err := s.AppendIntent(intentRec(0, 1, []byte("x")), nil); !errors.Is(err, ErrPowerCut) {
			t.Fatalf("got %v, want ErrPowerCut", err)
		}
		// The device is dead: the commit must be refused too.
		if err := s.AppendCommit(1); !errors.Is(err, ErrPowerCut) {
			t.Fatalf("commit on dead store: %v, want ErrPowerCut", err)
		}
		if err := s.Close(nil); err != nil {
			t.Fatal(err)
		}
		rec, err := OpenDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Entries()) != 1 || rec.Entries()[0].Committed {
			t.Fatalf("post-journal cut: %+v, want one uncommitted intent", rec.Entries())
		}
	})
	t.Run(PointPreSnapshot, func(t *testing.T) {
		dir := t.TempDir()
		s, err := Create(Config{Dir: dir, SnapshotEvery: 1}, staticSnap([]byte("old")))
		if err != nil {
			t.Fatal(err)
		}
		seq, _, err := s.AppendIntent(intentRec(0, 1, []byte("x")), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AppendCommit(seq); err != nil {
			t.Fatal(err)
		}
		s.SetCutInjector(&scriptedCut{point: PointPreSnapshot, n: 1})
		if err := s.Snapshot(staticSnap([]byte("new"))); !errors.Is(err, ErrPowerCut) {
			t.Fatalf("got %v, want ErrPowerCut", err)
		}
		if err := s.Close(nil); err != nil {
			t.Fatal(err)
		}
		rec, err := OpenDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec.Chain()[0], []byte("old")) {
			t.Fatalf("snapshot %q: the unswapped epoch must stay authoritative", rec.Chain()[0])
		}
		if len(rec.Entries()) != 1 || !rec.Entries()[0].Committed {
			t.Fatalf("journal lost across aborted rotation: %+v", rec.Entries())
		}
	})
	t.Run("retire", func(t *testing.T) {
		dir, s, m := retiringStore(t)
		if err := s.Snapshot(m.snap([]byte("e4"))); err != nil {
			t.Fatal(err)
		}
		if m.refs[3].Segment() != 3 {
			t.Fatalf("the retired segment's live page names %#x, want it carried into journal 3", uint64(m.refs[3]))
		}
		m.add(t, s, bytes.Repeat([]byte{9}, 200))
		s.Abandon()
		if _, err := os.Stat(journalPath(dir, 1)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("retired segment survived the rotation that carried its pages: %v", err)
		}
		if st := s.Stats(); st.RetiredSegments < 2 {
			t.Fatalf("stats %+v, want journals 1 and 2 retired", st)
		}
		requireAcked(t, dir, &m, 1)
	})
	t.Run("carry-then-fail", func(t *testing.T) {
		// The encoder carries the retired segment's live page forward and
		// then fails: the reference it took must still name the page once
		// a later rotation publishes it and power is lost.
		dir, s, m := retiringStore(t)
		boom := errors.New("encoder failed")
		carried := m.snap([]byte("e4"))
		failing := func(w io.Writer, delta bool, tally flash.SegmentTally) (Payload, error) {
			if _, err := carried(w, delta, tally); err != nil {
				return Payload{}, err
			}
			return Payload{}, boom
		}
		if err := s.Snapshot(failing); !errors.Is(err, boom) {
			t.Fatalf("Snapshot with a failing writer: %v, want %v", err, boom)
		}
		if m.refs[3].Segment() != 3 {
			t.Fatalf("the retired segment's live page names %#x, want it carried into journal 3", uint64(m.refs[3]))
		}
		m.add(t, s, bytes.Repeat([]byte{9}, 200))
		if err := s.Snapshot(m.snap([]byte("e4"))); err != nil {
			t.Fatal(err)
		}
		s.Abandon()
		requireAcked(t, dir, &m, 0)
	})
	t.Run(PointPreSnapshot+"-after-segment-sync", func(t *testing.T) {
		dir, s, m := retiringStore(t)
		before := image{refs: slices.Clone(m.refs), pages: m.pages}
		s.SetCutInjector(&scriptedCut{point: PointPreSnapshot, n: 1})
		if err := s.Snapshot(m.snap([]byte("e4"))); !errors.Is(err, ErrPowerCut) {
			t.Fatalf("got %v, want ErrPowerCut", err)
		}
		if err := s.Close(nil); err != nil {
			t.Fatal(err)
		}
		// The cut came after the carried page and the outgoing journal
		// were synced, but before CURRENT moved: epoch 3 stays current,
		// and the segment it names is still there.
		if _, err := os.Stat(journalPath(dir, 1)); err != nil {
			t.Fatalf("the current image's segment went with the cut rotation: %v", err)
		}
		requireAcked(t, dir, &before, 1)
	})
}

// retiringStore returns a store at epoch 3 whose image names one page
// of the four journaled in segment 1, which the last rotation therefore
// retired, and one committed write in journal 3.
func retiringStore(t *testing.T) (string, *Store, image) {
	t.Helper()
	dir := t.TempDir()
	s, err := Create(Config{Dir: dir, SnapshotEvery: -1}, staticSnap([]byte("e1")))
	if err != nil {
		t.Fatal(err)
	}
	var m image
	for b := byte(1); b <= 4; b++ {
		m.add(t, s, bytes.Repeat([]byte{b}, 200))
	}
	if err := s.Snapshot(m.snap([]byte("e2"))); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		m.drop(i)
	}
	if err := s.Snapshot(m.snap([]byte("e3"))); err != nil {
		t.Fatal(err)
	}
	if !s.segs[0].retired || s.segs[0].epoch != 1 {
		t.Fatalf("segments %+v, want segment 1 retired", s.segs)
	}
	appendPages(t, s, bytes.Repeat([]byte{5}, 200))
	return dir, s, m
}

// requireAcked mounts dir and audits every acknowledged write: the
// journal holds want committed entries, and every page the image names
// resolves to its bytes.
func requireAcked(t *testing.T, dir string, m *image, want int) {
	t.Helper()
	rec, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	committed := 0
	for _, e := range rec.Entries() {
		if e.Committed {
			committed++
		}
	}
	if committed != want {
		t.Fatalf("mount found %d committed writes, want %d", committed, want)
	}
	m.requireResolves(t, dir)
}

// TestSnapshotFileChecksum pins the container verification: flipping
// any body byte must fail the mount with ErrCorrupt.
func TestSnapshotFileChecksum(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(Config{Dir: dir}, staticSnap([]byte("payload-bytes")))
	if err != nil {
		t.Fatal(err)
	}
	s.Abandon()
	path := snapPath(dir, 1)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(snapMagic)+3] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted snapshot mounted: %v", err)
	}
}

// TestOpenDirRejectsBadCurrent covers the CURRENT pointer edge cases.
func TestOpenDirRejectsBadCurrent(t *testing.T) {
	dir := t.TempDir()
	if _, err := OpenDir(dir); err == nil {
		t.Fatal("empty directory mounted")
	}
	if err := os.WriteFile(filepath.Join(dir, currentFile), []byte("zero\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("garbage CURRENT mounted: %v", err)
	}
}

// TestRecordShapes sweeps every op's operand-count contract through the
// store, so a new op cannot land without a journal shape.
func TestRecordShapes(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(Config{Dir: dir}, staticSnap([]byte("s")))
	if err != nil {
		t.Fatal(err)
	}
	page := []byte{1}
	good := []Record{
		{Op: OpWrite, LPNs: []uint64{0}, Pages: [][]byte{page}},
		{Op: OpWriteOperand, LPNs: []uint64{0}, Pages: [][]byte{page}},
		{Op: OpWritePair, LPNs: []uint64{0, 1}, Pages: [][]byte{page, page}},
		{Op: OpWriteLSBPair, LPNs: []uint64{0, 1}, Pages: [][]byte{page, page}},
		{Op: OpWriteLSBGroup, LPNs: []uint64{0, 1, 2}, Pages: [][]byte{page, page, page}},
		{Op: OpWriteMWSGroup, LPNs: []uint64{0}, Pages: [][]byte{page}},
		{Op: OpWriteOnPlane, Plane: 3, LPNs: []uint64{0}, Pages: [][]byte{page}},
		{Op: OpWriteTriple, LPNs: []uint64{0, 1, 2}, Pages: [][]byte{page, page, page}},
		{Op: OpReclaimInternal},
	}
	for _, rec := range good {
		seq, _, err := s.AppendIntent(rec, nil)
		if err != nil {
			t.Fatalf("%s: %v", rec.Op, err)
		}
		if err := s.AppendCommit(seq); err != nil {
			t.Fatalf("%s commit: %v", rec.Op, err)
		}
	}
	bad := []Record{
		{Op: OpWrite},
		{Op: OpWritePair, LPNs: []uint64{0}, Pages: [][]byte{page}},
		{Op: OpWriteLSBGroup, LPNs: []uint64{0, 1}, Pages: [][]byte{page}},
		{Op: OpReclaimInternal, LPNs: []uint64{0}, Pages: [][]byte{page}},
		{Op: numOps, LPNs: []uint64{0}, Pages: [][]byte{page}},
	}
	for _, rec := range bad {
		if _, _, err := s.AppendIntent(rec, nil); err == nil {
			t.Errorf("malformed %s record accepted (lpns=%d pages=%d)", rec.Op, len(rec.LPNs), len(rec.Pages))
		}
	}
	if err := s.Close(staticSnap([]byte("end"))); err != nil {
		t.Fatal(err)
	}
	rec, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Entries()) != 0 {
		t.Fatalf("clean close should compact to empty journal, got %d entries", len(rec.Entries()))
	}
}

// TestAppendAllocFree pins the journal hot path: on a warm store, the
// intent and commit of an 8-page group frame into the store's reused
// buffer, return their page references in the caller's, and allocate
// nothing.
func TestAppendAllocFree(t *testing.T) {
	s, err := Create(Config{Dir: t.TempDir()}, staticSnap([]byte("s")))
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{Op: OpWriteLSBGroup, LPNs: make([]uint64, 8), Pages: make([][]byte, 8)}
	for i := range rec.Pages {
		rec.LPNs[i] = uint64(i)
		rec.Pages[i] = bytes.Repeat([]byte{byte(i)}, 256)
	}
	refs := make([]flash.PageRef, 0, len(rec.Pages))
	allocs := testing.AllocsPerRun(100, func() {
		seq, r, err := s.AppendIntent(rec, refs[:0])
		refs = r
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AppendCommit(seq); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendIntent+AppendCommit of an 8-page group: %v allocs, want 0", allocs)
	}
	if err := s.Close(staticSnap([]byte("end"))); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotFailureKeepsEpoch pins the buffered stream's error path: a
// SnapshotWriter that fails after more than a buffer's worth of bytes
// has reached the temp file surfaces its error and leaves no temp file,
// and the store stays on its epoch, keeps appending and remounts. The
// remounted store's buffer then streams a multi-buffer snapshot intact.
func TestSnapshotFailureKeepsEpoch(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(Config{Dir: dir}, staticSnap([]byte("base")))
	if err != nil {
		t.Fatal(err)
	}
	appendOne := func(s *Store, lpn uint64) {
		t.Helper()
		seq, _, err := s.AppendIntent(intentRec(0, lpn, []byte("page")), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AppendCommit(seq); err != nil {
			t.Fatal(err)
		}
	}
	appendOne(s, 1)
	boom := errors.New("encoder failed")
	chunk := make([]byte, 1<<10)
	failing := func(w io.Writer, _ bool, _ flash.SegmentTally) (Payload, error) {
		for n := 0; n <= snapBufSize; n += len(chunk) {
			if _, err := w.Write(chunk); err != nil {
				return Payload{}, err
			}
		}
		return Payload{}, boom
	}
	if err := s.Snapshot(failing); !errors.Is(err, boom) {
		t.Fatalf("Snapshot with a failing writer: %v, want %v", err, boom)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "snap-*.tmp")); len(tmps) != 0 {
		t.Fatalf("failed snapshot left %v behind", tmps)
	}
	if st := s.Stats(); st.Snapshots != 0 {
		t.Fatalf("failed snapshot counted: %+v", st)
	}
	appendOne(s, 2)
	s.Abandon()

	rec, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Epoch() != 1 || !bytes.Equal(rec.Chain()[0], []byte("base")) {
		t.Fatalf("remounted epoch %d snapshot %q, want epoch 1 %q", rec.Epoch(), rec.Chain()[0], "base")
	}
	if got := rec.Entries(); len(got) != 2 || !got[0].Committed || !got[1].Committed {
		t.Fatalf("remounted entries %+v, want 2 committed", got)
	}
	s2, err := rec.Resume(Config{}, staticSnap([]byte("resumed")), 0)
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("0123456789abcdef"), 3*snapBufSize/16+5)
	inPieces := func(w io.Writer, _ bool, _ flash.SegmentTally) (Payload, error) {
		for rest := big; len(rest) > 0; {
			n := min(len(rest), 1000)
			if _, err := w.Write(rest[:n]); err != nil {
				return Payload{}, err
			}
			rest = rest[n:]
		}
		return Payload{}, nil
	}
	if err := s2.Close(inPieces); err != nil {
		t.Fatal(err)
	}
	rec, err = OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Chain()[0], big) {
		t.Fatalf("multi-buffer snapshot came back %d bytes, want %d", len(rec.Chain()[0]), len(big))
	}
}
