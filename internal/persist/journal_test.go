package persist

import (
	"errors"
	"os"
	"slices"
	"testing"
)

var errDiskFull = errors.New("disk full")

// halfFrameJournal wraps a store's journal file. While armed, a write
// lands the first half of its frame and then fails, as a full disk or an
// I/O error can; truncateErr, when set, makes the rollback fail too.
type halfFrameJournal struct {
	*os.File
	armed       bool
	truncateErr error
}

func (j *halfFrameJournal) Write(p []byte) (int, error) {
	if !j.armed {
		return j.File.Write(p)
	}
	j.armed = false
	n, err := j.File.Write(p[:len(p)/2])
	if err != nil {
		return n, err
	}
	return n, errDiskFull
}

func (j *halfFrameJournal) Truncate(size int64) error {
	if j.truncateErr != nil {
		return j.truncateErr
	}
	return j.File.Truncate(size)
}

// swapJournal installs a halfFrameJournal over the store's open journal.
func swapJournal(s *Store) *halfFrameJournal {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := &halfFrameJournal{File: s.journal.(*os.File)}
	s.journal = j
	return j
}

// commitOne journals and commits one single-page write of lpn.
func commitOne(t *testing.T, s *Store, lpn uint64) {
	t.Helper()
	seq, _, err := s.AppendIntent(intentRec(0, lpn, []byte{byte(lpn)}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendCommit(seq); err != nil {
		t.Fatal(err)
	}
}

// committedLPNs mounts dir and returns the LPNs of its committed records
// in journal order, with the torn byte count.
func committedLPNs(t *testing.T, dir string) ([]uint64, int64) {
	t.Helper()
	rec, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var lpns []uint64
	for _, e := range rec.Entries() {
		if e.Committed {
			lpns = append(lpns, e.Record.LPNs[0])
		}
	}
	return lpns, rec.TornBytes()
}

// TestFailedAppendRollsBack pins the journal's failed-append path: an
// append that leaves half a frame behind is cut back to the last whole
// frame, so writes acknowledged after it still replay at mount. Both an
// intent and a commit append are failed.
func TestFailedAppendRollsBack(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(Config{Dir: dir, SnapshotEvery: -1}, staticSnap([]byte("base")))
	if err != nil {
		t.Fatal(err)
	}
	j := swapJournal(s)
	commitOne(t, s, 1)

	j.armed = true
	if _, _, err := s.AppendIntent(intentRec(0, 2, []byte{2}), nil); !errors.Is(err, errDiskFull) {
		t.Fatalf("half-written intent: %v, want %v", err, errDiskFull)
	}
	commitOne(t, s, 3)

	seq, _, err := s.AppendIntent(intentRec(0, 4, []byte{4}), nil)
	if err != nil {
		t.Fatal(err)
	}
	j.armed = true
	if err := s.AppendCommit(seq); !errors.Is(err, errDiskFull) {
		t.Fatalf("half-written commit: %v, want %v", err, errDiskFull)
	}
	commitOne(t, s, 5)
	s.Abandon()

	lpns, torn := committedLPNs(t, dir)
	if want := []uint64{1, 3, 5}; !slices.Equal(lpns, want) || torn != 0 {
		t.Fatalf("mounted committed lpns %v with %d torn bytes, want %v and 0", lpns, torn, want)
	}
}

// TestFailedRollbackLatchesStore pins the fallback: when the journal
// cannot be cut back, the store acknowledges nothing more — appends,
// rotation and Close all report the failure — and the partial frame
// stays the journal's torn tail.
func TestFailedRollbackLatchesStore(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(Config{Dir: dir, SnapshotEvery: 1}, staticSnap([]byte("base")))
	if err != nil {
		t.Fatal(err)
	}
	commitOne(t, s, 1)
	if err := s.Snapshot(staticSnap([]byte("epoch-2"))); err != nil {
		t.Fatal(err)
	}
	j := swapJournal(s)
	commitOne(t, s, 2)

	j.armed, j.truncateErr = true, errors.New("truncate refused")
	if _, _, err := s.AppendIntent(intentRec(0, 3, []byte{3}), nil); !errors.Is(err, errDiskFull) {
		t.Fatalf("half-written intent: %v, want %v", err, errDiskFull)
	}
	if _, _, err := s.AppendIntent(intentRec(0, 4, []byte{4}), nil); !errors.Is(err, j.truncateErr) {
		t.Fatalf("append on a failed store: %v, want the latched failure", err)
	}
	if s.ShouldSnapshot() {
		t.Fatal("a failed store asks for a rotation")
	}
	if err := s.Snapshot(staticSnap([]byte("epoch-3"))); !errors.Is(err, j.truncateErr) {
		t.Fatalf("Snapshot on a failed store: %v, want the latched failure", err)
	}
	if err := s.Close(staticSnap([]byte("closed"))); !errors.Is(err, j.truncateErr) {
		t.Fatalf("Close on a failed store: %v, want the latched failure", err)
	}

	rec, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Epoch() != 2 {
		t.Fatalf("failed store rotated to epoch %d, want 2", rec.Epoch())
	}
	lpns, torn := committedLPNs(t, dir)
	if !slices.Equal(lpns, []uint64{2}) || torn == 0 {
		t.Fatalf("mounted committed lpns %v with %d torn bytes, want [2] and a torn tail", lpns, torn)
	}
}
