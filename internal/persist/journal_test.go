package persist

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"slices"
	"testing"
)

var errDiskFull = errors.New("disk full")

// halfFrameJournal wraps a store's journal file and counts its writes.
// While armed, a write lands the first half of its frames and then
// fails, as a full disk or an I/O error can; truncateErr, when set,
// makes the rollback fail too.
type halfFrameJournal struct {
	*os.File
	writes      int
	armed       bool
	truncateErr error
}

func (j *halfFrameJournal) Write(p []byte) (int, error) {
	j.writes++
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
// append that leaves half its frames behind is cut back to the last whole
// frame, so writes acknowledged after it still replay at mount. Both
// appends that write an intent are failed: the one that writes it with
// its commit, and the one that writes it alone because the next intent
// supersedes it.
func TestFailedAppendRollsBack(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(Config{Dir: dir, SnapshotEvery: -1}, staticSnap([]byte("base")))
	if err != nil {
		t.Fatal(err)
	}
	j := swapJournal(s)
	commitOne(t, s, 1)

	seq, _, err := s.AppendIntent(intentRec(0, 2, []byte{2}), nil)
	if err != nil {
		t.Fatal(err)
	}
	j.armed = true
	if err := s.AppendCommit(seq); !errors.Is(err, errDiskFull) {
		t.Fatalf("half-written intent and commit: %v, want %v", err, errDiskFull)
	}
	commitOne(t, s, 3)

	if _, _, err := s.AppendIntent(intentRec(0, 4, []byte{4}), nil); err != nil {
		t.Fatal(err)
	}
	j.armed = true
	if _, _, err := s.AppendIntent(intentRec(0, 6, []byte{6}), nil); !errors.Is(err, errDiskFull) {
		t.Fatalf("half-written superseded intent: %v, want %v", err, errDiskFull)
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
// stays the journal's torn tail. The intent's write fails once with its
// commit and once alone, superseded by the next intent.
func TestFailedRollbackLatchesStore(t *testing.T) {
	for _, tc := range []struct {
		name string
		fail func(s *Store, seq uint64) error
	}{
		{"with-commit", func(s *Store, seq uint64) error { return s.AppendCommit(seq) }},
		{"superseded", func(s *Store, _ uint64) error {
			_, _, err := s.AppendIntent(intentRec(0, 5, []byte{5}), nil)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
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

			seq, _, err := s.AppendIntent(intentRec(0, 3, []byte{3}), nil)
			if err != nil {
				t.Fatal(err)
			}
			j.armed, j.truncateErr = true, errors.New("truncate refused")
			if err := tc.fail(s, seq); !errors.Is(err, errDiskFull) {
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
		})
	}
}

// TestOneWritePerAcknowledgedWrite pins the journal's I/O shape: the
// store holds each intent until its commit and writes the two in one
// write, so n acknowledged writes cost n writes, and the journal holds
// exactly the frames appendIntent and appendCommit produce.
func TestOneWritePerAcknowledgedWrite(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(Config{Dir: dir, SnapshotEvery: -1}, staticSnap([]byte("base")))
	if err != nil {
		t.Fatal(err)
	}
	j := swapJournal(s)
	const n = 5
	var want []byte
	for i := uint64(1); i <= n; i++ {
		rec := Record{Op: OpWriteLSBGroup, LPNs: []uint64{i, i + 10}, Pages: [][]byte{{byte(i)}, {byte(i), 1}}}
		seq, _, err := s.AppendIntent(rec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AppendCommit(seq); err != nil {
			t.Fatal(err)
		}
		rec.Seq = seq
		want = appendCommit(appendIntent(want, rec), seq)
	}
	if st := s.Stats(); j.writes != n || st.JournalWrites != n || st.JournalRecords != 2*n {
		t.Fatalf("%d acknowledged writes took %d journal writes (stats %d writes, %d records), want %d, %d and %d",
			n, j.writes, st.JournalWrites, st.JournalRecords, n, n, 2*n)
	}
	s.Abandon()
	got, err := os.ReadFile(journalPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("journal holds %d bytes unlike the %d the encoders frame", len(got), len(want))
	}
}

// TestCommitNeedsHeldIntent pins that a commit lands only with the
// intent the store holds: once that intent was written alone (here by a
// rotation, as by a cut or a superseding intent), its commit is refused,
// and a commit naming another sequence writes the held intent alone.
func TestCommitNeedsHeldIntent(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(Config{Dir: dir, SnapshotEvery: -1}, staticSnap([]byte("base")))
	if err != nil {
		t.Fatal(err)
	}
	seq, _, err := s.AppendIntent(intentRec(0, 1, []byte{1}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(staticSnap([]byte("base"))); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendCommit(seq); err == nil {
		t.Fatal("commit after its intent was written alone succeeded")
	}
	seq, _, err = s.AppendIntent(intentRec(0, 2, []byte{2}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendCommit(seq + 1); err == nil {
		t.Fatal("commit of an unknown sequence succeeded")
	}
	commitOne(t, s, 3)
	s.Abandon()

	rec, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range rec.Entries() {
		got = append(got, fmt.Sprintf("%d:%t", e.Record.LPNs[0], e.Committed))
	}
	if want := []string{"2:false", "3:true"}; !slices.Equal(got, want) {
		t.Fatalf("mounted journal entries %v, want %v", got, want)
	}
}

// TestFailedWriteNamesNoPage pins why a failed intent-and-commit write
// must take its page references along: the write is cut back whole, and
// the next append lands where those references point. The image stands
// in for a device that drops them, as ssd's journaled does, then keeps
// writing, rotates and crashes; the mount must find every acknowledged
// write and resolve every page the image names.
func TestFailedWriteNamesNoPage(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(Config{Dir: dir, SnapshotEvery: -1}, staticSnap([]byte("e1")))
	if err != nil {
		t.Fatal(err)
	}
	j := swapJournal(s)
	var m image
	m.add(t, s, bytes.Repeat([]byte{1}, 100), bytes.Repeat([]byte{2}, 100))

	seq, lost, err := s.AppendIntent(intentRec(0, 9, bytes.Repeat([]byte{9}, 100)), nil)
	if err != nil {
		t.Fatal(err)
	}
	j.armed = true
	if err := s.AppendCommit(seq); !errors.Is(err, errDiskFull) {
		t.Fatalf("half-written intent and commit: %v, want %v", err, errDiskFull)
	}
	if err := s.AppendCommit(seq); err == nil {
		t.Fatal("a commit whose intent was cut back was written")
	}
	m.add(t, s, bytes.Repeat([]byte{3}, 100))
	if m.refs[2] != lost[0] {
		t.Fatalf("the next page lies at %#x, want the failed intent's %#x", uint64(m.refs[2]), uint64(lost[0]))
	}
	m.add(t, s, bytes.Repeat([]byte{4}, 100))
	if err := s.Snapshot(m.snap([]byte("e2"))); err != nil {
		t.Fatal(err)
	}
	m.add(t, s, bytes.Repeat([]byte{5}, 100))
	s.Abandon()
	requireAcked(t, dir, &m, 1)
}
