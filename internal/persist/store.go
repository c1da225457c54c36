package persist

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"

	"parabit/internal/flash"
	"parabit/internal/sim"
)

// Config parameterizes a store.
type Config struct {
	// Dir is the store directory.
	Dir string
	// SnapshotEvery rotates to a fresh snapshot after this many committed
	// journal records; 0 means DefaultSnapshotEvery, negative disables
	// automatic rotation (journal grows until Close).
	SnapshotEvery int
}

// DefaultSnapshotEvery is the journal length that triggers compaction
// when Config.SnapshotEvery is zero.
const DefaultSnapshotEvery = 256

func (c Config) every() int {
	if c.SnapshotEvery == 0 {
		return DefaultSnapshotEvery
	}
	return c.SnapshotEvery
}

// SnapshotWriter serializes the device state into w: a full image, or
// with delta set only what changed since the last snapshot the store
// reported durable, the rest marked as taken from the parent file. A
// page whose bytes lie in a journal segment may be written as a
// flash.PageRef; tally sees every such reference and carries the pages
// of retiring segments forward. The writer reports the
// payload bytes the file carries and the payload bytes of the whole
// image, which the store's compaction rule weighs. The store calls it at
// rotation points with the device quiesced (under the scheduler's
// mutex).
type SnapshotWriter func(w io.Writer, delta bool, tally flash.SegmentTally) (Payload, error)

// Payload counts the device data behind one snapshot file, a page
// counting as its bytes or as its reference.
type Payload struct {
	// Written is the payload the file itself carries.
	Written int64
	// Live is the payload of the whole image the file describes, its own
	// and what it takes from its parents.
	Live int64
	// Inline is the page bytes the file carries rather than references.
	Inline int64
}

const currentFile = "CURRENT"

// Snapshot container framing. A PBSNAP2 file checksums its parent's
// epoch (0 for a full image) together with the body; a PBSNAP1 file
// holds a body only and is always a full image.
var (
	snapMagic   = []byte("PBSNAP2\n")
	snapMagicV1 = []byte("PBSNAP1\n")
	snapEnd     = []byte("PBSNEND\n")
)

// snapParentSize is the width of a PBSNAP2 file's parent epoch field.
const snapParentSize = 8

const (
	// snapBufSize is the snapshot stream buffer: encoders write field by
	// field, and the file sees one write per this many bytes.
	snapBufSize = 64 << 10
	// maxKeptFrame caps the journal frame buffer a Store keeps between
	// appends, so one huge group write does not pin its size forever.
	maxKeptFrame = 64 << 10
	// carryFrame is the size a frame of pages carried forward fills to
	// before it is written; the frame buffer keeps that capacity.
	carryFrame = 16 << 10
)

// Store is the live persistence handle of one mounted device: an open
// journal plus the rotation machinery. One Store belongs to one device
// and is driven under the scheduler's mutex, but it carries its own lock
// so that direct (sched.Exclusive-style) callers are safe too.
type Store struct {
	dir   string // immutable
	every int    // immutable; <0 disables auto rotation

	mu         sync.Mutex
	cut        CutInjector // guarded by mu
	epoch      uint64      // guarded by mu
	journal    journalFile // guarded by mu; nil after Close
	journalLen int64       // bytes of whole frames in journal; guarded by mu
	sinceSnap  int         // committed records since last rotation; guarded by mu
	nextSeq    uint64      // guarded by mu
	dead       bool        // power lost; guarded by mu
	// chain lists the epochs whose snapshot files the current image is
	// spread over, oldest (a full image) first. chainPayload is the
	// payload those files carry and live the payload of the image; the
	// difference is what newer files superseded.
	chain        []uint64 // guarded by mu
	chainPayload int64    // guarded by mu
	live         int64    // guarded by mu
	// segs lists the retained journal segments, oldest first: sealed
	// journals the current image may reference pages in.
	segs []segment // guarded by mu
	// census follows one rotation's references; reused by every one.
	census census // guarded by mu
	// ground is the file work each rotation runs beside its encoding.
	ground groundwork
	// removing counts the background batches deleting retired files;
	// gone is the batch, reused once the last one is done.
	removing sync.WaitGroup
	gone     []string // guarded by mu
	// failed latches an append that could not be rolled back: the
	// journal may end in a partial frame, so nothing more is appended
	// or acknowledged. guarded by mu
	failed error
	stats  Stats // guarded by mu

	// Reused I/O buffers: frame holds the journal frames being built, and
	// snapBuf streams each rotation's snapshot body to its file. Between
	// appends frame is empty or, with held set, holds the intent
	// AppendIntent framed: it is written with its commit, or alone before
	// anything else could land or the store could lose it
	// (flushHeldLocked).
	frame   []byte        // guarded by mu
	held    bool          // guarded by mu
	snapBuf *bufio.Writer // guarded by mu
}

// journalFile is the journal handle a Store appends through; *os.File
// in production.
type journalFile interface {
	io.Writer
	io.Seeker
	Truncate(size int64) error
	Sync() error
	Close() error
}

// segment is one journal a rotation sealed and the store keeps, because
// the image may name pages in it.
type segment struct {
	epoch uint64
	size  int64 // bytes on disk
	// retired marks a segment the image references less than half of:
	// the next rotation copies the pages it still holds forward into the
	// outgoing journal, and once that rotation's snapshot is durable the
	// file goes.
	retired bool
}

// census tallies, during one rotation's snapshot, the page bytes the
// image names in each segment; it is the flash.SegmentTally the
// SnapshotWriter reports references to.
type census struct {
	s    *Store    // whose outgoing journal takes the pages carried forward
	segs []segment // the segments the snapshot may name, oldest first
	live []int64   // page bytes it names in each
}

// reset starts a census of s over segs and then extra.
func (c *census) reset(s *Store, segs []segment, extra ...segment) {
	c.s = s
	c.segs = append(append(c.segs[:0], segs...), extra...)
	c.live = c.live[:0]
	for range c.segs {
		c.live = append(c.live, 0)
	}
}

// Tally counts n bytes named in segment seg and reports whether seg is
// retiring. A segment the store does not keep counts as retiring: its
// pages are carried forward too.
func (c *census) Tally(seg uint32, n int64) bool {
	i, found := slices.BinarySearchFunc(c.segs, uint64(seg), func(sg segment, e uint64) int {
		return cmp.Compare(sg.epoch, e)
	})
	if !found || c.segs[i].retired {
		return true
	}
	c.live[i] += n
	return false
}

// Carry copies page forward into the outgoing journal, the census's last
// segment, and returns its reference there.
func (c *census) Carry(_ flash.PageAddr, page []byte) flash.PageRef {
	//lint:ignore guardedby the census is only handed to a SnapshotWriter that a rotation calls under Store.mu
	ref := c.s.carryLocked(page)
	if ref != 0 {
		c.live[len(c.live)-1] += int64(len(page))
	}
	return ref
}

// carryLocked appends page to the frame of carried pages being built in
// s.frame, writing the frame out once it is full, and returns where the
// page will lie in the outgoing journal. It returns 0 with no journal
// open (a mount's first rotation retires nothing) or once the store has
// failed: a carried frame that does not land fails the store, because
// references to its pages were already handed out.
func (s *Store) carryLocked(page []byte) flash.PageRef {
	if s.journal == nil || s.failed != nil {
		return 0
	}
	if len(s.frame) > 0 && len(s.frame)+4+len(page) > carryFrame {
		if err := s.flushCarryLocked(); err != nil {
			return 0
		}
	}
	if len(s.frame) == 0 {
		if cap(s.frame) < carryFrame {
			s.frame = make([]byte, 0, carryFrame)
		}
		s.frame = append(s.frame, 0, 0, 0, 0, 0, 0, 0, 0, payloadPages, 0, 0, 0, 0)
	}
	s.frame = binary.LittleEndian.AppendUint32(s.frame, uint32(len(page)))
	off := s.journalLen + int64(len(s.frame))
	s.frame = append(s.frame, page...)
	count := s.frame[frameHeader+1 : frameHeader+5]
	binary.LittleEndian.PutUint32(count, binary.LittleEndian.Uint32(count)+1)
	if s.epoch > math.MaxUint32 || off > math.MaxUint32 {
		return 0
	}
	return flash.NewPageRef(uint32(s.epoch), uint32(off))
}

// flushCarryLocked writes the frame of carried pages, if any, to the
// journal; a failure fails the store.
func (s *Store) flushCarryLocked() error {
	if len(s.frame) == 0 {
		return nil
	}
	s.frame = sealFrame(s.frame, 0)
	err := s.writeFrameLocked(0)
	if err != nil && s.failed == nil {
		s.failed = err
	}
	return err
}

func newStore(cfg Config, epoch uint64) *Store {
	return &Store{
		dir:     cfg.Dir,
		every:   cfg.every(),
		epoch:   epoch,
		snapBuf: bufio.NewWriterSize(nil, snapBufSize),
	}
}

func snapPath(dir string, epoch uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%d.bin", epoch))
}

func journalPath(dir string, epoch uint64) string {
	return filepath.Join(dir, fmt.Sprintf("journal-%d.log", epoch))
}

// Create initializes a fresh store directory with an epoch-1 snapshot of
// the device's current state and an empty journal. It refuses a
// directory that already holds a store.
func Create(cfg Config, snap SnapshotWriter) (*Store, error) {
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: create %s: %w", cfg.Dir, err)
	}
	cur := filepath.Join(cfg.Dir, currentFile)
	if _, err := os.Stat(cur); err == nil {
		return nil, fmt.Errorf("persist: %s already holds a store", cfg.Dir)
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("persist: stat %s: %w", cur, err)
	}
	s := newStore(cfg, 1)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.census.reset(s, nil)
	_, p, err := s.writeSnapshotFileLocked(snapPath(cfg.Dir, 1), snap, 0, nil)
	if err != nil {
		return nil, err
	}
	s.chain, s.chainPayload, s.live = []uint64{1}, p.Written, p.Live
	jf, err := os.OpenFile(journalPath(cfg.Dir, 1), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: create journal: %w", err)
	}
	if err := writeFileAtomic(cur, []byte("1\n")); err != nil {
		cerr := jf.Close()
		return nil, errors.Join(err, cerr)
	}
	if err := syncDir(cfg.Dir); err != nil {
		cerr := jf.Close()
		return nil, errors.Join(err, cerr)
	}
	s.journal = jf
	return s, nil
}

// SetCutInjector installs (or with nil removes) the power-cut decider.
// The device wires its fault engine here when a plan with power-cut
// rules is installed.
func (s *Store) SetCutInjector(ci CutInjector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cut = ci
}

// Stats returns a copy of the persistence counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// deadLocked reports (and latches) whether power is gone, folding in
// cuts the flash-side injector fired mid-program.
func (s *Store) deadLocked() bool {
	if s.dead {
		return true
	}
	if s.cut != nil && s.cut.PowerDead() {
		s.dead = true
		return true
	}
	return false
}

// cutLocked consults the injector at one boundary and latches death.
func (s *Store) cutLocked(point string) bool {
	if s.cut != nil && s.cut.CutAtBoundary(point) {
		s.dead = true
		return true
	}
	return false
}

// writeFrameLocked appends the frames in s.frame to the journal in one
// write and empties s.frame; records counts the intents and commits
// among them. A failed write may leave part of the frames behind, and
// ScanJournal stops at the first bad frame, so every record appended
// after it would be lost at mount: the journal is cut back to its last
// whole frame, and if that fails too the store latches failed and
// acknowledges nothing more.
func (s *Store) writeFrameLocked(records int64) error {
	n := int64(len(s.frame))
	_, err := s.journal.Write(s.frame)
	s.frame = s.frame[:0]
	if cap(s.frame) > maxKeptFrame {
		s.frame = nil
	}
	s.stats.JournalWrites++
	if err != nil {
		err = fmt.Errorf("persist: journal append: %w", err)
		if terr := s.rollbackJournalLocked(); terr != nil {
			s.failed = errors.Join(err, terr)
			return s.failed
		}
		return err
	}
	s.journalLen += n
	s.stats.JournalRecords += records
	s.stats.JournalBytes += n
	return nil
}

// flushHeldLocked writes the held intent, if any, by itself: no commit
// follows it, or the store is about to lose it. Its page references name
// the bytes at the journal's end, and no other frame lands before it. A
// held intent stands for bytes the store owed the journal before power
// or the store was lost, so it is written on a dead store too.
func (s *Store) flushHeldLocked() error {
	if !s.held {
		return nil
	}
	s.held = false
	return s.writeFrameLocked(1)
}

// rollbackJournalLocked truncates the journal to its last whole frame
// and moves the write offset back there.
func (s *Store) rollbackJournalLocked() error {
	if err := s.journal.Truncate(s.journalLen); err != nil {
		return fmt.Errorf("persist: journal rollback: %w", err)
	}
	if _, err := s.journal.Seek(s.journalLen, io.SeekStart); err != nil {
		return fmt.Errorf("persist: journal rollback: %w", err)
	}
	return nil
}

// usableLocked reports why the journal cannot take an append, or nil.
func (s *Store) usableLocked() error {
	switch {
	case s.deadLocked():
		return ErrPowerCut
	case s.journal == nil:
		return fmt.Errorf("persist: store closed")
	}
	return s.failed
}

// AppendIntent journals the intent to execute rec and returns its
// sequence number for the matching AppendCommit, with refs extended by a
// reference to each of rec's pages in the journal: a snapshot may name a
// page by it once a rotation has sealed the journal into a segment. The
// intent is framed and held, not written: AppendCommit writes it and its
// commit together, and nothing else lands in between, so the references
// name where it will lie. An intent whose caller gives up on it is
// written alone first. The caller must not have acknowledged the
// operation yet: a power cut here (before or after the intent) leaves
// the operation unacknowledged and recovery will not apply it.
func (s *Store) AppendIntent(rec Record, refs []flash.PageRef) (uint64, []flash.PageRef, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.flushHeldLocked(); err != nil {
		return 0, refs, err
	}
	if err := s.usableLocked(); err != nil {
		return 0, refs, err
	}
	if s.cutLocked(PointPreJournal) {
		return 0, refs, ErrPowerCut
	}
	if !rec.ShapeOK() {
		return 0, refs, fmt.Errorf("persist: malformed %s record: %d lpns / %d pages",
			rec.Op, len(rec.LPNs), len(rec.Pages))
	}
	s.nextSeq++
	rec.Seq = s.nextSeq
	s.frame = appendIntent(s.frame[:0], rec)
	refs, _ = appendPageRefs(refs, s.epoch, s.journalLen+frameHeader, s.frame[frameHeader:])
	s.held = true
	if s.cutLocked(PointPostJournal) {
		// The cut falls after the intent's append: it lands, uncommitted.
		return rec.Seq, refs, errors.Join(ErrPowerCut, s.flushHeldLocked())
	}
	return rec.Seq, refs, nil
}

// AppendCommit journals the commit for the held intent seq, in one write
// with that intent; once it returns nil the operation is durable and may
// be acknowledged. A commit whose intent is no longer held (written
// alone by a cut, a supersede or a rotation) is refused. A cut rides the
// pre-journal boundary here too (the commit never lands → the write
// stays unacknowledged and unreplayed); there is no post-append cut
// because a durable commit is indistinguishable from an acknowledged
// write. A commit that fails its checks or is cut leaves the held intent
// written alone. A failed write is cut back whole, the intent with it:
// the references AppendIntent returned then name no journal bytes, and
// the caller must not hand them to a snapshot.
func (s *Store) AppendCommit(seq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.usableLocked()
	if err == nil && s.cutLocked(PointPreJournal) {
		err = ErrPowerCut
	}
	if err == nil && (!s.held || s.nextSeq != seq) {
		err = fmt.Errorf("persist: commit %d without matching intent", seq)
	}
	if err != nil {
		return errors.Join(err, s.flushHeldLocked())
	}
	s.held = false
	s.frame = appendCommit(s.frame, seq)
	if err := s.writeFrameLocked(2); err != nil {
		return err
	}
	s.sinceSnap++
	return nil
}

// ShouldSnapshot reports whether the journal has grown past the
// rotation threshold.
func (s *Store) ShouldSnapshot() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.every > 0 && s.sinceSnap >= s.every && !s.dead && s.failed == nil && s.journal != nil
}

// Snapshot rotates to a fresh epoch: the device state snap serializes
// becomes the new baseline and the journal restarts empty. The file is a
// delta against the current epoch's unless the compaction rule calls for
// a full image. A nil return means the new snapshot is durable and the
// next delta is taken against it. The caller must hold the device
// quiesced.
func (s *Store) Snapshot(snap SnapshotWriter) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.flushHeldLocked(); err != nil {
		return err
	}
	if err := s.usableLocked(); err != nil {
		return err
	}
	return s.rotateLocked(snap, s.deltaDueLocked())
}

// deltaDueLocked is the compaction rule: a rotation writes a delta
// unless the payload the chain's files hold but newer files superseded
// exceeds the payload the chain still supplies.
func (s *Store) deltaDueLocked() bool {
	return len(s.chain) > 0 && s.chainPayload-s.live <= s.live
}

// rotateLocked stages the next epoch's snapshot (a delta against the
// current epoch's, or a full image), sealing the outgoing journal into a
// segment on the way, consults the pre-snapshot cut point, then
// atomically swaps CURRENT over and retires the files the new epoch no
// longer references: the segments its image names none of, and behind a
// full image the old chain. The syncs run side by side, every one done
// before CURRENT moves: the outgoing journal's and the staged CURRENT's
// beside the snapshot's encoding, and the snapshot file's beside the
// sync of the pages the encoding carried into the journal.
func (s *Store) rotateLocked(snap SnapshotWriter, delta bool) error {
	next := s.epoch + 1
	g := &s.ground
	g.reset()
	if s.journal != nil {
		s.census.reset(s, s.segs, segment{epoch: s.epoch, size: s.journalLen})
	} else {
		s.census.reset(s, s.segs)
	}
	g.wg.Add(2)
	go g.openJournal(s.dir, s.journal, next)
	cur := filepath.Join(s.dir, currentFile)
	curTmp := cur + ".tmp"
	go g.stageCurrent(curTmp, next)
	final := snapPath(s.dir, next)
	tmp := final + ".tmp"
	var parent uint64
	if delta {
		parent = s.epoch
	}
	size, p, err := s.writeSnapshotFileLocked(tmp, snap, parent, g)
	gerr := g.wait()
	jf := g.next
	if gerr != nil {
		if err == nil {
			_ = os.Remove(tmp)
		}
		err = errors.Join(err, fmt.Errorf("persist: rotate: %w", gerr))
	}
	if err == nil && s.cutLocked(PointPreSnapshot) {
		// Power died with the new snapshot staged but not swapped in: the
		// old epoch stays authoritative, and the orphan files are swept
		// on the next mount.
		err = ErrPowerCut
	}
	if err == nil {
		if err = os.Rename(tmp, final); err != nil {
			err = fmt.Errorf("persist: swap snapshot: %w", err)
		} else if err = os.Rename(curTmp, cur); err != nil {
			err = fmt.Errorf("persist: publish %s: %w", cur, err)
		}
	}
	if err != nil {
		if jf != nil {
			err = errors.Join(err, jf.Close())
		}
		return err
	}
	// CURRENT now names the next epoch, so the store follows it even if
	// the directory sync fails; the error is still reported.
	syncErr := syncDir(s.dir)
	var closeErr error
	if s.journal != nil {
		closeErr = s.journal.Close()
	}
	// Retire what the new epoch no longer names: segments, and behind a
	// full image the old chain. After a failed sync everything stays: a
	// host crash could make the old epoch current again.
	s.removing.Wait()
	gone := s.keepSegmentsLocked(s.gone[:0], syncErr == nil)
	if syncErr == nil && !delta {
		for _, e := range s.chain {
			gone = append(gone, snapPath(s.dir, e))
		}
	}
	s.gone = gone
	if len(gone) > 0 {
		s.removing.Add(1)
		go removeAll(&s.removing, gone)
	}
	s.journal = jf
	s.journalLen = 0
	s.epoch = next
	s.sinceSnap = 0
	if delta {
		s.chain = append(s.chain, next)
		s.chainPayload += p.Written
	} else {
		s.chain = append(s.chain[:0], next)
		s.chainPayload = p.Written
		s.stats.FullSnapshots++
	}
	s.live = p.Live
	s.stats.Snapshots++
	s.stats.SnapshotBytes += size
	s.stats.InlineBytes += p.Inline
	return errors.Join(closeErr, syncErr)
}

// keepSegmentsLocked applies a published rotation's census: a segment
// its image names none of (a retired one's pages were carried forward,
// so the census counts none) is appended to gone when durable is set
// (the new CURRENT is durable), and retired otherwise; a segment the
// image names less than half of is retired, so the next rotation carries
// its pages forward.
func (s *Store) keepSegmentsLocked(gone []string, durable bool) []string {
	kept := s.segs[:0]
	for i, sg := range s.census.segs {
		live := s.census.live[i]
		if durable && live == 0 {
			gone = append(gone, journalPath(s.dir, sg.epoch))
			s.stats.RetiredSegments++
			continue
		}
		sg.retired = sg.retired || live == 0 || 2*live < sg.size
		kept = append(kept, sg)
	}
	s.segs = kept
	s.stats.Segments, s.stats.SegmentBytes = int64(len(kept)), 0
	for _, sg := range kept {
		s.stats.SegmentBytes += sg.size
	}
	return gone
}

// removeAll deletes paths, files no durable epoch names any more, off
// the write path, and marks done. A removal that fails or never runs
// leaves a stray file the next mount sweeps.
func removeAll(done *sync.WaitGroup, paths []string) {
	defer done.Done()
	for _, p := range paths {
		_ = os.Remove(p)
	}
}

// Close shuts the store down. On a live store it takes a final
// compaction snapshot, a full image that retires every segment (so the
// next mount replays nothing and reads the image and one segment: the
// final journal, which the live pages are carried into), and closes the
// journal; on a power-dead or failed store it only writes a held intent
// and releases the file handle — the on-disk state stays exactly as the
// crash or failure left it, and a failed store reports its failure
// again.
func (s *Store) Close(snap SnapshotWriter) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.removing.Wait()
	if s.journal == nil {
		return nil
	}
	rerr := s.flushHeldLocked()
	if s.failed != nil {
		rerr = s.failed
	} else if !s.deadLocked() {
		for i := range s.segs {
			s.segs[i].retired = true
		}
		err := s.rotateLocked(snap, false)
		if errors.Is(err, ErrPowerCut) {
			err = nil
		}
		rerr = errors.Join(rerr, err)
	}
	cerr := s.journal.Close()
	s.journal = nil
	return errors.Join(rerr, cerr)
}

// Abandon writes a held intent and releases the journal file handle
// without any final snapshot or rotation — the on-disk state stays
// exactly as the last append left it, as after a crash. The store is
// dead afterwards: every further append fails with ErrPowerCut. Use it
// to simulate abrupt process death where Close would be too graceful.
func (s *Store) Abandon() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.removing.Wait()
	s.dead = true
	if s.journal != nil {
		_ = s.flushHeldLocked()
		_ = s.journal.Close()
		s.journal = nil
	}
}

// noteRecovery folds mount-time replay accounting into the store's
// stats (Resume calls it).
func (s *Store) noteRecovery(replayed, skipped, torn int64, horizon sim.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.ReplayedRecords = replayed
	s.stats.SkippedIntents = skipped
	s.stats.TornBytes = torn
	s.stats.RecoveryTime = horizon
}

// Recovery is the decoded on-disk state of a store directory: the
// snapshot chain plus the scanned journal tail, ready for the device to
// rebuild and replay. Resume turns it into a live Store.
type Recovery struct {
	dir     string
	epoch   uint64
	chain   [][]byte // snapshot bodies, newest first
	entries []Entry
	torn    int64
	// segments holds the segments ResolvePage has read, by epoch.
	segments map[uint32]*segmentIndex
}

// segmentIndex is one segment file read at mount: its bytes and the
// offsets of the page payloads in its checksummed intent frames,
// ascending.
type segmentIndex struct {
	raw   []byte
	pages []uint32
}

// OpenDir reads and validates a store directory: CURRENT, the current
// epoch's checksummed snapshot and every older snapshot its chain names
// back to a full image, and the journal scanned up to its first torn
// frame. A chain member that is missing or fails its checksum is
// ErrCorrupt.
func OpenDir(dir string) (*Recovery, error) {
	curBytes, err := os.ReadFile(filepath.Join(dir, currentFile))
	if err != nil {
		return nil, fmt.Errorf("persist: open %s: %w", dir, err)
	}
	epoch, err := strconv.ParseUint(strings.TrimSpace(string(curBytes)), 10, 64)
	if err != nil || epoch == 0 {
		return nil, fmt.Errorf("%w: CURRENT %q", ErrCorrupt, strings.TrimSpace(string(curBytes)))
	}
	chain, err := readChain(dir, epoch)
	if err != nil {
		return nil, err
	}
	journal, err := os.ReadFile(journalPath(dir, epoch))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("persist: read journal: %w", err)
	}
	entries, used, err := ScanJournal(journal)
	if err != nil {
		return nil, err
	}
	for i := range entries {
		if e := &entries[i]; e.Committed {
			n := int64(binary.LittleEndian.Uint32(journal[e.off-frameHeader:]))
			e.Refs, _ = appendPageRefs(nil, epoch, e.off, journal[e.off:e.off+n])
		}
	}
	return &Recovery{
		dir:     dir,
		epoch:   epoch,
		chain:   chain,
		entries: entries,
		torn:    int64(len(journal)) - used,
	}, nil
}

// readChain reads the snapshot of epoch and its ancestors, newest first,
// up to the full image that ends the chain. Parents must be strictly
// older, so a corrupt parent field cannot loop.
func readChain(dir string, epoch uint64) ([][]byte, error) {
	var chain [][]byte
	for e := epoch; ; {
		parent, body, err := readSnapshotFile(snapPath(dir, e))
		if err != nil {
			return nil, err
		}
		chain = append(chain, body)
		if parent == 0 {
			return chain, nil
		}
		if parent >= e {
			return nil, fmt.Errorf("%w: snapshot %d names parent %d", ErrCorrupt, e, parent)
		}
		e = parent
	}
}

// ResolvePage returns the page payload ref names, reading and indexing
// its segment on first use. The payload must start a page in one of the
// segment's checksummed intent frames; a missing segment, or one that
// holds no such page at the offset, is ErrCorrupt naming the segment.
func (r *Recovery) ResolvePage(ref flash.PageRef) ([]byte, error) {
	seg := ref.Segment()
	ix, ok := r.segments[seg]
	if !ok {
		var err error
		if ix, err = readSegment(r.dir, seg); err != nil {
			return nil, err
		}
		if r.segments == nil {
			r.segments = make(map[uint32]*segmentIndex)
		}
		r.segments[seg] = ix
	}
	off := ref.Offset()
	if _, found := slices.BinarySearch(ix.pages, off); !found {
		return nil, fmt.Errorf("%w: segment %s holds no page at offset %d",
			ErrCorrupt, filepath.Base(journalPath(r.dir, uint64(seg))), off)
	}
	n := binary.LittleEndian.Uint32(ix.raw[off-4:])
	return ix.raw[off : off+n], nil
}

// readSegment reads the segment of epoch seg and indexes the pages of
// its intent frames up to the first frame that fails its checksum.
func readSegment(dir string, seg uint32) (*segmentIndex, error) {
	path := journalPath(dir, uint64(seg))
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: segment %s missing", ErrCorrupt, filepath.Base(path))
	}
	if err != nil {
		return nil, fmt.Errorf("persist: read segment %s: %w", filepath.Base(path), err)
	}
	// A page payload takes at least its own length prefix and bytes.
	ix := &segmentIndex{raw: raw, pages: make([]uint32, 0, len(raw)/256)}
	var refs []flash.PageRef
	for off := 0; ; {
		payload, n, ok := nextFrame(raw[off:])
		if !ok {
			break
		}
		if refs, ok = appendPageRefs(refs[:0], uint64(seg), int64(off+frameHeader), payload); ok {
			for _, ref := range refs {
				if ref != 0 {
					ix.pages = append(ix.pages, ref.Offset())
				}
			}
		}
		off += n
	}
	return ix, nil
}

// Chain returns the verified snapshot bodies of the current image,
// newest first; the last is a full image and each other body is a delta
// against the one after it.
func (r *Recovery) Chain() [][]byte { return r.chain }

// Entries returns the scanned journal records in append order.
func (r *Recovery) Entries() []Entry { return r.entries }

// TornBytes returns the length of the truncated torn tail, if any.
func (r *Recovery) TornBytes() int64 { return r.torn }

// Epoch returns the epoch the recovery was mounted from.
func (r *Recovery) Epoch() uint64 { return r.epoch }

// Resume completes a mount: with the device rebuilt and the journal
// replayed, it seals the replayed journal into a segment and rotates
// immediately to a fresh epoch holding a full image (compacting the
// snapshot chain, discarding any torn tail from the journal's future)
// and returns the live store. Every journal of the mounted epoch or an
// older one is a segment the image may name; the rotation's census keeps
// those it does and deletes the rest. replayed/skipped counts and the
// recovery horizon land in the store's Stats.
func (r *Recovery) Resume(cfg Config, snap SnapshotWriter, horizon sim.Duration) (*Store, error) {
	if cfg.Dir == "" {
		cfg.Dir = r.dir
	}
	s := newStore(cfg, r.epoch)
	var replayed, skipped int64
	for _, e := range r.entries {
		if e.Committed {
			replayed++
		} else {
			skipped++
		}
	}
	s.noteRecovery(replayed, skipped, r.torn, horizon)
	s.mu.Lock()
	defer s.mu.Unlock()
	segs, err := listSegments(s.dir, r.epoch)
	if err != nil {
		return nil, err
	}
	if err := syncFile(journalPath(s.dir, r.epoch)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("persist: sync segment %d: %w", r.epoch, err)
	}
	s.segs = segs
	if err := s.rotateLocked(snap, false); err != nil {
		return nil, err
	}
	sweepStale(s.dir, s.epoch, s.chain, s.segs)
	return s, nil
}

// listSegments returns the journals in dir of epoch at most epoch, the
// journals a mount of that epoch may find referenced, oldest first.
func listSegments(dir string, epoch uint64) ([]segment, error) {
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("persist: list %s: %w", dir, err)
	}
	var segs []segment
	for _, de := range names {
		e, ok := journalEpoch(de.Name())
		if !ok || e > epoch {
			continue
		}
		info, err := de.Info()
		if errors.Is(err, os.ErrNotExist) {
			continue // removed since the listing: no epoch names it
		}
		if err != nil {
			return nil, fmt.Errorf("persist: stat %s: %w", de.Name(), err)
		}
		segs = append(segs, segment{epoch: e, size: info.Size()})
	}
	slices.SortFunc(segs, func(a, b segment) int { return cmp.Compare(a.epoch, b.epoch) })
	return segs, nil
}

// journalEpoch parses the epoch out of a journal file name.
func journalEpoch(name string) (uint64, bool) {
	num, hasPrefix := strings.CutPrefix(name, "journal-")
	num, hasSuffix := strings.CutSuffix(num, ".log")
	if !hasPrefix || !hasSuffix {
		return 0, false
	}
	e, err := strconv.ParseUint(num, 10, 64)
	return e, err == nil && e > 0
}

// sweepStale removes orphan .tmp files, snapshots outside chain and
// journals that are neither the current epoch's nor a kept segment —
// the files retired epochs and crashes mid-rotation leave behind.
func sweepStale(dir string, epoch uint64, chain []uint64, segs []segment) {
	names, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	keep := map[string]bool{
		currentFile:                            true,
		filepath.Base(journalPath(dir, epoch)): true,
	}
	for _, e := range chain {
		keep[filepath.Base(snapPath(dir, e))] = true
	}
	for _, sg := range segs {
		keep[filepath.Base(journalPath(dir, sg.epoch))] = true
	}
	for _, de := range names {
		name := de.Name()
		if keep[name] {
			continue
		}
		if strings.HasSuffix(name, ".tmp") ||
			strings.HasPrefix(name, "snap-") || strings.HasPrefix(name, "journal-") {
			_ = os.Remove(filepath.Join(dir, name))
		}
	}
}

// groundwork is the file work of a rotation that needs nothing from
// the snapshot's encoding and runs beside it, each task in a goroutine
// of its own: syncing the outgoing journal and creating the next one,
// staging CURRENT, and later syncing the pages the encoding carried.
// The rotation waits for all of it before CURRENT moves. A Store keeps
// one and resets it per rotation.
type groundwork struct {
	wg sync.WaitGroup
	// next is the next epoch's journal, and err the error of each task,
	// in the order above; each is written by its task alone and read
	// once wg is done.
	next *os.File
	err  [3]error
}

func (g *groundwork) reset() {
	g.next, g.err = nil, [3]error{}
}

// openJournal syncs the outgoing journal j, if any, whose pages the
// snapshot may name, and creates the journal of epoch next.
func (g *groundwork) openJournal(dir string, j journalFile, next uint64) {
	defer g.wg.Done()
	if j != nil {
		if err := j.Sync(); err != nil {
			g.err[0] = fmt.Errorf("persist: sync segment %d: %w", next-1, err)
			return
		}
	}
	f, err := os.OpenFile(journalPath(dir, next), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		g.err[0] = fmt.Errorf("persist: rotate journal: %w", err)
		return
	}
	g.next = f
}

// stageCurrent writes and syncs tmp, the file that replaces CURRENT,
// naming epoch next.
func (g *groundwork) stageCurrent(tmp string, next uint64) {
	defer g.wg.Done()
	var b [24]byte
	if err := writeSynced(tmp, append(strconv.AppendUint(b[:0], next, 10), '\n')); err != nil {
		g.err[1] = fmt.Errorf("persist: write %s: %w", tmp, err)
	}
}

// syncCarried syncs the outgoing journal j of the given epoch once more,
// after the encoding carried pages into it.
func (g *groundwork) syncCarried(j journalFile, epoch uint64) {
	defer g.wg.Done()
	if err := j.Sync(); err != nil {
		g.err[2] = fmt.Errorf("persist: sync segment %d: %w", epoch, err)
	}
}

// wait waits for the rotation's groundwork and returns its errors.
func (g *groundwork) wait() error {
	g.wg.Wait()
	return errors.Join(g.err[:]...)
}

// crcWriter streams a CRC32 over everything written through it and
// counts the bytes.
type crcWriter struct {
	w   io.Writer
	crc uint32
	n   int64
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	c.n += int64(n)
	return n, err
}

// writeSnapshotFileLocked writes magic | parent | body | crc32(parent,
// body) | end-magic to path, where parent is the epoch a delta body
// defers to and 0 marks a full image, and seals the outgoing journal
// into g once the body is encoded. It streams through s.snapBuf so the
// file sees whole buffers and the CRC runs once per flushed chunk, syncs
// before returning so a subsequent rename publishes complete bytes, and
// removes the file on any error. It returns the file size and the
// payload the writer reported.
func (s *Store) writeSnapshotFileLocked(path string, snap SnapshotWriter, parent uint64, g *groundwork) (int64, Payload, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, Payload{}, fmt.Errorf("persist: write snapshot: %w", err)
	}
	cw := &crcWriter{w: f}
	s.snapBuf.Reset(cw)
	var p Payload
	err = func() error {
		if _, err := f.Write(snapMagic); err != nil {
			return err
		}
		var hdr [snapParentSize]byte
		binary.LittleEndian.PutUint64(hdr[:], parent)
		if _, err := s.snapBuf.Write(hdr[:]); err != nil {
			return err
		}
		var err error
		if p, err = snap(s.snapBuf, parent != 0, &s.census); err != nil {
			// The encoding may have handed out references into the
			// frame of carried pages still being built: it must land
			// before anything else is appended, or the store fails.
			return errors.Join(err, s.flushCarryLocked())
		}
		if err := s.sealJournalLocked(g); err != nil {
			return err
		}
		if err := s.snapBuf.Flush(); err != nil {
			return err
		}
		var tail [4]byte
		binary.LittleEndian.PutUint32(tail[:], cw.crc)
		if _, err := f.Write(append(tail[:], snapEnd...)); err != nil {
			return err
		}
		return f.Sync()
	}()
	s.snapBuf.Reset(nil)
	if err = errors.Join(err, f.Close()); err != nil {
		_ = os.Remove(path)
		return 0, Payload{}, fmt.Errorf("persist: write snapshot: %w", err)
	}
	return int64(len(snapMagic)+len(snapEnd)+4) + cw.n, p, nil
}

// sealJournalLocked makes the outgoing journal, which the snapshot being
// written may name pages in, a segment: the pages the encoding carried
// into it land, and when there were any, one more sync of it joins g.
// The census records the segment's final size.
func (s *Store) sealJournalLocked(g *groundwork) error {
	if s.journal == nil {
		return nil
	}
	if err := s.flushCarryLocked(); err != nil {
		return err
	}
	if s.failed != nil {
		return s.failed
	}
	if seg := &s.census.segs[len(s.census.segs)-1]; seg.size != s.journalLen {
		seg.size = s.journalLen
		g.wg.Add(1)
		go g.syncCarried(s.journal, s.epoch)
	}
	return nil
}

// readSnapshotFile verifies the container framing and checksum and
// returns the parent epoch (0 for a full image) and the body. A missing
// file is ErrCorrupt: CURRENT or a newer chain member names it.
func readSnapshotFile(path string) (uint64, []byte, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil, fmt.Errorf("%w: snapshot %s missing", ErrCorrupt, filepath.Base(path))
	}
	if err != nil {
		return 0, nil, fmt.Errorf("persist: read snapshot: %w", err)
	}
	hdr := 0
	switch {
	case len(raw) < len(snapMagic):
	case string(raw[:len(snapMagic)]) == string(snapMagic):
		hdr = snapParentSize
	case string(raw[:len(snapMagicV1)]) == string(snapMagicV1):
	default:
		return 0, nil, fmt.Errorf("%w: snapshot framing", ErrCorrupt)
	}
	if len(raw) < len(snapMagic)+hdr+4+len(snapEnd) ||
		string(raw[len(raw)-len(snapEnd):]) != string(snapEnd) {
		return 0, nil, fmt.Errorf("%w: snapshot framing", ErrCorrupt)
	}
	sealed := raw[len(snapMagic) : len(raw)-len(snapEnd)-4]
	footer := raw[len(raw)-len(snapEnd)-4 : len(raw)-len(snapEnd)]
	if crc32.ChecksumIEEE(sealed) != binary.LittleEndian.Uint32(footer) {
		return 0, nil, fmt.Errorf("%w: snapshot checksum", ErrCorrupt)
	}
	var parent uint64
	if hdr > 0 {
		parent = binary.LittleEndian.Uint64(sealed[:hdr])
	}
	return parent, sealed[hdr:], nil
}

// writeFileAtomic writes data to path via a synced temporary file and
// rename. The caller syncs the directory (syncDir) to make the rename
// itself survive a host crash.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := writeSynced(tmp, data); err != nil {
		return fmt.Errorf("persist: write %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("persist: publish %s: %w", path, err)
	}
	return nil
}

// writeSynced creates path holding data and syncs it.
func writeSynced(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	return errors.Join(err, f.Close())
}

// syncFile syncs the file at path.
func syncFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	return errors.Join(f.Sync(), f.Close())
}

// syncDir syncs a directory, making the renames and creations in it
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("persist: sync %s: %w", dir, err)
	}
	if err := errors.Join(d.Sync(), d.Close()); err != nil {
		return fmt.Errorf("persist: sync %s: %w", dir, err)
	}
	return nil
}
