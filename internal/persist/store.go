package persist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

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
// reported durable, the rest marked as taken from the parent file. It
// reports the payload bytes the file carries and the payload bytes of
// the whole image, which the store's compaction rule weighs. The store
// calls it at rotation points with the device quiesced (under the
// scheduler's mutex).
type SnapshotWriter func(w io.Writer, delta bool) (Payload, error)

// Payload counts the device data behind one snapshot file.
type Payload struct {
	// Written is the payload the file itself carries.
	Written int64
	// Live is the payload of the whole image the file describes, its own
	// and what it takes from its parents.
	Live int64
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
	lastIntent uint64      // guarded by mu
	haveIntent bool        // guarded by mu
	dead       bool        // power lost; guarded by mu
	// chain lists the epochs whose snapshot files the current image is
	// spread over, oldest (a full image) first. chainPayload is the
	// payload those files carry and live the payload of the image; the
	// difference is what newer files superseded.
	chain        []uint64 // guarded by mu
	chainPayload int64    // guarded by mu
	live         int64    // guarded by mu
	// failed latches an append that could not be rolled back: the
	// journal may end in a partial frame, so nothing more is appended
	// or acknowledged. guarded by mu
	failed error
	stats  Stats // guarded by mu

	// Reused I/O buffers: frame holds the journal record being appended,
	// and snapBuf streams each rotation's snapshot body to its file.
	frame   []byte        // guarded by mu
	snapBuf *bufio.Writer // guarded by mu
}

// journalFile is the journal handle a Store appends through; *os.File
// in production.
type journalFile interface {
	io.Writer
	io.Seeker
	Truncate(size int64) error
	Close() error
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
	_, p, err := s.writeSnapshotFileLocked(snapPath(cfg.Dir, 1), snap, 0)
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

// writeFrameLocked appends the record framed in s.frame to the journal
// in one write. A failed write may leave part of the frame behind, and
// ScanJournal stops at the first bad frame, so every record appended
// after it would be lost at mount: the journal is cut back to its last
// whole frame, and if that fails too the store latches failed and
// acknowledges nothing more.
func (s *Store) writeFrameLocked() error {
	n := int64(len(s.frame))
	_, err := s.journal.Write(s.frame)
	if cap(s.frame) > maxKeptFrame {
		s.frame = nil
	}
	if err != nil {
		err = fmt.Errorf("persist: journal append: %w", err)
		if terr := s.rollbackJournalLocked(); terr != nil {
			s.failed = errors.Join(err, terr)
			return s.failed
		}
		return err
	}
	s.journalLen += n
	s.stats.JournalRecords++
	s.stats.JournalBytes += n
	return nil
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
// sequence number for the matching AppendCommit. The caller must not
// have acknowledged the operation yet: a power cut here (before or
// after the bytes land) leaves the operation unacknowledged and
// recovery will not apply it.
func (s *Store) AppendIntent(rec Record) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usableLocked(); err != nil {
		return 0, err
	}
	if s.cutLocked(PointPreJournal) {
		return 0, ErrPowerCut
	}
	if !rec.ShapeOK() {
		return 0, fmt.Errorf("persist: malformed %s record: %d lpns / %d pages",
			rec.Op, len(rec.LPNs), len(rec.Pages))
	}
	s.nextSeq++
	rec.Seq = s.nextSeq
	s.frame = appendIntent(s.frame[:0], rec)
	if err := s.writeFrameLocked(); err != nil {
		return 0, err
	}
	s.lastIntent, s.haveIntent = rec.Seq, true
	if s.cutLocked(PointPostJournal) {
		return rec.Seq, ErrPowerCut
	}
	return rec.Seq, nil
}

// AppendCommit journals the commit for an executed intent; once it
// returns nil the operation is durable and may be acknowledged. A cut
// rides the pre-journal boundary here too (the commit never lands → the
// write stays unacknowledged and unreplayed); there is no post-append
// cut because a durable commit is indistinguishable from an
// acknowledged write.
func (s *Store) AppendCommit(seq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usableLocked(); err != nil {
		return err
	}
	if s.cutLocked(PointPreJournal) {
		return ErrPowerCut
	}
	if !s.haveIntent || s.lastIntent != seq {
		return fmt.Errorf("persist: commit %d without matching intent", seq)
	}
	s.frame = appendCommit(s.frame[:0], seq)
	if err := s.writeFrameLocked(); err != nil {
		return err
	}
	s.haveIntent = false
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
// current epoch's, or a full image), consults the pre-snapshot cut
// point, then atomically swaps CURRENT over and retires the files the
// new chain no longer references.
func (s *Store) rotateLocked(snap SnapshotWriter, delta bool) error {
	next := s.epoch + 1
	tmp := snapPath(s.dir, next) + ".tmp"
	var parent uint64
	if delta {
		parent = s.epoch
	}
	size, p, err := s.writeSnapshotFileLocked(tmp, snap, parent)
	if err != nil {
		return err
	}
	if s.cutLocked(PointPreSnapshot) {
		// Power died with the new snapshot staged but not swapped in: the
		// old epoch stays authoritative, and the orphan .tmp file is swept
		// on the next mount.
		return ErrPowerCut
	}
	if err := os.Rename(tmp, snapPath(s.dir, next)); err != nil {
		return fmt.Errorf("persist: swap snapshot: %w", err)
	}
	jf, err := os.OpenFile(journalPath(s.dir, next), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("persist: rotate journal: %w", err)
	}
	if err := writeFileAtomic(filepath.Join(s.dir, currentFile), []byte(strconv.FormatUint(next, 10)+"\n")); err != nil {
		cerr := jf.Close()
		return errors.Join(err, cerr)
	}
	// CURRENT now names the next epoch, so the store follows it even if
	// the directory sync fails; the error is still reported.
	syncErr := syncDir(s.dir)
	var closeErr error
	if s.journal != nil {
		closeErr = s.journal.Close()
	}
	if syncErr == nil {
		// Best-effort retirement of the old journal and, behind a full
		// image, the old chain; stray files are harmless and swept at the
		// next mount. After a failed sync everything stays: a host crash
		// could make the old epoch current again.
		_ = os.Remove(journalPath(s.dir, s.epoch))
		if !delta {
			for _, e := range s.chain {
				_ = os.Remove(snapPath(s.dir, e))
			}
		}
	}
	s.journal = jf
	s.journalLen = 0
	s.epoch = next
	s.sinceSnap = 0
	s.haveIntent = false
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
	return errors.Join(closeErr, syncErr)
}

// Close shuts the store down. On a live store it takes a final
// compaction snapshot, a full image (so the next mount replays nothing
// and reads one file), and closes the journal; on a power-dead or
// failed store it only releases the file handle — the on-disk state
// stays exactly as the crash or failure left it, and a failed store
// reports its failure again.
func (s *Store) Close(snap SnapshotWriter) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return nil
	}
	rerr := s.failed
	if !s.deadLocked() && rerr == nil {
		if rerr = s.rotateLocked(snap, false); errors.Is(rerr, ErrPowerCut) {
			rerr = nil
		}
	}
	cerr := s.journal.Close()
	s.journal = nil
	return errors.Join(rerr, cerr)
}

// Abandon releases the journal file handle without any final snapshot
// or rotation — the on-disk state stays exactly as the last append left
// it, as after a crash. The store is dead afterwards: every further
// append fails with ErrPowerCut. Use it to simulate abrupt process
// death where Close would be too graceful.
func (s *Store) Abandon() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dead = true
	if s.journal != nil {
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
// replayed, it rotates immediately to a fresh epoch holding a full image
// (compacting the replayed journal and the snapshot chain, discarding
// any torn tail) and returns the live store. replayed/skipped counts
// and the recovery horizon land in the store's Stats.
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
	if err := s.rotateLocked(snap, false); err != nil {
		return nil, err
	}
	sweepStale(s.dir, s.epoch, s.chain)
	return s, nil
}

// sweepStale removes orphan .tmp files, journals of other epochs and
// snapshots outside chain — the files retired epochs and crashes
// mid-rotation leave behind.
func sweepStale(dir string, epoch uint64, chain []uint64) {
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
// defers to and 0 marks a full image. It streams through s.snapBuf so
// the file sees whole buffers and the CRC runs once per flushed chunk,
// syncs before returning so a subsequent rename publishes complete
// bytes, and removes the file on any error. It returns the file size
// and the payload the writer reported.
func (s *Store) writeSnapshotFileLocked(path string, snap SnapshotWriter, parent uint64) (int64, Payload, error) {
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
		if p, err = snap(s.snapBuf, parent != 0); err != nil {
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
	cerr := f.Close()
	if err != nil {
		_ = os.Remove(path)
		return 0, Payload{}, fmt.Errorf("persist: write snapshot: %w", errors.Join(err, cerr))
	}
	if cerr != nil {
		_ = os.Remove(path)
		return 0, Payload{}, fmt.Errorf("persist: write snapshot: %w", cerr)
	}
	return int64(len(snapMagic)+len(snapEnd)+4) + cw.n, p, nil
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
