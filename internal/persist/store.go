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
	"parabit/internal/telemetry"
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

// SnapshotWriter serializes the full device state into w. The store
// calls it at rotation points with the device quiesced (under the
// scheduler's mutex).
type SnapshotWriter func(w io.Writer) error

const currentFile = "CURRENT"

// Snapshot container framing.
var (
	snapMagic = []byte("PBSNAP1\n")
	snapEnd   = []byte("PBSNEND\n")
)

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
	journal    *os.File    // guarded by mu; nil after Close
	sinceSnap  int         // committed records since last rotation; guarded by mu
	nextSeq    uint64      // guarded by mu
	lastIntent uint64      // guarded by mu
	haveIntent bool        // guarded by mu
	dead       bool        // power lost; guarded by mu
	stats      Stats       // guarded by mu

	// Reused I/O buffers: frame holds the journal record being appended,
	// and snapBuf streams each rotation's snapshot body to its file.
	frame   []byte        // guarded by mu
	snapBuf *bufio.Writer // guarded by mu

	// Telemetry handles; all nil (free no-ops) until SetTelemetry runs.
	cJournalBytes *telemetry.Counter // guarded by mu
	cJournalRecs  *telemetry.Counter // guarded by mu
	cSnapshots    *telemetry.Counter // guarded by mu
	cReplayed     *telemetry.Counter // guarded by mu
	gRecoveryUS   *telemetry.Gauge   // guarded by mu
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
	if err := s.writeSnapshotFileLocked(snapPath(cfg.Dir, 1), snap); err != nil {
		return nil, err
	}
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

// SetTelemetry attaches (or, with nil sink handles, detaches) the
// persist.* telemetry lanes and seeds them with the activity so far, so
// enabling telemetry after mount still shows the recovery that happened.
func (s *Store) SetTelemetry(sink *telemetry.Sink) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cJournalBytes = sink.Counter("persist.journal.bytes")
	s.cJournalRecs = sink.Counter("persist.journal.records")
	s.cSnapshots = sink.Counter("persist.snapshots")
	s.cReplayed = sink.Counter("persist.replay.records")
	s.gRecoveryUS = sink.Gauge("persist.recovery_us")
	s.cJournalBytes.Add(s.stats.JournalBytes)
	s.cJournalRecs.Add(s.stats.JournalRecords)
	s.cSnapshots.Add(s.stats.Snapshots)
	s.cReplayed.Add(s.stats.ReplayedRecords)
	s.gRecoveryUS.Set(int64(s.stats.RecoveryTime / sim.Microsecond))
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
// in one write.
func (s *Store) writeFrameLocked() error {
	n := int64(len(s.frame))
	_, err := s.journal.Write(s.frame)
	if cap(s.frame) > maxKeptFrame {
		s.frame = nil
	}
	if err != nil {
		return fmt.Errorf("persist: journal append: %w", err)
	}
	s.stats.JournalRecords++
	s.stats.JournalBytes += n
	s.cJournalRecs.Add(1)
	s.cJournalBytes.Add(n)
	return nil
}

// AppendIntent journals the intent to execute rec and returns its
// sequence number for the matching AppendCommit. The caller must not
// have acknowledged the operation yet: a power cut here (before or
// after the bytes land) leaves the operation unacknowledged and
// recovery will not apply it.
func (s *Store) AppendIntent(rec Record) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.deadLocked() {
		return 0, ErrPowerCut
	}
	if s.journal == nil {
		return 0, fmt.Errorf("persist: store closed")
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
	if s.deadLocked() {
		return ErrPowerCut
	}
	if s.journal == nil {
		return fmt.Errorf("persist: store closed")
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
	return s.every > 0 && s.sinceSnap >= s.every && !s.dead && s.journal != nil
}

// Snapshot rotates to a fresh epoch: the device state snap serializes
// becomes the new baseline and the journal restarts empty. The caller
// must hold the device quiesced.
func (s *Store) Snapshot(snap SnapshotWriter) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return fmt.Errorf("persist: store closed")
	}
	if s.deadLocked() {
		return ErrPowerCut
	}
	return s.rotateLocked(snap)
}

// rotateLocked stages the next epoch's snapshot, consults the
// pre-snapshot cut point, then atomically swaps CURRENT over and
// retires the old epoch's files.
func (s *Store) rotateLocked(snap SnapshotWriter) error {
	next := s.epoch + 1
	tmp := snapPath(s.dir, next) + ".tmp"
	if err := s.writeSnapshotFileLocked(tmp, snap); err != nil {
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
	old := s.epoch
	var closeErr error
	if s.journal != nil {
		closeErr = s.journal.Close()
	}
	s.journal = jf
	s.epoch = next
	s.sinceSnap = 0
	s.haveIntent = false
	s.stats.Snapshots++
	s.cSnapshots.Add(1)
	if syncErr != nil {
		// The swap may not be durable: keep the old epoch's files, which
		// a host crash could make current again.
		return errors.Join(closeErr, syncErr)
	}
	// Best-effort retirement of the superseded epoch; stray files are
	// harmless and swept at the next mount.
	_ = os.Remove(snapPath(s.dir, old))
	_ = os.Remove(journalPath(s.dir, old))
	return closeErr
}

// Close shuts the store down. On a live store it takes a final
// compaction snapshot (so the next mount replays nothing) and closes
// the journal; on a power-dead store it only releases the file handle —
// the on-disk state stays exactly as the crash left it.
func (s *Store) Close(snap SnapshotWriter) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return nil
	}
	var rerr error
	if !s.deadLocked() {
		if rerr = s.rotateLocked(snap); errors.Is(rerr, ErrPowerCut) {
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
// stats (Resume calls it; the telemetry lanes pick it up on attach).
func (s *Store) noteRecovery(replayed, skipped, torn int64, horizon sim.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.ReplayedRecords = replayed
	s.stats.SkippedIntents = skipped
	s.stats.TornBytes = torn
	s.stats.RecoveryTime = horizon
}

// Recovery is the decoded on-disk state of a store directory: the
// snapshot body plus the scanned journal tail, ready for the device to
// rebuild and replay. Resume turns it into a live Store.
type Recovery struct {
	dir      string
	epoch    uint64
	snapshot []byte
	entries  []Entry
	torn     int64
}

// OpenDir reads and validates a store directory: CURRENT, the current
// epoch's checksummed snapshot, and the journal scanned up to its first
// torn frame.
func OpenDir(dir string) (*Recovery, error) {
	curBytes, err := os.ReadFile(filepath.Join(dir, currentFile))
	if err != nil {
		return nil, fmt.Errorf("persist: open %s: %w", dir, err)
	}
	epoch, err := strconv.ParseUint(strings.TrimSpace(string(curBytes)), 10, 64)
	if err != nil || epoch == 0 {
		return nil, fmt.Errorf("%w: CURRENT %q", ErrCorrupt, strings.TrimSpace(string(curBytes)))
	}
	body, err := readSnapshotFile(snapPath(dir, epoch))
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
		dir:      dir,
		epoch:    epoch,
		snapshot: body,
		entries:  entries,
		torn:     int64(len(journal)) - used,
	}, nil
}

// Snapshot returns the verified snapshot body.
func (r *Recovery) Snapshot() []byte { return r.snapshot }

// Entries returns the scanned journal records in append order.
func (r *Recovery) Entries() []Entry { return r.entries }

// TornBytes returns the length of the truncated torn tail, if any.
func (r *Recovery) TornBytes() int64 { return r.torn }

// Epoch returns the epoch the recovery was mounted from.
func (r *Recovery) Epoch() uint64 { return r.epoch }

// Resume completes a mount: with the device rebuilt and the journal
// replayed, it rotates immediately to a fresh epoch (compacting the
// replayed journal and discarding any torn tail) and returns the live
// store. replayed/skipped counts and the recovery horizon feed the
// persist.* telemetry lanes.
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
	if err := s.rotateLocked(snap); err != nil {
		return nil, err
	}
	sweepStale(s.dir, s.epoch)
	return s, nil
}

// sweepStale removes orphan .tmp files and files of retired epochs that
// a crash mid-rotation left behind.
func sweepStale(dir string, epoch uint64) {
	names, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	keepSnap := filepath.Base(snapPath(dir, epoch))
	keepJournal := filepath.Base(journalPath(dir, epoch))
	for _, de := range names {
		name := de.Name()
		if name == currentFile || name == keepSnap || name == keepJournal {
			continue
		}
		if strings.HasSuffix(name, ".tmp") ||
			strings.HasPrefix(name, "snap-") || strings.HasPrefix(name, "journal-") {
			_ = os.Remove(filepath.Join(dir, name))
		}
	}
}

// crcWriter streams a CRC32 over everything written through it.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	return n, err
}

// writeSnapshotFileLocked writes magic | body | crc32(body) | end-magic
// to path, streaming the body through s.snapBuf so the file sees whole
// buffers and the CRC runs once per flushed chunk. It syncs before
// returning so a subsequent rename publishes complete bytes, and removes
// the file on any error.
func (s *Store) writeSnapshotFileLocked(path string, snap SnapshotWriter) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("persist: write snapshot: %w", err)
	}
	cw := &crcWriter{w: f}
	s.snapBuf.Reset(cw)
	err = func() error {
		if _, err := f.Write(snapMagic); err != nil {
			return err
		}
		if err := snap(s.snapBuf); err != nil {
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
		return fmt.Errorf("persist: write snapshot: %w", errors.Join(err, cerr))
	}
	if cerr != nil {
		_ = os.Remove(path)
		return fmt.Errorf("persist: write snapshot: %w", cerr)
	}
	return nil
}

// readSnapshotFile verifies the container framing and checksum and
// returns the body.
func readSnapshotFile(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("persist: read snapshot: %w", err)
	}
	min := len(snapMagic) + 4 + len(snapEnd)
	if len(raw) < min ||
		string(raw[:len(snapMagic)]) != string(snapMagic) ||
		string(raw[len(raw)-len(snapEnd):]) != string(snapEnd) {
		return nil, fmt.Errorf("%w: snapshot framing", ErrCorrupt)
	}
	body := raw[len(snapMagic) : len(raw)-len(snapEnd)-4]
	footer := raw[len(raw)-len(snapEnd)-4 : len(raw)-len(snapEnd)]
	want := uint32(footer[0]) | uint32(footer[1])<<8 | uint32(footer[2])<<16 | uint32(footer[3])<<24
	if crc32.ChecksumIEEE(body) != want {
		return nil, fmt.Errorf("%w: snapshot checksum", ErrCorrupt)
	}
	return body, nil
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
