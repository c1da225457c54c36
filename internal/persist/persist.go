// Package persist is the crash-consistent on-disk store for the
// simulated SSD: a CRC-framed write-ahead journal plus periodic
// snapshots, with a mount-time recovery path that replays the journal
// tail on top of the last snapshot.
//
// # Durability contract
//
// Every host write journals an intent record (the operation and its
// payload) and, once the device reports success, a commit record; only
// after both land is the write acknowledged. The store holds the intent
// until its commit and appends the two in one write: the device is
// rebuilt from the journal at every mount, so nothing needs the intent
// on disk before the device executes it. An intent no commit follows is
// written alone before anything else lands or the store could lose it,
// so the journal a mount reads holds the same bytes as if every record
// were written as it was made. Recovery
// applies exactly the committed intents, in order, so an acknowledged
// write is always recovered byte-for-byte and an unacknowledged one is
// never silently resurrected — a remounted read of it fails explicitly.
// A torn final record (the append a crash interrupted) is truncated,
// not fatal: by construction it can only belong to an unacknowledged
// operation.
//
// The contract covers a process crash, which the injected power cuts
// model: every append made before the crash is in the journal file.
// Journal appends are written but not fsynced as they happen, so a host
// crash or power loss can lose acknowledged writes: exactly the journal
// tail appended since the last completed rotation. A rotation syncs the
// journal it seals, its snapshot and CURRENT, then the store directory,
// so everything a published epoch names survives a host crash.
//
// # On-disk layout
//
// A store directory holds one current epoch: CURRENT (the epoch
// number), snap-<epoch>.bin (a checksummed snapshot) and
// journal-<epoch>.log (records since that snapshot), plus the journal
// segments the snapshot names pages in. When the journal grows past the
// configured length the store writes the next epoch's snapshot to a
// temporary file, atomically renames it and CURRENT into place, and
// retires what the new epoch no longer needs — a crash at any point
// leaves one complete, consistent epoch on disk.
//
// # Segments
//
// A rotation keeps the journal it seals as a segment. A snapshot names a
// page a journaled write programmed by a flash.PageRef: the segment's
// epoch and the offset of the page's payload in its intent frame, 8
// bytes instead of the page. AppendIntent returns those references.
// While a snapshot is written, a census counts the bytes the image
// references in each segment; a segment referenced below half its size
// retires. The next rotation copies the pages of it that a logical page
// still maps forward into the journal it seals (a frame of carried
// pages, which replay skips), drops the others to holes, and deletes the
// segment once its CURRENT is durable. Retired and unnamed files are
// deleted in the background; a mount sweeps any a crash left. The
// segment is synced before the snapshot naming it is published: the
// sync order is the segment and the snapshot, then CURRENT, then the
// directory. A mount reads and checksums the segments the chain names
// (Recovery.ResolvePage); a missing or corrupt one is ErrCorrupt naming
// it.
//
// A snapshot is either a full image or a delta: a PBSNAP2 file names
// its parent epoch (0 for a full image), and the device leaves out of a
// delta what it has not changed since that parent — the flash blocks it
// has neither programmed nor erased. The current image is therefore a
// chain: the current epoch's snapshot, its parent, and so on back to a
// full image. Each file's metadata (configuration, translation state,
// counters) is complete, so a mount takes it from the newest file and
// only block contents from the older ones. A rotation writes a delta
// unless the payload the chain's files hold but newer files superseded
// exceeds the payload it still supplies; then it writes a full image,
// which lets every older file go. Create, Close and the rotation that
// ends a mount always write a full image. Retirement keeps every file
// the current chain references, and a missing or corrupt chain member
// fails the mount with ErrCorrupt. A PBSNAP1 file (no parent field) is
// a full image. Close also retires every segment, so the pages still
// mapped are carried into the journal it seals.
//
// # Power-cut injection
//
// The store consults an optional CutInjector at the journal-record and
// snapshot-swap boundaries, so a fault plan can kill the device
// deterministically between any two persistence steps; mid-program cuts
// ride the flash layer's ordinary fault injection. Once power is cut
// the store goes dead: every subsequent append fails with ErrPowerCut
// and nothing more reaches disk until the device is reopened.
//
// All timestamps are simulated (internal/sim); nothing here reads the
// wall clock.
package persist

import (
	"errors"

	"parabit/internal/sim"
)

// Power-cut boundary points a CutInjector is consulted at. PointMidProgram
// is listed for plan vocabulary completeness: it is injected by the flash
// array's fault hook (the program dies on the NAND side), not by the
// store.
const (
	// PointPreJournal cuts before a journal append: the operation leaves
	// no trace and recovery never sees it.
	PointPreJournal = "pre-journal"
	// PointPostJournal cuts after the intent, before the program: the
	// store writes the intent it held alone, uncommitted, so recovery
	// skips it.
	PointPostJournal = "post-journal"
	// PointMidProgram cuts during the NAND program itself.
	PointMidProgram = "mid-program"
	// PointPreSnapshot cuts after the next epoch's snapshot is staged but
	// before the atomic swap: the old epoch must remain authoritative.
	PointPreSnapshot = "pre-snapshot"
)

// Points lists the valid cut-point names for plan validation.
var Points = []string{PointPreJournal, PointPostJournal, PointMidProgram, PointPreSnapshot}

// Store errors.
var (
	// ErrPowerCut reports that injected power loss stopped the operation;
	// the device is down until remounted.
	ErrPowerCut = errors.New("persist: power cut")
	// ErrCorrupt reports a journal or snapshot that fails validation
	// beyond an ordinary torn tail.
	ErrCorrupt = errors.New("persist: corrupt state")
)

// CutInjector decides, per persistence boundary, whether power dies
// there. internal/faults implements it next to flash.FaultInjector; the
// two share one dead-device state so a cut anywhere fails everything
// after it.
type CutInjector interface {
	// CutAtBoundary is consulted once per boundary crossing with one of
	// the Point constants; returning true kills the device at that
	// instant.
	CutAtBoundary(point string) bool
	// PowerDead reports whether a cut (at any point, including
	// mid-program on the flash side) has already happened.
	PowerDead() bool
}

// Stats counts persistence activity since the store opened.
type Stats struct {
	JournalRecords  int64 // records appended (intents + commits)
	JournalWrites   int64 // write calls on the journal, carried pages' frames included
	JournalBytes    int64 // bytes appended to the journal
	Snapshots       int64 // snapshot rotations completed
	FullSnapshots   int64 // rotations that wrote a full image
	SnapshotBytes   int64 // snapshot file bytes rotations wrote
	InlineBytes     int64 // page bytes those files carry inline, not by reference
	Segments        int64 // journal segments the store keeps now
	SegmentBytes    int64 // their bytes on disk
	RetiredSegments int64 // segments deleted since the store opened
	ReplayedRecords int64 // committed records replayed at mount
	SkippedIntents  int64 // uncommitted intents skipped at mount
	TornBytes       int64 // torn journal tail truncated at mount
	RecoveryTime    sim.Duration
}
