package ssd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"

	"parabit/internal/binio"
	"parabit/internal/flash"
	"parabit/internal/ftl"
	"parabit/internal/persist"
	"parabit/internal/sim"
)

// deviceSection tags the device-level part of a snapshot body.
const (
	deviceSectionMagic   = 0x32564453 // "SDV2": plain set as bitset pages
	deviceSectionMagicV1 = 0x31564453 // "SDV1": plain set as LPNs; read only
)

// RecoveryInfo summarizes what Open did to bring a device back.
type RecoveryInfo struct {
	// Epoch is the snapshot epoch the mount started from.
	Epoch uint64
	// ReplayedRecords counts committed journal records re-executed on top
	// of the snapshot.
	ReplayedRecords int64
	// SkippedIntents counts journaled intents with no commit — operations
	// in flight at the crash that were never acknowledged.
	SkippedIntents int64
	// TornBytes is the length of the truncated torn journal tail.
	TornBytes int64
	// RecoveryTime is the simulated time the replayed operations took.
	RecoveryTime sim.Duration
}

// Create builds a fresh device (like New) backed by a new persistent
// store in dir: every acknowledged host write is journaled before it is
// acknowledged and the journal compacts into snapshots as it grows.
// dir must not already hold a store.
func Create(dir string, cfg Config, snapshotEvery int) (*Device, error) {
	d, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if d.cfgJSON, err = json.Marshal(d.cfg); err != nil {
		return nil, fmt.Errorf("ssd: marshal config: %w", err)
	}
	d.array.TrackRefs()
	st, err := persist.Create(persist.Config{Dir: dir, SnapshotEvery: snapshotEvery}, d.writeSnapshot)
	if err != nil {
		return nil, err
	}
	d.store = st
	return d, nil
}

// Open remounts a persisted device from dir: it rebuilds the device
// from the current snapshot, replays the committed journal tail
// (re-executing each journaled write at simulated time zero, faults
// detached), audits the FTL's invariants, and rotates to a fresh epoch.
// A torn final journal record — the append a crash interrupted — is
// truncated, never fatal. Acknowledged writes come back byte-identical;
// unacknowledged ones stay unmapped and read back as explicit errors.
func Open(dir string, snapshotEvery int) (*Device, RecoveryInfo, error) {
	rec, err := persist.OpenDir(dir)
	if err != nil {
		return nil, RecoveryInfo{}, err
	}
	d, err := deviceFromSnapshot(rec.Chain(), rec)
	if err != nil {
		return nil, RecoveryInfo{}, err
	}
	info := RecoveryInfo{Epoch: rec.Epoch(), TornBytes: rec.TornBytes()}
	now := sim.Time(0)
	for _, e := range rec.Entries() {
		if !e.Committed {
			info.SkippedIntents++
			continue
		}
		done, aerr := d.applyRecord(e.Record, e.Refs, now)
		if aerr != nil {
			return nil, info, fmt.Errorf("%w: replay record %d (%s): %v",
				persist.ErrCorrupt, e.Record.Seq, e.Record.Op, aerr)
		}
		if done > now {
			now = done
		}
		info.ReplayedRecords++
	}
	if now < d.array.DrainTime() {
		now = d.array.DrainTime()
	}
	if err := d.ftl.CheckInvariants(); err != nil {
		return nil, info, fmt.Errorf("%w: post-replay audit: %v", persist.ErrCorrupt, err)
	}
	info.RecoveryTime = sim.Duration(now)
	// Recovery replay consumed simulated time on the array's resources;
	// a remounted device starts its service life idle at t=0.
	d.ResetTiming()
	st, err := rec.Resume(persist.Config{Dir: dir, SnapshotEvery: snapshotEvery},
		d.writeSnapshot, info.RecoveryTime)
	if err != nil {
		return nil, info, err
	}
	d.array.ClearChanged()
	d.ftl.ClearDirty()
	d.store = st
	return d, info, nil
}

// Close shuts a persistent device down cleanly: a final compaction
// snapshot (so the next Open replays nothing) and the journal handle
// released. After a power cut it releases the handle without writing —
// the on-disk state stays exactly as the crash left it. On a
// non-persistent device Close is a no-op. The caller must have drained
// in-flight commands (sched.Close does both).
func (d *Device) Close() error {
	if d.store == nil {
		return nil
	}
	return d.store.Close(d.writeSnapshot)
}

// Crash abandons the persistence store without a final snapshot: the
// on-disk journal stays exactly as the last acknowledged append left
// it, as if the process died. A later Open recovers from that state.
// No-op for in-memory devices.
func (d *Device) Crash() {
	if d.store != nil {
		d.store.Abandon()
	}
}

// PersistStats returns the persistence counters and whether the device
// is persistent at all.
func (d *Device) PersistStats() (persist.Stats, bool) {
	if d.store == nil {
		return persist.Stats{}, false
	}
	return d.store.Stats(), true
}

// SetFaultInjector installs a structural-fault injector on the flash
// array and, when the device is persistent and the injector also
// decides power cuts, wires it into the journal's boundary hooks so a
// single dead-device state governs both sides. nil detaches both.
func (d *Device) SetFaultInjector(fi flash.FaultInjector) {
	d.array.SetFaultInjector(fi)
	if d.store == nil {
		return
	}
	if ci, ok := fi.(persist.CutInjector); ok {
		d.store.SetCutInjector(ci)
	} else {
		d.store.SetCutInjector(nil)
	}
}

// journaled runs one journal record under the write-ahead protocol:
// intent, execution through applyRecord — the same path replay takes —
// commit, then (maybe) a compaction snapshot. The store holds the intent
// until the commit and writes both in one write; the device state is
// rebuilt from the journal at every mount, so nothing needs the intent
// on disk before the execution. The operation is acknowledged —
// journaled returns nil — only after that write lands, which is exactly
// the set of operations mount-time replay reapplies. A failed commit
// drops the pages' journal references, because a failed write is cut
// back with its intent: the pages stay inline in the next snapshot. A
// power cut during the compaction snapshot does not fail the (already
// durable) write.
func (d *Device) journaled(rec persist.Record, at sim.Time) (sim.Time, error) {
	if d.store == nil {
		return d.applyRecord(rec, nil, at)
	}
	seq, refs, err := d.store.AppendIntent(rec, d.refs[:0])
	d.refs = refs
	if err != nil {
		return 0, err
	}
	done, err := d.applyRecord(rec, refs, at)
	if err != nil {
		return 0, err
	}
	if err := d.store.AppendCommit(seq); err != nil {
		clear(refs)
		d.ftl.SetRefs(rec.LPNs, refs)
		return 0, err
	}
	if err := d.maybeSnapshot(); err != nil {
		return 0, err
	}
	return done, nil
}

// maybeSnapshot compacts the journal once it crosses the configured
// length. Only a durable snapshot clears the array's changed-block
// flags and the FTL's dirty entries: after a failed or cut rotation the
// next delta carries them again. ErrPowerCut is swallowed: the
// triggering write is already durable, and the death is observed by
// whatever runs next.
func (d *Device) maybeSnapshot() error {
	if !d.store.ShouldSnapshot() {
		return nil
	}
	switch err := d.store.Snapshot(d.writeSnapshot); {
	case err == nil:
		d.array.ClearChanged()
		d.ftl.ClearDirty()
	case !errors.Is(err, persist.ErrPowerCut):
		return err
	}
	return nil
}

// applyRecord executes one journal record: a live write, or a committed
// record during replay. Record shapes are checked here (and at decode
// time for replay); everything deeper (LPN ranges, page sizes,
// geometry fits) re-runs the checks the original execution passed, so a
// replay failure means the journal does not describe this device. Pages
// are marked plain or scrambled only once their write succeeded. refs,
// nil on a volatile device, names each page in the journal; a page
// programmed with the journaled bytes keeps its reference, so snapshots
// can name it instead of copying it.
func (d *Device) applyRecord(rec persist.Record, refs []flash.PageRef, at sim.Time) (sim.Time, error) {
	if !rec.ShapeOK() {
		return 0, fmt.Errorf("ssd: malformed %s write: %d lpns / %d pages", rec.Op, len(rec.LPNs), len(rec.Pages))
	}
	if rec.Op == persist.OpReclaimInternal {
		// Reallocations trim their own pages, so an old journal's
		// reclaim has nothing left to do.
		return at, nil
	}
	w := writeOps[rec.Op]
	for _, lpn := range rec.LPNs {
		if err := d.checkUserLPN(lpn); err != nil {
			return 0, err
		}
	}
	scramble := w.scrambled && d.cfg.Scramble
	pages := rec.Pages
	if scramble {
		pages = make([][]byte, len(rec.Pages))
		for i, p := range rec.Pages {
			pages[i] = append([]byte(nil), p...)
			scrambleKeystream(rec.LPNs[i], pages[i])
		}
	}
	l := w.layout
	if l.Fixed {
		n := int64(d.cfg.Geometry.Planes())
		l.Plane = int((rec.Plane%n + n) % n)
	}
	done, err := d.ftl.Place(l, rec.LPNs, pages, at)
	if err != nil {
		return 0, err
	}
	for _, lpn := range rec.LPNs {
		if scramble {
			d.plain.remove(lpn)
		} else {
			d.plain.add(lpn)
		}
	}
	if !scramble && len(refs) == len(rec.LPNs) {
		d.ftl.SetRefs(rec.LPNs, refs)
	}
	return done, nil
}

// writeSnapshot serializes the device state: the configuration (so
// Open needs no out-of-band config), the flash array contents — each
// page with a journal reference as that reference, unless tally retires
// its segment — and the FTL translation state, with delta set only the
// blocks and mapping entries changed since the last durable snapshot,
// and the controller's own bookkeeping. The payload it reports is the
// array's.
func (d *Device) writeSnapshot(w io.Writer, delta bool, tally flash.SegmentTally) (persist.Payload, error) {
	var p persist.Payload
	b := binio.NewWriter(w)
	b.Bytes(d.cfgJSON)
	if err := b.Err(); err != nil {
		return p, err
	}
	if tally != nil {
		d.tally = liveTally{SegmentTally: tally, ftl: d.ftl}
		tally = &d.tally
	}
	var err error
	if p.Written, p.Live, p.Inline, err = d.array.WriteState(w, delta, tally); err != nil {
		return p, err
	}
	if err := d.ftl.WriteState(w, delta); err != nil {
		return p, err
	}
	b.U32(deviceSectionMagic)
	// The retired internal-pool cursor, always at the empty pool's mark.
	b.U64(uint64(d.ftl.LogicalPages()) - 1)
	writePlainSet(b, &d.plain)
	for _, v := range []int64{
		d.stats.BitwiseOps, d.stats.Reallocations, d.stats.ReallocPages,
		d.stats.Fallbacks, d.stats.ResultBytes, d.stats.DescrambledOps,
	} {
		b.I64(v)
	}
	return p, b.Err()
}

// liveTally is the store's SegmentTally, except that a page of a
// retiring segment no logical page maps any more is dropped to a hole
// instead of carried forward: only live pages move.
type liveTally struct {
	flash.SegmentTally
	ftl *ftl.FTL
}

func (t *liveTally) Carry(p flash.PageAddr, page []byte) flash.PageRef {
	if !t.ftl.Mapped(p) {
		return flash.HoleRef
	}
	return t.SegmentTally.Carry(p, page)
}

// deviceFromSnapshot rebuilds a persistent device from a verified
// snapshot chain, newest body first. Everything but block contents and
// mapping entries comes from the newest body; the blocks and entries it
// defers are resolved through the older ones, whose configuration must
// match, and referenced pages through res.
func deviceFromSnapshot(chain [][]byte, res flash.PageResolver) (*Device, error) {
	r := bytes.NewReader(chain[0])
	b := binio.NewReader(r, 1<<24)
	cfgJSON := b.Bytes()
	if err := b.Err(); err != nil {
		return nil, fmt.Errorf("%w: config header: %v", persist.ErrCorrupt, err)
	}
	parents := make([]io.Reader, len(chain)-1)
	for i, body := range chain[1:] {
		pr := bytes.NewReader(body)
		pb := binio.NewReader(pr, 1<<24)
		if pcfg := pb.Bytes(); pb.Err() != nil || !bytes.Equal(pcfg, cfgJSON) {
			return nil, fmt.Errorf("%w: snapshot chain member %d has a different config", persist.ErrCorrupt, i+1)
		}
		parents[i] = pr
	}
	var cfg Config
	if err := json.Unmarshal(cfgJSON, &cfg); err != nil {
		return nil, fmt.Errorf("%w: config: %v", persist.ErrCorrupt, err)
	}
	d, err := New(cfg)
	if err != nil {
		return nil, fmt.Errorf("%w: config: %v", persist.ErrCorrupt, err)
	}
	if d.cfgJSON, err = json.Marshal(d.cfg); err != nil {
		return nil, fmt.Errorf("ssd: marshal config: %w", err)
	}
	d.array.TrackRefs()
	if err := d.array.ReadState(r, res, parents...); err != nil {
		return nil, fmt.Errorf("%w: array: %v", persist.ErrCorrupt, err)
	}
	if err := d.ftl.ReadState(r, parents...); err != nil {
		return nil, fmt.Errorf("%w: ftl: %v", persist.ErrCorrupt, err)
	}
	m := b.U32()
	if b.Err() != nil || m != deviceSectionMagic && m != deviceSectionMagicV1 {
		return nil, fmt.Errorf("%w: device section magic", persist.ErrCorrupt)
	}
	logical := uint64(d.ftl.LogicalPages())
	b.U64() // the retired internal-pool cursor, which nothing reads
	read := readPlainSet
	if m == deviceSectionMagicV1 {
		read = readPlainSetV1
	}
	plain, err := read(b, logical)
	if err != nil {
		return nil, fmt.Errorf("%w: device section: %v", persist.ErrCorrupt, err)
	}
	var st OpStats
	for _, p := range []*int64{
		&st.BitwiseOps, &st.Reallocations, &st.ReallocPages,
		&st.Fallbacks, &st.ResultBytes, &st.DescrambledOps,
	} {
		*p = b.I64()
	}
	if err := b.Err(); err != nil {
		return nil, fmt.Errorf("%w: device section: %v", persist.ErrCorrupt, err)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing snapshot bytes", persist.ErrCorrupt, r.Len())
	}
	// A store written before reallocations trimmed their own pages may
	// still map internal LPNs; nothing reads them, so they go.
	for lpn := d.lowInternal; lpn < logical; lpn++ {
		d.ftl.Trim(lpn)
		plain.remove(lpn)
	}
	d.plain = plain
	d.stats = st
	return d, nil
}

// writePlainSet encodes s whole for SDV2: the page count, then per page
// a presence byte and, for a present page, its words.
func writePlainSet(b *binio.Writer, s *plainSet) {
	b.U64(uint64(len(s.pages)))
	for _, pg := range s.pages {
		if pg == nil {
			b.U8(0)
			continue
		}
		b.U8(1)
		for _, word := range pg {
			b.U64(word)
		}
	}
}

// readPlainSet decodes what writePlainSet encodes, refusing bits at or
// beyond logical.
func readPlainSet(b *binio.Reader, logical uint64) (plainSet, error) {
	plain := newPlainSet(logical)
	if n := b.U64(); b.Err() == nil && n != uint64(len(plain.pages)) {
		return plain, fmt.Errorf("%d plain-set pages, want %d", n, len(plain.pages))
	}
	for hi := range plain.pages {
		switch present := b.U8(); {
		case b.Err() != nil:
			return plain, b.Err()
		case present == 0:
			continue
		case present != 1:
			return plain, fmt.Errorf("plain-set page %d presence byte %d", hi, present)
		}
		pg := new([plainPageWords]uint64)
		for i := range pg {
			word := b.U64()
			if base := uint64(hi)*plainPageBits + uint64(i)*64; word != 0 && base+uint64(bits.Len64(word)) > logical {
				return plain, fmt.Errorf("plain lpn beyond %d logical pages", logical)
			}
			pg[i] = word
			plain.n += bits.OnesCount64(word)
		}
		plain.pages[hi] = pg
	}
	return plain, b.Err()
}

// readPlainSetV1 decodes an SDV1 plain set: a count, then that many
// LPNs.
func readPlainSetV1(b *binio.Reader, logical uint64) (plainSet, error) {
	plain := newPlainSet(logical)
	n := b.U64()
	if b.Err() != nil {
		return plain, b.Err()
	}
	if n > logical {
		return plain, fmt.Errorf("%d plain entries", n)
	}
	for i := uint64(0); i < n; i++ {
		lpn := b.U64()
		if b.Err() != nil {
			return plain, b.Err()
		}
		if lpn >= logical {
			return plain, fmt.Errorf("plain lpn %d", lpn)
		}
		plain.add(lpn)
	}
	return plain, nil
}
