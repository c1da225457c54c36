package ftl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"parabit/internal/binio"
	"parabit/internal/flash"
)

// ErrBadState reports an FTL state blob that does not decode against
// this device's geometry.
var ErrBadState = errors.New("ftl: bad state")

const stateMagic = 0x314C5446 // "FTL1"

// statsFields flattens Stats in a fixed order for serialization; keep in
// sync with the struct.
func statsFields(s *Stats) []*int64 {
	return []*int64{
		&s.HostPagesWritten, &s.ExtraPagesWritten, &s.GCRuns, &s.GCPagesMoved,
		&s.PaddedPages, &s.ReadReclaims, &s.ReclaimPagesMoved, &s.StaticWLMoves,
		&s.WLPagesMoved, &s.ProgramFails, &s.EraseFails, &s.BlocksRetired,
		&s.RetirePagesMoved, &s.ResteeredWrites,
	}
}

// WriteState serializes the translation state: the mapping table and
// page versions (in LPN order, so the encoding is canonical), the
// round-robin cursor, wear/maintenance statistics, and each plane's
// allocator position with its free/full/bad block lists. The reverse map
// and per-block valid counts are derived from l2p on restore. Like every
// FTL method this must run under the scheduler's mutex.
func (f *FTL) WriteState(w io.Writer) error {
	b := binio.NewWriter(w)
	b.U32(stateMagic)

	writeEntries(b, f.encBuf[:0], f.mapped, &f.l2p, 1)
	writeEntries(b, f.encBuf[:0], f.versioned, &f.vers, 0)

	b.U64(uint64(f.cursor))
	st := f.stats
	for _, p := range statsFields(&st) {
		b.I64(*p)
	}

	intList := func(list []int) {
		b.U64(uint64(len(list)))
		for _, v := range list {
			b.U64(uint64(v))
		}
	}
	for _, pa := range f.planes {
		b.I64(int64(pa.active))
		b.U64(uint64(pa.nextWL))
		b.U8(uint8(pa.nextKind))
		intList(pa.free)
		intList(pa.full)
		intList(pa.bad)
	}
	return b.Err()
}

// writeEntries writes n, then t's n nonzero entries as (index, value-off)
// pairs in index order. Entries go out through buf in whole chunks: one
// write per field would dominate the encode.
func writeEntries[T uint32 | uint64](b *binio.Writer, buf []byte, n int, t *table[T], off T) {
	b.U64(uint64(n))
	t.each(func(i uint64, v T) {
		buf = binary.LittleEndian.AppendUint64(buf, i)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v-off))
		if len(buf) == cap(buf) {
			b.Raw(buf)
			buf = buf[:0]
		}
	})
	b.Raw(buf)
}

// ReadState restores a WriteState blob into a freshly constructed FTL
// over the same geometry, replacing the all-blocks-free allocator New
// set up. Every index is bounds-checked so a corrupt blob surfaces as an
// error, never a panic; structural consistency beyond that is the
// caller's CheckInvariants pass. Only the canonical encoding WriteState
// produces is accepted — entries in strictly ascending LPN order and no
// zero version — so a decoded blob re-encodes to the same bytes.
func (f *FTL) ReadState(r io.Reader) error {
	b := binio.NewReader(r, 1<<20)
	if m := b.U32(); b.Err() == nil && m != stateMagic {
		return fmt.Errorf("%w: magic %#x", ErrBadState, m)
	}

	totalPages := uint64(f.geo.TotalPages())
	logical := uint64(f.LogicalPages())
	// The allocator state comes later in the blob; the planes take the
	// reverse map and the valid counts derived from l2p first.
	planes := make([]*planeAlloc, len(f.planes))
	for i := range planes {
		planes[i] = f.newPlane(i)
	}
	l2p := newTable[uint32](logical)
	mapped, versioned := 0, 0
	err := readEntries(b, logical, "mapping", func(lpn, ppn uint64) error {
		if ppn >= totalPages {
			return fmt.Errorf("%w: mapping %d -> %d out of range", ErrBadState, lpn, ppn)
		}
		plane, blk, slot := f.split(ppn)
		pa := planes[plane]
		if _, dup := pa.owner(int(blk), int(slot)); dup {
			return fmt.Errorf("%w: ppn %d mapped twice", ErrBadState, ppn)
		}
		l2p.set(lpn, uint32(ppn+1))
		f.leaf(pa, int(blk))[slot] = uint32(lpn + 1)
		pa.valid[blk]++
		mapped++
		return nil
	})
	if err != nil {
		return err
	}
	vers := newTable[uint64](logical)
	err = readEntries(b, logical, "version", func(lpn, v uint64) error {
		if v == 0 {
			return fmt.Errorf("%w: zero version for lpn %d", ErrBadState, lpn)
		}
		vers.set(lpn, v)
		versioned++
		return nil
	})
	if err != nil {
		return err
	}

	cursor := b.U64()
	if b.Err() == nil && cursor >= uint64(len(f.order)) {
		return fmt.Errorf("%w: cursor %d", ErrBadState, cursor)
	}
	var st Stats
	for _, p := range statsFields(&st) {
		*p = b.I64()
	}

	blocks := uint64(f.geo.BlocksPerPlane)
	intList := func() ([]int, error) {
		ln := b.U64()
		if b.Err() != nil {
			return nil, b.Err()
		}
		if ln > blocks {
			return nil, fmt.Errorf("%w: block list of %d", ErrBadState, ln)
		}
		out := make([]int, 0, ln)
		for i := uint64(0); i < ln; i++ {
			v := b.U64()
			if b.Err() != nil {
				return nil, b.Err()
			}
			if v >= blocks {
				return nil, fmt.Errorf("%w: block index %d", ErrBadState, v)
			}
			out = append(out, int(v))
		}
		return out, nil
	}
	for _, pa := range planes {
		active := b.I64()
		nextWL := b.U64()
		nextKind := b.U8()
		if b.Err() != nil {
			return b.Err()
		}
		if active < -1 || active >= int64(blocks) {
			return fmt.Errorf("%w: active block %d", ErrBadState, active)
		}
		if nextWL > uint64(f.geo.WordlinesPerBlock) || int(nextKind) >= f.geo.CellBits {
			return fmt.Errorf("%w: allocator position wl=%d kind=%d", ErrBadState, nextWL, nextKind)
		}
		pa.active = int(active)
		pa.nextWL = int(nextWL)
		pa.nextKind = flash.PageKind(nextKind)
		if pa.free, err = intList(); err != nil {
			return err
		}
		if pa.full, err = intList(); err != nil {
			return err
		}
		if pa.bad, err = intList(); err != nil {
			return err
		}
	}
	if b.Err() != nil {
		return b.Err()
	}

	f.l2p, f.mapped = l2p, mapped
	f.vers, f.versioned = vers, versioned
	f.cursor = int(cursor)
	f.stats = st
	f.planes = planes
	return nil
}

// readEntries reads a count and that many (lpn, value) pairs, in strictly
// ascending LPN order below logical, handing each to put.
func readEntries(b *binio.Reader, logical uint64, what string, put func(lpn, v uint64) error) error {
	n := b.U64()
	if b.Err() != nil {
		return b.Err()
	}
	if n > logical {
		return fmt.Errorf("%w: %d %s entries", ErrBadState, n, what)
	}
	for i, next := uint64(0), uint64(0); i < n; i++ {
		lpn, v := b.U64(), b.U64()
		if b.Err() != nil {
			return b.Err()
		}
		switch {
		case lpn >= logical:
			return fmt.Errorf("%w: %s for lpn %d out of range", ErrBadState, what, lpn)
		case i > 0 && lpn == next-1:
			return fmt.Errorf("%w: duplicate %s for lpn %d", ErrBadState, what, lpn)
		case lpn < next:
			return fmt.Errorf("%w: %s for lpn %d after lpn %d", ErrBadState, what, lpn, next-1)
		}
		next = lpn + 1
		if err := put(lpn, v); err != nil {
			return err
		}
	}
	return nil
}
