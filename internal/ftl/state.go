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
// page versions (in LPN order, so the encoding is deterministic), the
// round-robin cursor, wear/maintenance statistics, and each plane's
// allocator position with its free/full/bad block lists. The reverse map
// and per-block valid counts are derived from l2p on restore. Like every
// FTL method this must run under the scheduler's mutex.
func (f *FTL) WriteState(w io.Writer) error {
	b := binio.NewWriter(w)
	b.U32(stateMagic)

	for _, m := range [...]map[uint64]uint64{f.l2p, f.vers} {
		f.enc.Reset(int(f.LogicalPages()))
		for lpn, v := range m {
			if !f.enc.Put(lpn, v) {
				return fmt.Errorf("%w: lpn %d beyond the logical space", ErrBadState, lpn)
			}
		}
		b.U64(uint64(len(m)))
		// Entries go out in whole chunks: one write per field would
		// dominate the encode.
		buf := f.encBuf[:0]
		f.enc.Drain(func(lpn, v uint64) {
			buf = binary.LittleEndian.AppendUint64(buf, lpn)
			buf = binary.LittleEndian.AppendUint64(buf, v)
			if len(buf) == cap(buf) {
				b.Raw(buf)
				buf = buf[:0]
			}
		})
		b.Raw(buf)
	}

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

// ReadState restores a WriteState blob into a freshly constructed FTL
// over the same geometry, replacing the all-blocks-free allocator New
// set up. Every index is bounds-checked so a corrupt blob surfaces as an
// error, never a panic; structural consistency beyond that is the
// caller's CheckInvariants pass.
func (f *FTL) ReadState(r io.Reader) error {
	b := binio.NewReader(r, 1<<20)
	if m := b.U32(); b.Err() == nil && m != stateMagic {
		return fmt.Errorf("%w: magic %#x", ErrBadState, m)
	}

	totalPages := uint64(f.geo.TotalPages())
	logical := uint64(f.LogicalPages())
	maxEntries := totalPages + 1

	n := b.U64()
	if b.Err() != nil {
		return b.Err()
	}
	if n > maxEntries {
		return fmt.Errorf("%w: %d mapping entries", ErrBadState, n)
	}
	l2p := make(map[uint64]uint64, n)
	p2l := make(map[uint64]uint64, n)
	for i := uint64(0); i < n; i++ {
		lpn, ppn := b.U64(), b.U64()
		if b.Err() != nil {
			return b.Err()
		}
		if lpn >= logical || ppn >= totalPages {
			return fmt.Errorf("%w: mapping %d -> %d out of range", ErrBadState, lpn, ppn)
		}
		if _, dup := l2p[lpn]; dup {
			return fmt.Errorf("%w: duplicate lpn %d", ErrBadState, lpn)
		}
		if _, dup := p2l[ppn]; dup {
			return fmt.Errorf("%w: ppn %d mapped twice", ErrBadState, ppn)
		}
		l2p[lpn] = ppn
		p2l[ppn] = lpn
	}

	nv := b.U64()
	if b.Err() != nil {
		return b.Err()
	}
	if nv > maxEntries {
		return fmt.Errorf("%w: %d version entries", ErrBadState, nv)
	}
	vers := make(map[uint64]uint64, nv)
	for i := uint64(0); i < nv; i++ {
		lpn, v := b.U64(), b.U64()
		if b.Err() != nil {
			return b.Err()
		}
		if lpn >= logical {
			return fmt.Errorf("%w: version for lpn %d out of range", ErrBadState, lpn)
		}
		vers[lpn] = v
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
	planes := make([]*planeAlloc, len(f.planes))
	for i := range planes {
		pa := &planeAlloc{addr: f.geo.PlaneAt(i), valid: make([]int, f.geo.BlocksPerPlane)}
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
		var err error
		if pa.free, err = intList(); err != nil {
			return err
		}
		if pa.full, err = intList(); err != nil {
			return err
		}
		if pa.bad, err = intList(); err != nil {
			return err
		}
		planes[i] = pa
	}
	if b.Err() != nil {
		return b.Err()
	}

	// Rebuild the derived valid counts from the restored mapping.
	for ppn := range p2l {
		addr := f.geo.PageAt(ppn)
		planes[f.geo.PlaneIndex(addr.PlaneAddr)].valid[addr.Block]++
	}

	f.l2p = l2p
	f.p2l = p2l
	f.vers = vers
	f.cursor = int(cursor)
	f.stats = st
	f.planes = planes
	return nil
}
