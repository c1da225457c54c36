package ftl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"

	"parabit/internal/binio"
	"parabit/internal/flash"
)

// ErrBadState reports an FTL state blob that does not decode against
// this device's geometry.
var ErrBadState = errors.New("ftl: bad state")

const (
	stateMagic   = 0x324C5446 // "FTL2"
	stateMagicV1 = 0x314C5446 // "FTL1": two pair lists, always full; read only
)

// Entry-list flags of an FTL2 blob.
const (
	entriesFull  = 0 // every versioned LPN is listed
	entriesDelta = 1 // only LPNs changed since the parent blob are listed
)

// entryLen is the encoded size of one (lpn u64, ppn+1 u32, version u64)
// entry.
const entryLen = 20

// statsFields flattens Stats in the fixed slot order of an FTL2 blob; keep
// in sync with the struct. A nil entry is a retired slot (the four
// counters of the removed read reclaim and static wear leveling): it is
// written as 0, and only 0 is read back, so the encoding stays canonical.
func statsFields(s *Stats) []*int64 {
	return []*int64{
		&s.HostPagesWritten, &s.ExtraPagesWritten, &s.GCRuns, &s.GCPagesMoved,
		&s.PaddedPages, nil, nil, nil,
		nil, &s.ProgramFails, &s.EraseFails, &s.BlocksRetired,
		&s.RetirePagesMoved, &s.ResteeredWrites,
	}
}

// WriteState serializes the translation state: a list of mapping
// entries — (lpn, ppn+1 or 0, version) in ascending LPN order, so the
// encoding is canonical — then the round-robin cursor, wear/maintenance
// statistics, and each plane's allocator position with its free/full/bad
// block lists. A full encoding lists every versioned LPN; with delta set
// only those changed since the last ClearDirty are listed, and the rest
// come from the parent encoding. The reverse map and per-block valid
// counts are derived from the mapping on restore. Like every FTL method
// this must run under the scheduler's mutex.
func (f *FTL) WriteState(w io.Writer, delta bool) error {
	b := binio.NewWriter(w)
	b.U32(stateMagic)

	buf := f.encBuf[:0]
	put := func(lpn uint64) {
		buf = binary.LittleEndian.AppendUint64(buf, lpn)
		buf = binary.LittleEndian.AppendUint32(buf, f.l2p.get(lpn))
		buf = binary.LittleEndian.AppendUint64(buf, f.vers.get(lpn))
		// One write per field would dominate the encode.
		if len(buf) == cap(buf) {
			b.Raw(buf)
			buf = buf[:0]
		}
	}
	if delta {
		n := 0
		f.dirty.each(func(_, word uint64) { n += bits.OnesCount64(word) })
		b.U8(entriesDelta)
		b.U64(uint64(n))
		f.dirty.each(func(i, word uint64) {
			for ; word != 0; word &= word - 1 {
				put(i*64 + uint64(bits.TrailingZeros64(word)))
			}
		})
	} else {
		b.U8(entriesFull)
		b.U64(uint64(f.versioned))
		f.vers.each(func(lpn, _ uint64) { put(lpn) })
	}
	b.Raw(buf)

	b.U64(uint64(f.cursor))
	st := f.stats
	for _, p := range statsFields(&st) {
		if p == nil {
			b.I64(0)
		} else {
			b.I64(*p)
		}
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

// ClearDirty marks every logical page unchanged: the next delta
// WriteState lists none of them. Call it only once the encoding written
// last is durable.
func (f *FTL) ClearDirty() {
	for _, p := range f.dirty.pages {
		if p != nil {
			clear(p[:])
		}
	}
}

// overlay collects the mapping entries of a chain of encodings, newest
// first: an LPN takes its entry from the newest encoding that lists it.
type overlay struct {
	logical uint64
	l2p     table[uint32]
	vers    table[uint64]
	// seen marks the LPNs a delta already listed, one bit each; nil
	// while every encoding read so far is full.
	seen []uint64
}

// take reports whether lpn's entry is still to be set, and with mark
// set claims it for the encoding being read.
func (o *overlay) take(lpn uint64, mark bool) bool {
	if o.seen == nil {
		if !mark {
			return true
		}
		o.seen = make([]uint64, (o.logical+63)/64)
	}
	w, bit := &o.seen[lpn/64], uint64(1)<<(lpn%64)
	if *w&bit != 0 {
		return false
	}
	if mark {
		*w |= bit
	}
	return true
}

// ReadState restores a WriteState encoding into a freshly constructed FTL
// over the same geometry, replacing the all-blocks-free allocator New
// set up. A delta encoding's unlisted entries come from parents — the
// older encodings, newest first — up to the first full one; a delta with
// no full ancestor is an error. Everything but the entries comes from r.
// Every index is bounds-checked so a corrupt blob surfaces as an error,
// never a panic; structural consistency beyond that is the caller's
// CheckInvariants pass. Only the canonical encoding WriteState produces
// is accepted — entries in strictly ascending LPN order and no zero
// version — so a decoded full encoding re-encodes to the same bytes.
// Old FTL1 encodings, always full, are read too.
func (f *FTL) ReadState(r io.Reader, parents ...io.Reader) error {
	logical := uint64(f.LogicalPages())
	o := &overlay{logical: logical, l2p: newTable[uint32](logical), vers: newTable[uint64](logical)}
	b := binio.NewReader(r, 1<<20)
	full, err := o.read(b)
	for _, p := range parents {
		if err != nil || full {
			break
		}
		full, err = o.read(binio.NewReader(p, 1<<20))
	}
	if err == nil && !full {
		err = fmt.Errorf("%w: delta with no full ancestor", ErrBadState)
	}
	if err != nil {
		return err
	}

	cursor := b.U64()
	if b.Err() == nil && cursor >= uint64(len(f.order)) {
		return fmt.Errorf("%w: cursor %d", ErrBadState, cursor)
	}
	var st Stats
	for i, p := range statsFields(&st) {
		switch v := b.I64(); {
		case p != nil:
			*p = v
		case v != 0:
			return fmt.Errorf("%w: retired stats slot %d holds %d", ErrBadState, i, v)
		}
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
		pa := f.newPlane(i)
		planes[i] = pa
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

	// The reverse map and the valid counts follow from the overlaid
	// mapping.
	totalPages := uint64(f.geo.TotalPages())
	mapped, versioned := 0, 0
	o.l2p.each(func(lpn uint64, v uint32) {
		if err != nil {
			return
		}
		ppn := uint64(v - 1)
		switch {
		case o.vers.get(lpn) == 0:
			err = fmt.Errorf("%w: lpn %d mapped without a version", ErrBadState, lpn)
			return
		case ppn >= totalPages:
			err = fmt.Errorf("%w: mapping %d -> %d out of range", ErrBadState, lpn, ppn)
			return
		}
		plane, blk, slot := f.split(ppn)
		pa := planes[plane]
		if _, dup := pa.owner(int(blk), int(slot)); dup {
			err = fmt.Errorf("%w: ppn %d mapped twice", ErrBadState, ppn)
			return
		}
		f.leaf(pa, int(blk))[slot] = uint32(lpn + 1)
		pa.valid[blk]++
		mapped++
	})
	if err != nil {
		return err
	}
	o.vers.each(func(uint64, uint64) { versioned++ })

	f.l2p, f.mapped = o.l2p, mapped
	f.vers, f.versioned = o.vers, versioned
	f.cursor = int(cursor)
	f.stats = st
	f.planes = planes
	return nil
}

// read decodes one encoding's mapping entries into o, leaving b at the
// cursor that follows them, and reports whether the encoding was full.
func (o *overlay) read(b *binio.Reader) (bool, error) {
	switch m := b.U32(); {
	case b.Err() != nil:
		return false, b.Err()
	case m == stateMagicV1:
		return true, o.readV1(b)
	case m != stateMagic:
		return false, fmt.Errorf("%w: magic %#x", ErrBadState, m)
	}
	flag := b.U8()
	if b.Err() == nil && flag != entriesFull && flag != entriesDelta {
		return false, fmt.Errorf("%w: entry list flag %d", ErrBadState, flag)
	}
	delta := flag == entriesDelta
	var buf [entryLen]byte
	err := readEntries(b, o.logical, "mapping", buf[:], func(lpn uint64, e []byte) error {
		ppn1 := binary.LittleEndian.Uint32(e[8:])
		v := binary.LittleEndian.Uint64(e[12:])
		if v == 0 {
			return fmt.Errorf("%w: zero version for lpn %d", ErrBadState, lpn)
		}
		if o.take(lpn, delta) {
			o.l2p.set(lpn, ppn1)
			o.vers.set(lpn, v)
		}
		return nil
	})
	return !delta, err
}

// readV1 decodes the two pair lists of an FTL1 encoding: mappings
// (lpn, ppn), then versions (lpn, version).
func (o *overlay) readV1(b *binio.Reader) error {
	var buf [16]byte
	err := readEntries(b, o.logical, "mapping", buf[:], func(lpn uint64, e []byte) error {
		ppn := binary.LittleEndian.Uint64(e[8:])
		if ppn >= 1<<32-1 {
			return fmt.Errorf("%w: mapping %d -> %d out of range", ErrBadState, lpn, ppn)
		}
		if o.take(lpn, false) {
			o.l2p.set(lpn, uint32(ppn+1))
		}
		return nil
	})
	if err != nil {
		return err
	}
	return readEntries(b, o.logical, "version", buf[:], func(lpn uint64, e []byte) error {
		v := binary.LittleEndian.Uint64(e[8:])
		if v == 0 {
			return fmt.Errorf("%w: zero version for lpn %d", ErrBadState, lpn)
		}
		if o.take(lpn, false) {
			o.vers.set(lpn, v)
		}
		return nil
	})
}

// readEntries reads a count and that many len(buf)-byte entries, each
// led by its u64 LPN, in strictly ascending LPN order below logical,
// handing each to put.
func readEntries(b *binio.Reader, logical uint64, what string, buf []byte, put func(lpn uint64, e []byte) error) error {
	n := b.U64()
	if b.Err() != nil {
		return b.Err()
	}
	if n > logical {
		return fmt.Errorf("%w: %d %s entries", ErrBadState, n, what)
	}
	for i, next := uint64(0), uint64(0); i < n; i++ {
		b.Raw(buf)
		if b.Err() != nil {
			return b.Err()
		}
		lpn := binary.LittleEndian.Uint64(buf)
		switch {
		case lpn >= logical:
			return fmt.Errorf("%w: %s for lpn %d out of range", ErrBadState, what, lpn)
		case i > 0 && lpn == next-1:
			return fmt.Errorf("%w: duplicate %s for lpn %d", ErrBadState, what, lpn)
		case lpn < next:
			return fmt.Errorf("%w: %s for lpn %d after lpn %d", ErrBadState, what, lpn, next-1)
		}
		next = lpn + 1
		if err := put(lpn, buf); err != nil {
			return err
		}
	}
	return nil
}
