package flash

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"parabit/internal/binio"
)

// ErrBadState reports a state blob that does not decode against this
// array's geometry.
var ErrBadState = errors.New("flash: bad array state")

const stateMagic = 0x31525241 // "ARR1"

// Block tags in a state encoding. A full encoding uses blockErased,
// blockContents and blockRefs; a delta encoding also defers unchanged
// blocks to its parent.
const (
	blockErased     = 0 // no wordline holds data
	blockContents   = 1 // the block's wordlines follow, every page inline
	blockFromParent = 2 // unchanged since the parent encoding: take it from there
	// blockRefs is blockContents with a third mask per wordline: its set
	// bits mark pages written as a PageRef instead of their bytes.
	blockRefs = 3
)

// refSize is the encoded size of a PageRef.
const refSize = 8

// PageRef names where a programmed page's bytes also lie outside the
// array: a journal segment (the upper 32 bits hold its epoch) and the
// offset of the page's payload in that segment's file (the lower 32).
// A NAND page is immutable from program to erase, so while the segment
// is kept a state encoding can name the page instead of copying it. The
// zero PageRef names nothing.
type PageRef uint64

// NewPageRef returns the reference to the payload at offset in the
// segment of the given epoch.
func NewPageRef(segment, offset uint32) PageRef {
	return PageRef(segment)<<32 | PageRef(offset)
}

// HoleRef marks a programmed page whose bytes no state encoding keeps:
// a page no logical page maps any more, dropped when the segment that
// held it retired. Nothing reads such a page, and a restore fills it
// with zeros. Its segment, 0, is no epoch.
const HoleRef = PageRef(1)

// Segment returns the epoch of the segment r names.
func (r PageRef) Segment() uint32 { return uint32(r >> 32) }

// Offset returns the offset of the page payload in its segment.
func (r PageRef) Offset() uint32 { return uint32(r) }

// PageResolver returns the bytes a PageRef names; ReadState calls it for
// every referenced page the restored state keeps.
type PageResolver interface {
	ResolvePage(ref PageRef) ([]byte, error)
}

// SegmentTally follows the references a WriteState encoding makes.
type SegmentTally interface {
	// Tally counts bytes of referenced pages in segment and reports
	// whether that segment is retiring. It sees every reference of the
	// image, a run of pages of one block at a time.
	Tally(segment uint32, bytes int64) (retiring bool)
	// Carry journals again the page at p, of a retiring segment, and
	// returns its new reference: HoleRef to keep none of its bytes, or
	// zero to write it inline.
	Carry(p PageAddr, page []byte) PageRef
}

// TrackRefs gives the array its reference table, every entry zero. A
// persistent device calls it once, before the first program or
// ReadState; an in-memory array never does and stores no references.
func (a *Array) TrackRefs() {
	a.refs = make([]PageRef, int(a.geo.TotalPages()))
}

// SetRef records that the programmed page with physical page number
// ppn (Geometry.PPN, the numbering the FTL maps to) also has its bytes
// where ref names. It is a no-op without TrackRefs.
func (a *Array) SetRef(ppn uint64, ref PageRef) {
	if a.refs != nil {
		a.refs[ppn] = ref
	}
}

// CarryRef gives page to, a physical page number, the reference of page
// from: the FTL calls it when relocation copies from's bytes to to
// unchanged.
func (a *Array) CarryRef(from, to uint64) {
	if a.refs != nil {
		a.refs[to] = a.refs[from]
	}
}

// refsOf returns the reference table entries of block bi on plane pi,
// or nil without TrackRefs.
func (a *Array) refsOf(pi, bi int) []PageRef {
	if a.refs == nil {
		return nil
	}
	per := a.geo.PagesPerBlock()
	first := (pi*a.geo.BlocksPerPlane + bi) * per
	return a.refs[first : first+per]
}

// segTally gathers, during one WriteState, the bytes the image names in
// each segment before reporting them to a SegmentTally, so the tally
// sees a segment once, not once per page: slot i holds a segment whose
// epoch is i modulo the table size, and a segment that evicts another
// reports the evicted one's bytes.
type segTally struct {
	tally SegmentTally
	slots [64]struct {
		seg      uint32
		bytes    int64
		retiring bool
		used     bool
	}
}

// miss gives seg slot i, reporting the bytes of the segment it held,
// and asks the tally whether seg is retiring: the path tallyBlock takes
// when seg is not the segment slot i gathers.
func (t *segTally) miss(i, seg uint32, n int64) bool {
	s := &t.slots[i]
	if s.used && s.bytes > 0 {
		t.tally.Tally(s.seg, s.bytes)
	}
	s.seg, s.bytes, s.used = seg, 0, true
	s.retiring = t.tally.Tally(seg, n)
	return s.retiring
}

// flush reports the bytes still gathered.
func (t *segTally) flush() {
	for i := range t.slots {
		if s := &t.slots[i]; s.used && s.bytes > 0 {
			t.tally.Tally(s.seg, s.bytes)
		}
	}
}

// tallyBlock reports the references of block bi on plane pi to t, moves
// the pages of a retiring segment to the references Carry returns, and
// counts the pages left with a reference or a hole. A block whose
// references move is marked changed, so this encoding and every later
// one carries it until a durable snapshot clears the flag: the parent
// encodings name the old references.
func (a *Array) tallyBlock(pi, bi int, refs []PageRef, blk *block, t *segTally) int {
	n, size := 0, int64(a.geo.PageSize)
	for k, r := range refs {
		if r == 0 {
			continue
		}
		if r == HoleRef || t.tally == nil {
			n++
			continue
		}
		seg := r.Segment()
		i := seg % uint32(len(t.slots))
		var retiring bool
		if s := &t.slots[i]; s.used && s.seg == seg {
			if retiring = s.retiring; !retiring {
				s.bytes += size
			}
		} else {
			retiring = t.miss(i, seg, size)
		}
		if retiring {
			blk.changed = true
			cb := a.geo.CellBits
			p := PageAddr{WordlineAddr: WordlineAddr{PlaneAddr: a.geo.PlaneAt(pi), Block: bi, WL: k / cb}, Kind: PageKind(k % cb)}
			if refs[k] = t.tally.Carry(p, blk.wl[k/cb].pages[k%cb]); refs[k] == 0 {
				continue
			}
		}
		n++
	}
	return n
}

// WriteState serializes the array's durable contents — per-block erase
// and read-disturb counters plus every programmed page and its ESP flag —
// in a deterministic, geometry-implied order. A page with a reference
// (SetRef) is written as that reference, and its block as blockRefs;
// tally sees every reference and moves the pages of retiring segments
// (nil keeps every reference as it is). With delta set, a block not
// programmed or erased since the last ClearChanged is written as
// blockFromParent and its pages are left to the parent encoding; the
// counters are written for every block either way. It returns the payload the encoding carries and the
// payload of the whole image, each counting a page as its bytes or its
// reference, and the page bytes the encoding carries inline.
//
// Parity is not written: it is a pure function of page data and the
// installed codec, so ReadState recomputes it. Timing state (plane and
// channel occupancy) is deliberately volatile: a remounted device starts
// idle at t=0.
func (a *Array) WriteState(w io.Writer, delta bool, tally SegmentTally) (written, live, inline int64, err error) {
	le := binary.LittleEndian
	// The most one block encodes to: counters, tag, and per wordline
	// three masks and every page inline.
	maxBlock := 17 + a.geo.WordlinesPerBlock*(3+a.geo.CellBits*(4+a.geo.PageSize))
	buf, err := stateRoom(w, nil, maxBlock)
	if err != nil {
		return 0, 0, 0, err
	}
	buf = le.AppendUint32(buf, stateMagic)
	page := int64(a.geo.PageSize)
	t := segTally{tally: tally}
	for pi, pl := range a.planes {
		for bi := range pl.blocks {
			if cap(buf)-len(buf) < maxBlock {
				if buf, err = stateRoom(w, buf, maxBlock); err != nil {
					return 0, 0, 0, err
				}
			}
			blk := &pl.blocks[bi]
			buf = le.AppendUint64(buf, uint64(blk.erases))
			buf = le.AppendUint64(buf, uint64(blk.reads))
			refs := a.refsOf(pi, bi)
			nRefs := a.tallyBlock(pi, bi, refs, blk, &t)
			held := int64(blk.used-nRefs)*page + int64(nRefs)*refSize
			live += held
			switch {
			case delta && !blk.changed:
				buf = append(buf, blockFromParent)
				continue
			case blk.used == 0:
				buf = append(buf, blockErased)
				continue
			}
			if nRefs == 0 {
				refs = nil
				buf = append(buf, blockContents)
			} else {
				buf = append(buf, blockRefs)
			}
			written += held
			inline += int64(blk.used-nRefs) * page
			for wi := range blk.wl {
				wl := &blk.wl[wi]
				var pageMask, espMask, refMask uint8
				for k := 0; k < a.geo.CellBits; k++ {
					if wl.pages[k] != nil {
						pageMask |= 1 << k
					}
					if wl.esp[k] {
						espMask |= 1 << k
					}
					if refs != nil && refs[wi*a.geo.CellBits+k] != 0 {
						refMask |= 1 << k
					}
				}
				buf = append(buf, pageMask, espMask)
				if refs != nil {
					buf = append(buf, refMask)
				}
				for k := 0; k < a.geo.CellBits; k++ {
					switch {
					case refMask&(1<<k) != 0:
						buf = le.AppendUint64(buf, uint64(refs[wi*a.geo.CellBits+k]))
					case pageMask&(1<<k) != 0:
						buf = le.AppendUint32(buf, uint32(len(wl.pages[k])))
						buf = append(buf, wl.pages[k]...)
					}
				}
			}
		}
	}
	if tally != nil {
		t.flush()
	}
	_, err = w.Write(buf)
	return written, live, inline, err
}

// stateRoom writes out buf, the encoding so far, and returns room for at
// least need more bytes: in place in w's buffer when w is a
// *bufio.Writer large enough, so the encoding is appended where it is
// buffered and nothing is copied or allocated, and otherwise buf itself
// or a fresh slice.
func stateRoom(w io.Writer, buf []byte, need int) ([]byte, error) {
	if len(buf) > 0 {
		if _, err := w.Write(buf); err != nil {
			return nil, err
		}
	}
	if bw, ok := w.(*bufio.Writer); ok && bw.Size() >= need {
		if bw.Available() < need {
			if err := bw.Flush(); err != nil {
				return nil, err
			}
		}
		return bw.AvailableBuffer(), nil
	}
	if cap(buf) >= need {
		return buf[:0], nil
	}
	return make([]byte, 0, need), nil
}

// ClearChanged marks every block unchanged: the next delta WriteState
// defers them all to the encoding written last. Call it only once that
// encoding is durable.
func (a *Array) ClearChanged() {
	for _, pl := range a.planes {
		for bi := range pl.blocks {
			pl.blocks[bi].changed = false
		}
	}
}

// ChangedBlocks counts the blocks programmed or erased since the last
// ClearChanged: the blocks a delta WriteState carries.
func (a *Array) ChangedBlocks() int {
	n := 0
	for _, pl := range a.planes {
		for bi := range pl.blocks {
			if pl.blocks[bi].changed {
				n++
			}
		}
	}
	return n
}

// ReadState restores a WriteState encoding into a freshly constructed
// (fully erased) array with the same geometry. The counters come from r;
// a block r defers to its parent is taken from the first of parents —
// the older encodings, newest first — that holds it. A deferred block no
// parent resolves is an error. Every parent is read through, resolving
// blocks or not, so each reader is left where its array section ends,
// like r. A referenced page of a restored block is fetched through res
// and keeps its reference when the array tracks them; a reference in a
// block the restore skips is never resolved. Parity for programmed pages
// is recomputed against the currently installed codec, so SetECC must
// run before ReadState exactly as it runs before first program.
func (a *Array) ReadState(r io.Reader, res PageResolver, parents ...io.Reader) error {
	pending := make([]bool, len(a.planes)*a.geo.BlocksPerPlane)
	left, err := a.readSection(r, res, pending, true)
	for _, p := range parents {
		if err != nil {
			break
		}
		left, err = a.readSection(p, res, pending, false)
	}
	if err == nil && left > 0 {
		err = fmt.Errorf("%w: %d blocks missing from every parent", ErrBadState, left)
	}
	return err
}

// readSection decodes one encoding. The newest restores every block's
// counters and contents and marks the blocks it defers pending; a parent
// restores only pending blocks, leaving those it defers in turn pending,
// and skips the rest. It returns how many blocks are still pending.
func (a *Array) readSection(r io.Reader, res PageResolver, pending []bool, newest bool) (int, error) {
	b := binio.NewReader(r, uint32(a.geo.PageSize))
	if m := b.U32(); b.Err() == nil && m != stateMagic {
		return 0, fmt.Errorf("%w: magic %#x", ErrBadState, m)
	}
	left := 0
	for pi, pl := range a.planes {
		for bi := range pl.blocks {
			blk := &pl.blocks[bi]
			idx := pi*a.geo.BlocksPerPlane + bi
			erases, reads, tag := b.I64(), b.I64(), b.U8()
			if b.Err() != nil {
				return 0, b.Err()
			}
			if newest {
				if erases < 0 || reads < 0 {
					return 0, fmt.Errorf("%w: negative counters on block %d", ErrBadState, bi)
				}
				blk.erases, blk.reads = int(erases), int(reads)
			}
			take := newest || pending[idx]
			switch tag {
			case blockErased:
			case blockContents, blockRefs:
				var refs []PageRef
				if take {
					refs = a.refsOf(pi, bi)
				}
				if err := a.readBlock(b, blk, take, tag == blockRefs, refs, res); err != nil {
					return 0, err
				}
			case blockFromParent:
				if pending[idx] = take; take {
					left++
				}
				continue
			default:
				return 0, fmt.Errorf("%w: block tag %d", ErrBadState, tag)
			}
			pending[idx] = false
		}
	}
	return left, b.Err()
}

// readBlock decodes one blockContents or (with withRefs) blockRefs body
// into blk, storing the references it restores in refs when the array
// tracks them, or with keep unset only validates and skips it.
func (a *Array) readBlock(b *binio.Reader, blk *block, keep, withRefs bool, refs []PageRef, res PageResolver) error {
	kindBits := uint8(1<<a.geo.CellBits) - 1
	if keep {
		blk.wl = make([]wordline, a.geo.WordlinesPerBlock)
	}
	for wi := 0; wi < a.geo.WordlinesPerBlock; wi++ {
		pageMask := b.U8()
		espMask := b.U8()
		var refMask uint8
		if withRefs {
			refMask = b.U8()
		}
		if b.Err() != nil {
			return b.Err()
		}
		if pageMask&^kindBits != 0 || espMask&^kindBits != 0 || refMask&^pageMask != 0 {
			return fmt.Errorf("%w: wordline masks %#x/%#x/%#x beyond %d cell bits or its pages",
				ErrBadState, pageMask, espMask, refMask, a.geo.CellBits)
		}
		if !keep {
			for k := 0; k < a.geo.CellBits; k++ {
				switch {
				case refMask&(1<<k) != 0:
					b.U64()
				case pageMask&(1<<k) != 0:
					b.Skip()
				}
			}
			continue
		}
		if pageMask == 0 && espMask == 0 {
			continue
		}
		wl := &blk.wl[wi]
		if a.codec != nil {
			wl.parity = make([][]byte, a.geo.CellBits)
		}
		for k := 0; k < a.geo.CellBits; k++ {
			if espMask&(1<<k) != 0 {
				wl.esp[k] = true
			}
			if pageMask&(1<<k) == 0 {
				continue
			}
			var page []byte
			if refMask&(1<<k) != 0 {
				ref := PageRef(b.U64())
				if b.Err() != nil {
					return b.Err()
				}
				var err error
				if page, err = a.resolve(ref, res); err != nil {
					return err
				}
				if refs != nil {
					refs[wi*a.geo.CellBits+k] = ref
				}
			} else {
				page = b.Bytes()
			}
			if b.Err() != nil {
				return b.Err()
			}
			if len(page) != a.geo.PageSize {
				return fmt.Errorf("%w: page of %d bytes", ErrBadState, len(page))
			}
			wl.pages[k] = page
			blk.used++
			if a.codec != nil {
				par, err := a.codec.Encode(page)
				if err != nil {
					return fmt.Errorf("flash: restore parity: %w", err)
				}
				wl.parity[k] = par
			}
		}
	}
	return b.Err()
}

// resolve fetches a referenced page through res into a page of the
// array's own; a hole reads as zeros.
func (a *Array) resolve(ref PageRef, res PageResolver) ([]byte, error) {
	if ref == HoleRef {
		return make([]byte, a.geo.PageSize), nil
	}
	if ref == 0 || res == nil {
		return nil, fmt.Errorf("%w: page reference %#x with no segment to resolve it", ErrBadState, uint64(ref))
	}
	src, err := res.ResolvePage(ref)
	if err != nil {
		return nil, err
	}
	if len(src) != a.geo.PageSize {
		return nil, fmt.Errorf("%w: reference %#x names %d bytes, page is %d", ErrBadState, uint64(ref), len(src), a.geo.PageSize)
	}
	page := make([]byte, a.geo.PageSize)
	copy(page, src)
	return page, nil
}
