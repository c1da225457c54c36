package flash

import (
	"errors"
	"fmt"
	"io"

	"parabit/internal/binio"
)

// ErrBadState reports a state blob that does not decode against this
// array's geometry.
var ErrBadState = errors.New("flash: bad array state")

const stateMagic = 0x31525241 // "ARR1"

// Block tags in a state encoding. A full encoding uses only the first
// two; a delta encoding also defers unchanged blocks to its parent.
const (
	blockErased     = 0 // no wordline holds data
	blockContents   = 1 // the block's wordlines follow
	blockFromParent = 2 // unchanged since the parent encoding: take it from there
)

// WriteState serializes the array's durable contents — per-block erase
// and read-disturb counters plus every programmed page and its ESP flag —
// in a deterministic, geometry-implied order. With delta set, a block
// not programmed or erased since the last ClearChanged is written as
// blockFromParent and its pages are left to the parent encoding; the
// counters are written for every block either way. It returns the page
// bytes the encoding carries and the page bytes the array holds.
//
// Parity is not written: it is a pure function of page data and the
// installed codec, so ReadState recomputes it. Timing state (plane and
// channel occupancy) is deliberately volatile: a remounted device starts
// idle at t=0.
func (a *Array) WriteState(w io.Writer, delta bool) (written, live int64, err error) {
	b := binio.NewWriter(w)
	b.U32(stateMagic)
	for _, pl := range a.planes {
		for bi := range pl.blocks {
			blk := &pl.blocks[bi]
			b.I64(int64(blk.erases))
			b.I64(int64(blk.reads))
			held := int64(blk.used * a.geo.PageSize)
			live += held
			switch {
			case delta && !blk.changed:
				b.U8(blockFromParent)
				continue
			case blk.used == 0:
				b.U8(blockErased)
				continue
			}
			b.U8(blockContents)
			written += held
			for wi := range blk.wl {
				wl := &blk.wl[wi]
				var pageMask, espMask uint8
				for k := 0; k < a.geo.CellBits; k++ {
					if wl.pages[k] != nil {
						pageMask |= 1 << k
					}
					if wl.esp[k] {
						espMask |= 1 << k
					}
				}
				b.U8(pageMask)
				b.U8(espMask)
				for k := 0; k < a.geo.CellBits; k++ {
					if pageMask&(1<<k) != 0 {
						b.Bytes(wl.pages[k])
					}
				}
			}
		}
	}
	return written, live, b.Err()
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
// like r. Parity for programmed pages is recomputed against the
// currently installed codec, so SetECC must run before ReadState exactly
// as it runs before first program.
func (a *Array) ReadState(r io.Reader, parents ...io.Reader) error {
	pending := make([]bool, len(a.planes)*a.geo.BlocksPerPlane)
	left, err := a.readSection(r, pending, true)
	for _, p := range parents {
		if err != nil {
			break
		}
		left, err = a.readSection(p, pending, false)
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
func (a *Array) readSection(r io.Reader, pending []bool, newest bool) (int, error) {
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
			case blockContents:
				if err := a.readBlock(b, blk, take); err != nil {
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

// readBlock decodes one blockContents body into blk, or with keep unset
// only validates and skips it.
func (a *Array) readBlock(b *binio.Reader, blk *block, keep bool) error {
	kindBits := uint8(1<<a.geo.CellBits) - 1
	if keep {
		blk.wl = make([]wordline, a.geo.WordlinesPerBlock)
	}
	for wi := 0; wi < a.geo.WordlinesPerBlock; wi++ {
		pageMask := b.U8()
		espMask := b.U8()
		if b.Err() != nil {
			return b.Err()
		}
		if pageMask&^kindBits != 0 || espMask&^kindBits != 0 {
			return fmt.Errorf("%w: page mask %#x beyond %d cell bits",
				ErrBadState, pageMask, a.geo.CellBits)
		}
		if !keep {
			for k := 0; k < a.geo.CellBits; k++ {
				if pageMask&(1<<k) != 0 {
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
			page := b.Bytes()
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
