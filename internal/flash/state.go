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

// WriteState serializes the array's durable contents — per-block erase
// and read-disturb counters plus every programmed page and its ESP flag —
// in a deterministic, geometry-implied order. Parity is not written: it
// is a pure function of page data and the installed codec, so ReadState
// recomputes it. Timing state (plane and channel occupancy) is
// deliberately volatile: a remounted device starts idle at t=0.
func (a *Array) WriteState(w io.Writer) error {
	b := binio.NewWriter(w)
	b.U32(stateMagic)
	for _, pl := range a.planes {
		for bi := range pl.blocks {
			blk := &pl.blocks[bi]
			b.I64(int64(blk.erases))
			b.I64(int64(blk.reads))
			if blk.wl == nil {
				b.U8(0)
				continue
			}
			b.U8(1)
			for wi := range blk.wl {
				wl := &blk.wl[wi]
				var pageMask, espMask uint8
				for k := 0; k < a.geo.CellBits; k++ {
					if wl.pages != nil && wl.pages[k] != nil {
						pageMask |= 1 << k
					}
					if wl.esp != nil && wl.esp[k] {
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
	return b.Err()
}

// ReadState restores a WriteState blob into a freshly constructed
// (fully erased) array with the same geometry. Parity for programmed
// pages is recomputed against the currently installed codec, so SetECC
// must run before ReadState exactly as it runs before first program.
func (a *Array) ReadState(r io.Reader) error {
	b := binio.NewReader(r, uint32(a.geo.PageSize))
	if m := b.U32(); b.Err() == nil && m != stateMagic {
		return fmt.Errorf("%w: magic %#x", ErrBadState, m)
	}
	kindBits := uint8(1<<a.geo.CellBits) - 1
	for _, pl := range a.planes {
		for bi := range pl.blocks {
			blk := &pl.blocks[bi]
			blk.erases = int(b.I64())
			blk.reads = int(b.I64())
			if blk.erases < 0 || blk.reads < 0 {
				return fmt.Errorf("%w: negative counters on block %d", ErrBadState, bi)
			}
			if b.U8() == 0 {
				continue
			}
			if b.Err() != nil {
				return b.Err()
			}
			blk.wl = make([]wordline, a.geo.WordlinesPerBlock)
			for wi := range blk.wl {
				wl := &blk.wl[wi]
				pageMask := b.U8()
				espMask := b.U8()
				if pageMask&^kindBits != 0 || espMask&^kindBits != 0 {
					return fmt.Errorf("%w: page mask %#x beyond %d cell bits",
						ErrBadState, pageMask, a.geo.CellBits)
				}
				if pageMask == 0 && espMask == 0 {
					continue
				}
				wl.pages = make([][]byte, a.geo.CellBits)
				if a.codec != nil {
					wl.parity = make([][]byte, a.geo.CellBits)
				}
				if espMask != 0 {
					wl.esp = make([]bool, a.geo.CellBits)
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
					if a.codec != nil {
						par, err := a.codec.Encode(page)
						if err != nil {
							return fmt.Errorf("flash: restore parity: %w", err)
						}
						wl.parity[k] = par
					}
				}
			}
		}
	}
	return b.Err()
}
