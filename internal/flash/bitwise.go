package flash

import (
	"errors"
	"fmt"

	"parabit/internal/latch"
	"parabit/internal/sim"
)

// ErrCellMode reports an operation invalid for the array's cell mode
// (MLC sequences on a TLC array or vice versa).
var ErrCellMode = errors.New("flash: operation not supported in this cell mode")

// foldPages folds two or more operand pages into one fresh page with the
// latch package's word-wide kernel. The operand pages are only read.
func (a *Array) foldPages(op latch.Op, pages [][]byte) []byte {
	out := make([]byte, a.geo.PageSize)
	op.Fold(out, pages)
	return out
}

// Sense is one bitwise sense: its kind, its op (Op3 for SenseTLC), and its
// operand wordlines — Chunks instead for SenseChainMWS.
type Sense struct {
	Kind   latch.SenseKind
	Op     latch.Op
	Op3    latch.TLCOp3
	WLs    []WordlineAddr
	Chunks [][]WordlineAddr
}

// Sense performs one bitwise sense and leaves the result in the plane's
// cache register. It validates the operands against the kind, prices the
// sense with its latch program's cost (latch.Price, converted to array
// time by Timing.SenseLatency), consults the fault injector about the
// first operand's block, reserves the plane once the programs of every
// operand block have ended, and computes the result with the word-wide
// fold kernel. Each operand wordline's block absorbs, as read disturb,
// the senses its program gives that wordline. Read noise, if a
// Corruptor is installed, applies to the result — ParaBit results bypass
// ECC (paper §4.4.3).
func (a *Array) Sense(s Sense, at sim.Time) (SenseResult, error) {
	op, chunks := s.Op, [][]WordlineAddr{s.WLs}
	cellBits, mws := 2, s.Kind == latch.SenseMWS || s.Kind == latch.SenseChainMWS
	if s.Kind == latch.SenseTLC {
		cellBits, op = 3, s.Op3.Op()
	}
	if a.geo.CellBits != cellBits {
		return SenseResult{}, fmt.Errorf("%w: %v sense on %d-bit cells", ErrCellMode, s.Kind, a.geo.CellBits)
	}
	if s.Kind == latch.SenseChainMWS {
		if chunks = s.Chunks; len(chunks) < 2 {
			return SenseResult{}, fmt.Errorf("flash: MWS chain of %d chunks, want >= 2", len(chunks))
		}
	}
	var sros, loads, widest int
	var dur sim.Duration
	pe, esp, start := 0, true, at
	for ci, wls := range chunks {
		// A multi-wordline sense is priced one chunk at a time.
		c, err := latch.Price(s.Kind, op, len(wls))
		if err != nil {
			if s.Kind == latch.SenseChainMWS {
				err = fmt.Errorf("flash: MWS chunk %d: %w", ci, err)
			}
			return SenseResult{}, err
		}
		sros, loads, widest = sros+c.SROs, loads+c.Loads, max(widest, c.MWS)
		dur += a.timing.SenseLatency(c, a.geo.PageSize)
		for _, w := range wls {
			if err := a.geo.CheckWordline(w); err != nil {
				return SenseResult{}, err
			}
			// A lone MWS reports a plane change as leaving its block.
			if first := chunks[0][0]; w.PlaneAddr != first.PlaneAddr && s.Kind != latch.SenseMWS {
				return SenseResult{}, fmt.Errorf("%w: %v vs %v", ErrPlaneMismatch, first.PlaneAddr, w.PlaneAddr)
			}
			if mws {
				// A multi-wordline sense selects wordlines of one NAND
				// string.
				if w.PlaneAddr != wls[0].PlaneAddr || w.Block != wls[0].Block {
					return SenseResult{}, fmt.Errorf("%w: %v vs %v", ErrBlockMismatch, wls[0], w)
				}
				esp = esp && a.IsESP(PageAddr{WordlineAddr: w, Kind: LSBPage})
			}
			pe = max(pe, a.peCycles(w))
			// The sense reads its operands once their programs end.
			start = sim.Max(start, a.planeAt(w.PlaneAddr).blocks[w.Block].programmed)
		}
	}
	first := chunks[0][0]
	jitter, ferr := a.checkFault(FaultSense, first.PlaneAddr, first.Block, at)
	if ferr != nil {
		return SenseResult{}, ferr
	}
	// Register reloads cross the channel bus into the plane register.
	a.stats.BytesIn += int64(loads * a.geo.PageSize)
	_, end := a.planeAt(first.PlaneAddr).sense.ReserveLabeled(start, dur+jitter, senseLabels[s.Kind])
	res := SenseResult{Data: a.foldSense(s.Kind, op, chunks), Ready: end}
	exposure := 0
	for _, wls := range chunks {
		// Priced without refusal above.
		c, _ := latch.Price(s.Kind, op, len(wls))
		for i, w := range wls {
			exposure = max(exposure, a.noteSense(w, c.Reads(i), end))
		}
	}
	if a.noise != nil {
		if mws {
			// Each sense divides its margin across its own chunk only;
			// the widest chunk sets the error exposure.
			res.FlipCount = a.corruptMWS(res.Data, pe, widest, esp, exposure)
		} else {
			res.FlipCount = a.corrupt(res.Data, pe, sros, exposure)
		}
		a.stats.InjectedFlips += int64(res.FlipCount)
	}
	a.stats.SROs += int64(sros)
	if mws {
		a.stats.MWSSenses += int64(len(chunks))
	}
	a.stats.BitwiseOps++
	return res, nil
}

// senseLabels names each kind's bookings on the plane's sense calendar.
var senseLabels = [...]string{
	latch.SensePair: "bitwise", latch.SenseLocFree: "bitwise", latch.SenseLocFreeLSB: "bitwise",
	latch.SenseTLC: "bitwise", latch.SenseChainLSB: "chain", latch.SenseMWS: "mws", latch.SenseChainMWS: "mws",
}

// foldSense computes a validated sense's result with foldPages, reading
// every operand page in place through the array's reusable view list: a
// pair or TLC sense folds the pages of its wordline in kind order; a
// location-free sense takes the LSB page of its second wordline as the
// kernel's LSB slot and the MSB page of its first as the MSB slot
// (operand order per §4.2); every other kind folds the LSB pages of its
// wordlines in order. Binary ops are symmetric, so the all-LSB layout
// can put its first wordline in the LSB slot; the NOT pair then inverts
// the first (wordline m) or second (wordline n) operand, matching the
// LSB location-free sequences. AND and OR are associative, so folding
// every chunk's operands into one page equals folding each chunk and
// then the chunk results.
func (a *Array) foldSense(kind latch.SenseKind, op latch.Op, chunks [][]WordlineAddr) []byte {
	views := a.views[:0]
	switch w := chunks[0]; kind {
	case latch.SensePair, latch.SenseTLC:
		for k := PageKind(0); int(k) < a.geo.CellBits; k++ {
			views = append(views, a.pageView(w[0], k))
		}
	case latch.SenseLocFree:
		views = append(views, a.pageView(w[1], LSBPage), a.pageView(w[0], MSBPage))
	default:
		for _, wls := range chunks {
			for _, w := range wls {
				views = append(views, a.pageView(w, LSBPage))
			}
		}
	}
	out := a.foldPages(op, views)
	// Drop the page references so the scratch list does not keep an
	// erased block's pages alive.
	clear(views)
	a.views = views[:0]
	return out
}
