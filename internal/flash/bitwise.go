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

// SenseKind names the operand layout a bitwise sense reads, and with it
// the latch program that prices the sense. Every kind is one validated
// program applied to operand pages on one plane (paper §4.1–4.4).
type SenseKind uint8

const (
	// SensePair is basic ParaBit (§4.1): the LSB page of WLs[0] holds the
	// first operand and its MSB page the second.
	SensePair SenseKind = iota
	// SenseLocFree is location-free ParaBit (§4.2): the first operand is
	// the MSB page of WLs[0], the second the LSB page of WLs[1]. Both
	// wordlines share a plane — they use that plane's latching circuits
	// via CACHE READ RANDOM — but may sit in different blocks. XOR-family
	// ops require the added inverter hardware.
	SenseLocFree
	// SenseLocFreeLSB is the location-free op of the all-LSB layout
	// (§5.5): the operands are the LSB pages of WLs[0] and WLs[1] on one
	// plane, at the shorter LSB sequence's SRO count (2 for
	// AND/OR/NAND/NOR, 4 for XOR/XNOR).
	SenseLocFreeLSB
	// SenseChainLSB reduces the LSB pages of two or more WLs on one plane
	// with a single chained location-free operation, priced from latch's
	// chained program of the op (latch.PriceChain).
	SenseChainLSB
	// SenseMWS is a Flash-Cosmos reduction: one multi-wordline sense over
	// the LSB pages of 2..MaxMWSOperands WLs that share a block, computing
	// AND/OR/NAND/NOR of all of them in a single read operation. Latency
	// is Timing.MWSLatency(k) — roughly one SRO regardless of operand
	// count. Operands not written with ESP still compute correctly but
	// sense with degraded margin, which the reliability model's
	// MWSCorruptor hook prices.
	SenseMWS
	// SenseChainMWS chains consecutive multi-wordline senses on one
	// plane, one per entry of Chunks: each chunk of 2..MaxMWSOperands
	// block-colocated wordlines folds inside its NAND strings, and chunk
	// results accumulate in the plane's latches exactly as chained
	// location-free senses do — no program between chunks. This is how a
	// reduction wider than the sense-margin cap stays on the single-sense
	// cost curve: k operands cost ceil(k/8) serialized MWS reads, not a
	// paired-relocation program per chunk. NAND/NOR invert once at the
	// end; the per-chunk programs use the op's non-inverted base so the
	// accumulation stays associative.
	SenseChainMWS
	// SenseTLC is the three-operand op Op3 on a TLC wordline whose LSB,
	// CSB and TOP pages hold the operands (§4.4.1 — AND3 is a single
	// sense at VREAD1 detecting state E). Only valid on TLC arrays.
	SenseTLC
)

var senseKindNames = [...]string{"pair", "location-free", "location-free LSB", "LSB chain", "MWS", "MWS chain", "TLC"}

func (k SenseKind) String() string {
	if int(k) < len(senseKindNames) {
		return senseKindNames[k]
	}
	return fmt.Sprintf("SenseKind(%d)", uint8(k))
}

// Sense is one bitwise sense: its kind, its op (Op3 for SenseTLC), and its
// operand wordlines — Chunks instead for SenseChainMWS.
type Sense struct {
	Kind   SenseKind
	Op     latch.Op
	Op3    latch.TLCOp3
	WLs    []WordlineAddr
	Chunks [][]WordlineAddr
}

// tlcFold maps a three-operand op to the op its three pages fold with.
var tlcFold = [...]latch.Op{
	latch.TLCAnd3: latch.OpAnd, latch.TLCOr3: latch.OpOr,
	latch.TLCNand3: latch.OpNand, latch.TLCNor3: latch.OpNor,
}

// Sense performs one bitwise sense and leaves the result in the plane's
// cache register. It validates the operands against the kind, prices the
// sense from the kind's latch program (SROs times the sense latency, or
// the MWS latency), consults the fault injector about the first
// operand's block, reserves the plane once the programs of every operand
// block have ended, and computes the result with the word-wide fold
// kernel. Each operand wordline's block absorbs its share
// of the senses as read disturb. Read noise, if a Corruptor is installed,
// applies to the result — ParaBit results bypass ECC (paper §4.4.3).
func (a *Array) Sense(s Sense, at sim.Time) (SenseResult, error) {
	op, chunks := s.Op, [][]WordlineAddr{s.WLs}
	cellBits, wantWLs, mws := 2, 0, s.Kind == SenseMWS || s.Kind == SenseChainMWS
	var sros, loads, widest int
	var dur sim.Duration
	switch s.Kind {
	case SensePair:
		wantWLs = 1
	case SenseLocFree, SenseLocFreeLSB:
		wantWLs = 2
	case SenseTLC:
		cellBits, wantWLs = 3, 1
	case SenseChainMWS:
		chunks = s.Chunks
	}
	if a.geo.CellBits != cellBits {
		return SenseResult{}, fmt.Errorf("%w: %v sense on %d-bit cells", ErrCellMode, s.Kind, a.geo.CellBits)
	}
	switch {
	case wantWLs > 0 && len(s.WLs) != wantWLs:
		return SenseResult{}, fmt.Errorf("flash: %v sense of %d wordlines, want %d", s.Kind, len(s.WLs), wantWLs)
	case s.Kind == SenseChainLSB:
		// The op's base chain comes from latch's chain table, as an MWS
		// program comes from its MWS table. It refuses k < 2 and an op
		// with no chain; a chain longer than one program runs its body
		// looped and is priced alike.
		var err error
		if sros, loads, err = latch.PriceChain(op, len(s.WLs)); err != nil {
			return SenseResult{}, err
		}
	case s.Kind == SenseChainMWS && len(chunks) < 2:
		return SenseResult{}, fmt.Errorf("flash: MWS chain of %d chunks, want >= 2", len(chunks))
	}
	pe, esp, start := 0, true, at
	for ci, wls := range chunks {
		if mws {
			// The control program comes from latch's validated MWS table,
			// which refuses an op without an MWS form or a k outside
			// 2..MaxMWSOperands. It keeps the MWS path under the same
			// legality rail (latch.Sequence.Validate) as every other
			// sequence in the device and prices the sense in SROs; the
			// word-wide kernel computes the data.
			base, _ := op.Base()
			seq, err := latch.MWSProgram(base, len(wls))
			if err != nil {
				if s.Kind == SenseChainMWS {
					err = fmt.Errorf("flash: MWS chunk %d: %w", ci, err)
				}
				return SenseResult{}, err
			}
			sros += seq.SROs()
			dur += a.timing.MWSLatency(len(wls))
			widest = max(widest, len(wls))
		}
		for _, w := range wls {
			if err := a.geo.CheckWordline(w); err != nil {
				return SenseResult{}, err
			}
			// A lone MWS reports a plane change as leaving its block.
			if first := chunks[0][0]; w.PlaneAddr != first.PlaneAddr && s.Kind != SenseMWS {
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
	label := "bitwise"
	switch s.Kind {
	case SensePair:
		sros = latch.ForOp(op).SROs()
	case SenseLocFree:
		sros = latch.ForOpLocFree(op).SROs()
	case SenseLocFreeLSB:
		sros = latch.ForOpLocFreeLSB(op).SROs()
	case SenseTLC:
		sros, op = latch.TLCForOp(s.Op3).SROs(), tlcFold[s.Op3]
	case SenseChainLSB:
		label = "chain"
	default:
		label = "mws"
	}
	if !mws {
		dur = sim.Duration(sros) * a.timing.SenseSRO
	}
	first := chunks[0][0]
	jitter, ferr := a.checkFault(FaultSense, first.PlaneAddr, first.Block, at)
	if ferr != nil {
		return SenseResult{}, ferr
	}
	// Register reloads cross the channel bus into the plane register.
	dur += sim.Duration(loads) * a.timing.Transfer(a.geo.PageSize)
	a.stats.BytesIn += int64(loads * a.geo.PageSize)
	_, end := a.planeAt(first.PlaneAddr).sense.ReserveLabeled(start, dur+jitter, label)
	res := SenseResult{Data: a.foldSense(s.Kind, op, chunks), Ready: end}
	exposure := 0
	for _, wls := range chunks {
		for i, w := range wls {
			exposure = max(exposure, a.noteSense(w, senseShare(s.Kind, op, sros, i), end))
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
func (a *Array) foldSense(kind SenseKind, op latch.Op, chunks [][]WordlineAddr) []byte {
	views := a.views[:0]
	switch w := chunks[0]; kind {
	case SensePair, SenseTLC:
		for k := PageKind(0); int(k) < a.geo.CellBits; k++ {
			views = append(views, a.pageView(w[0], k))
		}
	case SenseLocFree:
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

// senseShare returns the senses of a sros-SRO sense of kind that disturb
// its i-th operand wordline. A one-wordline sense takes them all, and a
// chain or multi-wordline sense reads each wordline once. A location-free
// MSB operand is read with 2-SRO MSB reads (twice for the two-phase XOR
// family), the LSB operand with single senses; LSB-layout senses split
// evenly, and the NOT variants touch only their own wordline.
func senseShare(kind SenseKind, op latch.Op, sros, i int) int {
	first := 0
	switch kind {
	case SensePair, SenseTLC:
		return sros
	case SenseLocFree:
		first = 2
		if sros == 6 {
			first = 4
		}
	case SenseLocFreeLSB:
		first = sros - sros/2
		switch op {
		case latch.OpNotLSB:
			first = sros
		case latch.OpNotMSB:
			first = 0
		}
	default:
		return 1
	}
	if i == 0 {
		return first
	}
	return sros - first
}

// BitwiseLatencyLocFreeLSB returns the array-side latency of an all-LSB
// location-free op.
func (t Timing) BitwiseLatencyLocFreeLSB(op latch.Op) sim.Duration {
	return sim.Duration(latch.ForOpLocFreeLSB(op).SROs()) * t.SenseSRO
}

// BitwiseLatency returns the array-side latency of a basic ParaBit op.
func (t Timing) BitwiseLatency(op latch.Op) sim.Duration {
	return sim.Duration(latch.ForOp(op).SROs()) * t.SenseSRO
}

// BitwiseLatencyLocFree returns the array-side latency of a location-free
// ParaBit op.
func (t Timing) BitwiseLatencyLocFree(op latch.Op) sim.Duration {
	return sim.Duration(latch.ForOpLocFree(op).SROs()) * t.SenseSRO
}
