package flash

import (
	"fmt"

	"parabit/internal/latch"
	"parabit/internal/sim"
)

// Flash-Cosmos multi-wordline sense: the array-side entry point for the
// fourth scheme. Where the pairwise paths above issue one sense per
// combine, BitwiseSenseMWS applies the read voltage to every operand
// wordline of one block at once and lets the NAND string compute the
// AND/OR fold in a single read operation.

// ErrBlockMismatch reports MWS operands that do not share a block: a
// multi-wordline sense selects wordlines of one NAND string, so all
// operands must be colocated in the same block (the FTL's placement job;
// callers fall back to pairwise chains when it fails).
var ErrBlockMismatch = fmt.Errorf("flash: MWS operands not colocated in one block")

// MWSCorruptor is an optional Corruptor extension for the Flash-Cosmos
// reliability model: the error rate of a multi-wordline sense grows with
// the number of selected wordlines (the sense margin divides across the
// series cells) and shrinks when the operands were ESP-programmed.
type MWSCorruptor interface {
	Corruptor
	CorruptMWS(data []byte, peCycles, wlCount int, esp bool) int
}

// corruptMWS routes MWS results through the model's multi-wordline hook
// when it has one, falling back to the single-sense model otherwise.
func (a *Array) corruptMWS(data []byte, pe, wlCount int, esp bool, exposure int) int {
	if a.noise == nil {
		return 0
	}
	if mc, ok := a.noise.(MWSCorruptor); ok {
		return mc.CorruptMWS(data, pe, wlCount, esp)
	}
	return a.corrupt(data, pe, 1, exposure)
}

// BitwiseSenseMWS performs a Flash-Cosmos reduction: one multi-wordline
// sense over the LSB pages of 2..MaxMWSOperands wordlines that share a
// block, computing AND/OR/NAND/NOR of all of them in a single read
// operation. Latency is Timing.MWSLatency(k) — roughly one SRO regardless
// of operand count — plus any injected jitter. Operands not written with
// ESP still compute correctly but sense with degraded margin, which the
// reliability model's MWSCorruptor hook prices.
func (a *Array) BitwiseSenseMWS(op latch.Op, wls []WordlineAddr, at sim.Time) (SenseResult, error) {
	if a.geo.CellBits != 2 {
		return SenseResult{}, fmt.Errorf("%w: MLC op %v on %d-bit cells", ErrCellMode, op, a.geo.CellBits)
	}
	// The control program comes from latch's validated MWS table, which
	// refuses an op without an MWS form or a k outside 2..MaxMWSOperands.
	// It keeps the MWS path under the same legality rails (latch.Validate
	// and the latchseq analyzer) as every other sequence in the device and
	// prices the sense in SROs; the word-wide kernel computes the data.
	k := len(wls)
	seq, err := latch.MWSProgram(op, k)
	if err != nil {
		return SenseResult{}, err
	}
	first := wls[0]
	maxPE := 0
	esp := true
	for _, w := range wls {
		if err := a.geo.CheckWordline(w); err != nil {
			return SenseResult{}, err
		}
		if w.PlaneAddr != first.PlaneAddr || w.Block != first.Block {
			return SenseResult{}, fmt.Errorf("%w: %v vs %v", ErrBlockMismatch, first, w)
		}
		if pe := a.peCycles(w); pe > maxPE {
			maxPE = pe
		}
		esp = esp && a.IsESP(PageAddr{WordlineAddr: w, Kind: LSBPage})
	}
	jitter, ferr := a.checkFault(FaultSense, first.PlaneAddr, first.Block, at)
	if ferr != nil {
		return SenseResult{}, ferr
	}
	pl := a.planeAt(first.PlaneAddr)
	_, end := pl.sense.ReserveLabeled(at, a.timing.MWSLatency(k)+jitter, "mws")
	acc := a.foldLSB(op, wls)
	// One sense disturbs every selected wordline once; exposure is the
	// block's read count before this operation.
	exposure := 0
	for _, w := range wls {
		if e := a.noteReads(w, 1); e > exposure {
			exposure = e
		}
	}
	res := SenseResult{Data: acc, Ready: end}
	if a.noise != nil {
		res.FlipCount = a.corruptMWS(acc, maxPE, k, esp, exposure)
		a.stats.InjectedFlips += int64(res.FlipCount)
	}
	a.stats.SROs += int64(seq.SROs())
	a.stats.MWSSenses++
	a.stats.BitwiseOps++
	return res, nil
}

// BitwiseChainMWS chains consecutive multi-wordline senses on one plane:
// each chunk of 2..MaxMWSOperands block-colocated wordlines folds inside
// its NAND strings, and chunk results accumulate in the plane's latches
// exactly as chained location-free senses do — no program between
// chunks. This is how a reduction wider than the sense-margin cap stays
// on the single-sense cost curve: k operands cost ceil(k/8) serialized
// MWS reads, not a paired-relocation program per chunk. NAND/NOR invert
// once at the end; the per-chunk programs use the op's non-inverted
// base so the accumulation stays associative.
func (a *Array) BitwiseChainMWS(op latch.Op, chunks [][]WordlineAddr, at sim.Time) (SenseResult, error) {
	if a.geo.CellBits != 2 {
		return SenseResult{}, fmt.Errorf("%w: MLC MWS chain on %d-bit cells", ErrCellMode, a.geo.CellBits)
	}
	if len(chunks) < 2 {
		return SenseResult{}, fmt.Errorf("flash: MWS chain of %d chunks, want >= 2", len(chunks))
	}
	base := foldBase(op)
	var plane PlaneAddr
	var dur sim.Duration
	maxPE, maxChunk, srOs := 0, 0, 0
	esp := true
	for ci, wls := range chunks {
		k := len(wls)
		seq, err := latch.MWSProgram(base, k)
		if err != nil {
			return SenseResult{}, fmt.Errorf("flash: MWS chunk %d: %w", ci, err)
		}
		first := wls[0]
		if ci == 0 {
			plane = first.PlaneAddr
		}
		for _, w := range wls {
			if err := a.geo.CheckWordline(w); err != nil {
				return SenseResult{}, err
			}
			if w.PlaneAddr != plane {
				return SenseResult{}, fmt.Errorf("%w: %v vs %v", ErrPlaneMismatch, plane, w.PlaneAddr)
			}
			if w.Block != first.Block {
				return SenseResult{}, fmt.Errorf("%w: %v vs %v", ErrBlockMismatch, first, w)
			}
			if pe := a.peCycles(w); pe > maxPE {
				maxPE = pe
			}
			esp = esp && a.IsESP(PageAddr{WordlineAddr: w, Kind: LSBPage})
		}
		srOs += seq.SROs()
		dur += a.timing.MWSLatency(k)
		if k > maxChunk {
			maxChunk = k
		}
	}
	jitter, ferr := a.checkFault(FaultSense, plane, chunks[0][0].Block, at)
	if ferr != nil {
		return SenseResult{}, ferr
	}
	pl := a.planeAt(plane)
	_, end := pl.sense.ReserveLabeled(at, dur+jitter, "mws")
	// AND and OR are associative, so folding every chunk's operands into
	// one page equals folding each chunk and then the chunk results.
	acc := a.foldLSB(op, chunks...)
	exposure := 0
	for _, wls := range chunks {
		for _, w := range wls {
			if e := a.noteReads(w, 1); e > exposure {
				exposure = e
			}
		}
	}
	res := SenseResult{Data: acc, Ready: end}
	if a.noise != nil {
		// Each sense divides its margin across its own chunk only; the
		// widest chunk sets the chain's error exposure.
		res.FlipCount = a.corruptMWS(acc, maxPE, maxChunk, esp, exposure)
		a.stats.InjectedFlips += int64(res.FlipCount)
	}
	a.stats.SROs += int64(srOs)
	a.stats.MWSSenses += int64(len(chunks))
	a.stats.BitwiseOps++
	return res, nil
}

// BitwiseMWS performs BitwiseSenseMWS and transfers the result to the
// controller.
func (a *Array) BitwiseMWS(op latch.Op, wls []WordlineAddr, at sim.Time) ([]byte, sim.Time, error) {
	res, err := a.BitwiseSenseMWS(op, wls, at)
	if err != nil {
		return nil, 0, err
	}
	done := a.transferOut(wls[0].Channel, res.Ready, len(res.Data))
	return res.Data, done, nil
}
