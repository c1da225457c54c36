package flash

import (
	"encoding/binary"
	"errors"
	"fmt"

	"parabit/internal/latch"
	"parabit/internal/sim"
)

// ErrCellMode reports an operation invalid for the array's cell mode
// (MLC sequences on a TLC array or vice versa).
var ErrCellMode = errors.New("flash: operation not supported in this cell mode")

// applyInto computes a ParaBit operation over whole pages into dst, 64 bits
// at a time with a byte tail. dst may be the same slice as lsb, msb or
// both — every word is loaded before it is stored — which is how a fold
// accumulates in one result page. The latch package proves per-bit
// equivalence between this kernel and the actual control sequences (see
// TestKernelMatchesCircuit); the array uses the kernel so an 8 KB page op
// is about a thousand word ops instead of 65536 circuit simulations.
func applyInto(op latch.Op, dst, lsb, msb []byte) {
	n := len(dst)
	if len(lsb) != n || len(msb) != n {
		panic(fmt.Sprintf("flash: page sizes differ: dst %d, lsb %d, msb %d", n, len(lsb), len(msb)))
	}
	// Every op is AND, OR or XOR of its inputs, optionally inverted; a NOT
	// is the inverted AND of its one input with itself.
	base, inv := foldBase(op), uint64(0)
	switch op {
	case latch.OpAnd, latch.OpOr, latch.OpXor:
	case latch.OpNand, latch.OpNor, latch.OpXnor:
		inv = ^uint64(0)
	case latch.OpNotLSB:
		base, inv, msb = latch.OpAnd, ^uint64(0), lsb
	case latch.OpNotMSB:
		base, inv, lsb = latch.OpAnd, ^uint64(0), msb
	default:
		panic(fmt.Sprintf("flash: unknown op %v", op))
	}
	// Reslicing every operand to n, and each word to [i:i+8], lets the
	// compiler drop the per-load bounds checks.
	le := binary.LittleEndian
	lsb, msb = lsb[:n], msb[:n]
	i := 0
	switch base {
	case latch.OpAnd:
		for ; i+8 <= n; i += 8 {
			d, l, m := dst[i:i+8], lsb[i:i+8], msb[i:i+8]
			le.PutUint64(d, le.Uint64(l)&le.Uint64(m)^inv)
		}
		for ; i < n; i++ {
			dst[i] = lsb[i]&msb[i] ^ byte(inv)
		}
	case latch.OpOr:
		for ; i+8 <= n; i += 8 {
			d, l, m := dst[i:i+8], lsb[i:i+8], msb[i:i+8]
			le.PutUint64(d, (le.Uint64(l)|le.Uint64(m))^inv)
		}
		for ; i < n; i++ {
			dst[i] = (lsb[i] | msb[i]) ^ byte(inv)
		}
	case latch.OpXor:
		for ; i+8 <= n; i += 8 {
			d, l, m := dst[i:i+8], lsb[i:i+8], msb[i:i+8]
			le.PutUint64(d, le.Uint64(l)^le.Uint64(m)^inv)
		}
		for ; i < n; i++ {
			dst[i] = lsb[i] ^ msb[i] ^ byte(inv)
		}
	}
}

// foldBase returns the associative operation a k-operand fold of op
// accumulates with: a complementing op folds as its base and inverts once.
func foldBase(op latch.Op) latch.Op {
	switch op {
	case latch.OpNand:
		return latch.OpAnd
	case latch.OpNor:
		return latch.OpOr
	case latch.OpXnor:
		return latch.OpXor
	}
	return op
}

// foldPages folds two or more operand pages into one fresh page, which
// every step after the first accumulates into in place. Each step but the
// last applies op's base and the last applies op itself, so a
// complementing op inverts in the same pass. The operand pages are only
// read.
func (a *Array) foldPages(op latch.Op, pages [][]byte) []byte {
	out := make([]byte, a.geo.PageSize)
	acc, base := pages[0], foldBase(op)
	for i, p := range pages[1:] {
		step := base
		if i == len(pages)-2 {
			step = op
		}
		applyInto(step, out, acc, p)
		acc = out
	}
	return out
}

// foldLSB folds the LSB pages of every wordline in groups, in order, with
// foldPages, reading each operand in place through the array's reusable
// view list.
func (a *Array) foldLSB(op latch.Op, groups ...[]WordlineAddr) []byte {
	views := a.views[:0]
	for _, wls := range groups {
		for _, w := range wls {
			views = append(views, a.pageView(w, LSBPage))
		}
	}
	out := a.foldPages(op, views)
	// Drop the page references so the scratch list does not keep an
	// erased block's pages alive.
	clear(views)
	a.views = views[:0]
	return out
}

// BitwiseSense performs a basic ParaBit operation on a wordline whose LSB
// page holds the first operand and MSB page the second (paper §4.1). The
// result lands in the plane's cache register; latency is the control
// sequence's SRO count times the sense latency. Read noise, if a Corruptor
// is installed, applies to the result — ParaBit results bypass ECC
// (paper §4.4.3).
func (a *Array) BitwiseSense(op latch.Op, w WordlineAddr, at sim.Time) (SenseResult, error) {
	if a.geo.CellBits != 2 {
		return SenseResult{}, fmt.Errorf("%w: MLC op %v on %d-bit cells", ErrCellMode, op, a.geo.CellBits)
	}
	if err := a.geo.CheckWordline(w); err != nil {
		return SenseResult{}, err
	}
	seq := latch.ForOp(op)
	jitter, ferr := a.checkFault(FaultSense, w.PlaneAddr, w.Block, at)
	if ferr != nil {
		return SenseResult{}, ferr
	}
	pl := a.planeAt(w.PlaneAddr)
	_, end := pl.sense.ReserveLabeled(at, sim.Duration(seq.SROs())*a.timing.SenseSRO+jitter, "bitwise")
	out := make([]byte, a.geo.PageSize)
	applyInto(op, out, a.pageView(w, LSBPage), a.pageView(w, MSBPage))
	exposure := a.noteReads(w, seq.SROs())
	res := SenseResult{Data: out, Ready: end}
	if a.noise != nil {
		res.FlipCount = a.corrupt(out, a.peCycles(w), seq.SROs(), exposure)
		a.stats.InjectedFlips += int64(res.FlipCount)
	}
	a.stats.SROs += int64(seq.SROs())
	a.stats.BitwiseOps++
	return res, nil
}

// Bitwise performs BitwiseSense and transfers the result to the
// controller, returning the data and the time the controller holds it.
func (a *Array) Bitwise(op latch.Op, w WordlineAddr, at sim.Time) ([]byte, sim.Time, error) {
	res, err := a.BitwiseSense(op, w, at)
	if err != nil {
		return nil, 0, err
	}
	done := a.transferOut(w.Channel, res.Ready, len(res.Data))
	return res.Data, done, nil
}

// BitwiseSenseLocFree performs a location-free ParaBit operation
// (paper §4.2): the first operand is the MSB page of wordline m, the
// second the LSB page of wordline n. Both wordlines must share a plane —
// they use that plane's latching circuits via CACHE READ RANDOM — but may
// sit in different blocks. Latency is the location-free sequence's SRO
// count; XOR-family ops require the added inverter hardware.
func (a *Array) BitwiseSenseLocFree(op latch.Op, m, n WordlineAddr, at sim.Time) (SenseResult, error) {
	if a.geo.CellBits != 2 {
		return SenseResult{}, fmt.Errorf("%w: MLC op %v on %d-bit cells", ErrCellMode, op, a.geo.CellBits)
	}
	if err := a.geo.CheckWordline(m); err != nil {
		return SenseResult{}, err
	}
	if err := a.geo.CheckWordline(n); err != nil {
		return SenseResult{}, err
	}
	if m.PlaneAddr != n.PlaneAddr {
		return SenseResult{}, fmt.Errorf("%w: %v vs %v", ErrPlaneMismatch, m.PlaneAddr, n.PlaneAddr)
	}
	seq := latch.ForOpLocFree(op)
	jitter, ferr := a.checkFault(FaultSense, m.PlaneAddr, m.Block, at)
	if ferr != nil {
		return SenseResult{}, ferr
	}
	pl := a.planeAt(m.PlaneAddr)
	_, end := pl.sense.ReserveLabeled(at, sim.Duration(seq.SROs())*a.timing.SenseSRO+jitter, "bitwise")
	// Operand order per §4.2: M from the MSB page, N from the LSB page.
	out := make([]byte, a.geo.PageSize)
	applyInto(op, out, a.pageView(n, LSBPage), a.pageView(m, MSBPage))
	// Disturb attribution: the MSB operand is read with 2-SRO MSB reads
	// (twice for the two-phase XOR family), the LSB operand with single
	// senses.
	mShare := 2
	if seq.SROs() == 6 {
		mShare = 4
	}
	expM := a.noteReads(m, mShare)
	expN := a.noteReads(n, seq.SROs()-mShare)
	exposure := expM
	if expN > exposure {
		exposure = expN
	}
	res := SenseResult{Data: out, Ready: end}
	if a.noise != nil {
		pe := a.peCycles(m)
		if p2 := a.peCycles(n); p2 > pe {
			pe = p2
		}
		res.FlipCount = a.corrupt(out, pe, seq.SROs(), exposure)
		a.stats.InjectedFlips += int64(res.FlipCount)
	}
	a.stats.SROs += int64(seq.SROs())
	a.stats.BitwiseOps++
	return res, nil
}

// BitwiseSenseLocFreeLSB is the location-free operation for the all-LSB
// data layout (§5.5): both operands are LSB pages of aligned wordlines on
// one plane — M on wordline m, N on wordline n. Costs the shorter LSB
// sequence's SRO count (2 for AND/OR/NAND/NOR, 4 for XOR/XNOR).
func (a *Array) BitwiseSenseLocFreeLSB(op latch.Op, m, n WordlineAddr, at sim.Time) (SenseResult, error) {
	if a.geo.CellBits != 2 {
		return SenseResult{}, fmt.Errorf("%w: MLC op %v on %d-bit cells", ErrCellMode, op, a.geo.CellBits)
	}
	if err := a.geo.CheckWordline(m); err != nil {
		return SenseResult{}, err
	}
	if err := a.geo.CheckWordline(n); err != nil {
		return SenseResult{}, err
	}
	if m.PlaneAddr != n.PlaneAddr {
		return SenseResult{}, fmt.Errorf("%w: %v vs %v", ErrPlaneMismatch, m.PlaneAddr, n.PlaneAddr)
	}
	seq := latch.ForOpLocFreeLSB(op)
	jitter, ferr := a.checkFault(FaultSense, m.PlaneAddr, m.Block, at)
	if ferr != nil {
		return SenseResult{}, ferr
	}
	pl := a.planeAt(m.PlaneAddr)
	_, end := pl.sense.ReserveLabeled(at, sim.Duration(seq.SROs())*a.timing.SenseSRO+jitter, "bitwise")
	// Binary ops are symmetric, so m can take the kernel's LSB slot and n
	// its MSB slot; the NOT pair then inverts the first (wordline m) or
	// second (wordline n) operand, matching the LSB location-free
	// sequences.
	out := make([]byte, a.geo.PageSize)
	applyInto(op, out, a.pageView(m, LSBPage), a.pageView(n, LSBPage))
	// LSB-layout senses split evenly; the NOT variants touch only their
	// own wordline.
	mShare := seq.SROs() - seq.SROs()/2
	switch op {
	case latch.OpNotLSB:
		mShare = seq.SROs()
	case latch.OpNotMSB:
		mShare = 0
	}
	expM := a.noteReads(m, mShare)
	expN := a.noteReads(n, seq.SROs()-mShare)
	exposure := expM
	if expN > exposure {
		exposure = expN
	}
	res := SenseResult{Data: out, Ready: end}
	if a.noise != nil {
		pe := a.peCycles(m)
		if p2 := a.peCycles(n); p2 > pe {
			pe = p2
		}
		res.FlipCount = a.corrupt(out, pe, seq.SROs(), exposure)
		a.stats.InjectedFlips += int64(res.FlipCount)
	}
	a.stats.SROs += int64(seq.SROs())
	a.stats.BitwiseOps++
	return res, nil
}

// BitwiseLocFreeLSB performs BitwiseSenseLocFreeLSB and transfers the
// result to the controller.
func (a *Array) BitwiseLocFreeLSB(op latch.Op, m, n WordlineAddr, at sim.Time) ([]byte, sim.Time, error) {
	res, err := a.BitwiseSenseLocFreeLSB(op, m, n, at)
	if err != nil {
		return nil, 0, err
	}
	done := a.transferOut(m.Channel, res.Ready, len(res.Data))
	return res.Data, done, nil
}

// BitwiseLatencyLocFreeLSB returns the array-side latency of an all-LSB
// location-free op.
func (t Timing) BitwiseLatencyLocFreeLSB(op latch.Op) sim.Duration {
	return sim.Duration(latch.ForOpLocFreeLSB(op).SROs()) * t.SenseSRO
}

// BitwiseLocFree performs BitwiseSenseLocFree and transfers the result to
// the controller.
func (a *Array) BitwiseLocFree(op latch.Op, m, n WordlineAddr, at sim.Time) ([]byte, sim.Time, error) {
	res, err := a.BitwiseSenseLocFree(op, m, n, at)
	if err != nil {
		return nil, 0, err
	}
	done := a.transferOut(m.Channel, res.Ready, len(res.Data))
	return res.Data, done, nil
}

// ChainCost describes the array-side cost of a location-free k-operand
// reduction (§4.2). For AND and OR the running result stays in the
// latches (A and B respectively), so each additional operand costs one
// more sense. The XOR family cannot accumulate in place: after each step
// the partial result goes to the controller buffer and is reloaded (the
// result and its complement) before the next operand's two-phase
// sensing — two register loads plus two senses per additional operand.
type ChainCost struct {
	SROs          int // total sensing operations
	RegisterLoads int // controller-buffer reloads (page transfers in)
}

// ChainCostLSB returns the cost of reducing k all-LSB aligned operands.
func ChainCostLSB(op latch.Op, k int) (ChainCost, error) {
	if k < 2 {
		return ChainCost{}, fmt.Errorf("flash: chain of %d operands", k)
	}
	base := latch.ForOpLocFreeLSB(op).SROs()
	switch op {
	case latch.OpAnd, latch.OpOr:
		// One sense per operand: the first two cost `base` (2), each
		// additional operand gates the latch with one more sense.
		return ChainCost{SROs: base + (k - 2)}, nil
	case latch.OpNand, latch.OpNor:
		// Accumulate as AND/OR, invert on the final transfer.
		return ChainCost{SROs: base + (k - 2)}, nil
	case latch.OpXor, latch.OpXnor:
		// Buffer round-trip per extra operand: reload result + inverted
		// result, then the two-phase sensing of the new operand.
		return ChainCost{SROs: base + 2*(k-2), RegisterLoads: 2 * (k - 2)}, nil
	default:
		return ChainCost{}, fmt.Errorf("flash: op %v cannot chain", op)
	}
}

// BitwiseChainLSB reduces k aligned LSB-resident operands on one plane
// with a single chained location-free operation. All wordlines must share
// a plane. The result lands in the plane's cache register.
func (a *Array) BitwiseChainLSB(op latch.Op, wls []WordlineAddr, at sim.Time) (SenseResult, error) {
	if a.geo.CellBits != 2 {
		return SenseResult{}, fmt.Errorf("%w: MLC chain on %d-bit cells", ErrCellMode, a.geo.CellBits)
	}
	if len(wls) < 2 {
		return SenseResult{}, fmt.Errorf("flash: chain of %d operands", len(wls))
	}
	cost, err := ChainCostLSB(op, len(wls))
	if err != nil {
		return SenseResult{}, err
	}
	plane := wls[0].PlaneAddr
	maxPE := 0
	for _, w := range wls {
		if err := a.geo.CheckWordline(w); err != nil {
			return SenseResult{}, err
		}
		if w.PlaneAddr != plane {
			return SenseResult{}, fmt.Errorf("%w: %v vs %v", ErrPlaneMismatch, plane, w.PlaneAddr)
		}
		if pe := a.peCycles(w); pe > maxPE {
			maxPE = pe
		}
	}
	jitter, ferr := a.checkFault(FaultSense, plane, wls[0].Block, at)
	if ferr != nil {
		return SenseResult{}, ferr
	}
	pl := a.planeAt(plane)
	dur := sim.Duration(cost.SROs)*a.timing.SenseSRO + jitter
	// Register reloads cross the channel bus into the plane register.
	for i := 0; i < cost.RegisterLoads; i++ {
		dur += a.timing.Transfer(a.geo.PageSize)
		a.stats.BytesIn += int64(a.geo.PageSize)
	}
	_, end := pl.sense.ReserveLabeled(at, dur, "chain")
	acc := a.foldLSB(op, wls)
	exposure := 0
	for _, w := range wls {
		if e := a.noteReads(w, 1); e > exposure {
			exposure = e
		}
	}
	res := SenseResult{Data: acc, Ready: end}
	if a.noise != nil {
		res.FlipCount = a.corrupt(acc, maxPE, cost.SROs, exposure)
		a.stats.InjectedFlips += int64(res.FlipCount)
	}
	a.stats.SROs += int64(cost.SROs)
	a.stats.BitwiseOps++
	return res, nil
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

// BitwiseSenseTLC performs a three-operand ParaBit operation on a TLC
// wordline whose LSB, CSB and TOP pages hold the three operands
// (paper §4.4.1 — AND3 is a single sense at VREAD1 detecting state E).
// Only valid on TLC arrays.
func (a *Array) BitwiseSenseTLC(op latch.TLCOp3, w WordlineAddr, at sim.Time) (SenseResult, error) {
	if a.geo.CellBits != 3 {
		return SenseResult{}, fmt.Errorf("%w: TLC op %v on %d-bit cells", ErrCellMode, op, a.geo.CellBits)
	}
	if err := a.geo.CheckWordline(w); err != nil {
		return SenseResult{}, err
	}
	seq := latch.TLCForOp(op)
	jitter, ferr := a.checkFault(FaultSense, w.PlaneAddr, w.Block, at)
	if ferr != nil {
		return SenseResult{}, ferr
	}
	pl := a.planeAt(w.PlaneAddr)
	_, end := pl.sense.ReserveLabeled(at, sim.Duration(seq.SROs())*a.timing.SenseSRO+jitter, "bitwise")
	lsb := a.pageView(w, LSBPage)
	csb := a.pageView(w, MSBPage) // kind 1 = the TLC centre page
	top := a.pageView(w, TopPage)
	out := make([]byte, a.geo.PageSize)
	for i := range out {
		var v byte
		for b := 0; b < 8; b++ {
			if op.Eval(lsb[i]&(1<<b) != 0, csb[i]&(1<<b) != 0, top[i]&(1<<b) != 0) {
				v |= 1 << b
			}
		}
		out[i] = v
	}
	exposure := a.noteReads(w, seq.SROs())
	res := SenseResult{Data: out, Ready: end}
	if a.noise != nil {
		res.FlipCount = a.corrupt(out, a.peCycles(w), seq.SROs(), exposure)
		a.stats.InjectedFlips += int64(res.FlipCount)
	}
	a.stats.SROs += int64(seq.SROs())
	a.stats.BitwiseOps++
	return res, nil
}

// BitwiseTLC performs BitwiseSenseTLC and transfers the result out.
func (a *Array) BitwiseTLC(op latch.TLCOp3, w WordlineAddr, at sim.Time) ([]byte, sim.Time, error) {
	res, err := a.BitwiseSenseTLC(op, w, at)
	if err != nil {
		return nil, 0, err
	}
	done := a.transferOut(w.Channel, res.Ready, len(res.Data))
	return res.Data, done, nil
}
