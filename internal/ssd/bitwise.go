package ssd

import (
	"fmt"

	"parabit/internal/flash"
	"parabit/internal/ftl"
	"parabit/internal/latch"
	"parabit/internal/nvme"
	"parabit/internal/sim"
)

// BitwiseResult is the outcome of an in-SSD bitwise operation: the result
// page in the controller buffer, when it became available, and when it
// finished crossing the host link (if requested).
type BitwiseResult struct {
	Data []byte
	// ResultLPN is where the result was persisted when the caller asked
	// for a stored result (chained operations); 0 when not stored.
	ResultLPN uint64
	Stored    bool
	Done      sim.Time // result in controller buffer
	HostDone  sim.Time // result delivered to host (0 if not shipped)
}

// operandLoc resolves an operand's physical placement.
func (d *Device) operandLoc(lpn uint64) (flash.PageAddr, error) {
	addr, ok := d.ftl.Lookup(lpn)
	if !ok {
		return flash.PageAddr{}, fmt.Errorf("ssd: operand %d: %w", lpn, ftl.ErrUnmapped)
	}
	return addr, nil
}

// coLocated reports whether two operands share a wordline as LSB/MSB.
func coLocated(a, b flash.PageAddr) bool {
	return a.WordlineAddr == b.WordlineAddr && a.Kind != b.Kind
}

// lsbAligned reports whether two operands are LSB pages on one plane.
func lsbAligned(a, b flash.PageAddr) bool {
	return a.PlaneAddr == b.PlaneAddr &&
		a.Kind == flash.LSBPage && b.Kind == flash.LSBPage &&
		a.WordlineAddr != b.WordlineAddr
}

// slotOp returns op as the sense must run it when the first operand sits
// in a page of kind first. The two-input ops are commutative, but a
// complement names its input by page slot: with the first operand in the
// MSB page, NOT-LSB and NOT-MSB trade places.
func slotOp(op latch.Op, first flash.PageKind) latch.Op {
	if first == flash.MSBPage {
		switch op {
		case latch.OpNotLSB:
			return latch.OpNotMSB
		case latch.OpNotMSB:
			return latch.OpNotLSB
		}
	}
	return op
}

// Bitwise executes one two-operand operation under the given scheme. The
// first operand plays the paper's M (LSB or MSB depending on layout), the
// second N. The result stays in the controller buffer.
func (d *Device) Bitwise(op latch.Op, lpnM, lpnN uint64, scheme Scheme, at sim.Time) (BitwiseResult, error) {
	addrM, err := d.operandLoc(lpnM)
	if err != nil {
		return BitwiseResult{}, err
	}
	addrN, err := d.operandLoc(lpnN)
	if err != nil {
		return BitwiseResult{}, err
	}
	switch scheme {
	case SchemePreAlloc:
		if coLocated(addrM, addrN) {
			return d.senseCoLocated(op, addrM, addrN, at)
		}
		// Pre-allocation missed (operands arrived unpaired): fall back to
		// reallocation, as the controller must.
		d.stats.Fallbacks++
		d.noteFallback(SchemePreAlloc)
		return d.senseAfterRealloc(op, lpnM, lpnN, at)
	case SchemeReAlloc:
		return d.senseAfterRealloc(op, lpnM, lpnN, at)
	case SchemeLocFree:
		wls := []flash.WordlineAddr{addrM.WordlineAddr, addrN.WordlineAddr}
		s := flash.Sense{Kind: flash.SenseLocFree, Op: op, WLs: wls}
		samePlane := addrM.PlaneAddr == addrN.PlaneAddr
		switch {
		case lsbAligned(addrM, addrN):
			s.Kind = flash.SenseLocFreeLSB
		case samePlane && addrM.Kind == flash.MSBPage && addrN.Kind == flash.LSBPage:
			s.Op = slotOp(op, addrM.Kind)
		case samePlane && addrM.Kind == flash.LSBPage && addrN.Kind == flash.MSBPage:
			// Swapped orientation: the sense primitive always pulls the MSB
			// from its first wordline and the LSB from its second, so feed
			// it the wordlines exchanged. The op passes through unchanged:
			// the latch sequences act on resident pages (OpNotLSB inverts
			// whatever sits in an LSB slot — here the first operand), and
			// the two-input ops are commutative, so no fallback to
			// reallocation is needed.
			wls[0], wls[1] = wls[1], wls[0]
		default:
			d.stats.Fallbacks++
			d.noteFallback(SchemeLocFree)
			return d.senseAfterRealloc(op, lpnM, lpnN, at)
		}
		return d.runSense(s, at, op, SchemeLocFree, at)
	case SchemeFlashCosmos:
		return d.bitwiseFlashCosmos(op, lpnM, lpnN, addrM, addrN, at)
	}
	return BitwiseResult{}, fmt.Errorf("ssd: unknown scheme %v", scheme)
}

// senseCoLocated runs the basic ParaBit sense on a shared wordline; a is
// the operation's first input, in either page of it.
func (d *Device) senseCoLocated(op latch.Op, a, b flash.PageAddr, at sim.Time) (BitwiseResult, error) {
	s := flash.Sense{Kind: flash.SensePair, Op: slotOp(op, a.Kind), WLs: []flash.WordlineAddr{a.WordlineAddr}}
	return d.runSense(s, at, op, SchemePreAlloc, at)
}

// runSense issues s on the array at issue and books it as one op of
// scheme, started at from, with its result in the controller buffer.
func (d *Device) runSense(s flash.Sense, issue sim.Time, op latch.Op, scheme Scheme, from sim.Time) (BitwiseResult, error) {
	res, err := d.array.Sense(s, issue)
	if err != nil {
		return BitwiseResult{}, err
	}
	d.stats.BitwiseOps++
	d.noteOp(op, scheme, from, res.Ready)
	return BitwiseResult{Data: res.Data, Done: res.Ready}, nil
}

// senseAfterRealloc implements the Operands ReAllocation module
// (§4.3.2): read both operands into the controller buffer (descrambling
// as needed), program them unscrambled into the LSB and MSB pages of one
// fresh wordline, and sense it.
func (d *Device) senseAfterRealloc(op latch.Op, lpnM, lpnN uint64, at sim.Time) (BitwiseResult, error) {
	dataM, doneM, err := d.readOperand(lpnM, at)
	if err != nil {
		return BitwiseResult{}, err
	}
	return d.senseAfterReallocBuffered(op, dataM, doneM, int64(lpnN), nil, 0, at)
}

// senseAfterReallocBuffered is senseAfterRealloc with the first operand's
// data already in the controller buffer (read by the caller, or a
// previous chained step's result), so reallocation reads only the
// flash-resident second operand (or nothing, when that too is buffered)
// before the paired program and sense. readLPN < 0 means bufN supplies
// the second operand.
func (d *Device) senseAfterReallocBuffered(op latch.Op, bufM []byte, readyM sim.Time,
	readLPN int64, bufN []byte, readyN sim.Time, at sim.Time) (BitwiseResult, error) {
	dataN, ready := bufN, sim.Max(readyM, readyN)
	if readLPN >= 0 {
		var doneN sim.Time
		var err error
		dataN, doneN, err = d.readOperand(uint64(readLPN), at)
		if err != nil {
			return BitwiseResult{}, err
		}
		ready = sim.Max(readyM, doneN)
	}
	newM, err := d.allocInternal()
	if err != nil {
		return BitwiseResult{}, err
	}
	newN, err := d.allocInternal()
	if err != nil {
		return BitwiseResult{}, err
	}
	done, err := d.ftl.Place(ftl.Layout{Shape: ftl.Shared, Extra: true},
		[]uint64{newM, newN}, [][]byte{bufM, dataN}, ready)
	if err != nil {
		return BitwiseResult{}, err
	}
	d.plain[newM] = true
	d.plain[newN] = true
	d.stats.Reallocations++
	d.stats.ReallocPages += 2
	d.tele.cRealloc.Add(1)
	d.tele.cReallocPg.Add(2)
	wl, _ := d.ftl.Lookup(newM)
	return d.runSense(flash.Sense{Kind: flash.SensePair, Op: op, WLs: []flash.WordlineAddr{wl.WordlineAddr}},
		done, op, SchemeReAlloc, at)
}

// storeResult persists a controller-buffer result page into the internal
// pool (unscrambled), so it can serve as an operand for a chained
// operation. Returns the LPN and program completion time.
func (d *Device) storeResult(data []byte, at sim.Time) (uint64, sim.Time, error) {
	lpn, err := d.allocInternal()
	if err != nil {
		return 0, 0, err
	}
	done, err := d.ftl.Place(ftl.Layout{Extra: true}, []uint64{lpn}, [][]byte{data}, at)
	if err != nil {
		return 0, 0, err
	}
	d.plain[lpn] = true
	return lpn, done, nil
}

// Reduce folds k operand pages with one associative operation (AND, OR
// or XOR): the paper's chained use (bitmap index reduction, multi-channel
// segmentation, multi-image encryption).
//
//   - SchemePreAlloc assumes consecutive operand pairs are co-located
//     (the persist.OpWritePair layout): pairs sense directly and in
//     parallel, then pair results combine with serialized reallocation
//     steps — the paper's "ParaBit" execution, which halves reallocations
//     versus ReAlloc.
//   - SchemeReAlloc reallocates at every step.
//   - SchemeLocFree senses without reallocating. When all operands are
//     aligned LSB pages on one plane (the persist.OpWriteLSBGroup layout),
//     the whole reduction is a single chained operation per §4.2: AND/OR
//     accumulate in the latches at one extra sense per operand, the XOR
//     family pays a buffer round-trip per step. Misaligned operands fall
//     back to pairwise execution with plane-aligned result parking.
//   - SchemeFlashCosmos collapses each block-colocated operand group (the
//     persist.OpWriteMWSGroup layout) into one multi-wordline sense per
//     sense-margin-sized chunk; same-plane chunk results chain through
//     the latches, cross-plane partials combine with buffered
//     reallocation steps, strays and the XOR family fall back to the
//     pairwise paths.
func (d *Device) Reduce(op latch.Op, lpns []uint64, scheme Scheme, at sim.Time) (BitwiseResult, error) {
	if len(lpns) == 0 {
		return BitwiseResult{}, ErrNeedOperands
	}
	if len(lpns) == 1 {
		// A fold over one operand is the operand: planner-generated
		// degenerate expressions (e.g. a chain whose other arms were
		// cached) resolve to a plain read, not an error.
		data, done, err := d.Read(lpns[0], at)
		if err != nil {
			return BitwiseResult{}, err
		}
		return BitwiseResult{Data: data, Done: done}, nil
	}
	switch op {
	case latch.OpAnd, latch.OpOr, latch.OpXor:
	default:
		return BitwiseResult{}, fmt.Errorf("ssd: reduce needs an associative op, got %v", op)
	}
	switch scheme {
	case SchemePreAlloc:
		return d.reducePreAlloc(op, lpns, at)
	case SchemeReAlloc:
		return d.reduceSerial(op, lpns, at)
	case SchemeLocFree:
		return d.reduceLocFree(op, lpns, at)
	case SchemeFlashCosmos:
		return d.reduceFlashCosmos(op, lpns, at)
	}
	return BitwiseResult{}, fmt.Errorf("ssd: unknown scheme %v", scheme)
}

// reduceLocFree reduces via chained location-free sensing. If all
// operands sit in LSB pages of one plane, one chained operation does the
// whole fold; otherwise same-plane runs chain and the partial results are
// parked aligned with the next run.
//
// Layouts are resolved per run, immediately before sensing. The parking
// writes between runs go through the FTL's fault-aware program path, and
// a program fault (bad-block retirement), garbage collection, or block
// reclaim triggered there migrates mapped pages — including this
// reduction's own operands. A WordlineAddr captured before such a
// migration is stale: the victim block is erased after its valid pages
// move, so folding against it senses erased cells. Operands a migration
// pushed out of a run's chain (off-plane, or no longer LSB) fold through
// the buffered reallocation path instead.
func (d *Device) reduceLocFree(op latch.Op, lpns []uint64, at sim.Time) (BitwiseResult, error) {
	s := &d.red
	// Pre-scan for run grouping and the fallback decision only; the
	// wordline addresses seen here are NOT reused for sensing.
	s.planes = s.planes[:0]
	for _, lpn := range lpns {
		addr, err := d.operandLoc(lpn)
		if err != nil {
			return BitwiseResult{}, err
		}
		if addr.Kind != flash.LSBPage {
			d.stats.Fallbacks++
			d.noteFallback(SchemeLocFree)
			return d.reduceSerial(op, lpns, at)
		}
		s.planes = append(s.planes, addr.WordlineAddr.PlaneAddr)
	}
	// Split into same-plane runs of LPNs, chain each, then park run
	// results aligned and chain again until one remains. Runs are
	// contiguous, so each one is a window of lpns.
	s.runs = s.runs[:0]
	for start, i := 0, 1; i <= len(lpns); i++ {
		if i == len(lpns) || s.planes[i] != s.planes[start] {
			s.runs = append(s.runs, lpnRun{start: start, end: i, plane: s.planes[start]})
			start = i
		}
	}

	var acc BitwiseResult
	havePartial := false
	for _, r := range s.runs {
		ready := at
		parked := false
		var parkWL flash.WordlineAddr
		if havePartial {
			// Park the running result on this run's plane so it joins
			// the chain.
			lpn, err := d.allocInternal()
			if err != nil {
				return BitwiseResult{}, err
			}
			park := ftl.Layout{Shape: ftl.LSBOnly, Fixed: true, Plane: d.cfg.Geometry.PlaneIndex(r.plane), Extra: true}
			done, err := d.ftl.Place(park, []uint64{lpn}, [][]byte{acc.Data}, sim.Max(acc.Done, at))
			if err != nil {
				return BitwiseResult{}, err
			}
			d.plain[lpn] = true
			ready = done
			// The write itself re-steers around program faults, but
			// verify where the page actually landed rather than trusting
			// the requested plane.
			if addr, ok := d.ftl.Lookup(lpn); ok &&
				addr.Kind == flash.LSBPage && addr.WordlineAddr.PlaneAddr == r.plane {
				parked, parkWL = true, addr.WordlineAddr
			}
		}
		// Resolve this run's layout NOW, after whatever maintenance the
		// parking write triggered: still-aligned operands chain, migrated
		// ones fold through the buffered path below.
		// The chain holds the parked partial, if any, then the aligned
		// operands; alignedLPNs names the latter.
		s.chain, s.alignedLPNs, s.strays = s.chain[:0], s.alignedLPNs[:0], s.strays[:0]
		if parked {
			s.chain = append(s.chain, parkWL)
		}
		for _, lpn := range lpns[r.start:r.end] {
			addr, err := d.operandLoc(lpn)
			if err != nil {
				return BitwiseResult{}, err
			}
			if addr.Kind == flash.LSBPage && addr.WordlineAddr.PlaneAddr == r.plane {
				s.chain = append(s.chain, addr.WordlineAddr)
				s.alignedLPNs = append(s.alignedLPNs, lpn)
			} else {
				s.strays = append(s.strays, lpn)
			}
		}
		if len(s.chain) >= 2 {
			res, err := d.runSense(flash.Sense{Kind: flash.SenseChainLSB, Op: op, WLs: s.chain}, ready, op, SchemeLocFree, ready)
			if err != nil {
				return BitwiseResult{}, err
			}
			if havePartial && !parked {
				// The chain ran without the partial (the parked page
				// landed off-plane): merge the two buffered halves.
				acc, err = d.senseAfterReallocBuffered(op, acc.Data, acc.Done, -1, res.Data, res.Done, ready)
				if err != nil {
					return BitwiseResult{}, err
				}
			} else {
				acc = res
			}
			havePartial = true
		} else {
			// Too short to chain: a lone aligned operand folds like a
			// stray; a parked-but-alone partial is already in acc.
			s.strays = append(s.strays, s.alignedLPNs...)
		}
		if len(s.strays) > 0 && havePartial {
			d.stats.Fallbacks++
			d.noteFallback(SchemeLocFree)
		}
		for _, lpn := range s.strays {
			if !havePartial {
				data, done, err := d.Read(lpn, ready)
				if err != nil {
					return BitwiseResult{}, err
				}
				acc = BitwiseResult{Data: data, Done: done}
				havePartial = true
				continue
			}
			res, err := d.senseAfterReallocBuffered(op, acc.Data, acc.Done, int64(lpn), nil, 0, sim.Max(ready, acc.Done))
			if err != nil {
				return BitwiseResult{}, err
			}
			acc = res
		}
	}
	return acc, nil
}

// reducePreAlloc senses pre-paired operands in parallel, then serially
// combines pair results (each combine is a realloc + sense) — the
// execution the paper's "ParaBit" scheme uses, which halves reallocations
// versus ParaBit-ReAlloc (§5.3.2's 3179 ms vs 6137 ms bitmap split).
func (d *Device) reducePreAlloc(op latch.Op, lpns []uint64, at sim.Time) (BitwiseResult, error) {
	if len(lpns) == 2 {
		return d.Bitwise(op, lpns[0], lpns[1], SchemePreAlloc, at)
	}
	type partial struct {
		data []byte
		done sim.Time
	}
	var parts []partial
	// Phase 1: co-located pairs sense; results land in the controller
	// buffer (planes provide the parallelism, the buffer holds partials).
	i := 0
	for ; i+1 < len(lpns); i += 2 {
		r, err := d.Bitwise(op, lpns[i], lpns[i+1], SchemePreAlloc, at)
		if err != nil {
			return BitwiseResult{}, err
		}
		parts = append(parts, partial{data: r.Data, done: r.Done})
	}
	if i < len(lpns) { // odd operand left over joins the combine phase
		data, done, err := d.Read(lpns[i], at)
		if err != nil {
			return BitwiseResult{}, err
		}
		parts = append(parts, partial{data: data, done: done})
	}
	// Phase 2: serial combination of buffered partials, each a
	// program-pair-then-sense reallocation step.
	acc := parts[0]
	var last BitwiseResult
	for _, p := range parts[1:] {
		r, err := d.senseAfterReallocBuffered(op, acc.data, acc.done, -1, p.data, p.done, at)
		if err != nil {
			return BitwiseResult{}, err
		}
		last = r
		acc = partial{data: r.Data, done: r.Done}
	}
	return last, nil
}

// reduceSerial folds left-to-right with a reallocation at every step —
// the ParaBit-ReAlloc execution. The first step reads both operands from
// flash; after that the accumulator lives in the controller buffer, so
// each step reads only the next operand before the paired program,
// matching the paper's per-step cost (§5.3.2).
func (d *Device) reduceSerial(op latch.Op, lpns []uint64, at sim.Time) (BitwiseResult, error) {
	acc, err := d.Bitwise(op, lpns[0], lpns[1], SchemeReAlloc, at)
	if err != nil {
		return BitwiseResult{}, err
	}
	for _, next := range lpns[2:] {
		acc, err = d.senseAfterReallocBuffered(op, acc.Data, acc.Done, int64(next), nil, 0, acc.Done)
		if err != nil {
			return BitwiseResult{}, err
		}
	}
	return acc, nil
}

// ShipToHost moves a result page to the host over the host link.
func (d *Device) ShipToHost(r *BitwiseResult) {
	r.HostDone = d.host.Transfer(int64(len(r.Data)), r.Done)
	d.stats.ResultBytes += int64(len(r.Data))
	d.tele.cResult.Add(int64(len(r.Data)))
}

// FormulaResult is the outcome of ExecuteFormula.
type FormulaResult struct {
	// Pages holds the final result, one entry per sub-operation page.
	Pages [][]byte
	// Done is when the last result page reached the controller buffer.
	Done sim.Time
	// HostDone is when the last result byte reached the host.
	HostDone sim.Time
}

// ExecuteFormula runs a parsed bitwise formula end to end: each term's
// sub-operations execute under the scheme, term results combine with the
// extra-batch operations (always via reallocation, per Fig. 12), and the
// final pages ship to the host. A sub-page sub-operation yields the
// Length bytes its operands name; every term must span the same bytes
// per sub-operation.
func (d *Device) ExecuteFormula(f nvme.Formula, scheme Scheme, at sim.Time) (FormulaResult, error) {
	batches, err := nvme.RoundTrip(f, d.PageSize())
	if err != nil {
		return FormulaResult{}, err
	}
	// A pageResult's first n bytes of data are the sub-operation's result.
	type pageResult struct {
		lpn  uint64
		data []byte
		done sim.Time
		n    int
	}
	// Execute term batches; all sub-operations are independent and issue
	// at the start time (planes provide the parallelism).
	results := make([][]pageResult, len(batches))
	for bi, b := range batches {
		results[bi] = make([]pageResult, len(b.Subs))
		for si, sub := range b.Subs {
			r, err := d.formulaSub(b.Op, sub, scheme, at)
			if err != nil {
				return FormulaResult{}, fmt.Errorf("batch %d sub %d: %w", bi, si, err)
			}
			pr := pageResult{data: r.Data, done: r.Done, n: sub.Length}
			if len(batches) > 1 {
				lpn, done, err := d.storeResult(r.Data, r.Done)
				if err != nil {
					return FormulaResult{}, err
				}
				pr.lpn, pr.done = lpn, done
			}
			results[bi][si] = pr
		}
	}
	// Combine batch results left-to-right with the extra-batch ops.
	acc := results[0]
	for bi := 1; bi < len(batches); bi++ {
		combineOp := batches[bi-1].Extra
		next := results[bi]
		if len(next) != len(acc) {
			return FormulaResult{}, fmt.Errorf("ssd: batch %d has %d sub-ops, accumulator has %d",
				bi, len(next), len(acc))
		}
		merged := make([]pageResult, len(acc))
		for si := range acc {
			if next[si].n != acc[si].n {
				return FormulaResult{}, fmt.Errorf("ssd: batch %d sub-op %d spans %d bytes, accumulator %d",
					bi, si, next[si].n, acc[si].n)
			}
			start := sim.Max(acc[si].done, next[si].done)
			r, err := d.Bitwise(combineOp, acc[si].lpn, next[si].lpn, SchemeReAlloc, start)
			if err != nil {
				return FormulaResult{}, fmt.Errorf("combine %d sub %d: %w", bi, si, err)
			}
			pr := pageResult{data: r.Data, done: r.Done, n: acc[si].n}
			if bi < len(batches)-1 {
				lpn, done, err := d.storeResult(r.Data, r.Done)
				if err != nil {
					return FormulaResult{}, err
				}
				pr.lpn, pr.done = lpn, done
			}
			merged[si] = pr
		}
		acc = merged
	}
	out := FormulaResult{Pages: make([][]byte, len(acc))}
	for si, pr := range acc {
		pr.data = pr.data[:pr.n]
		out.Pages[si] = pr.data
		if pr.done > out.Done {
			out.Done = pr.done
		}
		hostDone := d.host.Transfer(int64(len(pr.data)), pr.done)
		d.stats.ResultBytes += int64(len(pr.data))
		d.tele.cResult.Add(int64(len(pr.data)))
		if hostDone > out.HostDone {
			out.HostDone = hostDone
		}
	}
	return out, nil
}

// formulaSub computes one formula sub-operation into a page whose first
// sub.Length bytes are the result over the byte ranges its operands
// name. Operands at one offset sense in place under the scheme, and the
// result slides to the page start. Operands at different offsets cannot
// share a sense: both are read into the controller buffer, aligned at
// offset 0 and computed through the reallocation path.
func (d *Device) formulaSub(op latch.Op, sub nvme.SubOp, scheme Scheme, at sim.Time) (BitwiseResult, error) {
	if sub.SectorOffset == sub.NSectorOffset {
		r, err := d.Bitwise(op, sub.M, sub.N, scheme, at)
		if err == nil && sub.SectorOffset != 0 {
			copy(r.Data, r.Data[sub.SectorOffset:][:sub.Length])
		}
		return r, err
	}
	dataM, doneM, err := d.readOperand(sub.M, at)
	if err != nil {
		return BitwiseResult{}, err
	}
	dataN, doneN, err := d.readOperand(sub.N, at)
	if err != nil {
		return BitwiseResult{}, err
	}
	copy(dataM, dataM[sub.SectorOffset:][:sub.Length])
	copy(dataN, dataN[sub.NSectorOffset:][:sub.Length])
	return d.senseAfterReallocBuffered(op, dataM, doneM, -1, dataN, doneN, at)
}
