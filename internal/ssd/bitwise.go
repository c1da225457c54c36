package ssd

import (
	"fmt"
	"slices"

	"parabit/internal/flash"
	"parabit/internal/ftl"
	"parabit/internal/latch"
	"parabit/internal/nvme"
	"parabit/internal/plan"
	"parabit/internal/sim"
)

// BitwiseResult is the outcome of an in-SSD bitwise operation: the result
// page in the controller buffer, when it became available, and when it
// finished crossing the host link (if requested).
type BitwiseResult struct {
	Data     []byte
	Done     sim.Time // result in controller buffer
	HostDone sim.Time // result delivered to host (0 if not shipped)
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
	if scheme != SchemeReAlloc && (d.scrambled(lpnM) || d.scrambled(lpnN)) {
		// A scrambled operand cannot sense in place under any scheme: it
		// is read and descrambled, then reallocated or combined.
		d.noteFallback(scheme)
		return d.pairUp(op, scheme, onFlash(lpnM), onFlash(lpnN), at)
	}
	switch scheme {
	case SchemePreAlloc:
		if coLocated(addrM, addrN) {
			return d.senseCoLocated(op, addrM, addrN, at)
		}
		// Pre-allocation missed (operands arrived unpaired): fall back to
		// reallocation, as the controller must.
		d.noteFallback(SchemePreAlloc)
		return d.realloc(op, onFlash(lpnM), onFlash(lpnN), at)
	case SchemeReAlloc:
		return d.realloc(op, onFlash(lpnM), onFlash(lpnN), at)
	case SchemeLocFree, SchemeFlashCosmos:
		wls := []flash.WordlineAddr{addrM.WordlineAddr, addrN.WordlineAddr}
		if scheme == SchemeFlashCosmos {
			if d.cfg.Geometry.CellBits == 2 && latch.MWSComputable(op) && mwsPair(addrM, addrN) {
				return d.runSense(flash.Sense{Kind: latch.SenseMWS, Op: op, WLs: wls}, at, op, SchemeFlashCosmos, at)
			}
			// Colocation missed, or the op's algebra has no single-sense
			// form: the call runs the location-free cases below, counted
			// as one Flash-Cosmos fallback whichever of them serves it.
			d.noteFallback(SchemeFlashCosmos)
		}
		s := flash.Sense{Kind: latch.SenseLocFree, Op: op, WLs: wls}
		samePlane := addrM.PlaneAddr == addrN.PlaneAddr
		switch {
		case lsbAligned(addrM, addrN):
			s.Kind = latch.SenseLocFreeLSB
		case addrM == addrN && (op == latch.OpNotLSB || op == latch.OpNotMSB):
			// A complement of one page against itself is that page
			// inverted: its own wordline senses it, with the op naming
			// the slot the page sits in.
			s = flash.Sense{Kind: latch.SensePair, Op: slotOp(latch.OpNotLSB, addrM.Kind), WLs: wls[:1]}
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
			if scheme == SchemeLocFree {
				d.noteFallback(SchemeLocFree)
			}
			return d.join(op, onFlash(lpnM), onFlash(lpnN), at)
		}
		return d.runSense(s, at, op, SchemeLocFree, at)
	}
	return BitwiseResult{}, fmt.Errorf("ssd: unknown scheme %v", scheme)
}

// senseCoLocated runs the basic ParaBit sense on a shared wordline; a is
// the operation's first input, in either page of it.
func (d *Device) senseCoLocated(op latch.Op, a, b flash.PageAddr, at sim.Time) (BitwiseResult, error) {
	s := flash.Sense{Kind: latch.SensePair, Op: slotOp(op, a.Kind), WLs: []flash.WordlineAddr{a.WordlineAddr}}
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

// operand is one input of a join: a page still on flash at lpn (data
// nil), or a page in the controller buffer since ready.
type operand struct {
	lpn   uint64
	data  []byte
	ready sim.Time
}

// onFlash names a flash-resident operand.
func onFlash(lpn uint64) operand { return operand{lpn: lpn} }

// buffered names a result already in the controller buffer.
func buffered(r BitwiseResult) operand { return operand{data: r.Data, ready: r.Done} }

// load reads each operand still on flash into the controller buffer at
// at, in order, descrambling as needed.
func (d *Device) load(at sim.Time, ops ...*operand) (err error) {
	for _, o := range ops {
		if o.data == nil {
			if o.data, o.ready, err = d.readOperand(o.lpn, at); err != nil {
				return err
			}
		}
	}
	return nil
}

// pairUp joins two operands that no in-place sense can pair. ParaBit and
// ParaBit-ReAlloc reallocate them, as the paper prices it (§4.3.2); the
// location-free schemes read them and combine in the controller buffer.
func (d *Device) pairUp(op latch.Op, scheme Scheme, a, b operand, at sim.Time) (BitwiseResult, error) {
	if scheme == SchemePreAlloc || scheme == SchemeReAlloc {
		return d.realloc(op, a, b, at)
	}
	return d.join(op, a, b, at)
}

// join reads whichever operands are still on flash into the controller
// buffer, a first, and applies op with a in the LSB slot, charging one
// controller combine. The result is a fresh page: a buffered operand may
// be a result another step still holds.
func (d *Device) join(op latch.Op, a, b operand, at sim.Time) (BitwiseResult, error) {
	if err := d.load(at, &a, &b); err != nil {
		return BitwiseResult{}, err
	}
	out := make([]byte, len(a.data))
	op.Apply(out, a.data, b.data)
	d.tele.cCombine.Add(1)
	return BitwiseResult{Data: out, Done: sim.Max(a.ready, b.ready).Add(plan.CombineCost(2, len(out)))}, nil
}

// realloc implements the Operands ReAllocation module (§4.3.2): read
// whichever operands are still on flash into the controller buffer, a
// first, then program both unscrambled into the LSB and MSB pages of one
// fresh wordline and sense it. The pair takes the top two LPNs of the
// controller-reserved range and is trimmed once the sense returns: the
// device runs one operation at a time, so at most one reallocation is
// live. The pair sense is MLC-only, so on any other array it refuses
// before anything is read or programmed.
func (d *Device) realloc(op latch.Op, a, b operand, at sim.Time) (BitwiseResult, error) {
	if bits := d.cfg.Geometry.CellBits; bits != 2 {
		return BitwiseResult{}, fmt.Errorf("%w: %v sense on %d-bit cells", flash.ErrCellMode, latch.SensePair, bits)
	}
	if err := d.load(at, &a, &b); err != nil {
		return BitwiseResult{}, err
	}
	top := uint64(d.ftl.LogicalPages())
	pair := []uint64{top - 1, top - 2}
	defer d.ftl.Trim(pair[0])
	defer d.ftl.Trim(pair[1])
	done, err := d.ftl.Place(ftl.Layout{Shape: ftl.Shared, Extra: true}, pair, [][]byte{a.data, b.data}, sim.Max(a.ready, b.ready))
	if err != nil {
		return BitwiseResult{}, err
	}
	d.stats.Reallocations++
	d.stats.ReallocPages += 2
	wl, _ := d.ftl.Lookup(pair[0])
	return d.runSense(flash.Sense{Kind: latch.SensePair, Op: op, WLs: []flash.WordlineAddr{wl.WordlineAddr}},
		done, op, SchemeReAlloc, at)
}

// fold combines operands left to right, as §4.2's chained use does: the
// first operand becomes the running result acc, and each later one joins
// it through pairUp with op: one reallocation under ParaBit and
// ParaBit-ReAlloc, reads and a controller combine under the location-free
// schemes. The reallocating reductions, every query step that combines
// results outside one sense and a formula's term results go through it;
// the sense-only reductions combine instead.
type fold struct {
	d       *Device
	op      latch.Op
	scheme  Scheme
	acc     BitwiseResult
	started bool // acc holds a result
}

// add joins o to the fold, issuing its reads and join at at. A first
// operand still on flash is read into the buffer, descrambling as
// needed.
func (f *fold) add(o operand, at sim.Time) error {
	var err error
	switch {
	case f.started:
		f.acc, err = f.d.pairUp(f.op, f.scheme, buffered(f.acc), o, at)
	case o.data != nil:
		f.acc = BitwiseResult{Data: o.data, Done: o.ready}
	default:
		f.acc.Data, f.acc.Done, err = f.d.readOperand(o.lpn, at)
	}
	f.started = true
	return err
}

// combine folds the partial pages of one reduction in the controller
// buffer, in place into the first partial, with the page kernel: the
// partials never go back to flash. The result is ready once the latest
// partial is, plus the combine itself (plan.CombineCost). A lone partial
// is the result as it stands.
type combine struct {
	d     *Device
	op    latch.Op // AND, OR or XOR: its own associative base
	acc   BitwiseResult
	parts int
}

// add folds one partial page, in the buffer since done, into the result.
func (c *combine) add(data []byte, done sim.Time) {
	if c.parts == 0 {
		c.acc = BitwiseResult{Data: data, Done: done}
	} else {
		c.op.Apply(c.acc.Data, c.acc.Data, data)
		c.acc.Done = sim.Max(c.acc.Done, done)
	}
	c.parts++
}

// result returns the combined page, charging the combine when there was
// more than one partial.
func (c *combine) result() BitwiseResult {
	if c.parts > 1 {
		c.acc.Done = c.acc.Done.Add(plan.CombineCost(c.parts, len(c.acc.Data)))
		c.d.tele.cCombine.Add(1)
	}
	return c.acc
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
//     family pays a buffer round-trip per step. Operands on several
//     planes chain per plane, in parallel, and the partial pages combine
//     in the controller buffer; an MSB or scrambled operand is read and
//     joins its plane's partial.
//   - SchemeFlashCosmos collapses each block-colocated operand group (the
//     persist.OpWriteMWSGroup layout) into one multi-wordline sense per
//     sense-margin-sized chunk; same-plane chunk results chain through
//     the latches, cross-plane partials combine in the controller
//     buffer, and strays and the XOR family fall back to the
//     location-free paths.
func (d *Device) Reduce(op latch.Op, lpns []uint64, scheme Scheme, at sim.Time) (BitwiseResult, error) {
	if len(lpns) == 0 {
		return BitwiseResult{}, ErrNeedOperands
	}
	switch op {
	case latch.OpAnd, latch.OpOr, latch.OpXor:
	default:
		return BitwiseResult{}, fmt.Errorf("ssd: reduce needs an associative op, got %v", op)
	}
	if len(lpns) == 1 {
		// A fold over one operand is the operand: planner-generated
		// degenerate expressions (e.g. a chain whose other arms were
		// cached) resolve to a plain read, not an error.
		data, done, err := d.readOperand(lpns[0], at)
		if err != nil {
			return BitwiseResult{}, err
		}
		return BitwiseResult{Data: data, Done: done}, nil
	}
	switch scheme {
	case SchemePreAlloc:
		return d.reducePreAlloc(op, lpns, at)
	case SchemeReAlloc:
		return d.reduceSerial(op, lpns, at)
	case SchemeLocFree:
		return d.reduceLocFree(op, lpns, SchemeLocFree, at)
	case SchemeFlashCosmos:
		return d.reduceFlashCosmos(op, lpns, at)
	}
	return BitwiseResult{}, fmt.Errorf("ssd: unknown scheme %v", scheme)
}

// reduceLocFree reduces via chained location-free sensing, without
// reallocation. Operands group by plane, in first-appearance order: a
// group of two or more aligned LSB operands is one chained sense, a lone
// operand one read, and every group issues at at, so planes run in
// parallel. One group's chained sense is the result; across planes the
// partial pages combine in the controller buffer. The LSB chain senses
// MLC cells only: on a TLC array every operand is read and combined. An
// MSB or scrambled operand cannot chain: it is a stray of its plane's
// group and is read, and the reduction counts one fallback when it runs
// for SchemeLocFree. Under SchemeFlashCosmos the caller has counted its
// own. Reads and senses move no page, so each operand resolves once.
func (d *Device) reduceLocFree(op latch.Op, lpns []uint64, scheme Scheme, at sim.Time) (BitwiseResult, error) {
	s := &d.red
	s.addrs, s.groups = s.addrs[:0], s.groups[:0]
	fallback := false
	for _, lpn := range lpns {
		addr, err := d.operandLoc(lpn)
		if err != nil {
			return BitwiseResult{}, err
		}
		fallback = fallback || addr.Kind != flash.LSBPage || d.scrambled(lpn)
		s.addrs = append(s.addrs, addr)
		if !slices.Contains(s.groups, addr.PlaneAddr) {
			s.groups = append(s.groups, addr.PlaneAddr)
		}
	}
	if fallback && scheme == SchemeLocFree {
		d.noteFallback(SchemeLocFree)
	}
	c := combine{d: d, op: op}
	for _, g := range s.groups {
		s.chain, s.alignedLPNs, s.strays = s.chain[:0], s.alignedLPNs[:0], s.strays[:0]
		for i, lpn := range lpns {
			addr := s.addrs[i]
			if addr.PlaneAddr != g {
				continue
			}
			if addr.Kind == flash.LSBPage && !d.scrambled(lpn) {
				s.chain = append(s.chain, addr.WordlineAddr)
				s.alignedLPNs = append(s.alignedLPNs, lpn)
			} else {
				s.strays = append(s.strays, lpn)
			}
		}
		if len(s.chain) >= 2 && d.cfg.Geometry.CellBits == 2 {
			res, err := d.runSense(flash.Sense{Kind: latch.SenseChainLSB, Op: op, WLs: s.chain}, at, op, SchemeLocFree, at)
			if err != nil {
				return BitwiseResult{}, err
			}
			c.add(res.Data, res.Done)
		} else {
			// Too short to chain, or on cells the LSB chain cannot sense:
			// the aligned operands are read like strays.
			s.strays = append(s.strays, s.alignedLPNs...)
		}
		for _, lpn := range s.strays {
			data, done, err := d.readOperand(lpn, at)
			if err != nil {
				return BitwiseResult{}, err
			}
			c.add(data, done)
		}
	}
	return c.result(), nil
}

// reducePreAlloc senses pre-paired operands in parallel, then serially
// combines pair results (each combine is a realloc + sense) — the
// execution the paper's "ParaBit" scheme uses, which halves reallocations
// versus ParaBit-ReAlloc (§5.3.2's 3179 ms vs 6137 ms bitmap split).
func (d *Device) reducePreAlloc(op latch.Op, lpns []uint64, at sim.Time) (BitwiseResult, error) {
	if len(lpns) == 2 {
		return d.Bitwise(op, lpns[0], lpns[1], SchemePreAlloc, at)
	}
	// Phase 1: co-located pairs sense; results land in the controller
	// buffer (planes provide the parallelism, the buffer holds partials).
	// An odd operand left over is read beside them.
	var buf [8]operand
	parts := buf[:0]
	i := 0
	for ; i+1 < len(lpns); i += 2 {
		r, err := d.Bitwise(op, lpns[i], lpns[i+1], SchemePreAlloc, at)
		if err != nil {
			return BitwiseResult{}, err
		}
		parts = append(parts, buffered(r))
	}
	if i < len(lpns) {
		data, done, err := d.readOperand(lpns[i], at)
		if err != nil {
			return BitwiseResult{}, err
		}
		parts = append(parts, operand{data: data, ready: done})
	}
	// Phase 2: fold the partials, each join a program-pair-then-sense
	// reallocation step.
	f := fold{d: d, op: op, scheme: SchemePreAlloc}
	for _, p := range parts {
		if err := f.add(p, at); err != nil {
			return BitwiseResult{}, err
		}
	}
	return f.acc, nil
}

// reduceSerial folds left-to-right with a reallocation at every step —
// the ParaBit-ReAlloc execution. The first step reads both operands from
// flash; after that the accumulator lives in the controller buffer, so
// each step reads only the next operand before the paired program,
// matching the paper's per-step cost (§5.3.2).
func (d *Device) reduceSerial(op latch.Op, lpns []uint64, at sim.Time) (BitwiseResult, error) {
	r, err := d.Bitwise(op, lpns[0], lpns[1], SchemeReAlloc, at)
	if err != nil {
		return BitwiseResult{}, err
	}
	f := fold{d: d, op: op, scheme: SchemeReAlloc, acc: r, started: true}
	for _, next := range lpns[2:] {
		if err := f.add(onFlash(next), f.acc.Done); err != nil {
			return BitwiseResult{}, err
		}
	}
	return f.acc, nil
}

// ShipToHost moves a result page to the host over the host link: the one
// host-delivery path of the device, for computed results and read pages
// alike, counted in ResultBytes.
func (d *Device) ShipToHost(r *BitwiseResult) {
	r.HostDone = d.host.Transfer(int64(len(r.Data)), r.Done)
	d.stats.ResultBytes += int64(len(r.Data))
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

// ExecuteFormula runs a formula's parsed batches end to end. Every
// term's sub-operations issue at at under the scheme (planes provide the
// parallelism); then each sub-operation's term results fold left to right
// with the extra-batch operations from the controller buffer, one
// reallocation per join under ParaBit and ParaBit-ReAlloc (Fig. 12) and
// one controller combine under the location-free schemes, and the final
// pages ship to the host. A sub-page sub-operation yields the Length
// bytes its operands name; every batch must have as many sub-operations
// as the first, each spanning the same bytes.
func (d *Device) ExecuteFormula(batches []nvme.Batch, scheme Scheme, at sim.Time) (FormulaResult, error) {
	if len(batches) == 0 {
		return FormulaResult{}, fmt.Errorf("%w: no batches", nvme.ErrBadFormula)
	}
	subs := batches[0].Subs
	for bi, b := range batches[1:] {
		if len(b.Subs) != len(subs) {
			return FormulaResult{}, fmt.Errorf("ssd: batch %d has %d sub-ops, batch 0 has %d",
				bi+1, len(b.Subs), len(subs))
		}
		for si, sub := range b.Subs {
			if sub.Length != subs[si].Length {
				return FormulaResult{}, fmt.Errorf("ssd: batch %d sub-op %d spans %d bytes, batch 0 %d",
					bi+1, si, sub.Length, subs[si].Length)
			}
		}
	}
	// Term results, batch by batch: sub-operation si of batch bi is
	// terms[bi*len(subs)+si].
	terms := make([]operand, 0, len(batches)*len(subs))
	for bi, b := range batches {
		for si, sub := range b.Subs {
			r, err := d.formulaSub(b.Op, sub, scheme, at)
			if err != nil {
				return FormulaResult{}, fmt.Errorf("batch %d sub %d: %w", bi, si, err)
			}
			terms = append(terms, buffered(r))
		}
	}
	out := FormulaResult{Pages: make([][]byte, len(subs))}
	for si, sub := range subs {
		f := fold{d: d, scheme: scheme}
		for bi := range batches {
			if bi > 0 {
				f.op = batches[bi-1].Extra
			}
			if err := f.add(terms[bi*len(subs)+si], at); err != nil {
				return FormulaResult{}, fmt.Errorf("combine %d sub %d: %w", bi, si, err)
			}
		}
		r := f.acc
		r.Data = r.Data[:sub.Length]
		d.ShipToHost(&r)
		out.Pages[si] = r.Data
		out.Done = sim.Max(out.Done, r.Done)
		out.HostDone = sim.Max(out.HostDone, r.HostDone)
	}
	return out, nil
}

// formulaSub computes one formula sub-operation into a page whose first
// sub.Length bytes are the result over the byte ranges its operands
// name. Operands at one offset sense in place under the scheme, and the
// result slides to the page start. Operands at different offsets cannot
// share a sense: both are read into the controller buffer, aligned at
// offset 0 and joined as pairUp joins for the scheme.
func (d *Device) formulaSub(op latch.Op, sub nvme.SubOp, scheme Scheme, at sim.Time) (BitwiseResult, error) {
	if sub.SectorOffset == sub.NSectorOffset {
		r, err := d.Bitwise(op, sub.M, sub.N, scheme, at)
		if err == nil && sub.SectorOffset != 0 {
			copy(r.Data, r.Data[sub.SectorOffset:][:sub.Length])
		}
		return r, err
	}
	m, n := onFlash(sub.M), onFlash(sub.N)
	if err := d.load(at, &m, &n); err != nil {
		return BitwiseResult{}, err
	}
	copy(m.data, m.data[sub.SectorOffset:][:sub.Length])
	copy(n.data, n.data[sub.NSectorOffset:][:sub.Length])
	return d.pairUp(op, scheme, m, n, at)
}
