package ssd

import (
	"slices"

	"parabit/internal/flash"
	"parabit/internal/latch"
	"parabit/internal/sim"
)

// Flash-Cosmos execution (SchemeFlashCosmos): an N-operand AND/OR
// reduction over operands colocated in one block collapses into a single
// multi-wordline sense — the NAND string computes the fold, so the
// latency is one (slightly longer) read regardless of operand count,
// where the pairwise schemes pay one sense or one reallocation per
// operand. Whenever the single sense is ruled out — the op's algebra has
// no MWS form, operands missed colocation, or the operand count leaves
// one over the per-sense cap — execution degrades to the location-free
// paths instead of erroring: without
// colocation the operands are ordinary pages, which ParaBit senses in
// place wherever they are LSB pages of one plane.

// blockKey identifies the NAND block an MWS selects wordlines of.
type blockKey struct {
	plane flash.PlaneAddr
	block int
}

// mwsPair reports whether two operands can feed one two-wordline MWS:
// LSB pages of distinct wordlines colocated in one block.
func mwsPair(a, b flash.PageAddr) bool {
	return a.Kind == flash.LSBPage && b.Kind == flash.LSBPage &&
		a.PlaneAddr == b.PlaneAddr && a.Block == b.Block &&
		a.WordlineAddr != b.WordlineAddr
}

// reduceFlashCosmos reduces via multi-wordline senses: operands bucketed
// by block, one MWS per MaxMWSOperands-sized chunk. Chunks that share a
// plane chain through the plane's latches in one array call (no program
// between chunks, like the location-free chain), so a k-operand group
// costs ceil(k/MaxMWSOperands) serialized senses. Operands outside any
// viable chunk (lone residents of a block, non-LSB pages) are strays,
// counted as one scheme fallback: two or more reduce together through
// reduceLocFree, so same-plane LSB strays cost one chained sense and no
// program, and a lone stray is read. Every plane's partial, the strays'
// result among them, issues at at and joins in one controller combine;
// nothing goes back to flash. When no chunk forms at all, the whole
// reduction is reduceLocFree's.
func (d *Device) reduceFlashCosmos(op latch.Op, lpns []uint64, at sim.Time) (BitwiseResult, error) {
	if !latch.MWSComputable(op) || d.cfg.Geometry.CellBits != 2 {
		// The XOR family has no multi-wordline sense form (and only MLC
		// strings have the MWS mode here): whole-reduction fallback.
		d.noteFallback(SchemeFlashCosmos)
		return d.reduceLocFree(op, lpns, SchemeFlashCosmos, at)
	}
	s := &d.red
	// Note each operand's wordline and block (-1 for a stray: a non-LSB or
	// scrambled page), keeping blocks in first-appearance order. Senses
	// move no page, so these addresses are the ones sensed.
	s.keys, s.blockOf, s.wlOf, s.fcStrays = s.keys[:0], s.blockOf[:0], s.wlOf[:0], s.fcStrays[:0]
	for _, lpn := range lpns {
		addr, err := d.operandLoc(lpn)
		if err != nil {
			return BitwiseResult{}, err
		}
		s.wlOf = append(s.wlOf, addr.WordlineAddr)
		if addr.Kind != flash.LSBPage || d.scrambled(lpn) {
			s.fcStrays = append(s.fcStrays, lpn)
			s.blockOf = append(s.blockOf, -1)
			continue
		}
		key := blockKey{addr.PlaneAddr, addr.Block}
		b := slices.Index(s.keys, key)
		if b < 0 {
			b = len(s.keys)
			s.keys = append(s.keys, key)
		}
		s.blockOf = append(s.blockOf, b)
	}

	// Split each block's group, in operand order, into sense-margin-sized
	// chunks, windows of wls. Every chunk of a plane senses in one call, so
	// its results accumulate in that plane's latches. Planes take their
	// first-appearance order.
	s.grouped, s.wls, s.chunks, s.runPlanes = s.grouped[:0], s.wls[:0], s.chunks[:0], s.runPlanes[:0]
	for b, key := range s.keys {
		start := len(s.wls)
		for i, lpn := range lpns {
			if s.blockOf[i] == b {
				s.grouped = append(s.grouped, lpn)
				s.wls = append(s.wls, s.wlOf[i])
			}
		}
		for start < len(s.wls) {
			end := min(len(s.wls), start+latch.MaxMWSOperands)
			if end-start < 2 {
				s.fcStrays = append(s.fcStrays, s.grouped[start:end]...)
			} else {
				s.chunks = append(s.chunks, wlSpan{plane: key.plane, start: start, end: end})
				if !slices.Contains(s.runPlanes, key.plane) {
					s.runPlanes = append(s.runPlanes, key.plane)
				}
			}
			start = end
		}
	}
	if len(s.chunks) == 0 {
		// No block holds two of the operands: without colocation they are
		// ordinary pages, and the whole reduction is location-free, as the
		// XOR family's is.
		d.noteFallback(SchemeFlashCosmos)
		return d.reduceLocFree(op, lpns, SchemeFlashCosmos, at)
	}
	c := combine{d: d, op: op}
	for _, pl := range s.runPlanes {
		s.chunkWLs = s.chunkWLs[:0]
		for _, ch := range s.chunks {
			if ch.plane == pl {
				s.chunkWLs = append(s.chunkWLs, s.wls[ch.start:ch.end])
			}
		}
		sense := flash.Sense{Kind: latch.SenseChainMWS, Op: op, Chunks: s.chunkWLs}
		if len(s.chunkWLs) == 1 {
			sense = flash.Sense{Kind: latch.SenseMWS, Op: op, WLs: s.chunkWLs[0]}
		}
		res, err := d.runSense(sense, at, op, SchemeFlashCosmos, at)
		if err != nil {
			return BitwiseResult{}, err
		}
		c.add(res.Data, res.Done)
	}
	// Strays missed the single-sense layout, so they are ordinary pages:
	// two or more reduce as one location-free reduction, a lone one is
	// read, and either joins the MWS partials in the combine.
	if len(s.fcStrays) > 0 {
		d.noteFallback(SchemeFlashCosmos)
		var r BitwiseResult
		var err error
		if len(s.fcStrays) == 1 {
			r.Data, r.Done, err = d.readOperand(s.fcStrays[0], at)
		} else {
			r, err = d.reduceLocFree(op, s.fcStrays, SchemeFlashCosmos, at)
		}
		if err != nil {
			return BitwiseResult{}, err
		}
		c.add(r.Data, r.Done)
	}
	return c.result(), nil
}

// reduceScratch is the working memory reduceLocFree and reduceFlashCosmos
// reuse across calls, truncated on entry, so a reduction allocates only
// the pages it produces. The device is single-threaded under the
// scheduler. Its one nesting is reduceFlashCosmos calling reduceLocFree,
// wholesale or for its strays. reduceLocFree writes only the fields
// under its name, never fcStrays, which it may be handed as its operand
// list, and reduceFlashCosmos reads none of its fields after that call.
// No field outlives the call that fills it.
type reduceScratch struct {
	// reduceLocFree: each operand's address and the planes in
	// first-appearance order (its groups); then one group's chain, the
	// LPNs of its aligned operands, and its strays, which are read.
	addrs       []flash.PageAddr
	groups      []flash.PlaneAddr
	chain       []flash.WordlineAddr
	alignedLPNs []uint64
	strays      []uint64

	// reduceFlashCosmos: operand blocks in first-appearance order, each
	// operand's index into them and its wordline; the operands regrouped
	// by block with their wordlines, the chunks (windows of those
	// wordlines) and the planes they sense on; one plane's chunks as
	// handed to the array; and the strays, in the order they left the
	// chunks.
	fcStrays  []uint64
	keys      []blockKey
	blockOf   []int
	wlOf      []flash.WordlineAddr
	grouped   []uint64
	wls       []flash.WordlineAddr
	chunks    []wlSpan
	runPlanes []flash.PlaneAddr
	chunkWLs  [][]flash.WordlineAddr
}

// wlSpan is a chunk: the window wls[start:end] of wordlines of one block
// on plane, sensing together.
type wlSpan struct {
	plane      flash.PlaneAddr
	start, end int
}
