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
// no MWS form, operands missed colocation, the operand count exceeds the
// per-sense cap, or maintenance migrated pages mid-reduction — execution
// degrades to the location-free paths instead of erroring: without
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

// bitwiseFlashCosmos executes one two-operand operation under the
// Flash-Cosmos scheme: a two-wordline MWS when the operands are
// colocated and the op has an MWS form, the LocFree pairwise path
// otherwise.
func (d *Device) bitwiseFlashCosmos(op latch.Op, lpnM, lpnN uint64,
	addrM, addrN flash.PageAddr, at sim.Time) (BitwiseResult, error) {
	if d.cfg.Geometry.CellBits == 2 && latch.MWSComputable(op) && mwsPair(addrM, addrN) {
		s := flash.Sense{Kind: flash.SenseMWS, Op: op, WLs: []flash.WordlineAddr{addrM.WordlineAddr, addrN.WordlineAddr}}
		return d.runSense(s, at, op, SchemeFlashCosmos, at)
	}
	// Colocation missed, or the op's algebra has no single-sense form:
	// the documented fallback is the pairwise location-free execution.
	d.noteFallback(SchemeFlashCosmos)
	return d.Bitwise(op, lpnM, lpnN, SchemeLocFree, at)
}

// reduceFlashCosmos reduces via multi-wordline senses: operands bucketed
// by block, one MWS per MaxMWSOperands-sized chunk. Chunks that share a
// plane chain through the plane's latches in one array call (no program
// between chunks, like the location-free chain), so a k-operand group
// costs ceil(k/MaxMWSOperands) serialized senses; only cross-plane
// partials combine with buffered reallocation steps. Operands outside
// any viable chunk (lone residents of a block, non-LSB pages, pages a
// mid-reduction migration moved) are strays, counted as one scheme
// fallback: two or more reduce together through reduceLocFree, so
// same-plane LSB strays cost one chained sense and no program, and that
// result joins the fold through one reallocation step; a lone stray
// joins it directly, one reallocation step that reads it from flash
// (the leftover PlanReduce prices). When no chunk forms at all, the
// whole reduction is reduceLocFree's.
//
// Like reduceLocFree, placement is resolved twice: a pre-scan buckets
// operands by their current block, and every plane run re-resolves its
// operands immediately before sensing — the cross-plane combine writes
// between runs go through the FTL's fault-aware program path, and the
// garbage collection or bad-block retirement they trigger migrates
// mapped pages, including this reduction's own operands.
func (d *Device) reduceFlashCosmos(op latch.Op, lpns []uint64, at sim.Time) (BitwiseResult, error) {
	if !latch.MWSComputable(op) || d.cfg.Geometry.CellBits != 2 {
		// The XOR family has no multi-wordline sense form (and only MLC
		// strings have the MWS mode here): whole-reduction fallback.
		d.noteFallback(SchemeFlashCosmos)
		return d.reduceLocFree(op, lpns, at)
	}
	s := &d.red
	// Pre-scan: note each operand's current block (-1 for a stray: a
	// non-LSB or scrambled page), keeping blocks in first-appearance
	// order. Addresses seen here drive grouping only and are never sensed
	// from.
	s.keys, s.blockOf, s.fcStrays = s.keys[:0], s.blockOf[:0], s.fcStrays[:0]
	for _, lpn := range lpns {
		addr, err := d.operandLoc(lpn)
		if err != nil {
			return BitwiseResult{}, err
		}
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

	// Chunk results fold as they come: the first starts the fold, later
	// ones join it through a reallocation step (partials cannot rejoin an
	// MWS — a sealed operand block has no room for them).
	f := fold{d: d, op: op}
	// Split each block's group, in operand order, into sense-margin-sized
	// chunks. A chunk belongs to its block's plane run: every chunk of a
	// run senses on the same plane, so its results can accumulate in that
	// plane's latches. Runs take their planes' first-appearance order.
	s.grouped, s.chunks, s.runPlanes = s.grouped[:0], s.chunks[:0], s.runPlanes[:0]
	for b, key := range s.keys {
		start := len(s.grouped)
		for i, lpn := range lpns {
			if s.blockOf[i] == b {
				s.grouped = append(s.grouped, lpn)
			}
		}
		g := s.grouped[start:]
		if len(g) < 2 {
			s.fcStrays = append(s.fcStrays, g...)
			continue
		}
		if !slices.Contains(s.runPlanes, key.plane) {
			s.runPlanes = append(s.runPlanes, key.plane)
		}
		for len(g) > 0 {
			n := min(len(g), latch.MaxMWSOperands)
			chunk := g[:n]
			g = g[n:]
			if n < 2 {
				s.fcStrays = append(s.fcStrays, chunk...)
				continue
			}
			s.chunks = append(s.chunks, mwsChunk{plane: key.plane, lpns: chunk})
		}
	}
	if len(s.chunks) == 0 {
		// No block holds two of the operands: without colocation they are
		// ordinary pages, and the whole reduction is location-free, as the
		// XOR family's is.
		d.noteFallback(SchemeFlashCosmos)
		return d.reduceLocFree(op, lpns, at)
	}
	for _, run := range s.runPlanes {
		// Re-resolve the run NOW, after whatever maintenance earlier
		// cross-plane combines triggered: still-colocated chunks sense
		// together, migrated operands join the fold as strays.
		// A migration may also have moved a whole chunk off this run's
		// plane, so resolved chunks re-bucket by their actual plane.
		s.wls, s.resolved, s.sensePlanes = s.wls[:0], s.resolved[:0], s.sensePlanes[:0]
		for _, chunk := range s.chunks {
			if chunk.plane != run {
				continue
			}
			start, mark := len(s.wls), len(s.fcStrays)
			for i, lpn := range chunk.lpns {
				addr, err := d.operandLoc(lpn)
				if err != nil {
					return BitwiseResult{}, err
				}
				if addr.Kind == flash.LSBPage && (i == 0 || (len(s.wls) > start &&
					addr.PlaneAddr == s.wls[start].PlaneAddr && addr.Block == s.wls[start].Block)) {
					s.wls = append(s.wls, addr.WordlineAddr)
				} else {
					s.fcStrays = append(s.fcStrays, lpn)
				}
			}
			if len(s.wls)-start < 2 {
				// The chunk scattered: all of it joins the strays.
				s.wls, s.fcStrays = s.wls[:start], append(s.fcStrays[:mark], chunk.lpns...)
				continue
			}
			pl := s.wls[start].PlaneAddr
			if !slices.Contains(s.sensePlanes, pl) {
				s.sensePlanes = append(s.sensePlanes, pl)
			}
			s.resolved = append(s.resolved, wlSpan{plane: pl, start: start, end: len(s.wls)})
		}
		for _, pl := range s.sensePlanes {
			s.chunkWLs = s.chunkWLs[:0]
			for _, r := range s.resolved {
				if r.plane == pl {
					s.chunkWLs = append(s.chunkWLs, s.wls[r.start:r.end])
				}
			}
			sense := flash.Sense{Kind: flash.SenseChainMWS, Op: op, Chunks: s.chunkWLs}
			if len(s.chunkWLs) == 1 {
				sense = flash.Sense{Kind: flash.SenseMWS, Op: op, WLs: s.chunkWLs[0]}
			}
			res, err := d.runSense(sense, at, op, SchemeFlashCosmos, at)
			if err != nil {
				return BitwiseResult{}, err
			}
			if err := f.add(buffered(res), sim.Max(f.acc.Done, res.Done)); err != nil {
				return BitwiseResult{}, err
			}
		}
	}
	// Strays missed the single-sense layout, so they are ordinary pages:
	// two or more reduce as one location-free reduction (same-plane LSB
	// strays chain in place, cross-plane ones park), whose buffered result
	// joins the MWS partials. A lone stray folds in one reallocation step.
	if len(s.fcStrays) == 0 {
		return f.acc, nil
	}
	d.noteFallback(SchemeFlashCosmos)
	o := onFlash(s.fcStrays[0])
	if len(s.fcStrays) > 1 {
		res, err := d.reduceLocFree(op, s.fcStrays, at)
		if err != nil {
			return BitwiseResult{}, err
		}
		o = buffered(res)
	}
	if err := f.add(o, sim.Max(sim.Max(at, f.acc.Done), o.ready)); err != nil {
		return BitwiseResult{}, err
	}
	return f.acc, nil
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
	// reduceLocFree: each operand's plane at pre-scan, the same-plane
	// runs, one run's chain and the LPNs of its aligned operands, and the
	// run's strays, which join the fold one reallocation step each.
	planes      []flash.PlaneAddr
	runs        []lpnRun
	chain       []flash.WordlineAddr
	alignedLPNs []uint64
	strays      []uint64

	// reduceFlashCosmos: operand blocks in first-appearance order and each
	// operand's index into them, the operands regrouped by block, the
	// chunks and the planes of their runs; then one run's resolved
	// wordlines, its chunks' windows of them, the planes those sense on,
	// and one plane's chunks as handed to the array; and the strays, in
	// the order they left the chunks.
	fcStrays    []uint64
	keys        []blockKey
	blockOf     []int
	grouped     []uint64
	chunks      []mwsChunk
	runPlanes   []flash.PlaneAddr
	wls         []flash.WordlineAddr
	resolved    []wlSpan
	sensePlanes []flash.PlaneAddr
	chunkWLs    [][]flash.WordlineAddr
}

// lpnRun is a window lpns[start:end] of a reduction's operands sharing a
// plane.
type lpnRun struct {
	start, end int
	plane      flash.PlaneAddr
}

// mwsChunk is up to MaxMWSOperands operands of one block, planned for one
// multi-wordline sense on plane.
type mwsChunk struct {
	plane flash.PlaneAddr
	lpns  []uint64
}

// wlSpan is a resolved chunk: the window wls[start:end] of wordlines
// sensing together on plane.
type wlSpan struct {
	plane      flash.PlaneAddr
	start, end int
}
