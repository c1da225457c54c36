package ssd

import (
	"fmt"

	"parabit/internal/latch"
	"parabit/internal/plan"
	"parabit/internal/sim"
)

// Query-planner timing constants. Planning is controller firmware walking
// a small tree; a cache hit is one page fetched from controller DRAM.
// Both are orders of magnitude below a 25 µs sense, which is the point:
// a hit removes flash work entirely, and planning overhead must not eat
// the fusion win.
const (
	// planStepCost is the modeled firmware time to plan one step.
	planStepCost = 300 * sim.Nanosecond
	// cacheFetchCost is the modeled DRAM fetch of one cached result page.
	cacheFetchCost = 2 * sim.Microsecond
)

// QueryStats counts query-planner activity.
type QueryStats struct {
	// Queries executed, plan steps run, and how many of those steps were
	// fused chains (with the operands they covered).
	Queries       int64
	PlanSteps     int64
	FusedChains   int64
	FusedOperands int64
	// NVMeRoundTrips counts queries that travelled the §4.3.1 command
	// encoding (wire-expressible shapes).
	NVMeRoundTrips int64
	// Cache is the controller-DRAM result cache's counters.
	Cache plan.CacheStats
}

// QueryStats returns a snapshot of planner counters.
func (d *Device) QueryStats() QueryStats {
	st := d.qstats
	if d.qcache != nil {
		st.Cache = d.qcache.Stats()
	}
	return st
}

// ExecuteQuery plans and runs a bitmap-query expression (§4.2's chained
// operations generalized to whole expression trees):
//
//  1. Wire-expressible queries ride the §4.3.1 NVMe Formula encoding —
//     encode, device-side parse, lift back — so the executed query is the
//     one that survived the command round-trip.
//  2. The plan compiler flattens and fuses associative chains into
//     validated latch control programs and shares structurally equal
//     sub-queries (internal/plan).
//  3. Steps execute in dependency order. Fused steps over flash-resident
//     operands run as chained reductions; buffered intermediates fold via
//     the reallocation path. Each non-trivial step result lands in the
//     controller-DRAM cache, priced by its measured recompute time, and
//     later queries reuse it while the FTL mapping versions of every
//     operand it depends on are unchanged.
//
// The result is bit-exact with the software evaluation of the expression
// over current page contents.
func (d *Device) ExecuteQuery(e *plan.Expr, scheme Scheme, at sim.Time) (BitwiseResult, error) {
	if e == nil {
		return BitwiseResult{}, fmt.Errorf("ssd: nil query expression")
	}
	// RoundTrip and Compile each normalize their input. Normalization
	// returns a canonical tree as is, so a tree the caller already
	// normalized (the cluster path) is never rebuilt.
	if wired, ok, err := plan.RoundTrip(e, d.PageSize()); err != nil {
		return BitwiseResult{}, err
	} else if ok {
		d.qstats.NVMeRoundTrips++
		d.tele.cQRoundTrip.Add(1)
		e = wired
	}
	p, err := plan.Compile(e)
	if err != nil {
		return BitwiseResult{}, err
	}
	d.qstats.Queries++
	d.qstats.PlanSteps += int64(len(p.Steps))
	d.qstats.FusedChains += int64(p.FusedChains)
	d.qstats.FusedOperands += int64(p.FusedOperands)
	d.tele.cQPlans.Add(1)
	d.tele.cQSteps.Add(int64(len(p.Steps)))
	d.tele.cQFused.Add(int64(p.FusedChains))

	// Planning runs in controller firmware before any flash work issues.
	start := at.Add(sim.Duration(len(p.Steps)) * planStepCost)
	if d.tele.sink != nil {
		d.tele.qTrack.Span("plan", at, start)
	}

	results := make([]BitwiseResult, len(p.Steps))
	for i, st := range p.Steps {
		r, err := d.execStep(p, results, st, scheme, start)
		if err != nil {
			return BitwiseResult{}, fmt.Errorf("ssd: query step %d (%s %s): %w", i, st.Kind, st.Key, err)
		}
		results[i] = r
	}
	return results[p.Root()], nil
}

// execStep runs one plan step, consulting and feeding the result cache.
func (d *Device) execStep(p *plan.Plan, results []BitwiseResult, st plan.Step, scheme Scheme, at sim.Time) (BitwiseResult, error) {
	cacheable := d.qcache != nil && st.Kind != plan.StepRead
	if cacheable {
		if data, ok := d.qcache.Get(st.Key, d.ftl.Version); ok {
			d.tele.cQCacheHit.Add(1)
			if d.tele.sink != nil {
				d.tele.qTrack.Instant("cache-hit", at)
			}
			return BitwiseResult{Data: data, Done: at.Add(cacheFetchCost)}, nil
		}
		d.tele.cQCacheMiss.Add(1)
	}
	r, err := d.computeStep(results, st, scheme, at)
	if err != nil {
		return BitwiseResult{}, err
	}
	if cacheable {
		before := d.qcache.Stats().Evictions
		d.qcache.Put(st.Key, r.Data, st.Leaves, d.ftl.Version, r.Done.Sub(at).Seconds())
		if evicted := d.qcache.Stats().Evictions - before; evicted > 0 {
			d.tele.cQCacheEvict.Add(evicted)
			if d.tele.sink != nil {
				d.tele.qTrack.Instant("cache-evict", r.Done)
			}
		}
	}
	return r, nil
}

// computeStep executes one step on the flash path.
func (d *Device) computeStep(results []BitwiseResult, st plan.Step, scheme Scheme, at sim.Time) (BitwiseResult, error) {
	argOf := func(r plan.Ref) BitwiseResult { return results[r.Step] }
	switch st.Kind {
	case plan.StepRead:
		data, done, err := d.Read(st.Args[0].LPN, at)
		if err != nil {
			return BitwiseResult{}, err
		}
		return BitwiseResult{Data: data, Done: done}, nil

	case plan.StepNot:
		a := st.Args[0]
		if a.Leaf {
			return d.Bitwise(latch.OpNotLSB, a.LPN, a.LPN, scheme, at)
		}
		buf := argOf(a)
		return d.senseAfterReallocBuffered(latch.OpNotLSB, buf.Data, buf.Done, -1, buf.Data, buf.Done, at)

	case plan.StepOp:
		a, b := st.Args[0], st.Args[1]
		switch {
		case a.Leaf && b.Leaf:
			return d.Bitwise(st.Op, a.LPN, b.LPN, scheme, at)
		case a.Leaf:
			// The ops are commutative: fold the buffered side first.
			buf := argOf(b)
			return d.senseAfterReallocBuffered(st.Op, buf.Data, buf.Done, int64(a.LPN), nil, 0, at)
		case b.Leaf:
			buf := argOf(a)
			return d.senseAfterReallocBuffered(st.Op, buf.Data, buf.Done, int64(b.LPN), nil, 0, at)
		default:
			ra, rb := argOf(a), argOf(b)
			return d.senseAfterReallocBuffered(st.Op, ra.Data, ra.Done, -1, rb.Data, rb.Done, at)
		}

	case plan.StepFused:
		var leaves []uint64
		var bufs []BitwiseResult
		for _, r := range st.Args {
			if r.Leaf {
				leaves = append(leaves, r.LPN)
			} else {
				bufs = append(bufs, argOf(r))
			}
		}
		var acc BitwiseResult
		haveAcc := false
		if len(leaves) >= 2 {
			// The fused chain proper: flash-resident operands fold in one
			// chained operation (SchemeLocFree) or the scheme's chained
			// reduction.
			r, err := d.Reduce(st.Op, leaves, scheme, at)
			if err != nil {
				return BitwiseResult{}, err
			}
			if d.tele.sink != nil {
				d.tele.qTrack.Span("fuse/"+st.Op.String(), at, r.Done)
			}
			acc, haveAcc = r, true
			leaves = nil
		}
		for _, buf := range bufs {
			if !haveAcc {
				acc, haveAcc = buf, true
				continue
			}
			r, err := d.senseAfterReallocBuffered(st.Op, acc.Data, acc.Done, -1, buf.Data, buf.Done, at)
			if err != nil {
				return BitwiseResult{}, err
			}
			acc = r
		}
		for _, lpn := range leaves {
			// At most one flash-resident operand remains here (a lone leaf
			// among buffered intermediates).
			r, err := d.senseAfterReallocBuffered(st.Op, acc.Data, acc.Done, int64(lpn), nil, 0, at)
			if err != nil {
				return BitwiseResult{}, err
			}
			acc = r
		}
		return acc, nil
	}
	return BitwiseResult{}, fmt.Errorf("ssd: unknown plan step kind %v", st.Kind)
}
