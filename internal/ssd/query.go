package ssd

import (
	"fmt"
	"slices"

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
	// NVMeRoundTrips is always 0: the device compiles the tree it is
	// given, and a query crosses the §4.3.1 wire only at the host
	// boundary (the cluster's wire route). The field stays until the
	// benchmark stops reading it.
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
// operations generalized to whole expression trees). The expression is
// the one the host handed over: a query that travelled the §4.3.1 NVMe
// encoding was parsed at the host boundary, and the device does not
// encode it again.
//
//  1. The plan compiler normalizes the tree, flattens and fuses
//     associative chains into validated latch control programs and
//     shares structurally equal sub-queries (internal/plan).
//  2. Steps execute in dependency order. Fused steps over flash-resident
//     operands run as chained reductions; buffered intermediates join
//     through fold joins (see computeStep). Each non-trivial step result lands in the
//     controller-DRAM cache, priced by its measured recompute time, and
//     later queries reuse it while the FTL mapping versions of every
//     operand it depends on are unchanged.
//
// The result is bit-exact with the software evaluation of the expression
// over current page contents.
func (d *Device) ExecuteQuery(e *plan.Expr, scheme Scheme, at sim.Time) (BitwiseResult, error) {
	return d.ExecuteQueryOn(e, nil, scheme, at)
}

// ExecuteQueryOn runs e as ExecuteQuery does, with the i-th leaf of e in
// Leaves order reading page lpns[i]: a tree over column keys runs over
// this device's pages without being rebuilt. A nil lpns reads the pages
// the leaves name.
func (d *Device) ExecuteQueryOn(e *plan.Expr, lpns []uint64, scheme Scheme, at sim.Time) (BitwiseResult, error) {
	if e == nil {
		return BitwiseResult{}, fmt.Errorf("ssd: nil query expression")
	}
	// Compile normalizes its input. Normalization returns a canonical tree
	// as is, so a tree the caller already normalized (the cluster path) is
	// never rebuilt.
	p, err := d.qplan.Compile(e, lpns)
	if err != nil {
		return BitwiseResult{}, err
	}
	d.qstats.Queries++
	d.qstats.PlanSteps += int64(len(p.Steps))
	d.qstats.FusedChains += int64(p.FusedChains)
	d.qstats.FusedOperands += int64(p.FusedOperands)

	// Planning runs in controller firmware before any flash work issues.
	start := at.Add(sim.Duration(len(p.Steps)) * planStepCost)
	if d.tele.sink != nil {
		d.tele.qTrack.Span("plan", at, start)
	}

	results := slices.Grow(d.qres[:0], len(p.Steps))[:len(p.Steps)]
	d.qres = results
	// Drop the step pages once the query returns, so the scratch pins none.
	defer clear(results)
	for i := range p.Steps {
		st := &p.Steps[i]
		r, err := d.execStep(results, st, scheme, start)
		if err != nil {
			return BitwiseResult{}, fmt.Errorf("ssd: query step %d (%s %s): %w", i, st.Kind, p.KeyString(i), err)
		}
		results[i] = r
	}
	return results[p.Root()], nil
}

// execStep runs one plan step, consulting and feeding the result cache.
func (d *Device) execStep(results []BitwiseResult, st *plan.Step, scheme Scheme, at sim.Time) (BitwiseResult, error) {
	cacheable := d.qcache != nil && st.Kind != plan.StepRead
	if cacheable {
		if data, ok := d.qcache.Get(st.Key, d.ftl.Version); ok {
			d.tele.qTrack.Instant("cache-hit", at)
			return BitwiseResult{Data: data, Done: at.Add(cacheFetchCost)}, nil
		}
	}
	r, err := d.computeStep(results, st, scheme, at)
	if err != nil {
		return BitwiseResult{}, err
	}
	if cacheable {
		before := d.qcache.Stats().Evictions
		d.qcache.Put(st.Key, r.Data, st.Leaves, d.ftl.Version, r.Done.Sub(at).Seconds())
		if d.qcache.Stats().Evictions > before {
			d.tele.qTrack.Instant("cache-evict", r.Done)
		}
	}
	return r, nil
}

// computeStep executes one step on the flash path. Step kind and leaf
// count pick the part that senses in place: two or more leaves of a fused
// step run as a chained reduction, the two leaves of a binary step as one
// Bitwise, and a NOT's leaf against itself. Buffered results then join
// the fold, and a lone leaf last, one fold join each. A read step is a
// fold of its one leaf.
func (d *Device) computeStep(results []BitwiseResult, st *plan.Step, scheme Scheme, at sim.Time) (BitwiseResult, error) {
	args := st.Args
	if st.Kind == plan.StepNot {
		// A complement is its op applied to the operand twice.
		twice := [2]plan.Ref{args[0], args[0]}
		args = twice[:]
	}
	// The planner splits fused chains at latch.MaxChain, at most
	// MaxSteps/2 operands.
	var buf [latch.MaxSteps / 2]uint64
	leaves := buf[:0]
	for _, r := range args {
		if r.Leaf {
			leaves = append(leaves, r.LPN)
		}
	}
	f := fold{d: d, op: st.Op, scheme: scheme}
	if len(leaves) >= 2 {
		var r BitwiseResult
		var err error
		if st.Kind == plan.StepFused {
			r, err = d.Reduce(st.Op, leaves, scheme, at)
			if err == nil && d.tele.sink != nil {
				d.tele.qTrack.Span("fuse/"+st.Op.String(), at, r.Done)
			}
		} else {
			r, err = d.Bitwise(st.Op, leaves[0], leaves[1], scheme, at)
		}
		if err != nil {
			return BitwiseResult{}, err
		}
		f.acc, f.started, leaves = r, true, nil
	}
	for _, r := range args {
		if !r.Leaf {
			if err := f.add(buffered(results[r.Step]), at); err != nil {
				return BitwiseResult{}, err
			}
		}
	}
	for _, lpn := range leaves {
		if err := f.add(onFlash(lpn), at); err != nil {
			return BitwiseResult{}, err
		}
	}
	return f.acc, nil
}
