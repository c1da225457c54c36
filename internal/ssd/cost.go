package ssd

import (
	"fmt"

	"parabit/internal/flash"
	"parabit/internal/latch"
	"parabit/internal/plan"
	"parabit/internal/sim"
)

// Analytic per-wave cost model. The paper-scale experiments (hundreds of
// gigabytes of operands) cannot write real pages through the functional
// simulator; they instead compute wave counts and multiply by the per-wave
// latencies below. Every sense in them is priced as the functional
// executor's array prices it, from its latch program's cost
// (latch.Price, converted by flash.Timing.SenseLatency) —
// TestAnalyticMatchesFunctional asserts the functional device reproduces
// them exactly at small scale.
//
// A "wave" is one all-planes-parallel operation: every plane senses one
// wordline, so a wave covers Geometry.WaveBytes() of each operand
// (8 MB on the paper's configuration).

// ReallocStepLatency is the cost of one reallocate-then-sense step:
// reading the operands still in flash (readOperands of them — 2 when both
// operands are flash-resident, 1 when the running result is already in
// the controller buffer), the paired LSB+MSB program, the data transfers
// across the channel, and the op's sense. Operand reads overlap across
// planes, so one MLC LSB read's sense (its read program, latch.ReadCost)
// plus the transfers gate the program.
func ReallocStepLatency(t flash.Timing, op latch.Op, readOperands int, pageSize int) sim.Duration {
	var readPhase sim.Duration
	if readOperands > 0 {
		// Parallel reads across planes: one LSB read's sense plus the
		// serialized channel transfers.
		readPhase = t.SenseLatency(latch.ReadCost(2, int(flash.LSBPage), 0), pageSize) +
			sim.Duration(readOperands)*t.Transfer(pageSize)
	}
	// Two page programs on the target wordline (LSB then MSB), each
	// preceded by its channel transfer in.
	programPhase := 2 * (t.Transfer(pageSize) + t.ProgramPage)
	return readPhase + programPhase + t.SenseLatency(latch.MustPrice(latch.SensePair, op, 1), pageSize)
}

// senseLatency prices one sense of kind folding k operand wordlines with
// op as Array.Sense prices it: its latch program's cost, converted to
// array time. It returns the lookup's refusal.
func senseLatency(geo flash.Geometry, t flash.Timing, kind latch.SenseKind, op latch.Op, k int) (sim.Duration, error) {
	c, err := latch.Price(kind, op, k)
	if err != nil {
		return 0, err
	}
	return t.SenseLatency(c, geo.PageSize), nil
}

// ReducePlan is the analytic execution plan of a k-operand reduction over
// a bulk working set.
type ReducePlan struct {
	Scheme Scheme
	Op     latch.Op
	// K is the operand count per reduction chain.
	K int
	// Waves is how many all-planes waves one pass over the chain's
	// operand columns takes (column bytes / wave bytes).
	Waves float64
	// SenseSeconds is the parallel-sense phase (pre-allocated pairs or
	// location-free chains).
	SenseSeconds float64
	// CombineSeconds is the serial combine phase: reallocation steps, or
	// a read and a controller combine.
	CombineSeconds float64
	// TotalSeconds is the in-SSD compute time.
	TotalSeconds float64
	// Reallocations counts realloc steps per chain (endurance input).
	Reallocations int
	// ReallocBytes is the flash volume written by reallocation across the
	// whole working set.
	ReallocBytes int64
}

// PlanReduce computes the analytic plan for reducing K operand columns of
// columnBytes each (one output column of the same size), on a device with
// the given geometry and timing. It mirrors Device.Reduce's execution:
//
//   - PreAlloc: ceil(K/2) co-located pair senses run fully parallel
//     (their wave counts add across the device but pairs of different
//     columns overlap — the senses for all pairs take
//     ceil(K/2)*waves*senseLatency/1 in the worst serialized case; since
//     every wave occupies all planes, waves serialize device-wide), then
//     K/2-1 serial combine steps of `waves` waves each.
//   - ReAlloc: K-1 serial realloc steps (first reads 2 operands, the rest
//     read 1), each `waves` waves.
//   - LocFree: `waves` chained waves, no reallocation.
//   - FlashCosmos: one multi-wordline sense per MaxMWSOperands-sized
//     chunk, chained on the plane, plus a read and a controller combine
//     for a lone leftover operand; the XOR family (no MWS form) is priced
//     as its LocFree fallback.
//
// Every sense is priced from its latch program's cost, as the array
// prices it. PlanReduce refuses fewer than two operands and a reduction
// the latch tables have no program for (a chained NOT).
func PlanReduce(geo flash.Geometry, t flash.Timing, scheme Scheme, op latch.Op, k int, columnBytes int64) (ReducePlan, error) {
	if k < 2 {
		return ReducePlan{}, fmt.Errorf("ssd: reduction of %d operands, want at least 2", k)
	}
	waves := float64(columnBytes) / float64(geo.WaveBytes())
	if waves < 1 {
		waves = 1
	}
	p := ReducePlan{Scheme: scheme, Op: op, K: k, Waves: waves}
	switch scheme {
	case SchemePreAlloc:
		pairs := k / 2
		odd := k%2 == 1
		pair := t.SenseLatency(latch.MustPrice(latch.SensePair, op, 1), geo.PageSize)
		p.SenseSeconds = float64(pairs) * waves * pair.Seconds()
		combines := pairs - 1
		if odd {
			combines++
		}
		if k == 2 {
			combines = 0
		}
		// Combine inputs are buffered partials: no operand reads.
		p.CombineSeconds = float64(combines) * waves *
			ReallocStepLatency(t, op, 0, geo.PageSize).Seconds()
		p.Reallocations = combines
	case SchemeReAlloc:
		steps := k - 1
		first := ReallocStepLatency(t, op, 2, geo.PageSize).Seconds()
		rest := ReallocStepLatency(t, op, 1, geo.PageSize).Seconds()
		p.CombineSeconds = waves * (first + float64(steps-1)*rest)
		p.Reallocations = steps
	case SchemeLocFree:
		// Two operands run the all-LSB location-free program, more the
		// chained one.
		kind := latch.SenseChainLSB
		if k == 2 {
			kind = latch.SenseLocFreeLSB
		}
		sense, err := senseLatency(geo, t, kind, op, k)
		if err != nil {
			return ReducePlan{}, err
		}
		p.SenseSeconds = waves * sense.Seconds()
	case SchemeFlashCosmos:
		if !latch.MWSComputable(op) {
			// No MWS form: the executor falls back to the LocFree paths
			// wholesale, and the plan prices that honestly.
			lf, err := PlanReduce(geo, t, SchemeLocFree, op, k, columnBytes)
			lf.Scheme = SchemeFlashCosmos
			return lf, err
		}
		// One multi-wordline sense per MaxMWSOperands-sized chunk. The
		// group lays out in one block (persist.OpWriteMWSGroup), so chunk
		// results chain through the plane's latches: the senses serialize
		// on the plane's sense unit but no program separates them. A lone
		// leftover operand has no sense of its own: it is read after the
		// chunks and joins their result in one controller combine.
		var sense sim.Duration
		lone := false
		for rem := k; rem > 0; {
			c := rem
			if c > latch.MaxMWSOperands {
				c = latch.MaxMWSOperands
			}
			if c < 2 {
				lone = true
				break
			}
			chunk, err := senseLatency(geo, t, latch.SenseChainMWS, op, c)
			if err != nil {
				return ReducePlan{}, err
			}
			sense += chunk
			rem -= c
		}
		p.SenseSeconds = waves * sense.Seconds()
		if lone {
			read := t.SenseLatency(latch.ReadCost(geo.CellBits, int(flash.LSBPage), 0), geo.PageSize) + t.Transfer(geo.PageSize)
			p.CombineSeconds = waves * (read + plan.CombineCost(2, geo.PageSize)).Seconds()
		}
	}
	p.TotalSeconds = p.SenseSeconds + p.CombineSeconds
	p.ReallocBytes = int64(float64(p.Reallocations) * 2 * float64(columnBytes))
	return p, nil
}
