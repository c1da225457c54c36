package ssd

import (
	"parabit/internal/flash"
	"parabit/internal/latch"
	"parabit/internal/plan"
	"parabit/internal/sim"
)

// Analytic per-wave cost model. The paper-scale experiments (hundreds of
// gigabytes of operands) cannot write real pages through the functional
// simulator; they instead compute wave counts and multiply by the per-wave
// latencies below. These functions are the single source of truth shared
// with the functional executor — TestAnalyticMatchesFunctional asserts the
// functional device reproduces them exactly at small scale.
//
// A "wave" is one all-planes-parallel operation: every plane senses one
// wordline, so a wave covers Geometry.WaveBytes() of each operand
// (8 MB on the paper's configuration).

// PairSenseLatency is the cost of one pre-allocated (co-located) ParaBit
// operation: the op's control-sequence SROs.
func PairSenseLatency(t flash.Timing, op latch.Op) sim.Duration {
	return t.BitwiseLatency(op)
}

// ReallocStepLatency is the cost of one reallocate-then-sense step:
// reading the operands still in flash (readOperands of them — 2 when both
// operands are flash-resident, 1 when the running result is already in
// the controller buffer), the paired LSB+MSB program, the data transfers
// across the channel, and the op's sense. Operand reads overlap across
// planes, so only the slowest (an LSB read, 1 SRO) plus its transfer gate
// the program.
func ReallocStepLatency(t flash.Timing, op latch.Op, readOperands int, pageSize int) sim.Duration {
	var readPhase sim.Duration
	if readOperands > 0 {
		// Parallel reads across planes: latency of one LSB read plus the
		// serialized channel transfers.
		readPhase = t.SenseSRO + sim.Duration(readOperands)*t.Transfer(pageSize)
	}
	// Two page programs on the target wordline (LSB then MSB), each
	// preceded by its channel transfer in.
	programPhase := 2 * (t.Transfer(pageSize) + t.ProgramPage)
	return readPhase + programPhase + t.BitwiseLatency(op)
}

// LocFreePairLatency is one location-free op over aligned LSB operands.
func LocFreePairLatency(t flash.Timing, op latch.Op) sim.Duration {
	return t.BitwiseLatencyLocFreeLSB(op)
}

// ChainWaveLatency is one wave of a location-free k-operand reduction:
// the chained sensing plus any buffer reloads (§4.2), priced from latch's
// chained program as the array prices the sense.
func ChainWaveLatency(t flash.Timing, op latch.Op, k int, pageSize int) sim.Duration {
	sros, loads, err := latch.PriceChain(op, k)
	if err != nil {
		panic(err)
	}
	return sim.Duration(sros)*t.SenseSRO + sim.Duration(loads)*t.Transfer(pageSize)
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
func PlanReduce(geo flash.Geometry, t flash.Timing, scheme Scheme, op latch.Op, k int, columnBytes int64) ReducePlan {
	waves := float64(columnBytes) / float64(geo.WaveBytes())
	if waves < 1 {
		waves = 1
	}
	p := ReducePlan{Scheme: scheme, Op: op, K: k, Waves: waves}
	switch scheme {
	case SchemePreAlloc:
		pairs := k / 2
		odd := k%2 == 1
		p.SenseSeconds = float64(pairs) * waves * PairSenseLatency(t, op).Seconds()
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
		if k == 2 {
			p.SenseSeconds = waves * LocFreePairLatency(t, op).Seconds()
		} else {
			p.SenseSeconds = waves * ChainWaveLatency(t, op, k, geo.PageSize).Seconds()
		}
	case SchemeFlashCosmos:
		if !latch.MWSComputable(op) {
			// No MWS form: the executor falls back to the LocFree paths
			// wholesale, and the plan prices that honestly.
			p = PlanReduce(geo, t, SchemeLocFree, op, k, columnBytes)
			p.Scheme = SchemeFlashCosmos
			return p
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
			sense += t.MWSLatency(c)
			rem -= c
		}
		p.SenseSeconds = waves * sense.Seconds()
		if lone {
			read := t.ReadLatency(flash.LSBPage) + t.Transfer(geo.PageSize)
			p.CombineSeconds = waves * (read + plan.CombineCost(2, geo.PageSize)).Seconds()
		}
	}
	p.TotalSeconds = p.SenseSeconds + p.CombineSeconds
	p.ReallocBytes = int64(float64(p.Reallocations) * 2 * float64(columnBytes))
	return p
}
