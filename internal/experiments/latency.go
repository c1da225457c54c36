package experiments

import (
	"fmt"

	"parabit/internal/flash"
	"parabit/internal/latch"
	"parabit/internal/sim"
	"parabit/internal/ssd"
)

func init() {
	register("fig13a", "Single bitwise operation latency across schemes", Fig13a)
	register("fig13b", "Bitwise operation latency with two 8 MB operands", Fig13b)
	register("crossover", "§5.2 crossover: SSD wave width where ReAlloc beats PIM", Crossover)
}

// reallocSingleOp returns the latency of one ParaBit-ReAlloc operation
// with flash-resident operands: the general case reads both operands (an
// LSB and an MSB page for a co-location realloc), programs the pair, and
// senses. NOT ops have one operand: one read, one program.
func reallocSingleOp(t flash.Timing, geo flash.Geometry, op latch.Op) sim.Duration {
	switch op {
	case latch.OpNotLSB:
		return t.ReadLatency(flash.LSBPage) + t.Transfer(geo.PageSize) +
			t.Transfer(geo.PageSize) + t.ProgramPage + senseLatency(t, geo, latch.SensePair, op, 1)
	case latch.OpNotMSB:
		return t.ReadLatency(flash.MSBPage) + t.Transfer(geo.PageSize) +
			t.Transfer(geo.PageSize) + t.ProgramPage + senseLatency(t, geo, latch.SensePair, op, 1)
	default:
		return ssd.ReallocStepLatency(t, op, 2, geo.PageSize)
	}
}

// Fig13a compares one operation (one DRAM row / one LUT pass / one flash
// wordline) across PIM, ISC, ParaBit and ParaBit-ReAlloc.
func Fig13a(env *Env) Result {
	r := Result{
		Name:   "Figure 13(a): latency of one bitwise operation",
		Header: "op\tPIM\tISC\tParaBit\tParaBit-ReAlloc",
	}
	for _, op := range latch.Ops {
		pimLat := env.PIM.OpLatency(op, int64(env.PIM.Config().RowBufferBytes))
		iscLat := env.ISC.OpLatency(op, 8) // one word through one LUT pass
		pb := senseLatency(env.Timing, env.Geo, latch.SensePair, op, 1)
		ra := reallocSingleOp(env.Timing, env.Geo, op)
		r.Rows = append(r.Rows, []string{
			op.String(),
			fmt.Sprintf("%dns", int64(pimLat)),
			fmt.Sprintf("%dns", int64(iscLat)),
			us(pb.Seconds()),
			us(ra.Seconds()),
		})
	}
	r.Notes = append(r.Notes,
		"paper: PIM and ISC complete at ns level; ParaBit XNOR/XOR take 100µs of sensing; ReAlloc is dominated by the 640µs program(s)")
	return r
}

// Fig13b compares bulk operations over two 8 MB operands: the SSD's full
// wave width.
func Fig13b(env *Env) Result {
	const operand = 8 << 20
	r := Result{
		Name:   "Figure 13(b): latency with two 8 MB operands",
		Header: "op\tPIM w/8MB\tISC w/8MB\tParaBit w/8MB\tParaBit-ReAlloc\tLocFree w/8MB",
	}
	for _, op := range latch.Ops {
		pimLat := env.PIM.OpLatency(op, operand)
		iscLat := env.ISC.OpLatency(op, operand)
		pb := senseLatency(env.Timing, env.Geo, latch.SensePair, op, 1)
		ra := reallocSingleOp(env.Timing, env.Geo, op)
		lf := senseLatency(env.Timing, env.Geo, latch.SenseLocFreeLSB, op, 2)
		r.Rows = append(r.Rows, []string{
			op.String(),
			us(pimLat.Seconds()),
			us(iscLat.Seconds()),
			us(pb.Seconds()),
			us(ra.Seconds()),
			us(lf.Seconds()),
		})
	}
	r.Notes = append(r.Notes,
		"ISC is fastest at 8 MB (fabric-only); ParaBit's wave computes in its sense time; ReAlloc NOT-MSB is ≈25.8x slower than PIM's 8 MB NOT (paper §5.2)",
	)
	return r
}

// CrossoverPoint sweeps SSD wave width (operand size processed in one
// wave) to find where a single ReAlloc NOT-MSB wave beats PIM's serial
// chunk processing of the same volume — the paper's 206.4 MB figure.
func CrossoverPoint(env *Env) (widthBytes int64, reallocSecs float64) {
	ra := reallocSingleOp(env.Timing, env.Geo, latch.OpNotMSB).Seconds()
	// PIM time grows linearly with volume; find equality.
	perByte := env.PIM.OpLatency(latch.OpNotMSB, 1<<20).Seconds() / float64(1<<20)
	return int64(ra / perByte), ra
}

// Crossover renders the sweep.
func Crossover(env *Env) Result {
	width, ra := CrossoverPoint(env)
	r := Result{
		Name:   "§5.2 crossover: wave width where one ReAlloc NOT-MSB wave matches PIM",
		Header: "wave width\tReAlloc NOT-MSB wave\tPIM NOT same volume\twinner",
	}
	for _, w := range []int64{8 << 20, 64 << 20, 128 << 20, width, 256 << 20, 512 << 20} {
		pimSecs := env.PIM.OpLatency(latch.OpNotMSB, w).Seconds()
		winner := "PIM"
		if ra <= pimSecs {
			winner = "ParaBit-ReAlloc"
		}
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%.1fMB", float64(w)/1e6),
			us(ra), us(pimSecs), winner,
		})
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("measured crossover at %.1f MB; paper reports 206.4 MB", float64(width)/1e6))
	return r
}
