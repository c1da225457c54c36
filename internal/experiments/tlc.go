package experiments

import (
	"fmt"

	"parabit/internal/latch"
	"parabit/internal/ssd"
	"parabit/internal/workload"
)

func init() {
	register("ext-tlc", "Extension (§4.4.1): TLC three-operand ParaBit", ExtTLC)
}

// TLC timing assumptions for the extension analysis: TLC parts of the
// paper's era sense slower and program much slower than MLC. One TLC
// wordline holds three pages, so a three-operand workload co-locates
// entirely in one cell and AND3 is a single sense at VREAD1 (§4.4.1).
const (
	tlcSenseUs   = 60.0   // per SRO
	tlcProgramUs = 2000.0 // per page program
)

// ExtTLC compares three-operand AND executions on the segmentation
// workload (whose recognition is exactly Y AND U AND V): MLC ParaBit
// (pair + realloc combine), MLC location-free chaining, and TLC with all
// three operands co-located in one cell.
func ExtTLC(env *Env) Result {
	spec := workload.PaperSegmentation(200_000)
	_, column := spec.OperandColumns()
	waves := float64(column) / float64(env.Geo.WaveBytes())

	// MLC executions from the calibrated model.
	mlcPre := mustPlan(ssd.PlanReduce(env.Geo, env.Timing, ssd.SchemePreAlloc, latch.OpAnd, 3, column))
	mlcLF := mustPlan(ssd.PlanReduce(env.Geo, env.Timing, ssd.SchemeLocFree, latch.OpAnd, 3, column))

	// TLC: one sense per wave (AND3 = 1 SRO), no combine, no realloc.
	// Same plane count; TLC page size matches MLC's here, so the wave
	// count is unchanged while each wave needs a single (slower) sense.
	tlcSeconds := waves * tlcSenseUs / 1e6
	and3 := latch.MustPrice(latch.SenseTLC, latch.TLCAnd3.Op(), 1)

	r := Result{
		Name:   "Extension §4.4.1: 3-operand AND on TLC vs MLC (segmentation, 200k images)",
		Header: "execution\tSROs/wave\treallocs\tcompute\tvs MLC ParaBit",
	}
	r.Rows = append(r.Rows,
		[]string{"MLC ParaBit (pair+combine)", "1 + realloc", fmt.Sprintf("%d", mlcPre.Reallocations),
			secs(mlcPre.TotalSeconds), "1.00x"},
		[]string{"MLC LocFree (chained)", "3", "0",
			secs(mlcLF.TotalSeconds), fmt.Sprintf("%.2fx", mlcPre.TotalSeconds/mlcLF.TotalSeconds)},
		[]string{"TLC co-located (AND3)", fmt.Sprintf("%d", and3.SROs), "0",
			secs(tlcSeconds), fmt.Sprintf("%.2fx", mlcPre.TotalSeconds/tlcSeconds)},
	)
	r.Notes = append(r.Notes,
		fmt.Sprintf("TLC assumptions: %0.f µs senses, %0.f µs programs (typical planar TLC); AND3 is the paper's own §4.4.1 example", tlcSenseUs, tlcProgramUs),
		"TLC pre-allocation writes all three operands into one wordline, so the recognition needs no combine step at all",
	)
	return r
}
