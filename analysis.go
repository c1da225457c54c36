package parabit

import (
	"fmt"
	"strings"
	"time"

	"parabit/internal/experiments"
	"parabit/internal/flash"
	"parabit/internal/latch"
	"parabit/internal/ssd"
)

// ReductionPlan is the analytic execution plan of a paper-scale k-operand
// reduction: how long the in-SSD compute takes and how much reallocation
// it costs, without simulating page-by-page.
type ReductionPlan struct {
	Scheme         Scheme
	Op             Op
	Operands       int
	ColumnBytes    int64
	ComputeSeconds float64
	Reallocations  int
	ReallocBytes   int64
}

// PlanReduce computes the analytic plan for reducing k operand columns of
// columnBytes each on the paper's SSD. The same cost model drives the
// functional Device — they are cross-checked in the test suite. It
// refuses what Device.Reduce refuses, an op other than And, Or or Xor,
// and fewer than two operands.
func PlanReduce(scheme Scheme, op Op, k int, columnBytes int64) (ReductionPlan, error) {
	switch op {
	case And, Or, Xor:
	default:
		return ReductionPlan{}, errReduceOp
	}
	p, err := ssd.PlanReduce(flash.Default(), flash.DefaultTiming(), scheme.ssd(), op.latch(), k, columnBytes)
	if err != nil {
		return ReductionPlan{}, err
	}
	return ReductionPlan{
		Scheme:         scheme,
		Op:             op,
		Operands:       k,
		ColumnBytes:    columnBytes,
		ComputeSeconds: p.TotalSeconds,
		Reallocations:  p.Reallocations,
		ReallocBytes:   p.ReallocBytes,
	}, nil
}

// OpLatency returns the in-flash latency of a single operation under the
// basic (pre-allocated) scheme: the control sequence's sensing time.
func OpLatency(op Op) time.Duration {
	return opLatency(latch.SensePair, op, 1)
}

// OpLatencyLocFree returns the latency of a location-free operation over
// aligned LSB operands.
func OpLatencyLocFree(op Op) time.Duration {
	return opLatency(latch.SenseLocFreeLSB, op, 2)
}

// opLatency prices one sense of op's fixed program of kind on the
// paper's SSD, as its array prices it.
func opLatency(kind latch.SenseKind, op Op, k int) time.Duration {
	c := latch.MustPrice(kind, op.latch(), k)
	return flash.DefaultTiming().SenseLatency(c, flash.Default().PageSize).Std()
}

// Experiments lists the available experiment IDs with their titles,
// sorted lexically by ID (compression, crossover, ... fig17, fig4).
func Experiments() []string {
	var out []string
	for _, d := range experiments.Drivers() {
		out = append(out, fmt.Sprintf("%-12s %s", d.ID, d.Title))
	}
	return out
}

// RunExperiment regenerates one of the paper's tables or figures (by ID,
// e.g. "fig13a", "fig14b", "endurance") and returns the formatted table.
func RunExperiment(id string) (string, error) {
	d, ok := experiments.Lookup(id)
	if !ok {
		return "", fmt.Errorf("parabit: unknown experiment %q; available:\n%s",
			id, strings.Join(Experiments(), "\n"))
	}
	return d.Run(experiments.DefaultEnv()).Table(), nil
}

// RunExperimentCSV regenerates an experiment as CSV (header row first),
// for piping into plotting tools.
func RunExperimentCSV(id string) (string, error) {
	d, ok := experiments.Lookup(id)
	if !ok {
		return "", fmt.Errorf("parabit: unknown experiment %q", id)
	}
	return d.Run(experiments.DefaultEnv()).CSV(), nil
}

// RunAllExperiments regenerates every table and figure.
func RunAllExperiments() string {
	var b strings.Builder
	env := experiments.DefaultEnv()
	for _, d := range experiments.Drivers() {
		b.WriteString(d.Run(env).Table())
		b.WriteString("\n")
	}
	return b.String()
}
