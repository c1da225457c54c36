// Package experiments implements one driver per table and figure of the
// paper's evaluation (§3 and §5). Each driver computes its results from
// the calibrated models — the flash/SSD cost model (internal/ssd), the
// Ambit PIM and Cosmos ISC baselines, the interconnect, energy and
// reliability models — at the paper's full scale, and formats them as the
// rows/series the paper reports. EXPERIMENTS.md records paper-vs-measured
// for every driver.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"parabit/internal/energy"
	"parabit/internal/flash"
	"parabit/internal/interconnect"
	"parabit/internal/isc"
	"parabit/internal/latch"
	"parabit/internal/pim"
	"parabit/internal/reliability"
	"parabit/internal/sim"
	"parabit/internal/ssd"
)

// Env bundles the configured models every driver draws on.
type Env struct {
	Geo    flash.Geometry
	Timing flash.Timing
	PIM    *pim.Device
	ISC    *isc.Device
	// Host is the SSD-to-DRAM link ParaBit ships results over.
	Host   *interconnect.Link
	Energy *energy.Model
	Rel    *reliability.Model
}

// senseLatency is the array time of one sense of a fixed program — kind
// over k operand wordlines with one of latch.Ops — priced from its latch
// cost as Array.Sense prices it.
func senseLatency(t flash.Timing, geo flash.Geometry, kind latch.SenseKind, op latch.Op, k int) sim.Duration {
	return t.SenseLatency(latch.MustPrice(kind, op, k), geo.PageSize)
}

// mustPlan unwraps ssd.PlanReduce for a figure's own reduction. The
// figures plan only reductions of two or more operands that the latch
// tables hold programs for, so a refusal is a bug in the figure.
func mustPlan(p ssd.ReducePlan, err error) ssd.ReducePlan {
	if err != nil {
		panic(err)
	}
	return p
}

// DefaultEnv returns the paper's evaluation setup (§5.1).
func DefaultEnv() *Env {
	geo := flash.Default()
	tm := flash.DefaultTiming()
	return &Env{
		Geo:    geo,
		Timing: tm,
		PIM:    pim.New(pim.DefaultConfig(), nil),
		ISC:    isc.New(isc.DefaultConfig(), nil),
		Host:   interconnect.PCIeGen3x4ToDRAM(),
		Energy: energy.NewModel(energy.DefaultParams(), tm, geo.PageSize),
		Rel:    reliability.NewModel(2021),
	}
}

// Result is what every driver returns: a name, a formatted table, and
// the raw series for programmatic checks.
type Result struct {
	Name   string
	Header string
	Rows   [][]string
	// Notes carries calibration caveats printed under the table.
	Notes []string
}

// Table renders the result as an aligned text table.
func (r Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", r.Name)
	all := append([][]string{strings.Split(r.Header, "\t")}, r.Rows...)
	widths := make([]int, 0)
	runeLen := func(s string) int { return len([]rune(s)) }
	for _, row := range all {
		for i, cell := range row {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if runeLen(cell) > widths[i] {
				widths[i] = runeLen(cell)
			}
		}
	}
	for ri, row := range all {
		for i, cell := range row {
			pad := widths[i] - runeLen(cell)
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", pad+2))
		}
		b.WriteString("\n")
		if ri == 0 {
			for _, w := range widths {
				b.WriteString(strings.Repeat("-", w) + "  ")
			}
			b.WriteString("\n")
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the result as comma-separated rows (header first). Cells
// containing commas or quotes are quoted.
func (r Result) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, "\"", "\"\""))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(strings.Split(r.Header, "\t"))
	for _, row := range r.Rows {
		writeRow(row)
	}
	return b.String()
}

// Driver is a named experiment.
type Driver struct {
	ID    string // e.g. "fig13a"
	Title string
	Run   func(*Env) Result
}

var registry []Driver

func register(id, title string, run func(*Env) Result) {
	registry = append(registry, Driver{ID: id, Title: title, Run: run})
}

// Drivers returns every registered experiment, sorted by ID.
func Drivers() []Driver {
	out := append([]Driver(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Lookup finds a driver by ID.
func Lookup(id string) (Driver, bool) {
	for _, d := range registry {
		if d.ID == id {
			return d, true
		}
	}
	return Driver{}, false
}

// Formatting helpers shared by the drivers.

func secs(v float64) string { return fmt.Sprintf("%.3fs", v) }

func ms(v float64) string { return fmt.Sprintf("%.1fms", v*1e3) }

func us(v float64) string { return fmt.Sprintf("%.1fµs", v*1e6) }

func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// pipeline returns the completion time of two overlapped phases that are
// striped over many waves: the longer phase dominates, plus one wave of
// the shorter to fill the pipe.
func pipeline(a, b float64, waves float64) float64 {
	long, short := a, b
	if b > a {
		long, short = b, a
	}
	if waves < 1 {
		waves = 1
	}
	return long + short/waves
}
