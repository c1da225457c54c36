package experiments

import (
	"fmt"
	"math/rand"

	"parabit/internal/flash"
	"parabit/internal/ftl"
	"parabit/internal/latch"
	"parabit/internal/persist"
	"parabit/internal/ssd"
	"parabit/internal/workload"
)

func init() {
	register("ext-scale", "Extension (§4.4.2): all-flash-array scaling", ExtScale)
	register("ext-gc", "Extension: GC and write amplification under ParaBit traffic", ExtGC)
}

// ExtScale quantifies §4.4.2's scalability claim: ParaBit's wave width —
// and with it every in-flash compute time — scales linearly with the
// number of SSDs in an all-flash array, while the PIM baseline is fixed
// by its DRAM geometry. The table sweeps array sizes on the m=12 bitmap
// reduction and marks where each ParaBit scheme overtakes PIM's 353 ms
// of in-DRAM compute.
func ExtScale(env *Env) Result {
	spec := workload.PaperBitmap(12)
	pimSecs := env.PIM.PlanBulk(latch.OpAnd, int64(spec.Days()-1), spec.ColumnBytes(), 0).ComputeSecs
	r := Result{
		Name:   "Extension §4.4.2: bitmap (m=12) AND time vs all-flash-array size",
		Header: "SSDs\twave width\tParaBit\tLocFree\tbeats PIM (353ms)?",
	}
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		geo := env.Geo
		geo.Channels *= n // n devices = n x the channels/planes
		pre := mustPlan(ssd.PlanReduce(geo, env.Timing, ssd.SchemePreAlloc, latch.OpAnd, spec.Days(), spec.ColumnBytes()))
		lf := mustPlan(ssd.PlanReduce(geo, env.Timing, ssd.SchemeLocFree, latch.OpAnd, spec.Days(), spec.ColumnBytes()))
		verdict := "LocFree"
		if pre.TotalSeconds < pimSecs {
			verdict = "both"
		} else if lf.TotalSeconds >= pimSecs {
			verdict = "neither"
		}
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.0fMB", float64(geo.WaveBytes())/1e6),
			secs(pre.TotalSeconds),
			secs(lf.TotalSeconds),
			verdict,
		})
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("PIM in-DRAM compute is fixed at %s regardless of storage scale", ms(pimSecs)),
		"LocFree outruns PIM's compute on a single SSD; the pre-allocated scheme needs ~9 devices to amortize its serialized combines")
	return r
}

// ExtGC characterizes the FTL under sustained ParaBit-ReAlloc traffic at
// several overprovisioning levels: the write-amplification cost behind
// §5.4's endurance numbers, measured on the functional simulator.
func ExtGC(env *Env) Result {
	r := Result{
		Name:   "Extension: write amplification under ReAlloc traffic (functional FTL)",
		Header: "overprovision\thost pages\tGC runs\tpages moved\twrite amplification",
	}
	for _, op := range []float64{0.07, 0.15, 0.28} {
		cfg := ssd.SmallConfig()
		cfg.FTL = ftl.Config{OverprovisionPct: op, GCFreeBlockLow: 2}
		dev, err := ssd.New(cfg)
		if err != nil {
			r.Rows = append(r.Rows, []string{pct(op), "error", err.Error(), "", ""})
			continue
		}
		// Steady overwrite traffic across half the logical space plus
		// continuous ReAlloc operations, each programming a pair that it
		// trims again.
		rng := rand.New(rand.NewSource(42))
		page := make([]byte, dev.PageSize())
		hot := int(dev.UserPages() / 2)
		// Over two device-capacities of traffic so garbage collection
		// actually runs at every overprovisioning level.
		writes := int(dev.FTL().LogicalPages()) * 2
		for i := 0; i < writes; i++ {
			rng.Read(page[:16])
			if _, err := dev.WritePages(persist.OpWrite, 0, []uint64{uint64(rng.Intn(hot))}, [][]byte{page}, 0); err != nil {
				break
			}
			if i%64 == 0 && i > 0 {
				a, b := uint64(rng.Intn(hot)), uint64(rng.Intn(hot))
				if a != b {
					// Operands may be unmapped early on; ignore those.
					_, _ = dev.Bitwise(latch.OpXor, a, b, ssd.SchemeReAlloc, 0)
				}
			}
		}
		s := dev.FTL().Stats()
		r.Rows = append(r.Rows, []string{
			pct(op),
			fmt.Sprintf("%d", s.HostPagesWritten),
			fmt.Sprintf("%d", s.GCRuns),
			fmt.Sprintf("%d", s.GCPagesMoved),
			fmt.Sprintf("%.2f", s.WriteAmplification()),
		})
	}
	r.Notes = append(r.Notes,
		"more overprovisioning -> emptier GC victims -> lower write amplification; the realloc traffic itself adds the §5.4 endurance cost on top")
	return r
}

// ensure flash import is used even if geometry access changes.
var _ = flash.Default
