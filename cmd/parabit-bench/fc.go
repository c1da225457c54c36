package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"time"

	"parabit"
)

// The Flash-Cosmos benchmark sweeps reduction width k and measures the
// same seeded AND reductions two ways on identically loaded devices:
//
//   - Flash-Cosmos: operands block-colocated with WriteOperandMWSGroup
//     (ESP-programmed), so each reduction collapses into one
//     multi-wordline sense per 8-operand chunk;
//   - LocFree: operands LSB-aligned with WriteOperandGroup, reduced by
//     the chained pairwise program — the strongest pre-MWS scheme.
//
// Every reduction's bytes are cross-checked against a software fold, so
// the latency table can only come from executions that produced correct
// results. The run is deterministic: the same binary emits the same JSON
// report every time, which TestBenchRecordsGolden compares with
// BENCH_fc.json.

const (
	fcSeed   = 1
	fcRounds = 24
)

// fcWidths is the operand-count sweep: below, at, and past the 8-operand
// sense-margin cap (12 and 16 fold as multiple chunks plus combines).
var fcWidths = []int{2, 4, 8, 12, 16}

// fcPoint is one sweep row of the BENCH_fc.json report.
type fcPoint struct {
	K            int         `json:"k"`
	FlashCosmos  plannerSide `json:"flash_cosmos"`
	LocFree      plannerSide `json:"locfree"`
	P99SpeedupX  float64     `json:"p99_speedup_x"`
	FallbackRate float64     `json:"fc_fallback_rate"`
	MWSSenses    int64       `json:"mws_senses"`
}

// fcReport is the BENCH_fc.json schema.
type fcReport struct {
	Seed   int64     `json:"seed"`
	Rounds int       `json:"rounds"`
	Op     string    `json:"op"`
	Sweep  []fcPoint `json:"sweep"`
}

// fcMeasure runs fcRounds k-wide reductions under one scheme, with the
// layout that scheme is designed for, and cross-checks every result
// against the software golden fold.
func fcMeasure(k int, scheme parabit.Scheme, rng *rand.Rand) ([]time.Duration, *parabit.Device, error) {
	dev, err := parabit.NewDevice(parabit.WithSmallGeometry())
	if err != nil {
		return nil, nil, err
	}
	lats := make([]time.Duration, 0, fcRounds)
	for round := 0; round < fcRounds; round++ {
		lpns := make([]uint64, k)
		data := make([][]byte, k)
		golden := make([]byte, dev.PageSize())
		for i := range golden {
			golden[i] = 0xFF
		}
		for i := range lpns {
			lpns[i] = uint64(round*k + i)
			page := make([]byte, dev.PageSize())
			rng.Read(page)
			data[i] = page
			for j := range golden {
				golden[j] &= page[j]
			}
		}
		if scheme == parabit.FlashCosmos {
			err = dev.WriteOperandMWSGroup(lpns, data)
		} else {
			err = dev.WriteOperandGroup(lpns, data)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("fc bench: lay out k=%d round %d: %w", k, round, err)
		}
		r, err := dev.Reduce(parabit.And, lpns, scheme)
		if err != nil {
			return nil, nil, fmt.Errorf("fc bench: reduce k=%d round %d under %v: %w", k, round, scheme, err)
		}
		if !bytes.Equal(r.Data, golden) {
			return nil, nil, fmt.Errorf("fc bench: k=%d round %d under %v: result differs from software fold", k, round, scheme)
		}
		lats = append(lats, r.Latency)
	}
	return lats, dev, nil
}

// runFC measures the sweep, prints the comparison and returns the JSON
// report.
func runFC(w io.Writer) (fcReport, error) {
	rep := fcReport{Seed: fcSeed, Rounds: fcRounds, Op: "AND"}
	for _, k := range fcWidths {
		// Both sides reduce identical bytes: one seed per (k, side) pair.
		fcLats, fcDev, err := fcMeasure(k, parabit.FlashCosmos, rand.New(rand.NewSource(fcSeed+int64(k))))
		if err != nil {
			return fcReport{}, err
		}
		lfLats, _, err := fcMeasure(k, parabit.LocationFree, rand.New(rand.NewSource(fcSeed+int64(k))))
		if err != nil {
			return fcReport{}, err
		}
		st := fcDev.Stats()
		p := fcPoint{
			K:            k,
			FlashCosmos:  side(fcLats),
			LocFree:      side(lfLats),
			FallbackRate: float64(st.Op.Fallbacks) / float64(fcRounds),
			MWSSenses:    st.Flash.MWSSenses,
		}
		if p.FlashCosmos.P99US > 0 {
			p.P99SpeedupX = p.LocFree.P99US / p.FlashCosmos.P99US
		}
		rep.Sweep = append(rep.Sweep, p)
	}

	fmt.Fprintf(w, "flash-cosmos: %d-round AND reduction sweep (virtual time)\n", fcRounds)
	fmt.Fprintf(w, "  %3s %12s %12s %9s %9s %6s\n", "k", "fc-p99", "locfree-p99", "speedup", "fallback", "mws")
	for _, p := range rep.Sweep {
		fmt.Fprintf(w, "  %3d %10.1fus %10.1fus %8.2fx %8.1f%% %6d\n",
			p.K, p.FlashCosmos.P99US, p.LocFree.P99US, p.P99SpeedupX, p.FallbackRate*100, p.MWSSenses)
	}
	return rep, nil
}
