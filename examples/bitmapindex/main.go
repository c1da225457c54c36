// Bitmap index (paper §5.3.2): which users were active every day? Day
// columns AND-reduce inside the SSD; only the result column leaves the
// device, and the host just counts bits.
//
// Run with: go run ./examples/bitmapindex
package main

import (
	"fmt"
	"log"

	"parabit"
	"parabit/internal/bitvec"
	"parabit/internal/workload"
)

func main() {
	dev, err := parabit.NewDevice(parabit.WithSmallGeometry())
	if err != nil {
		log.Fatal(err)
	}
	ps := dev.PageSize()

	// One page of users (PageSize*8), 2 months of daily activity.
	spec := workload.BitmapSpec{Users: int64(ps * 8), Months: 2, DaysPerMonth: 30}
	data, err := workload.GenerateBitmap(spec, 11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("users: %d, day columns: %d\n", spec.Users, spec.Days())

	// Location-free layout: all 60 day columns in aligned LSB pages of
	// one plane, so the AND reduction is a single chained operation.
	lpns := make([]uint64, spec.Days())
	pages := make([][]byte, spec.Days())
	for i := range lpns {
		lpns[i] = uint64(i)
		pages[i] = data.Columns[i].Bytes()
	}
	if err := dev.WriteOperandGroup(lpns, pages); err != nil {
		log.Fatal(err)
	}
	r, err := dev.Reduce(parabit.And, lpns, parabit.LocationFree)
	if err != nil {
		log.Fatal(err)
	}
	got := bitvec.FromBytes(r.Data).PopCount()
	fmt.Printf("always-active users (in-flash): %d, golden: %d, latency %v\n",
		got, data.ActiveCount, r.Latency)
	if got != data.ActiveCount {
		log.Fatal("in-flash reduction disagrees with golden result")
	}

	// Compare schemes at small scale.
	for _, scheme := range []parabit.Scheme{parabit.Reallocated, parabit.PreAllocated} {
		d2, err := parabit.NewDevice(parabit.WithSmallGeometry())
		if err != nil {
			log.Fatal(err)
		}
		switch scheme {
		case parabit.PreAllocated:
			for i := 0; i+1 < len(lpns); i += 2 {
				if err := d2.WriteOperandPair(lpns[i], lpns[i+1], pages[i], pages[i+1]); err != nil {
					log.Fatal(err)
				}
			}
		default:
			for i := range lpns {
				if err := d2.WriteOperand(lpns[i], pages[i]); err != nil {
					log.Fatal(err)
				}
			}
		}
		r2, err := d2.Reduce(parabit.And, lpns, scheme)
		if err != nil {
			log.Fatal(err)
		}
		if bitvec.FromBytes(r2.Data).PopCount() != data.ActiveCount {
			log.Fatalf("%v: wrong count", scheme)
		}
		fmt.Printf("%-18s latency %v, reallocations %d\n",
			scheme, r2.Latency, d2.Stats().Op.Reallocations)
	}

	// Paper scale: 800M users, 12 months.
	fmt.Println("\npaper scale (800M users, m=12):")
	bm := workload.PaperBitmap(12)
	for _, scheme := range parabit.Schemes {
		plan, err := parabit.PlanReduce(scheme, parabit.And, bm.Days(), bm.ColumnBytes())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-18s AND time %7.3fs (paper: ReAlloc 6.137s, ParaBit 3.179s)\n",
			scheme, plan.ComputeSeconds)
	}
}
