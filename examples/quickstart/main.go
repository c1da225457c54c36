// Quickstart: write two operand pages co-located into one MLC wordline,
// run every bitwise operation in-flash, and print result checksums and
// modeled latencies.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	"parabit"
)

func main() {
	dev, err := parabit.NewDevice(parabit.WithSmallGeometry())
	if err != nil {
		log.Fatal(err)
	}

	// Two random operand pages.
	rng := rand.New(rand.NewSource(42))
	x := make([]byte, dev.PageSize())
	y := make([]byte, dev.PageSize())
	rng.Read(x)
	rng.Read(y)

	// Pre-allocate them into the same MLC cells: x in the LSB page,
	// y in the MSB page of one wordline (the paper's §4.1 layout).
	if err := dev.WriteOperandPair(0, 1, x, y); err != nil {
		log.Fatal(err)
	}

	failed := 0
	fmt.Println("op       latency    ok")
	for _, op := range parabit.Ops {
		r, err := dev.Bitwise(op, 0, 1, parabit.PreAllocated)
		if err != nil {
			log.Fatal(err)
		}
		ok := true
		for i := range r.Data {
			for b := 0; b < 8; b++ {
				first := x[i]&(1<<b) != 0
				second := y[i]&(1<<b) != 0
				if (r.Data[i]&(1<<b) != 0) != op.Eval(first, second) {
					ok = false
				}
			}
		}
		if !ok {
			failed++
		}
		fmt.Printf("%-8s %-10v %v\n", op, r.Latency, ok)
	}
	if failed > 0 {
		log.Fatalf("%d ops disagree with the host-side golden", failed)
	}

	s := dev.Stats()
	fmt.Printf("\ndevice: %d bitwise ops, %d SROs, %d programs, elapsed %v\n",
		s.Op.BitwiseOps, s.Flash.SROs, s.Flash.Programs, dev.Elapsed())
}
