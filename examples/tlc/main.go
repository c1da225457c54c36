// TLC extension (paper §4.4.1): three operands co-located in one TLC
// cell, combined by a single short latching-circuit sequence. The
// segmentation recognition (Y AND U AND V) becomes one sense per wave.
//
// Run with: go run ./examples/tlc
package main

import (
	"fmt"
	"log"
	"math/rand"

	"parabit"
)

func main() {
	dev, err := parabit.NewDevice(parabit.WithTLCGeometry())
	if err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewSource(3))
	var planes [3][]byte
	for i := range planes {
		planes[i] = make([]byte, dev.PageSize())
		rng.Read(planes[i])
	}

	// Y, U, V class planes into the LSB, CSB and MSB pages of one
	// wordline: the whole 3-way recognition is then a single sense.
	lpns := [3]uint64{0, 1, 2}
	if err := dev.WriteOperandTriple(lpns, planes); err != nil {
		log.Fatal(err)
	}

	failed := 0
	fmt.Println("op     latency   ok")
	for _, op := range parabit.Op3s {
		r, err := dev.Bitwise3(op, lpns)
		if err != nil {
			log.Fatal(err)
		}
		ok := true
		for i := range r.Data {
			for b := 0; b < 8; b++ {
				x := planes[0][i]&(1<<b) != 0
				y := planes[1][i]&(1<<b) != 0
				z := planes[2][i]&(1<<b) != 0
				if (r.Data[i]&(1<<b) != 0) != op.Eval(x, y, z) {
					ok = false
				}
			}
		}
		if !ok {
			failed++
		}
		fmt.Printf("%-6s %-9v %v\n", op, r.Latency, ok)
	}
	if failed > 0 {
		log.Fatalf("%d ops disagree with the host-side golden", failed)
	}

	s := dev.Stats()
	fmt.Printf("\nAND3 is one sense: %d SROs across the four ops (1+2+1+2)\n", s.Flash.SROs)

	// The paper-scale comparison.
	out, err := parabit.RunExperiment("ext-tlc")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(out)
}
