package parabit_test

import (
	"fmt"
	"log"

	"parabit"
)

// The minimal end-to-end flow: co-locate two operand pages in one MLC
// wordline and compute on them in-flash.
func ExampleDevice_Bitwise() {
	dev, err := parabit.NewDevice(parabit.WithSmallGeometry())
	if err != nil {
		log.Fatal(err)
	}
	x := make([]byte, dev.PageSize())
	y := make([]byte, dev.PageSize())
	x[0], y[0] = 0b1100, 0b1010

	// x into the LSB page, y into the MSB page of one wordline.
	if err := dev.WriteOperandPair(0, 1, x, y); err != nil {
		log.Fatal(err)
	}
	r, err := dev.Bitwise(parabit.And, 0, 1, parabit.PreAllocated)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%04b AND %04b = %04b in %v\n", x[0], y[0], r.Data[0], r.Latency)
	// Output: 1100 AND 1010 = 1000 in 25µs
}

// A location-free reduction: aligned LSB operands fold in one chained
// operation, one extra sense per operand.
func ExampleDevice_Reduce() {
	dev, err := parabit.NewDevice(parabit.WithSmallGeometry())
	if err != nil {
		log.Fatal(err)
	}
	lpns := []uint64{0, 1, 2, 3}
	pages := make([][]byte, len(lpns))
	for i := range pages {
		pages[i] = make([]byte, dev.PageSize())
		pages[i][0] = byte(0xF0 | 1<<i)
	}
	if err := dev.WriteOperandGroup(lpns, pages); err != nil {
		log.Fatal(err)
	}
	r, err := dev.Reduce(parabit.And, lpns, parabit.LocationFree)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("AND of 4 pages = %#x in %v\n", r.Data[0], r.Latency)
	// Output: AND of 4 pages = 0xf0 in 100µs
}

// A bitmap-index query: three feature columns on aligned LSB pages of
// one plane, intersected in one fused location-free chain.
func ExampleDevice_Query() {
	dev, err := parabit.NewDevice(parabit.WithSmallGeometry())
	if err != nil {
		log.Fatal(err)
	}
	lpns := []uint64{0, 1, 2}
	pages := make([][]byte, len(lpns))
	for i, b := range []byte{0b11110000, 0b11001100, 0b10101010} {
		pages[i] = make([]byte, dev.PageSize())
		pages[i][0] = b
	}
	if err := dev.WriteOperandGroup(lpns, pages); err != nil {
		log.Fatal(err)
	}
	q := parabit.QueryAnd(parabit.QueryLPN(0), parabit.QueryLPN(1), parabit.QueryLPN(2))
	r, err := dev.Query(q, parabit.LocationFree)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%v = %08b in %v\n", q, r.Data[0], r.Latency)
	// Output: 0 & 1 & 2 = 10000000 in 75.3µs
}

// TLC mode (§4.4.1): three operands in one cell, AND3 in a single sense.
func ExampleDevice_Bitwise3() {
	dev, err := parabit.NewDevice(parabit.WithTLCGeometry())
	if err != nil {
		log.Fatal(err)
	}
	pages := [3][]byte{
		make([]byte, dev.PageSize()),
		make([]byte, dev.PageSize()),
		make([]byte, dev.PageSize()),
	}
	pages[0][0], pages[1][0], pages[2][0] = 0b1110, 0b1101, 0b1011
	lpns := [3]uint64{0, 1, 2}
	if err := dev.WriteOperandTriple(lpns, pages); err != nil {
		log.Fatal(err)
	}
	r, err := dev.Bitwise3(parabit.And3, lpns)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("AND3 = %04b in %v\n", r.Data[0], r.Latency)
	// Output: AND3 = 1000 in 60µs
}

// Regenerating one of the paper's tables.
func ExampleRunExperiment() {
	out, err := parabit.RunExperiment("endurance")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(out) > 0)
	// Output: true
}
