// Column store: the downstream-facing shape of ParaBit — a bitmap index
// whose queries run inside the SSD. Models a feature analytics question:
// "which users did all of A, B and C, but none of D?"
//
// Each feature is a bit column one page wide, one bit per user. The
// columns share aligned LSB slots of one plane (Device.WriteOperandGroup),
// the layout location-free chains need, and each question is one
// Device.Query.
//
// Run with: go run ./examples/columnstore
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/bits"
	"math/rand"

	"parabit"
)

// Column LPNs: four engagement features plus a second-day snapshot of
// search.
const (
	search = iota
	upload
	share
	reportBug
	searchDay2
	numColumns
)

func main() {
	dev, err := parabit.NewDevice(parabit.WithSmallGeometry())
	if err != nil {
		log.Fatal(err)
	}
	users := dev.PageSize() * 8

	// Synthetic engagement columns, plus a day-two search snapshot in
	// which 200 users changed behaviour.
	rng := rand.New(rand.NewSource(2021))
	odds := [...]float64{search: 0.70, upload: 0.40, share: 0.30, reportBug: 0.05}
	cols := make([][]byte, numColumns)
	for c, p := range odds {
		cols[c] = make([]byte, dev.PageSize())
		for u := 0; u < users; u++ {
			if rng.Float64() < p {
				cols[c][u/8] |= 1 << (u % 8)
			}
		}
	}
	cols[searchDay2] = bytes.Clone(cols[search])
	for i := 0; i < 200; i++ {
		u := rng.Intn(users)
		cols[searchDay2][u/8] ^= 1 << (u % 8)
	}
	lpns := make([]uint64, numColumns)
	for c := range lpns {
		lpns[c] = uint64(c)
	}
	if err := dev.WriteOperandGroup(lpns, cols); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stored %d columns of %d users each\n", numColumns, users)

	col := parabit.QueryLPN
	queries := []struct {
		label string
		q     parabit.Query
		host  func(bit func(c int) bool) bool
	}{
		{"search∧upload∧share∧¬report-bug",
			parabit.QueryAnd(col(search), col(upload), col(share), parabit.QueryNot(col(reportBug))),
			func(bit func(int) bool) bool { return bit(search) && bit(upload) && bit(share) && !bit(reportBug) }},
		{"any feature",
			parabit.QueryOr(col(search), col(upload), col(share), col(reportBug)),
			func(bit func(int) bool) bool { return bit(search) || bit(upload) || bit(share) || bit(reportBug) }},
		{"changed search users",
			parabit.QueryXor(col(search), col(searchDay2)),
			func(bit func(int) bool) bool { return bit(search) != bit(searchDay2) }},
	}
	for _, tc := range queries {
		r, err := dev.Query(tc.q, parabit.LocationFree)
		if err != nil {
			log.Fatal(err)
		}
		want := make([]byte, dev.PageSize())
		for u := 0; u < users; u++ {
			if tc.host(func(c int) bool { return cols[c][u/8]&(1<<(u%8)) != 0 }) {
				want[u/8] |= 1 << (u % 8)
			}
		}
		if !bytes.Equal(r.Data, want) {
			log.Fatalf("%s: in-SSD result differs from the host-side computation", tc.label)
		}
		count := 0
		for _, b := range r.Data {
			count += bits.OnesCount8(b)
		}
		fmt.Printf("%-32s %5d users, in-SSD latency %v\n", tc.label+":", count, r.Latency)
	}
	fmt.Println("verified against host-side computation")

	s := dev.Stats()
	fmt.Printf("\ndevice: %d bitwise ops, %d reallocations\n", s.Op.BitwiseOps, s.Op.Reallocations)
}
