package ssd

import (
	"testing"

	"parabit/internal/latch"
	"parabit/internal/persist"
)

// TestReduceAllocationCeiling bounds the host allocations of one
// Device.Reduce on the layouts its schemes are built for: a LocFree chain
// over an aligned LSB group and a Flash-Cosmos reduction over an ESP block
// group wider than one sense. The senses allocate only their result pages
// and the reductions reuse device-owned scratch, so one reduction
// allocates one object: the result page its single chained sense returns.
func TestReduceAllocationCeiling(t *testing.T) {
	cases := []struct {
		name    string
		scheme  Scheme
		op      persist.Op
		k       int
		ceiling float64
	}{
		{"locfree-lsb-group", SchemeLocFree, persist.OpWriteLSBGroup, 8, 1},
		{"fc-block-group", SchemeFlashCosmos, persist.OpWriteMWSGroup, 12, 1},
	}
	for _, tc := range cases {
		d := newDevice(t)
		lpns := make([]uint64, tc.k)
		pages := make([][]byte, tc.k)
		for i := range lpns {
			lpns[i] = uint64(i)
			pages[i] = randPage(d, int64(i))
		}
		if _, err := d.WritePages(tc.op, 0, lpns, pages, 0); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := d.Reduce(latch.OpAnd, lpns, tc.scheme, 0); err != nil {
				t.Fatal(err)
			}
		})
		if fb := d.Stats().Fallbacks; fb != 0 {
			t.Fatalf("%s: %d scheme fallbacks; the layout should sense without one", tc.name, fb)
		}
		if allocs > tc.ceiling {
			t.Errorf("%s: Device.Reduce allocates %v times, ceiling %v", tc.name, allocs, tc.ceiling)
		}
	}
}
