package ssd

import (
	"testing"

	"parabit/internal/latch"
	"parabit/internal/persist"
)

// TestReduceAllocationCeiling bounds the host allocations of one
// Device.Reduce on the layouts its schemes are built for: a LocFree chain
// over an aligned LSB group, a Flash-Cosmos reduction over an ESP block
// group wider than one sense, and a Flash-Cosmos reduction over LSB
// operands of one plane that share no block, which it hands whole to the
// location-free chain. The senses allocate only their result pages and
// the reductions reuse device-owned scratch, so one reduction allocates
// one object: the result page its single chained sense returns. Over two
// planes it allocates one page per plane's partial and nothing for the
// controller combine that joins them.
func TestReduceAllocationCeiling(t *testing.T) {
	group := func(op persist.Op) func(*testing.T, *Device, []uint64, [][]byte) {
		return func(t *testing.T, d *Device, lpns []uint64, pages [][]byte) {
			if _, err := d.WritePages(op, 0, lpns, pages, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	spread := func(t *testing.T, d *Device, lpns []uint64, pages [][]byte) {
		writeSpread(t, d, 0, lpns, pages)
	}
	alternating := func(t *testing.T, d *Device, lpns []uint64, pages [][]byte) {
		for i := range lpns {
			if _, err := d.WritePages(persist.OpWriteOnPlane, i%2, lpns[i:i+1], pages[i:i+1], 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	twoGroups := func(t *testing.T, d *Device, lpns []uint64, pages [][]byte) {
		half := len(lpns) / 2
		group(persist.OpWriteMWSGroup)(t, d, lpns[:half], pages[:half])
		group(persist.OpWriteMWSGroup)(t, d, lpns[half:], pages[half:])
		a, _ := d.FTL().Lookup(lpns[0])
		b, _ := d.FTL().Lookup(lpns[half])
		if a.PlaneAddr == b.PlaneAddr {
			t.Fatalf("both block groups landed on plane %v", a.PlaneAddr)
		}
	}
	const runs = 100
	cases := []struct {
		name    string
		scheme  Scheme
		write   func(*testing.T, *Device, []uint64, [][]byte)
		k       int
		ceiling float64
		// fallbacks is the scheme fallbacks the warm-up call and the
		// measured runs count in all.
		fallbacks int64
	}{
		{"locfree-lsb-group", SchemeLocFree, group(persist.OpWriteLSBGroup), 8, 1, 0},
		{"fc-block-group", SchemeFlashCosmos, group(persist.OpWriteMWSGroup), 12, 1, 0},
		{"fc-on-plane-strays", SchemeFlashCosmos, spread, 8, 1, runs + 1},
		// Across planes, one page per plane's partial: the combine folds
		// in place into the first.
		{"locfree-cross-plane", SchemeLocFree, alternating, 8, 2, 0},
		{"fc-cross-plane-chunks", SchemeFlashCosmos, twoGroups, 12, 2, 0},
	}
	for _, tc := range cases {
		d := newDevice(t)
		lpns := make([]uint64, tc.k)
		pages := make([][]byte, tc.k)
		for i := range lpns {
			lpns[i] = uint64(i)
			pages[i] = randPage(d, int64(i))
		}
		tc.write(t, d, lpns, pages)
		allocs := testing.AllocsPerRun(runs, func() {
			if _, err := d.Reduce(latch.OpAnd, lpns, tc.scheme, 0); err != nil {
				t.Fatal(err)
			}
		})
		if fb := d.Stats().Fallbacks; fb != tc.fallbacks {
			t.Fatalf("%s: %d scheme fallbacks, want %d", tc.name, fb, tc.fallbacks)
		}
		if n := d.Stats().Reallocations; n != 0 {
			t.Fatalf("%s: %d reallocations; the layout should sense in place", tc.name, n)
		}
		if allocs > tc.ceiling {
			t.Errorf("%s: Device.Reduce allocates %v times, ceiling %v", tc.name, allocs, tc.ceiling)
		}
	}
}
