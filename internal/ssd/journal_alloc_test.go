//go:build !race

package ssd

import (
	"testing"

	"parabit/internal/persist"
)

// TestJournaledWriteAllocationCeiling pins what one single-page
// journaled write of a persistent Small device allocates, rotations
// aside (TestRotationAllocationCeiling pins those): the page's copy in
// the flash array, and nothing else. The store frames the intent and its
// commit in a reused buffer and writes them in one write, and the device
// reuses its reference scratch.
func TestJournaledWriteAllocationCeiling(t *testing.T) {
	d, err := Create(t.TempDir(), SmallConfig(), -1)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	lpns, pages := []uint64{0}, [][]byte{randPage(d, 1)}
	const ceiling = 1
	allocs := testing.AllocsPerRun(200, func() {
		lpns[0] = (lpns[0] + 1) % 512
		if _, err := d.WritePages(persist.OpWriteOperand, 0, lpns, pages, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Fatalf("a journaled single-page write allocates %v times, ceiling %d", allocs, ceiling)
	}
}
