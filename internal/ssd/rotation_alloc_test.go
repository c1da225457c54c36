//go:build !race

package ssd

import "testing"

// TestRotationAllocationCeiling pins what one delta rotation of a
// persistent Small device allocates: the file names and handles of the
// snapshot, the next journal and CURRENT, the goroutines that sync them
// beside the encoding, and the encoders' writers. The configuration is
// marshaled once per store, not per rotation, and the census, the frame
// and the chunk buffers are reused. A rotation used to allocate 53 times
// (BenchmarkDeviceSnapshot); it must not go back up.
func TestRotationAllocationCeiling(t *testing.T) {
	d, err := Create(t.TempDir(), SmallConfig(), -1)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for lpn := uint64(0); lpn < 512; lpn++ {
		if _, err := d.WriteOperand(lpn, randPage(d, int64(lpn)), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.store.Snapshot(d.writeSnapshot); err != nil {
		t.Fatal(err)
	}
	const ceiling = 42
	allocs := testing.AllocsPerRun(20, func() {
		if err := d.store.Snapshot(d.writeSnapshot); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Fatalf("a delta rotation allocates %v times, ceiling %d", allocs, ceiling)
	}
}
