package interconnect

import (
	"math"
	"testing"

	"parabit/internal/sim"
)

func TestCalibrationMatchesPaper(t *testing.T) {
	// Paper §3/Fig. 4: 140 GB moved in 43.9 s (PIM) and 41.8 s (ISC).
	const gb140 = int64(140) * 1e9
	dram := PCIeGen3x4ToDRAM()
	if got := dram.BulkSeconds(gb140); math.Abs(got-43.9) > 0.1 {
		t.Errorf("DRAM link: 140 GB in %.2f s, want ~43.9", got)
	}
	fpga := PCIeGen3x4ToFPGA()
	if got := fpga.BulkSeconds(gb140); math.Abs(got-41.8) > 0.1 {
		t.Errorf("FPGA link: 140 GB in %.2f s, want ~41.8", got)
	}
}

func TestTransferTimeScalesLinearly(t *testing.T) {
	l := NewLink("test", 1.0, 0) // 1 GB/s = 1 byte/ns
	if got := l.TransferTime(1000); got != 1000*sim.Nanosecond {
		t.Fatalf("1000 B at 1 B/ns = %v, want 1µs", got)
	}
	if got := l.TransferTime(0); got != 0 {
		t.Fatalf("zero transfer = %v", got)
	}
}

func TestSetupAdds(t *testing.T) {
	l := NewLink("test", 1.0, 5*sim.Microsecond)
	if got := l.TransferTime(1000); got != 5*sim.Microsecond+1000 {
		t.Fatalf("transfer = %v", got)
	}
}

func TestTransfersSerialize(t *testing.T) {
	l := NewLink("test", 1.0, 0)
	d1 := l.Transfer(1000, 0)
	d2 := l.Transfer(1000, 0)
	if d1 != sim.Time(1000) || d2 != sim.Time(2000) {
		t.Fatalf("transfers completed at %v, %v", d1, d2)
	}
}

func TestTransferAfterIdle(t *testing.T) {
	l := NewLink("test", 1.0, 0)
	done := l.Transfer(100, 5000)
	if done != sim.Time(5100) {
		t.Fatalf("idle-start transfer done at %v", done)
	}
}

func TestReset(t *testing.T) {
	l := NewLink("test", 2.0, 0)
	l.Transfer(100, 0)
	l.Reset()
	// An idle link at t=0 starts the next transfer at once: 100 B at
	// 2 B/ns completes at 50 ns.
	if done := l.Transfer(100, 0); done != sim.Time(50) {
		t.Fatalf("post-reset transfer done at %v, want 50ns", done)
	}
}

func TestInvalidConstruction(t *testing.T) {
	for _, f := range []func(){
		func() { NewLink("x", 0, 0) },
		func() { NewLink("x", -1, 0) },
		func() { NewLink("x", 1, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid link accepted")
				}
			}()
			f()
		}()
	}
}

func TestNegativeTransferPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative size accepted")
		}
	}()
	NewLink("x", 1, 0).TransferTime(-1)
}
