package isc

import (
	"math"
	"testing"

	"parabit/internal/latch"
	"parabit/internal/sim"
)

func dev() *Device { return New(DefaultConfig(), nil) }

func TestDefaultConfigMatchesPaper(t *testing.T) {
	c := DefaultConfig()
	if c.LUTs != 218600 {
		t.Errorf("LUTs = %d, want 218600 (Zynq-7000, §5.1)", c.LUTs)
	}
	if c.OpsPerLUT != 5 {
		t.Errorf("ops/LUT = %d, want 5", c.OpsPerLUT)
	}
	if c.ClockHz != 100e6 {
		t.Errorf("clock = %v, want 100 MHz", c.ClockHz)
	}
}

func TestSingleOpIsOneCycle(t *testing.T) {
	// Fig. 13(a): "For ISC, bitwise operation is also performed at ns
	// level while only one process cycle is required."
	d := dev()
	for _, op := range latch.Ops {
		if got := d.OpLatency(op, 8); got != 10*sim.Nanosecond {
			t.Errorf("%v on 8 bytes = %v, want one 10ns cycle", op, got)
		}
	}
}

func TestOpTypeIrrelevant(t *testing.T) {
	d := dev()
	base := d.OpLatency(latch.OpAnd, 8<<20)
	for _, op := range latch.Ops {
		if d.OpLatency(op, 8<<20) != base {
			t.Errorf("%v has different latency than AND", op)
		}
	}
}

func Test8MBFastestOfAllSchemes(t *testing.T) {
	// Fig. 13(b): "ISC w/ 8MB achieves the best performance" — sub-µs,
	// faster than PIM's tens of µs and ParaBit's 25-100 µs.
	d := dev()
	got := d.OpLatency(latch.OpXor, 8<<20)
	if got >= 1*sim.Microsecond {
		t.Errorf("8 MB op = %v, want < 1µs", got)
	}
	// 8 MB = 67.1 Mbit at 1.093 Mbit/cycle -> 62 cycles -> 620 ns.
	if got != 620*sim.Nanosecond {
		t.Errorf("8 MB op = %v, want 620ns", got)
	}
}

func TestBitsPerCycle(t *testing.T) {
	d := dev()
	if got := d.BitsPerCycle(); got != 218600*5 {
		t.Errorf("bits/cycle = %d", got)
	}
}

func TestMovementCalibration(t *testing.T) {
	// Fig. 4: 140 GB to the FPGA in ≈41.8 s.
	d := dev()
	if got := d.movementSeconds(140e9); math.Abs(got-41.8) > 0.1 {
		t.Errorf("movement = %.2f s", got)
	}
}

func TestMotivationRatio(t *testing.T) {
	// §3: ISC movement (41.8 s) is 60.2x its AND compute time on the
	// motivation workload, implying ≈0.694 s of compute while streaming
	// the 140 GB working set through BRAM-sized chunks.
	d := dev()
	p := d.PlanBulk(latch.OpAnd, 1, 140e9, 140e9)
	implied := d.movementSeconds(140e9) / 60.2
	if math.Abs(p.ComputeSecs-implied) > 0.1 {
		t.Errorf("bulk compute %.3fs, paper-implied %.3fs", p.ComputeSecs, implied)
	}
	if ratio := p.MoveSeconds / p.ComputeSecs; math.Abs(ratio-60.2) > 6 {
		t.Errorf("movement/compute = %.1fx, want ≈60.2x", ratio)
	}
}

func TestFig13ExcludesStaging(t *testing.T) {
	// Fig. 13's op latency is fabric-only (operands pre-staged); a single
	// 8 MB op must stay sub-µs even though PlanBulk charges staging.
	d := dev()
	if got := d.OpLatency(latch.OpAnd, 8<<20); got >= 1*sim.Microsecond {
		t.Errorf("fabric 8 MB op = %v", got)
	}
	p := d.PlanBulk(latch.OpAnd, 1, 8<<20, 0)
	if p.ComputeSecs <= d.OpLatency(latch.OpAnd, 8<<20).Seconds() {
		t.Error("bulk plan did not charge staging overhead")
	}
}

func TestPlanBulkTotals(t *testing.T) {
	d := dev()
	p := d.PlanBulk(latch.OpXor, 10, 8<<20, 1e9)
	if p.TotalSeconds != p.MoveSeconds+p.ComputeSecs {
		t.Errorf("plan inconsistent: %+v", p)
	}
}

func TestCycleTime(t *testing.T) {
	if got := dev().CycleTime(); got != 10*sim.Nanosecond {
		t.Errorf("cycle = %v", got)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LUTs = 0
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config accepted")
		}
	}()
	New(cfg, nil)
}
