package pim

import (
	"math"
	"testing"

	"parabit/internal/latch"
	"parabit/internal/sim"
)

func dev() *Device { return New(DefaultConfig(), nil) }

func TestDefaultConfigMatchesPaper(t *testing.T) {
	c := DefaultConfig()
	if c.Ranks != 2 || c.BanksPerRank != 16 || c.SubarraysPerBank != 256 {
		t.Errorf("geometry %+v", c)
	}
	if c.RowBufferBytes != 16*1024 {
		t.Errorf("row buffer %d, want 16 KB", c.RowBufferBytes)
	}
	if c.TRASns != 35 || c.TFAWns != 30 || c.TRCDns != 13.75 || c.TRPns != 13.75 {
		t.Errorf("timing %+v", c)
	}
}

func TestAAPCounts(t *testing.T) {
	want := map[latch.Op]int{
		latch.OpNotLSB: 1, latch.OpNotMSB: 1,
		latch.OpAnd: 3, latch.OpOr: 3,
		latch.OpNand: 4, latch.OpNor: 4,
		latch.OpXor: 5, latch.OpXnor: 5,
	}
	for op, n := range want {
		if got := AAPCount(op); got != n {
			t.Errorf("%v: %d AAPs, want %d", op, got, n)
		}
	}
}

func TestSingleChunkIsNanosecondLevel(t *testing.T) {
	// Fig. 13(a): PIM completes one operation at ns level.
	d := dev()
	for _, op := range latch.Ops {
		l := d.OpLatency(op, int64(d.cfg.RowBufferBytes))
		if l <= 0 || l >= 1*sim.Microsecond {
			t.Errorf("%v single chunk = %v, want ns-level", op, l)
		}
	}
}

func TestNot8MBCalibration(t *testing.T) {
	// The §5.2 anchor: NOT on two 8 MB operands ≈ 28.7 µs so that
	// ParaBit-ReAlloc NOT-MSB (≈740 µs) is 25.8x slower.
	d := dev()
	got := d.OpLatency(latch.OpNotMSB, 8<<20).Micros()
	if math.Abs(got-28.67) > 0.1 {
		t.Errorf("NOT on 8 MB = %.2f µs, want ≈28.7", got)
	}
	ratio := 740.0 / got
	if math.Abs(ratio-25.8) > 0.3 {
		t.Errorf("ReAlloc/PIM ratio = %.1f, want ≈25.8", ratio)
	}
}

func TestChunksSequentialize(t *testing.T) {
	d := dev()
	one := d.OpLatency(latch.OpAnd, 16*1024)
	many := d.OpLatency(latch.OpAnd, 8<<20)
	if many != 512*one {
		t.Errorf("8 MB AND = %v, want 512 x %v", many, one)
	}
}

func TestChunksRoundUp(t *testing.T) {
	d := dev()
	if d.Chunks(1) != 1 || d.Chunks(16*1024) != 1 || d.Chunks(16*1024+1) != 2 {
		t.Error("chunk rounding wrong")
	}
}

func TestPIM8MBSlowerThanParaBitForAnd(t *testing.T) {
	// §5.2: "PIM w/ 8MB is always slower than ParaBit w/ 8MB" for the
	// multi-sense ops. ParaBit AND on a full wave is 25 µs.
	d := dev()
	if got := d.OpLatency(latch.OpAnd, 8<<20); got <= 25*sim.Microsecond {
		t.Errorf("PIM 8MB AND = %v, expected > 25µs (ParaBit wave)", got)
	}
	// But NOT is the counterexample the 25.8x anchor uses: PIM faster.
	if got := d.OpLatency(latch.OpNotMSB, 8<<20); got >= 50*sim.Microsecond {
		t.Errorf("PIM 8MB NOT = %v, expected < 50µs (ParaBit NOT-MSB)", got)
	}
}

func TestMovementCalibration(t *testing.T) {
	// Fig. 4: 140 GB to DRAM in ≈43.9 s.
	d := dev()
	if got := d.movementSeconds(140e9); math.Abs(got-43.9) > 0.1 {
		t.Errorf("movement = %.2f s", got)
	}
}

func TestPlanBulk(t *testing.T) {
	d := dev()
	p := d.PlanBulk(latch.OpAnd, 2, 8<<20, 140e9)
	if p.MoveBytes != 140e9 {
		t.Errorf("move bytes %d", p.MoveBytes)
	}
	if p.ComputeOps != 2*512 {
		t.Errorf("compute ops %d, want 1024", p.ComputeOps)
	}
	if p.TotalSeconds <= p.MoveSeconds || p.TotalSeconds != p.MoveSeconds+p.ComputeSecs {
		t.Errorf("plan totals inconsistent: %+v", p)
	}
	// Movement dominates by orders of magnitude for storage-resident data.
	if p.ComputeSecs > p.MoveSeconds/100 {
		t.Errorf("compute %.4fs not dwarfed by movement %.1fs", p.ComputeSecs, p.MoveSeconds)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AAP = 0
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config accepted")
		}
	}()
	New(cfg, nil)
}
