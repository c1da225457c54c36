package ssd

import (
	"math"
	"testing"

	"parabit/internal/flash"
	"parabit/internal/ftl"
	"parabit/internal/latch"
	"parabit/internal/persist"
	"parabit/internal/sim"
)

// narrowConfig builds a device whose geometry saturates with single-page
// operations, so the functional executor runs in the same serialized
// regime the analytic model assumes.
func narrowConfig(planes int) Config {
	cfg := DefaultConfig()
	cfg.Geometry = flash.Geometry{
		Channels: 1, ChipsPerChannel: 1, DiesPerChip: 1, PlanesPerDie: planes,
		BlocksPerPlane: 128, WordlinesPerBlock: 32, PageSize: 256, CellBits: 2,
	}
	cfg.FTL = ftl.DefaultConfig()
	return cfg
}

func seconds(t sim.Time) float64 { return sim.Duration(t).Seconds() }

func approxEqual(a, b, tolFrac float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tolFrac*math.Max(math.Abs(a), math.Abs(b))
}

// TestAnalyticMatchesFunctionalReAlloc: a k-ary ReAlloc reduction on a
// 2-plane device (operand reads overlap planes like the analytic model
// assumes) must land on PlanReduce's prediction.
func TestAnalyticMatchesFunctionalReAlloc(t *testing.T) {
	for _, k := range []int{2, 3, 5, 8} {
		cfg := narrowConfig(2)
		d := MustNew(cfg)
		lpns := make([]uint64, k)
		for i := range lpns {
			lpns[i] = uint64(i)
			if _, err := d.WriteOperand(lpns[i], randPage(d, int64(i)), 0); err != nil {
				t.Fatal(err)
			}
		}
		d.ResetTiming()
		r, err := d.Reduce(latch.OpAnd, lpns, SchemeReAlloc, 0)
		if err != nil {
			t.Fatal(err)
		}
		plan := planReduce(t, cfg.Geometry, cfg.Timing, SchemeReAlloc, latch.OpAnd, k, int64(cfg.Geometry.PageSize))
		// The analytic wave count for a single page on a 2-plane device
		// is still 1 (columns smaller than a wave clamp to one wave).
		if got, want := seconds(r.Done), plan.TotalSeconds; !approxEqual(got, want, 0.02) {
			t.Errorf("k=%d: functional %.6fs vs analytic %.6fs", k, got, want)
		}
	}
}

// TestAnalyticMatchesFunctionalPreAllocPair: the k=2 pre-allocated case
// is a pure sense.
func TestAnalyticMatchesFunctionalPreAllocPair(t *testing.T) {
	for _, op := range []latch.Op{latch.OpAnd, latch.OpOr, latch.OpXor} {
		cfg := narrowConfig(1)
		d := MustNew(cfg)
		if _, err := d.WritePages(persist.OpWritePair, 0, []uint64{0, 1}, [][]byte{randPage(d, 1), randPage(d, 2)}, 0); err != nil {
			t.Fatal(err)
		}
		d.ResetTiming()
		r, err := d.Reduce(op, []uint64{0, 1}, SchemePreAlloc, 0)
		if err != nil {
			t.Fatal(err)
		}
		plan := planReduce(t, cfg.Geometry, cfg.Timing, SchemePreAlloc, op, 2, int64(cfg.Geometry.PageSize))
		if got, want := seconds(r.Done), plan.TotalSeconds; !approxEqual(got, want, 0.001) {
			t.Errorf("%v: functional %.6fs vs analytic %.6fs", op, got, want)
		}
	}
}

// TestAnalyticMatchesFunctionalPreAllocChain: on a single plane the pair
// senses serialize exactly as the saturated analytic model assumes.
func TestAnalyticMatchesFunctionalPreAllocChain(t *testing.T) {
	for _, k := range []int{4, 6} {
		cfg := narrowConfig(1)
		d := MustNew(cfg)
		lpns := make([]uint64, k)
		for i := 0; i < k; i += 2 {
			lpns[i], lpns[i+1] = uint64(i), uint64(i+1)
			if _, err := d.WritePages(persist.OpWritePair, 0, []uint64{lpns[i], lpns[i+1]}, [][]byte{randPage(d, int64(i)), randPage(d, int64(i+1))}, 0); err != nil {
				t.Fatal(err)
			}
		}
		d.ResetTiming()
		r, err := d.Reduce(latch.OpAnd, lpns, SchemePreAlloc, 0)
		if err != nil {
			t.Fatal(err)
		}
		plan := planReduce(t, cfg.Geometry, cfg.Timing, SchemePreAlloc, latch.OpAnd, k, int64(cfg.Geometry.PageSize))
		if got, want := seconds(r.Done), plan.TotalSeconds; !approxEqual(got, want, 0.02) {
			t.Errorf("k=%d: functional %.6fs vs analytic %.6fs", k, got, want)
		}
	}
}

// TestAnalyticMatchesFunctionalLocFree: chained reduction on one plane.
func TestAnalyticMatchesFunctionalLocFree(t *testing.T) {
	for _, tc := range []struct {
		op latch.Op
		k  int
	}{
		{latch.OpAnd, 2}, {latch.OpAnd, 5}, {latch.OpOr, 4},
		{latch.OpXor, 2}, {latch.OpXor, 4},
		// Longer than one chained program (latch.MaxChain): the body
		// loops, on the device and in PlanReduce.
		{latch.OpAnd, 40}, {latch.OpOr, 20}, {latch.OpXor, 12},
	} {
		cfg := narrowConfig(1)
		d := MustNew(cfg)
		lpns := make([]uint64, tc.k)
		data := make([][]byte, tc.k)
		for i := range lpns {
			lpns[i] = uint64(i)
			data[i] = randPage(d, int64(i))
		}
		if _, err := d.WriteOperandLSBGroup(lpns, data, 0); err != nil {
			t.Fatal(err)
		}
		d.ResetTiming()
		r, err := d.Reduce(tc.op, lpns, SchemeLocFree, 0)
		if err != nil {
			t.Fatal(err)
		}
		plan := planReduce(t, cfg.Geometry, cfg.Timing, SchemeLocFree, tc.op, tc.k, int64(cfg.Geometry.PageSize))
		if got, want := seconds(r.Done), plan.TotalSeconds; !approxEqual(got, want, 0.001) {
			t.Errorf("%v k=%d: functional %.6fs vs analytic %.6fs", tc.op, tc.k, got, want)
		}
	}
}

// TestAnalyticMatchesFunctionalFlashCosmos: block-colocated MWS groups on
// one plane — whole-chunk folds (k ≤ 8), multi-chunk folds with a
// combine, and the lone-leftover shape — must land on PlanReduce's
// Flash-Cosmos prediction.
func TestAnalyticMatchesFunctionalFlashCosmos(t *testing.T) {
	for _, tc := range []struct {
		op latch.Op
		k  int
	}{
		{latch.OpAnd, 2}, {latch.OpAnd, 5}, {latch.OpAnd, 8},
		{latch.OpOr, 8}, {latch.OpAnd, 11}, {latch.OpOr, 9},
	} {
		cfg := narrowConfig(1)
		d := MustNew(cfg)
		lpns := make([]uint64, tc.k)
		data := make([][]byte, tc.k)
		for i := range lpns {
			lpns[i] = uint64(i)
			data[i] = randPage(d, int64(i))
		}
		if _, err := d.WritePages(persist.OpWriteMWSGroup, 0, lpns, data, 0); err != nil {
			t.Fatal(err)
		}
		d.ResetTiming()
		r, err := d.Reduce(tc.op, lpns, SchemeFlashCosmos, 0)
		if err != nil {
			t.Fatal(err)
		}
		plan := planReduce(t, cfg.Geometry, cfg.Timing, SchemeFlashCosmos, tc.op, tc.k, int64(cfg.Geometry.PageSize))
		if got, want := seconds(r.Done), plan.TotalSeconds; !approxEqual(got, want, 0.02) {
			t.Errorf("%v k=%d: functional %.6fs vs analytic %.6fs", tc.op, tc.k, got, want)
		}
		// The colocated layout realizes pure MWS folds except for a lone
		// leftover operand (k ≡ 1 mod 8), which rides the pairwise path
		// and is honestly counted as a fallback.
		var wantFallbacks int64
		if tc.k > latch.MaxMWSOperands && tc.k%latch.MaxMWSOperands == 1 {
			wantFallbacks = 1
		}
		if f := d.Stats().Fallbacks; f != wantFallbacks {
			t.Errorf("%v k=%d: %d fallbacks on a colocated group, want %d", tc.op, tc.k, f, wantFallbacks)
		}
	}
}

// TestPlanReduceBitmapAnchors checks the §5.3.2 bitmap case study
// anchors on the paper-scale geometry: 360 day-columns of 100 MB (800 M
// users) reduce in ≈6.1 s under ReAlloc and ≈3.2 s under ParaBit.
func TestPlanReduceBitmapAnchors(t *testing.T) {
	geo := flash.Default()
	tm := flash.DefaultTiming()
	column := int64(800_000_000 / 8) // 100 MB of user bits
	re := planReduce(t, geo, tm, SchemeReAlloc, latch.OpAnd, 360, column)
	if re.TotalSeconds < 5.5 || re.TotalSeconds > 7.0 {
		t.Errorf("ReAlloc bitmap = %.2fs, paper reports 6.137s", re.TotalSeconds)
	}
	pre := planReduce(t, geo, tm, SchemePreAlloc, latch.OpAnd, 360, column)
	if pre.TotalSeconds < 2.7 || pre.TotalSeconds > 3.7 {
		t.Errorf("ParaBit bitmap = %.2fs, paper reports 3.179s", pre.TotalSeconds)
	}
	if ratio := pre.TotalSeconds / re.TotalSeconds; ratio < 0.45 || ratio > 0.6 {
		t.Errorf("ParaBit/ReAlloc = %.2f, want ≈0.52", ratio)
	}
	lf := planReduce(t, geo, tm, SchemeLocFree, latch.OpAnd, 360, column)
	if lf.TotalSeconds >= pre.TotalSeconds/5 {
		t.Errorf("LocFree bitmap = %.2fs, expected well under ParaBit's %.2fs", lf.TotalSeconds, pre.TotalSeconds)
	}
	if lf.Reallocations != 0 || re.Reallocations != 359 || pre.Reallocations != 179 {
		t.Errorf("realloc counts: lf=%d re=%d pre=%d", lf.Reallocations, re.Reallocations, pre.Reallocations)
	}
}

// TestReallocStepMatchesPaperScale: one realloc step on 8 KB pages is
// ≈1.35 ms (sense-read + two programs + transfers + sense), the per-step
// figure behind the paper's 6137 ms bitmap number.
func TestReallocStepMatchesPaperScale(t *testing.T) {
	tm := flash.DefaultTiming()
	step := ReallocStepLatency(tm, latch.OpAnd, 1, 8192).Seconds() * 1000
	if step < 1.3 || step > 1.45 {
		t.Errorf("realloc step = %.3f ms, want ≈1.35", step)
	}
}

// planReduce is PlanReduce for a reduction the test knows it prices.
func planReduce(t *testing.T, geo flash.Geometry, tm flash.Timing, scheme Scheme, op latch.Op, k int, columnBytes int64) ReducePlan {
	t.Helper()
	p, err := PlanReduce(geo, tm, scheme, op, k, columnBytes)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
