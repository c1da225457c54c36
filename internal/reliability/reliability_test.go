package reliability

import (
	"math"
	"testing"

	"parabit/internal/flash"
	"parabit/internal/latch"
)

const wordlineBits = 2 * 8192 * 8 // two 8 KB pages per MLC wordline

func TestPaperAnchor5KPE7Sensings(t *testing.T) {
	// §5.8: at 5K P/E after the 7th sensing, avg 0.945 errors per WL.
	m := NewModel(1)
	mean := m.ExpectedErrorsPerWordline(wordlineBits, 5000, 7)
	if math.Abs(mean-0.945) > 0.02 {
		t.Errorf("expected errors/WL = %.3f, want ≈0.945", mean)
	}
	// Sampled max over ~1000 wordlines lands near the paper's 5.
	s := m.SampleWordlines(1000, wordlineBits, 5000, 7)
	if s.Max < 3 || s.Max > 8 {
		t.Errorf("max errors = %d, want ≈5", s.Max)
	}
	if math.Abs(s.Mean-0.945) > 0.15 {
		t.Errorf("sampled mean = %.3f, want ≈0.945", s.Mean)
	}
}

func TestErrorsGrowWithPEAndSensings(t *testing.T) {
	m := NewModel(2)
	if !(m.BitErrorProbability(1000, 7) < m.BitErrorProbability(3000, 7)) ||
		!(m.BitErrorProbability(3000, 7) < m.BitErrorProbability(5000, 7)) {
		t.Error("error rate not monotone in P/E cycles")
	}
	if !(m.BitErrorProbability(5000, 1) < m.BitErrorProbability(5000, 4)) ||
		!(m.BitErrorProbability(5000, 4) < m.BitErrorProbability(5000, 7)) {
		t.Error("error rate not monotone in sensing count")
	}
}

func TestFreshCellsErrorFree(t *testing.T) {
	m := NewModel(3)
	if m.BitErrorProbability(0, 7) != 0 {
		t.Error("uncycled cells should be error-free in this model")
	}
	buf := make([]byte, 8192)
	if n := m.Corrupt(buf, 0, 7); n != 0 {
		t.Errorf("corrupted %d bits at 0 P/E", n)
	}
}

func TestApplicationErrorRateNearPaper(t *testing.T) {
	// §5.8: worst case 0.00149% bit errors for XOR-based encryption at
	// 5K P/E. Our model gives p(5K,7) = 7.2e-6 ≈ 0.00072%; the paper's
	// figure includes realloc-induced extra wear — same order.
	m := NewModel(4)
	rate := m.ApplicationErrorRate(5000, 7)
	if rate < 1e-6 || rate > 3e-5 {
		t.Errorf("application error rate = %.2e, want within 1e-6..3e-5 (paper: 1.49e-5)", rate)
	}
}

func TestCorruptFlipsApproximatelyExpected(t *testing.T) {
	m := NewModelWithBase(5, 1e-5) // exaggerated rate for a tight sample
	buf := make([]byte, 8192)
	total := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		total += m.Corrupt(buf, 5000, 7)
	}
	bits := float64(len(buf) * 8)
	wantMean := bits * 1e-5 * 25 * 7
	gotMean := float64(total) / trials
	if math.Abs(gotMean-wantMean)/wantMean > 0.1 {
		t.Errorf("mean flips = %.1f, want ≈%.1f", gotMean, wantMean)
	}
}

func TestCorruptActuallyFlipsBits(t *testing.T) {
	m := NewModelWithBase(6, 1e-4)
	buf := make([]byte, 1024)
	orig := append([]byte(nil), buf...)
	n := m.Corrupt(buf, 5000, 7)
	diff := 0
	for i := range buf {
		for b := 0; b < 8; b++ {
			if (buf[i]^orig[i])&(1<<b) != 0 {
				diff++
			}
		}
	}
	// Flips can collide on the same bit (flip back); diff <= n always,
	// and with these counts collisions are rare.
	if n == 0 || diff == 0 || diff > n {
		t.Errorf("n=%d diff=%d", n, diff)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	a, b := NewModel(42), NewModel(42)
	bufA := make([]byte, 4096)
	bufB := make([]byte, 4096)
	a.Corrupt(bufA, 5000, 7)
	b.Corrupt(bufB, 5000, 7)
	for i := range bufA {
		if bufA[i] != bufB[i] {
			t.Fatal("same seed produced different corruption")
		}
	}
}

func TestModelPlugsIntoFlash(t *testing.T) {
	// End-to-end: a cycled block's ParaBit XOR result shows injected
	// flips while baseline reads stay clean.
	array := flash.NewArray(flash.Small(), flash.DefaultTiming())
	array.SetCorruptor(NewModelWithBase(7, 1e-4)) // exaggerated
	wl := flash.WordlineAddr{Block: 1}
	page := make([]byte, array.Geometry().PageSize)
	// Heavy cycling: with the exaggerated base rate, p(2000 P/E, 4 SRO)
	// yields a few flips per 256-byte page.
	for i := 0; i < 2000; i++ {
		if _, err := array.Erase(wl.PlaneAddr, wl.Block, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := array.Program(flash.PageAddr{WordlineAddr: wl, Kind: flash.LSBPage}, page, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := array.Program(flash.PageAddr{WordlineAddr: wl, Kind: flash.MSBPage}, page, 0); err != nil {
		t.Fatal(err)
	}
	res, err := array.Sense(flash.Sense{Kind: latch.SensePair, Op: latch.OpXor, WLs: []flash.WordlineAddr{wl}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.FlipCount == 0 {
		t.Error("no errors injected into ParaBit result on cycled block")
	}
	if _, _, err := array.Read(flash.PageAddr{WordlineAddr: wl, Kind: flash.LSBPage}, 0); err != nil {
		t.Fatal(err)
	}
}

func TestPoissonLargeMean(t *testing.T) {
	m := NewModel(8)
	// Normal-approximation path: sample mean should track the target.
	total := 0.0
	const trials = 500
	for i := 0; i < trials; i++ {
		total += float64(m.poisson(100))
	}
	if mean := total / trials; math.Abs(mean-100) > 3 {
		t.Errorf("poisson(100) sample mean = %.1f", mean)
	}
}

func TestNegativeBasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative base accepted")
		}
	}()
	NewModelWithBase(1, -1)
}

func TestDisturbTermMonotone(t *testing.T) {
	m := NewModel(20)
	p0 := m.BitErrorProbabilityWithReads(1000, 1, 0)
	p1 := m.BitErrorProbabilityWithReads(1000, 1, 100_000)
	p2 := m.BitErrorProbabilityWithReads(1000, 1, 1_000_000)
	if !(p0 < p1 && p1 < p2) {
		t.Fatalf("disturb not monotone: %g %g %g", p0, p1, p2)
	}
	// At ~100K reads the disturb term is the same order as 1K-P/E noise.
	base := m.BitErrorProbability(5000, 7)
	disturb := DisturbP0 * 100_000
	if disturb < base/10 || disturb > base*10 {
		t.Errorf("disturb at 100K reads = %.2e, cycling at EOL = %.2e: want same order", disturb, base)
	}
}

func TestDisturbZeroWithoutReads(t *testing.T) {
	m := NewModel(21)
	if m.BitErrorProbabilityWithReads(5000, 7, 0) != m.BitErrorProbability(5000, 7) {
		t.Fatal("zero reads should add nothing")
	}
}

func TestModelImplementsDisturbCorruptor(t *testing.T) {
	var _ flash.DisturbCorruptor = NewModel(22)
}

func TestCorruptWithReadsFlips(t *testing.T) {
	m := NewModelWithBase(23, 0) // isolate the disturb term
	buf := make([]byte, 8192)
	// Enormous read exposure to force flips deterministically-ish.
	total := 0
	for i := 0; i < 50; i++ {
		total += m.CorruptWithReads(buf, 0, 1, 50_000_000)
	}
	if total == 0 {
		t.Fatal("no disturb flips despite huge exposure")
	}
}
