package flash

import (
	"testing"

	"parabit/internal/ecc"
	"parabit/internal/latch"
	"parabit/internal/sim"
)

// spreadCorruptor flips exactly one bit per 512-byte region, staying
// within the SEC-DED correction capability.
type spreadCorruptor struct{ calls int }

func (c *spreadCorruptor) Corrupt(data []byte, pe, sros int) int {
	c.calls++
	n := 0
	for off := 0; off < len(data); off += 512 {
		data[off] ^= 1 << (c.calls % 8)
		n++
	}
	return n
}

// burstCorruptor puts two errors in the first sector: uncorrectable.
type burstCorruptor struct{}

func (burstCorruptor) Corrupt(data []byte, pe, sros int) int {
	data[0] ^= 1
	data[1] ^= 1
	return 2
}

func eccArray(t *testing.T, c Corruptor) *Array {
	t.Helper()
	geo := Small()
	geo.PageSize = 1024 // two 512 B ECC sectors per page
	a := NewArray(geo, DefaultTiming())
	codec, err := ecc.NewCodec(geo.PageSize, 512)
	if err != nil {
		t.Fatal(err)
	}
	a.SetECC(codec)
	a.SetCorruptor(c)
	return a
}

func TestBaselineReadCorrectsRawErrors(t *testing.T) {
	a := eccArray(t, &spreadCorruptor{})
	wl := WordlineAddr{Block: 1}
	data := fillPattern(a.Geometry().PageSize, 0x5A)
	if _, err := a.Program(PageAddr{wl, LSBPage}, data, 0); err != nil {
		t.Fatal(err)
	}
	got, _, err := a.Read(PageAddr{wl, LSBPage}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != data[i] {
			t.Fatalf("byte %d not corrected", i)
		}
	}
	s := a.Stats()
	if s.InjectedFlips == 0 || s.CorrectedBits != s.InjectedFlips {
		t.Fatalf("injected %d, corrected %d", s.InjectedFlips, s.CorrectedBits)
	}
}

func TestUncorrectableReadSurfaces(t *testing.T) {
	a := eccArray(t, burstCorruptor{})
	wl := WordlineAddr{Block: 2}
	data := fillPattern(a.Geometry().PageSize, 0x77)
	if _, err := a.Program(PageAddr{wl, LSBPage}, data, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Read(PageAddr{wl, LSBPage}, 0); err == nil {
		t.Fatal("double-error read succeeded")
	}
}

func TestParaBitBypassesECC(t *testing.T) {
	// The same corruptor hits a ParaBit result, and nothing corrects it:
	// the §4.4.3 asymmetry made executable.
	a := eccArray(t, &spreadCorruptor{})
	wl := WordlineAddr{Block: 3}
	x := fillPattern(a.Geometry().PageSize, 0xF0)
	y := fillPattern(a.Geometry().PageSize, 0x0F)
	if _, err := a.Program(PageAddr{wl, LSBPage}, x, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Program(PageAddr{wl, MSBPage}, y, 0); err != nil {
		t.Fatal(err)
	}
	res, err := a.Sense(Sense{Kind: latch.SensePair, Op: latch.OpXor, WLs: []WordlineAddr{wl}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.FlipCount == 0 {
		t.Fatal("no errors injected into the ParaBit result")
	}
	if res.Corrected != 0 {
		t.Fatal("ParaBit result was ECC-corrected, which hardware cannot do")
	}
	// The result actually differs from the ideal XOR.
	wrong := 0
	for i := range res.Data {
		if res.Data[i] != x[i]^y[i] {
			wrong++
		}
	}
	if wrong == 0 {
		t.Fatal("injected errors did not surface in the result")
	}
}

func TestErasedPagesSkipNoise(t *testing.T) {
	// Reading an unprogrammed page has no parity and must not inject
	// noise (there is nothing meaningful to read).
	a := eccArray(t, &spreadCorruptor{})
	got, _, err := a.Read(PageAddr{WordlineAddr{Block: 4}, LSBPage}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0xFF {
			t.Fatal("erased read not all-ones")
		}
	}
	if a.Stats().InjectedFlips != 0 {
		t.Fatal("noise injected into erased read")
	}
}

func TestEraseDropsParity(t *testing.T) {
	a := eccArray(t, &spreadCorruptor{})
	wl := WordlineAddr{Block: 5}
	data := fillPattern(a.Geometry().PageSize, 0x11)
	if _, err := a.Program(PageAddr{wl, LSBPage}, data, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Erase(wl.PlaneAddr, wl.Block, 0); err != nil {
		t.Fatal(err)
	}
	if a.parityOf(PageAddr{wl, LSBPage}) != nil {
		t.Fatal("erase left stale parity")
	}
	// Reprogram works and is again protected.
	if _, err := a.Program(PageAddr{wl, LSBPage}, data, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Read(PageAddr{wl, LSBPage}, 0); err != nil {
		t.Fatal(err)
	}
}

// decayingCorruptor injects a burst (uncorrectable) on the first call for
// a page, then nothing — modeling a read whose calibrated retry finds the
// shifted distributions.
type decayingCorruptor struct{ calls int }

func (c *decayingCorruptor) Corrupt(data []byte, pe, sros int) int {
	c.calls++
	if c.calls == 1 {
		data[0] ^= 1
		data[1] ^= 1 // two errors in one sector: uncorrectable
		return 2
	}
	return 0
}

func TestReadRetryRecovers(t *testing.T) {
	a := eccArray(t, &decayingCorruptor{})
	wl := WordlineAddr{Block: 6}
	data := fillPattern(a.Geometry().PageSize, 0x42)
	if _, err := a.Program(PageAddr{wl, LSBPage}, data, 0); err != nil {
		t.Fatal(err)
	}
	got, done, err := a.Read(PageAddr{wl, LSBPage}, 0)
	if err != nil {
		t.Fatalf("read failed despite retry budget: %v", err)
	}
	for i := range got {
		if got[i] != data[i] {
			t.Fatalf("byte %d wrong after retry", i)
		}
	}
	s := a.Stats()
	if s.ReadRetries != 1 {
		t.Fatalf("retries = %d, want 1", s.ReadRetries)
	}
	// The retry cost an extra SRO: 1 (LSB) + 1 (retry) = 2 senses.
	if s.SROs != 2 {
		t.Fatalf("SROs = %d, want 2", s.SROs)
	}
	if done < sim.Time(2*25*sim.Microsecond) {
		t.Fatalf("retry latency unaccounted: done at %v", done)
	}
}

// stubbornCorruptor always injects an uncorrectable burst.
type stubbornCorruptor struct{}

func (stubbornCorruptor) Corrupt(data []byte, pe, sros int) int {
	data[0] ^= 3
	return 2
}

func TestReadRetryExhaustion(t *testing.T) {
	a := eccArray(t, stubbornCorruptor{})
	wl := WordlineAddr{Block: 7}
	data := fillPattern(a.Geometry().PageSize, 0x77)
	if _, err := a.Program(PageAddr{wl, LSBPage}, data, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Read(PageAddr{wl, LSBPage}, 0); err == nil {
		t.Fatal("stubbornly corrupt page read succeeded")
	}
	if got := a.Stats().ReadRetries; got != int64(a.Timing().MaxReadRetries) {
		t.Fatalf("retries = %d, want the full budget %d", got, a.Timing().MaxReadRetries)
	}
}

func TestReadDisturbCounting(t *testing.T) {
	a := testArray()
	wl := WordlineAddr{Block: 9}
	page := fillPattern(a.Geometry().PageSize, 1)
	a.Program(PageAddr{wl, LSBPage}, page, 0)
	a.Program(PageAddr{wl, MSBPage}, page, 0)
	for i := 0; i < 10; i++ {
		if _, _, err := a.Read(PageAddr{wl, LSBPage}, 0); err != nil {
			t.Fatal(err)
		}
	}
	// 10 LSB reads = 10 SROs of disturb on the block.
	if got := a.ReadCount(wl.PlaneAddr, wl.Block); got != 10 {
		t.Fatalf("read count = %d, want 10", got)
	}
	// A ParaBit XOR adds its 4 senses.
	if _, err := a.Sense(Sense{Kind: latch.SensePair, Op: latch.OpXor, WLs: []WordlineAddr{wl}}, 0); err != nil {
		t.Fatal(err)
	}
	if got := a.ReadCount(wl.PlaneAddr, wl.Block); got != 14 {
		t.Fatalf("read count = %d, want 14", got)
	}
	// Erase resets the exposure.
	if _, err := a.Erase(wl.PlaneAddr, wl.Block, 0); err != nil {
		t.Fatal(err)
	}
	if got := a.ReadCount(wl.PlaneAddr, wl.Block); got != 0 {
		t.Fatalf("read count after erase = %d", got)
	}
}
