// Package e2e runs the paper's three case studies end to end at small
// scale: workload generator -> simulated SSD (every scheme) -> golden
// verification, including the reliability and ECC configurations. These
// are the integration tests across workload, ssd, ftl, flash and latch.
package e2e

import (
	"bytes"
	"math/rand"
	"testing"

	"parabit/internal/bitvec"
	"parabit/internal/latch"
	"parabit/internal/nvme"
	"parabit/internal/persist"
	"parabit/internal/reliability"
	"parabit/internal/ssd"
	"parabit/internal/workload"
)

func newDevice(t *testing.T) *ssd.Device {
	t.Helper()
	d, err := ssd.New(ssd.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// pageChunks slices a bit vector into device pages, zero-padded.
func pageChunks(v *bitvec.Vector, ps int) [][]byte {
	raw := v.Bytes()
	n := (len(raw) + ps - 1) / ps
	out := make([][]byte, n)
	for i := range out {
		page := make([]byte, ps)
		if i*ps < len(raw) {
			copy(page, raw[i*ps:])
		}
		out[i] = page
	}
	return out
}

func TestSegmentationEndToEndAllSchemes(t *testing.T) {
	spec := workload.SegmentationSpec{NumImages: 2, Width: 64, Height: 16, Levels: 256, Colors: 4}
	data, err := workload.GenerateSegmentation(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range ssd.Schemes {
		d := newDevice(t)
		ps := d.PageSize()
		planes := [3][][]byte{}
		for c := range planes {
			planes[c] = pageChunks(data.Planes[c], ps)
		}
		goldenPages := pageChunks(data.Golden, ps)
		numPages := len(planes[0])

		for p := 0; p < numPages; p++ {
			lpns := []uint64{uint64(p * 3), uint64(p*3 + 1), uint64(p*3 + 2)}
			switch scheme {
			case ssd.SchemeLocFree:
				if _, err := d.WriteOperandLSBGroup(lpns, [][]byte{planes[0][p], planes[1][p], planes[2][p]}, 0); err != nil {
					t.Fatal(err)
				}
			case ssd.SchemePreAlloc:
				// Y,U co-located; V written separately for the combine.
				if _, err := d.WritePages(persist.OpWritePair, 0, []uint64{lpns[0], lpns[1]}, [][]byte{planes[0][p], planes[1][p]}, 0); err != nil {
					t.Fatal(err)
				}
				if _, err := d.WriteOperand(lpns[2], planes[2][p], 0); err != nil {
					t.Fatal(err)
				}
			default:
				for c := 0; c < 3; c++ {
					if _, err := d.WriteOperand(lpns[c], planes[c][p], 0); err != nil {
						t.Fatal(err)
					}
				}
			}
			r, err := d.Reduce(latch.OpAnd, lpns, scheme, 0)
			if err != nil {
				t.Fatalf("%v page %d: %v", scheme, p, err)
			}
			if !bytes.Equal(r.Data, goldenPages[p]) {
				t.Fatalf("%v page %d: recognition differs from golden", scheme, p)
			}
		}
	}
}

func TestBitmapEndToEndWithBitcount(t *testing.T) {
	d := newDevice(t)
	ps := d.PageSize()
	spec := workload.BitmapSpec{Users: int64(ps * 8), Months: 1, DaysPerMonth: 20}
	data, err := workload.GenerateBitmap(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	lpns := make([]uint64, spec.Days())
	cols := make([][]byte, spec.Days())
	for i := range lpns {
		lpns[i] = uint64(i)
		cols[i] = data.Columns[i].Bytes()
	}
	if _, err := d.WriteOperandLSBGroup(lpns, cols, 0); err != nil {
		t.Fatal(err)
	}
	r, err := d.Reduce(latch.OpAnd, lpns, ssd.SchemeLocFree, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The bitcount is host-side work (§5.3.2): ship the result and count.
	d.ShipToHost(&r)
	if got := bitvec.FromBytes(r.Data).PopCount(); got != data.ActiveCount {
		t.Fatalf("in-flash count %d, golden %d", got, data.ActiveCount)
	}
	if r.HostDone <= r.Done {
		t.Fatal("host transfer unaccounted")
	}
}

func TestEncryptionEndToEndRoundTrip(t *testing.T) {
	d := newDevice(t)
	ps := d.PageSize()
	spec := workload.EncryptionSpec{NumImages: 4, Width: ps, Height: 1, BitsPerChannel: 8, Channels: 1}
	data, err := workload.GenerateEncryption(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	key := data.Key.Bytes()
	for i, img := range data.Images {
		ori := img.Bytes()
		oriLPN, keyLPN := uint64(i*2), uint64(i*2+1)
		// ParaBit encryption layout: original paired with the key image.
		if _, err := d.WritePages(persist.OpWritePair, 0, []uint64{oriLPN, keyLPN}, [][]byte{ori, key}, 0); err != nil {
			t.Fatal(err)
		}
		r, err := d.Bitwise(latch.OpXor, oriLPN, keyLPN, ssd.SchemePreAlloc, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(r.Data, data.Ciphers[i].Bytes()) {
			t.Fatalf("image %d cipher wrong", i)
		}
		// Decrypt in-flash via a second pairing.
		cLPN, k2LPN := uint64(100+i*2), uint64(101+i*2)
		if _, err := d.WritePages(persist.OpWritePair, 0, []uint64{cLPN, k2LPN}, [][]byte{r.Data, key}, 0); err != nil {
			t.Fatal(err)
		}
		back, err := d.Bitwise(latch.OpXor, cLPN, k2LPN, ssd.SchemePreAlloc, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back.Data, ori) {
			t.Fatalf("image %d decrypt wrong", i)
		}
	}
}

func TestFullStackWithECCAndNoise(t *testing.T) {
	// §5.8's configuration on the functional stack: noisy baseline reads
	// corrected by ECC, ParaBit ops uncorrected. A ReAlloc operation on a
	// cycled device reads its operands through ECC (clean) and only the
	// final sense can inject errors; here the noise model is mild enough
	// (fresh blocks for the realloc target) that results stay correct.
	cfg := ssd.SmallConfig()
	cfg.ECCSectorBytes = cfg.Geometry.PageSize // one sector per small page
	d, err := ssd.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Array().SetCorruptor(reliability.NewModel(9))
	x := bytes.Repeat([]byte{0xAB}, d.PageSize())
	y := bytes.Repeat([]byte{0x14}, d.PageSize())
	if _, err := d.WriteOperand(0, x, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WriteOperand(1, y, 0); err != nil {
		t.Fatal(err)
	}
	r, err := d.Bitwise(latch.OpNor, 0, 1, ssd.SchemeReAlloc, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, d.PageSize())
	for i := range want {
		want[i] = ^(x[i] | y[i])
	}
	if !bytes.Equal(r.Data, want) {
		t.Fatal("realloc with ECC produced a wrong result on a fresh device")
	}
}

func TestGCUnderParaBitLoad(t *testing.T) {
	// Sustained realloc traffic programs and trims a pair per op; GC
	// must keep the device healthy and results correct throughout.
	d := newDevice(t)
	x := bytes.Repeat([]byte{0x3C}, d.PageSize())
	y := bytes.Repeat([]byte{0x99}, d.PageSize())
	if _, err := d.WriteOperand(0, x, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WriteOperand(1, y, 0); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, d.PageSize())
	for i := range want {
		want[i] = x[i] ^ y[i]
	}
	const rounds = 3000
	for i := 0; i < rounds; i++ {
		r, err := d.Bitwise(latch.OpXor, 0, 1, ssd.SchemeReAlloc, 0)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if !bytes.Equal(r.Data, want) {
			t.Fatalf("round %d: result drifted", i)
		}
	}
	if d.Stats().Reallocations != rounds {
		t.Fatalf("reallocations = %d", d.Stats().Reallocations)
	}
}

func TestScrambledFormulaEndToEnd(t *testing.T) {
	// A formula over operands stored *scrambled* (ordinary writes): the
	// reallocation path must descramble before pairing, or the in-flash
	// result would be garbage.
	d := newDevice(t)
	ps := d.PageSize()
	pages := make([][]byte, 4)
	for i := range pages {
		pages[i] = bytes.Repeat([]byte{byte(0x11 * (i + 1))}, ps)
		if _, err := d.WritePages(persist.OpWrite, 0, []uint64{uint64(i)}, [][]byte{pages[i]}, 0); err != nil {
			t.Fatal(err)
		}
	}
	f := nvme.Formula{
		Terms: []nvme.Term{
			{M: nvme.Operand{LBA: 0, Length: ps}, N: nvme.Operand{LBA: 1, Length: ps}, Op: latch.OpAnd},
			{M: nvme.Operand{LBA: 2, Length: ps}, N: nvme.Operand{LBA: 3, Length: ps}, Op: latch.OpXor},
		},
		Combine: []latch.Op{latch.OpOr},
	}
	res, err := d.ExecuteFormula(mustBatches(t, f, ps), ssd.SchemeReAlloc, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, ps)
	for i := range want {
		want[i] = (pages[0][i] & pages[1][i]) | (pages[2][i] ^ pages[3][i])
	}
	if !bytes.Equal(res.Pages[0], want) {
		t.Fatal("formula over scrambled operands wrong")
	}
}

func TestPlaneParallelWaveFunctional(t *testing.T) {
	// A full wave of co-located pairs across every plane completes in one
	// sense latency: the core parallelism claim, at functional level.
	d := newDevice(t)
	g := d.Config().Geometry
	n := g.Planes()
	x := bytes.Repeat([]byte{0xF0}, d.PageSize())
	y := bytes.Repeat([]byte{0x55}, d.PageSize())
	for i := 0; i < n; i++ {
		if _, err := d.WritePages(persist.OpWritePair, 0, []uint64{uint64(i * 2), uint64(i*2 + 1)}, [][]byte{x, y}, 0); err != nil {
			t.Fatal(err)
		}
	}
	d.ResetTiming()
	var latest int64
	for i := 0; i < n; i++ {
		r, err := d.Bitwise(latch.OpAnd, uint64(i*2), uint64(i*2+1), ssd.SchemePreAlloc, 0)
		if err != nil {
			t.Fatal(err)
		}
		if int64(r.Done) > latest {
			latest = int64(r.Done)
		}
	}
	if latest != int64(25*1000) { // 25µs in ns
		t.Fatalf("wave completed at %dns, want 25µs", latest)
	}
}

// TestFormulaFuzz executes randomized formulas under every scheme and
// checks each against the host-side golden evaluation.
func TestFormulaFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(2021))
	binary := []latch.Op{latch.OpAnd, latch.OpOr, latch.OpXor, latch.OpNand, latch.OpNor, latch.OpXnor}
	for trial := 0; trial < 25; trial++ {
		scheme := ssd.Schemes[trial%len(ssd.Schemes)]
		d := newDevice(t)
		ps := d.PageSize()
		terms := 1 + rng.Intn(3)
		numOperands := terms * 2
		pages := make([][]byte, numOperands)
		for i := range pages {
			pages[i] = make([]byte, ps)
			rng.Read(pages[i])
		}
		// Lay out operands per scheme.
		for i := 0; i+1 < numOperands; i += 2 {
			a, b := uint64(i), uint64(i+1)
			var err error
			switch scheme {
			case ssd.SchemePreAlloc:
				_, err = d.WritePages(persist.OpWritePair, 0, []uint64{a, b}, [][]byte{pages[i], pages[i+1]}, 0)
			case ssd.SchemeLocFree:
				_, err = d.WriteOperandLSBGroup([]uint64{a, b}, [][]byte{pages[i], pages[i+1]}, 0)
			default:
				if _, err = d.WriteOperand(a, pages[i], 0); err == nil {
					_, err = d.WriteOperand(b, pages[i+1], 0)
				}
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		var f nvme.Formula
		for ti := 0; ti < terms; ti++ {
			f.Terms = append(f.Terms, nvme.Term{
				M:  nvme.Operand{LBA: uint64(ti * 2), Length: ps},
				N:  nvme.Operand{LBA: uint64(ti*2 + 1), Length: ps},
				Op: binary[rng.Intn(len(binary))],
			})
			if ti > 0 {
				f.Combine = append(f.Combine, binary[rng.Intn(len(binary))])
			}
		}
		res, err := d.ExecuteFormula(mustBatches(t, f, ps), scheme, 0)
		if err != nil {
			t.Fatalf("trial %d (%v): %v", trial, scheme, err)
		}
		// Golden evaluation.
		apply := func(op latch.Op, x, y []byte) []byte {
			out := make([]byte, len(x))
			for i := range out {
				var v byte
				for b := 0; b < 8; b++ {
					if op.Eval(x[i]&(1<<b) != 0, y[i]&(1<<b) != 0) {
						v |= 1 << b
					}
				}
				out[i] = v
			}
			return out
		}
		want := apply(f.Terms[0].Op, pages[0], pages[1])
		for ti := 1; ti < terms; ti++ {
			tr := apply(f.Terms[ti].Op, pages[ti*2], pages[ti*2+1])
			want = apply(f.Combine[ti-1], want, tr)
		}
		if !bytes.Equal(res.Pages[0], want) {
			t.Fatalf("trial %d (%v): formula result mismatch", trial, scheme)
		}
	}
}

// TestReadDisturbReachesParaBitResults: a block hammered with reads
// accumulates disturb exposure that the reliability model converts into
// extra errors in subsequent ParaBit results — and the FTL's read
// reclaim, when enabled, bounds it.
func TestReadDisturbReachesParaBitResults(t *testing.T) {
	cfg := ssd.SmallConfig()
	d, err := ssd.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Disturb-only model: no cycling term, measurable disturb.
	m := reliability.NewModelWithBase(31, 0)
	d.Array().SetCorruptor(m)

	x := bytes.Repeat([]byte{0xAA}, d.PageSize())
	y := bytes.Repeat([]byte{0x55}, d.PageSize())
	if _, err := d.WritePages(persist.OpWritePair, 0, []uint64{0, 1}, [][]byte{x, y}, 0); err != nil {
		t.Fatal(err)
	}
	// Hammer the pair with ParaBit ops to build exposure; with
	// DisturbP0=7e-11 and 256-byte pages we need a lot of senses for a
	// measurable rate, so check the counter rather than waiting for
	// statistical flips.
	for i := 0; i < 1000; i++ {
		if _, err := d.Bitwise(latch.OpXor, 0, 1, ssd.SchemePreAlloc, 0); err != nil {
			t.Fatal(err)
		}
	}
	addr, _ := d.FTL().Lookup(0)
	exposure := d.Array().ReadCount(addr.PlaneAddr, addr.Block)
	if exposure < 4000 {
		t.Fatalf("block exposure = %d senses, want >= 4000 (1000 XORs x 4 SROs)", exposure)
	}
	// The disturb term is live: probability grows with that exposure.
	if m.BitErrorProbabilityWithReads(0, 1, exposure) <= 0 {
		t.Fatal("disturb exposure not reflected in error probability")
	}
}

// mustBatches carries f across the host boundary: encoded to wire
// commands and parsed back into the batches ExecuteFormula takes.
func mustBatches(t *testing.T, f nvme.Formula, pageSize int) []nvme.Batch {
	t.Helper()
	batches, err := nvme.RoundTrip(f, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	return batches
}
