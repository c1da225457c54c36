package flash

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"parabit/internal/latch"
	"parabit/internal/sim"
)

// senseFixture is one MLC and one TLC array with operands programmed,
// some operand pages left erased, and one case per sense entry point over
// them.
type senseFixture struct {
	mlc, tlc *Array
	// stored maps every programmed page to the bytes written there.
	stored map[*Array]map[PageAddr][]byte
	// erased lists operand pages the cases read while still erased.
	erased map[*Array][]PageAddr
	cases  []senseCase
}

type senseCase struct {
	name string
	a    *Array
	run  func() (SenseResult, error)
}

func newSenseFixture(t testing.TB, mlc, tlc *Array) *senseFixture {
	t.Helper()
	f := &senseFixture{
		mlc:    mlc,
		tlc:    tlc,
		stored: map[*Array]map[PageAddr][]byte{mlc: {}, tlc: {}},
		erased: map[*Array][]PageAddr{},
	}
	seed := byte(1)
	program := func(a *Array, p PageAddr) {
		data := fillPattern(a.Geometry().PageSize, seed)
		seed += 0x3B
		if _, err := a.Program(p, data, 0); err != nil {
			t.Fatal(err)
		}
		f.stored[a][p] = data
	}
	wl := func(block, w int) WordlineAddr { return WordlineAddr{Block: block, WL: w} }
	lsb := func(w WordlineAddr) PageAddr { return PageAddr{w, LSBPage} }

	// MLC: a shared wordline, a lone LSB wordline (MSB erased), aligned
	// LSB operands with an erased one among them, and two MWS blocks
	// each holding an erased operand wordline.
	pair, half := wl(1, 0), wl(7, 0)
	program(mlc, lsb(pair))
	program(mlc, PageAddr{pair, MSBPage})
	program(mlc, lsb(half))
	b2, b3, b4 := wl(2, 0), wl(3, 0), wl(4, 0)
	program(mlc, lsb(b2))
	program(mlc, lsb(b3))
	m0, m1, m2 := wl(5, 0), wl(5, 1), wl(5, 2)
	program(mlc, lsb(m0))
	program(mlc, lsb(m1))
	n0, n1 := wl(6, 0), wl(6, 1)
	program(mlc, lsb(n0))
	f.erased[mlc] = []PageAddr{{half, MSBPage}, lsb(b4), lsb(m2), lsb(n1)}

	// TLC: LSB and CSB programmed, TOP erased.
	tw := wl(1, 0)
	program(tlc, lsb(tw))
	program(tlc, PageAddr{tw, MSBPage})
	f.erased[tlc] = []PageAddr{{tw, TopPage}}

	f.cases = []senseCase{
		{"MLC", mlc, func() (SenseResult, error) {
			return mlc.Sense(Sense{Kind: latch.SensePair, Op: latch.OpXor, WLs: []WordlineAddr{pair}}, 0)
		}},
		{"MLC-erased-MSB", mlc, func() (SenseResult, error) {
			return mlc.Sense(Sense{Kind: latch.SensePair, Op: latch.OpNotMSB, WLs: []WordlineAddr{half}}, 0)
		}},
		{"LocFree", mlc, func() (SenseResult, error) {
			return mlc.Sense(Sense{Kind: latch.SenseLocFree, Op: latch.OpOr, WLs: []WordlineAddr{pair, b2}}, 0)
		}},
		{"LocFree-LSB", mlc, func() (SenseResult, error) {
			return mlc.Sense(Sense{Kind: latch.SenseLocFreeLSB, Op: latch.OpNand, WLs: []WordlineAddr{b2, b4}}, 0)
		}},
		{"ChainLSB", mlc, func() (SenseResult, error) {
			return mlc.Sense(Sense{Kind: latch.SenseChainLSB, Op: latch.OpXnor, WLs: []WordlineAddr{b2, b3, b4}}, 0)
		}},
		{"MWS", mlc, func() (SenseResult, error) {
			return mlc.Sense(Sense{Kind: latch.SenseMWS, Op: latch.OpNor, WLs: []WordlineAddr{m0, m1, m2}}, 0)
		}},
		{"ChainMWS", mlc, func() (SenseResult, error) {
			return mlc.Sense(Sense{Kind: latch.SenseChainMWS, Op: latch.OpNand, Chunks: [][]WordlineAddr{{m0, m1, m2}, {n0, n1}}}, 0)
		}},
		{"TLC", tlc, func() (SenseResult, error) {
			return tlc.Sense(Sense{Kind: latch.SenseTLC, Op3: latch.TLCAnd3, WLs: []WordlineAddr{tw}}, 0)
		}},
		{"ReadSense", mlc, func() (SenseResult, error) { return mlc.ReadSense(lsb(pair), 0) }},
		{"ReadSense-erased", mlc, func() (SenseResult, error) { return mlc.ReadSense(lsb(b4), 0) }},
	}
	return f
}

// TestSenseResultsDoNotAlias pins the buffer-ownership rule: senses read
// stored pages and the shared erased page in place, yet every result is a
// fresh page the caller owns. With a noise model writing into each result
// and the caller then scribbling over it, every stored operand and the
// erased page must read back unchanged. In turn, erasing the operands'
// blocks and reprogramming them with different bytes — which reuses the
// released page buffers — must leave every result and Read page taken
// before the erase unchanged.
func TestSenseResultsDoNotAlias(t *testing.T) {
	tlc := tlcArray()
	tlc.SetCorruptor(&spreadCorruptor{})
	f := newSenseFixture(t, eccArray(t, &spreadCorruptor{}), tlc)
	for _, c := range f.cases {
		res, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for i := range res.Data {
			res.Data[i] = 0xA5
		}
		for _, a := range []*Array{f.mlc, f.tlc} {
			for p, want := range f.stored[a] {
				if got, _, err := a.Read(p, 0); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s: operand %v reads back changed (err %v)", c.name, p, err)
				}
			}
			for _, p := range f.erased[a] {
				got, _, err := a.Read(p, 0)
				if err != nil || !bytes.Equal(got, a.erased) {
					t.Fatalf("%s: erased page %v no longer reads back erased (err %v)", c.name, p, err)
				}
			}
			if bytes.Count(a.erased, []byte{0xFF}) != len(a.erased) {
				t.Fatalf("%s: the shared erased page was written", c.name)
			}
		}
	}

	type held struct {
		name       string
		data, want []byte
	}
	var kept []held
	keep := func(name string, data []byte) {
		kept = append(kept, held{name, data, append([]byte(nil), data...)})
	}
	for _, c := range f.cases {
		res, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		keep(c.name, res.Data)
	}
	for _, a := range []*Array{f.mlc, f.tlc} {
		for p := range f.stored[a] {
			got, _, err := a.Read(p, 0)
			if err != nil {
				t.Fatal(err)
			}
			keep(fmt.Sprintf("Read %v", p), got)
		}
	}
	for _, a := range []*Array{f.mlc, f.tlc} {
		blocks := map[WordlineAddr]bool{}
		for p := range f.stored[a] {
			blocks[WordlineAddr{PlaneAddr: p.PlaneAddr, Block: p.Block}] = true
		}
		for b := range blocks {
			if _, err := a.Erase(b.PlaneAddr, b.Block, 0); err != nil {
				t.Fatal(err)
			}
		}
		for k := 0; k < a.Geometry().CellBits; k++ {
			for p, data := range f.stored[a] {
				if int(p.Kind) != k {
					continue
				}
				flipped := make([]byte, len(data))
				for i := range data {
					flipped[i] = ^data[i]
				}
				if _, err := a.Program(p, flipped, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, h := range kept {
		if !bytes.Equal(h.data, h.want) {
			t.Fatalf("%s: taken before an erase, changed by the reprogram after it", h.name)
		}
	}
	for _, a := range []*Array{f.mlc, f.tlc} {
		for p, data := range f.stored[a] {
			got, _, err := a.Read(p, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				got[i] = ^got[i]
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("reprogrammed page %v does not read back its new bytes", p)
			}
		}
	}
}

// TestSenseAllocatesOnlyItsResult pins that, with no noise model, every
// array sense allocates exactly one object: its result page. Operands are
// read in place and multi-operand folds accumulate in the result.
func TestSenseAllocatesOnlyItsResult(t *testing.T) {
	f := newSenseFixture(t, testArray(), tlcArray())
	for _, c := range f.cases {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := c.run(); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		})
		if allocs != 1 {
			t.Errorf("%s allocates %v objects per sense, want 1 (the result page)", c.name, allocs)
		}
	}
}

// chainBenchArray programs k aligned LSB operands of random data into one
// block of a paper-geometry array, ESP-programmed so the same wordlines
// also serve as one multi-wordline sense group.
func chainBenchArray(b *testing.B, k int) (*Array, []WordlineAddr) {
	b.Helper()
	a := NewArray(Default(), DefaultTiming())
	rng := rand.New(rand.NewSource(1))
	wls := make([]WordlineAddr, k)
	for i := range wls {
		wls[i] = WordlineAddr{Block: 1, WL: i}
		page := make([]byte, a.Geometry().PageSize)
		rng.Read(page)
		if _, err := a.ProgramESP(PageAddr{wls[i], LSBPage}, page, 0); err != nil {
			b.Fatal(err)
		}
	}
	return a, wls
}

// BenchmarkArrayChainLSB folds eight 8 KB operands with one chained
// location-free sense.
func BenchmarkArrayChainLSB(b *testing.B) {
	a, wls := chainBenchArray(b, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Sense(Sense{Kind: latch.SenseChainLSB, Op: latch.OpAnd, WLs: wls}, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArraySenseMWS folds eight block-colocated 8 KB operands with
// one Flash-Cosmos multi-wordline sense.
func BenchmarkArraySenseMWS(b *testing.B) {
	a, wls := chainBenchArray(b, latch.MaxMWSOperands)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Sense(Sense{Kind: latch.SenseMWS, Op: latch.OpNand, WLs: wls}, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArraySenseTLC folds the three 8 KB pages of one TLC wordline
// with one three-operand sense.
func BenchmarkArraySenseTLC(b *testing.B) {
	g := Default()
	g.CellBits = 3
	a := NewArray(g, TLCTiming())
	rng := rand.New(rand.NewSource(1))
	wl := WordlineAddr{Block: 1}
	for kind := LSBPage; kind <= TopPage; kind++ {
		page := make([]byte, g.PageSize)
		rng.Read(page)
		if _, err := a.Program(PageAddr{wl, kind}, page, 0); err != nil {
			b.Fatal(err)
		}
	}
	s := Sense{Kind: latch.SenseTLC, Op3: latch.TLCNor3, WLs: []WordlineAddr{wl}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Sense(s, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMWSRefusals pins that the multi-wordline senses refuse what the MWS
// program table refuses: an op without an MWS form and an operand count
// outside 2..MaxMWSOperands, per sense and per chained chunk.
func TestMWSRefusals(t *testing.T) {
	a := testArray()
	wls := make([]WordlineAddr, latch.MaxMWSOperands+1)
	for i := range wls {
		wls[i] = WordlineAddr{Block: 1, WL: i}
	}
	pair := wls[:2]
	for name, run := range map[string]func() (SenseResult, error){
		"MWS XOR": func() (SenseResult, error) {
			return a.Sense(Sense{Kind: latch.SenseMWS, Op: latch.OpXor, WLs: pair}, 0)
		},
		"MWS of 1": func() (SenseResult, error) {
			return a.Sense(Sense{Kind: latch.SenseMWS, Op: latch.OpAnd, WLs: wls[:1]}, 0)
		},
		"MWS over cap": func() (SenseResult, error) { return a.Sense(Sense{Kind: latch.SenseMWS, Op: latch.OpAnd, WLs: wls}, 0) },
		"chain XNOR": func() (SenseResult, error) {
			return a.Sense(Sense{Kind: latch.SenseChainMWS, Op: latch.OpXnor, Chunks: [][]WordlineAddr{pair, pair}}, 0)
		},
		"chain of 1": func() (SenseResult, error) {
			return a.Sense(Sense{Kind: latch.SenseChainMWS, Op: latch.OpOr, Chunks: [][]WordlineAddr{pair}}, 0)
		},
		"chunk over cap": func() (SenseResult, error) {
			return a.Sense(Sense{Kind: latch.SenseChainMWS, Op: latch.OpOr, Chunks: [][]WordlineAddr{pair, wls}}, 0)
		},
	} {
		if _, err := run(); err == nil {
			t.Errorf("%s: sensed, want a refusal", name)
		}
	}
	if s := a.Stats(); s.MWSSenses != 0 || s.SROs != 0 {
		t.Fatalf("refused senses still counted: %+v", s)
	}
}

// TestSenseRefusesWrongOperandCount pins that a one- or two-wordline kind
// handed another number of wordlines is refused before it senses.
func TestSenseRefusesWrongOperandCount(t *testing.T) {
	mlc, tlc := testArray(), tlcArray()
	three := []WordlineAddr{{WL: 0}, {WL: 1}, {WL: 2}}
	for _, c := range []struct {
		a *Array
		s Sense
	}{
		{mlc, Sense{Kind: latch.SensePair, Op: latch.OpAnd}},
		{mlc, Sense{Kind: latch.SensePair, Op: latch.OpAnd, WLs: three[:2]}},
		{mlc, Sense{Kind: latch.SenseLocFree, Op: latch.OpAnd, WLs: three[:1]}},
		{mlc, Sense{Kind: latch.SenseLocFreeLSB, Op: latch.OpAnd, WLs: three}},
		{tlc, Sense{Kind: latch.SenseTLC, Op3: latch.TLCAnd3, WLs: three}},
	} {
		if _, err := c.a.Sense(c.s, 0); err == nil {
			t.Errorf("%v sense of %d wordlines: sensed, want a refusal", c.s.Kind, len(c.s.WLs))
		}
	}
	for _, a := range []*Array{mlc, tlc} {
		if s := a.Stats(); s.BitwiseOps != 0 || s.SROs != 0 {
			t.Fatalf("refused senses still counted: %+v", s)
		}
	}
}

// TestSenseChargesItsProgram pins the array to the cost lookup for every
// sense kind × op: LSB chains of 2 to MaxChain+2 operands, multi-wordline
// senses of 2 to MaxMWSOperands wordlines alone and chained, and TLC.
// Each operand wordline sits in a block of its own (a multi-wordline
// chunk in one block), so after one sense on a fresh array every block's
// read count is the senses latch.Price gives its wordlines — never
// negative — and the sense's SROs and ready time are its cost's.
func TestSenseChargesItsProgram(t *testing.T) {
	type charged struct {
		s      Sense
		chunks [][]WordlineAddr
	}
	spread := func(k int) []WordlineAddr {
		wls := make([]WordlineAddr, k)
		for i := range wls {
			wls[i] = WordlineAddr{Block: 1 + i}
		}
		return wls
	}
	block := func(b, k int) []WordlineAddr {
		wls := make([]WordlineAddr, k)
		for i := range wls {
			wls[i] = WordlineAddr{Block: b, WL: i}
		}
		return wls
	}
	var cases []charged
	for _, op := range latch.Ops {
		for _, kind := range []latch.SenseKind{latch.SensePair, latch.SenseLocFree, latch.SenseLocFreeLSB} {
			k := 2
			if kind == latch.SensePair {
				k = 1
			}
			cases = append(cases, charged{s: Sense{Kind: kind, Op: op, WLs: spread(k)}})
		}
		for k := 2; latch.MaxChain(op) > 0 && k <= latch.MaxChain(op)+2; k++ {
			cases = append(cases, charged{s: Sense{Kind: latch.SenseChainLSB, Op: op, WLs: spread(k)}})
		}
		for k := 2; latch.MWSComputable(op) && k <= latch.MaxMWSOperands; k++ {
			cases = append(cases,
				charged{s: Sense{Kind: latch.SenseMWS, Op: op, WLs: block(1, k)}},
				charged{s: Sense{Kind: latch.SenseChainMWS, Op: op, Chunks: [][]WordlineAddr{block(1, k), block(2, 2), block(3, k)}}})
		}
	}
	for _, op3 := range []latch.TLCOp3{latch.TLCAnd3, latch.TLCOr3, latch.TLCNand3, latch.TLCNor3} {
		cases = append(cases, charged{s: Sense{Kind: latch.SenseTLC, Op3: op3, WLs: spread(1)}})
	}
	for _, c := range cases {
		a, op, chunks := testArray(), c.s.Op, [][]WordlineAddr{c.s.WLs}
		switch c.s.Kind {
		case latch.SenseTLC:
			a, op = tlcArray(), c.s.Op3.Op()
		case latch.SenseChainMWS:
			chunks = c.s.Chunks
		}
		want := map[int]int{}
		var sros int
		var ready sim.Duration
		for _, wls := range chunks {
			cost, err := latch.Price(c.s.Kind, op, len(wls))
			if err != nil {
				t.Fatal(err)
			}
			sros += cost.SROs
			ready += a.Timing().SenseLatency(cost, a.Geometry().PageSize)
			for i, w := range wls {
				want[w.Block] += cost.Reads(i)
			}
		}
		name := fmt.Sprintf("%v %v of %d chunks, %d wordlines first", c.s.Kind, op, len(chunks), len(chunks[0]))
		res, err := a.Sense(c.s, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := a.Stats().SROs; got != int64(sros) || res.Ready != sim.Time(ready) {
			t.Errorf("%s: %d SROs ready at %v, want %d at %v", name, got, res.Ready, sros, ready)
		}
		for b := 0; b < a.Geometry().BlocksPerPlane; b++ {
			if got := a.ReadCount(PlaneAddr{}, b); got != want[b] || got < 0 {
				t.Errorf("%s: block %d read %d times, its program senses it %d times", name, b, got, want[b])
			}
		}
	}
}
