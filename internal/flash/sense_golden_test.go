package flash

import (
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"parabit/internal/latch"
	"parabit/internal/sim"
)

var updateSense = flag.Bool("update-sense", false, "rewrite testdata/sense.golden from the current array")

// senseLog collects, in call order, what the noise model and the fault
// injector were asked about.
type senseLog struct{ b strings.Builder }

func (l *senseLog) printf(format string, args ...any) { fmt.Fprintf(&l.b, format, args...) }

// take returns the entries logged since the last take.
func (l *senseLog) take() string {
	s := l.b.String()
	l.b.Reset()
	return s
}

// recCorruptor records every noise-model call and flips a deterministic,
// call-dependent set of bits, so a changed argument or a changed result
// page both show in the golden. It has the read-disturb hook only.
type recCorruptor struct {
	log   *senseLog
	calls int
}

func (c *recCorruptor) flip(data []byte, key int) int {
	c.calls++
	n := (c.calls + key) % 3
	for i := 0; i < n; i++ {
		bit := (c.calls*131 + i*17 + key) % (len(data) * 8)
		data[bit/8] ^= 1 << (bit % 8)
	}
	return n
}

func (c *recCorruptor) Corrupt(data []byte, pe, sros int) int {
	c.log.printf(" corrupt(pe=%d sros=%d)", pe, sros)
	return c.flip(data, pe+sros)
}

func (c *recCorruptor) CorruptWithReads(data []byte, pe, sros, reads int) int {
	c.log.printf(" disturb(pe=%d sros=%d reads=%d)", pe, sros, reads)
	return c.flip(data, pe+sros+reads)
}

// recMWSCorruptor adds the Flash-Cosmos hook.
type recMWSCorruptor struct{ recCorruptor }

func (c *recMWSCorruptor) CorruptMWS(data []byte, pe, wlCount int, esp bool) int {
	c.log.printf(" mws(pe=%d wls=%d esp=%v)", pe, wlCount, esp)
	key := pe + wlCount
	if esp {
		key++
	}
	return c.flip(data, key)
}

// recInjector records every fault-model call. It stretches operations
// with a call-dependent jitter and fails every operation on faultBlock of
// the first plane with a transient plane fault.
type recInjector struct {
	log   *senseLog
	calls int
}

const faultBlock = 63

func (f *recInjector) Inspect(op FaultOp, plane PlaneAddr, block int, at sim.Time) FaultOutcome {
	f.calls++
	f.log.printf(" inspect(%v %v b%d @%d)", op, plane, block, at)
	if block == faultBlock && plane == (PlaneAddr{}) {
		return FaultOutcome{Err: &FaultError{Op: op, Kind: FaultPlaneTransient, Plane: plane, Block: block}}
	}
	return FaultOutcome{Delay: sim.Duration(f.calls%4) * 100 * sim.Nanosecond}
}

// senseSentinel names the sentinel a refusal matches, not its text.
func senseSentinel(err error) string {
	for _, s := range []struct {
		name string
		err  error
	}{
		{"ErrCellMode", ErrCellMode},
		{"ErrBadAddress", ErrBadAddress},
		{"ErrPlaneMismatch", ErrPlaneMismatch},
		{"ErrBlockMismatch", ErrBlockMismatch},
	} {
		if errors.Is(err, s.err) {
			return s.name
		}
	}
	if fe := AsFaultError(err); fe != nil {
		return "FaultError(" + fe.Kind.String() + ")"
	}
	return "unsentinelled"
}

// goldenSense is one sense the golden issues: its kind, its op (op3 for
// TLC) and its operand wordlines (chunks for a chained MWS).
type goldenSense struct {
	kind   string
	op     latch.Op
	op3    latch.TLCOp3
	wls    []WordlineAddr
	chunks [][]WordlineAddr
}

func (g goldenSense) String() string {
	var b strings.Builder
	b.WriteString(g.kind)
	if g.kind == "tlc" {
		fmt.Fprintf(&b, " %v", g.op3)
	} else {
		fmt.Fprintf(&b, " %v", g.op)
	}
	wl := func(w WordlineAddr) string { return fmt.Sprintf("p%d/b%d/w%d", w.Plane, w.Block, w.WL) }
	for _, w := range g.wls {
		b.WriteString(" " + wl(w))
	}
	for _, c := range g.chunks {
		b.WriteString(" [")
		for i, w := range c {
			if i > 0 {
				b.WriteString(" ")
			}
			b.WriteString(wl(w))
		}
		b.WriteString("]")
	}
	return b.String()
}

// goldenKinds maps the golden's kind names to the sense kinds.
var goldenKinds = map[string]latch.SenseKind{
	"pair": latch.SensePair, "locfree": latch.SenseLocFree, "locfree-lsb": latch.SenseLocFreeLSB,
	"chain-lsb": latch.SenseChainLSB, "mws": latch.SenseMWS, "chain-mws": latch.SenseChainMWS, "tlc": latch.SenseTLC,
}

func (g goldenSense) run(a *Array, at sim.Time) (SenseResult, error) {
	return a.Sense(Sense{Kind: goldenKinds[g.kind], Op: g.op, Op3: g.op3, WLs: g.wls, Chunks: g.chunks}, at)
}

// goldenWL addresses wordline w of block b on the first plane, or on the
// second plane of the first die with plane set.
func goldenWL(plane, b, w int) WordlineAddr {
	return WordlineAddr{PlaneAddr: PlaneAddr{Plane: plane}, Block: b, WL: w}
}

func goldenRange(b, from, to int) []WordlineAddr {
	var out []WordlineAddr
	for w := from; w < to; w++ {
		out = append(out, goldenWL(0, b, w))
	}
	return out
}

// programGoldenMLC lays out the MLC operands:
//   - blocks 1 and 2: both pages of wordlines 0-3 (pairs, LocFree);
//   - blocks 3 and 4: LSB pages of wordlines 0-9 and 0-3 (all-LSB, chains);
//   - blocks 5 and 7: ESP LSB pages of wordlines 0-8 (MWS);
//   - block 6: plain LSB pages of wordlines 0-8 (MWS without ESP);
//   - block 8: the LSB page of wordline 0 only (MSB erased);
//   - block 9: ESP LSB pages on wordlines 0-1, plain on 2-3;
//   - plane 1: both pages of block 1 wordline 0, ESP LSB of block 5
//     wordlines 0-3.
func programGoldenMLC(t *testing.T, a *Array) {
	seed := byte(7)
	put := func(w WordlineAddr, kind PageKind, esp bool) {
		data := fillPattern(a.Geometry().PageSize, seed)
		seed += 0x29
		p := PageAddr{w, kind}
		var err error
		if esp {
			_, err = a.ProgramESP(p, data, 0)
		} else {
			_, err = a.Program(p, data, 0)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range []int{1, 2} {
		for w := 0; w < 4; w++ {
			put(goldenWL(0, b, w), LSBPage, false)
			put(goldenWL(0, b, w), MSBPage, false)
		}
	}
	for w := 0; w < 10; w++ {
		put(goldenWL(0, 3, w), LSBPage, false)
	}
	for w := 0; w < 4; w++ {
		put(goldenWL(0, 4, w), LSBPage, false)
	}
	for _, b := range []int{5, 6, 7} {
		for w := 0; w < 9; w++ {
			put(goldenWL(0, b, w), LSBPage, b != 6)
		}
	}
	put(goldenWL(0, 8, 0), LSBPage, false)
	for w := 0; w < 4; w++ {
		put(goldenWL(0, 9, w), LSBPage, w < 2)
	}
	put(goldenWL(1, 1, 0), LSBPage, false)
	put(goldenWL(1, 1, 0), MSBPage, false)
	for w := 0; w < 4; w++ {
		put(goldenWL(1, 5, w), LSBPage, true)
	}
}

// goldenMLCSenses lists every MLC sense kind over every op, including
// the ones each kind refuses.
func goldenMLCSenses() []goldenSense {
	var out []goldenSense
	wl := func(b, w int) WordlineAddr { return goldenWL(0, b, w) }
	bad := goldenWL(0, Small().BlocksPerPlane, 0)
	far := goldenWL(1, 1, 0)
	for _, op := range latch.Ops {
		add := func(kind string, wls ...WordlineAddr) {
			out = append(out, goldenSense{kind: kind, op: op, wls: wls})
		}
		chunks := func(cs ...[]WordlineAddr) {
			out = append(out, goldenSense{kind: "chain-mws", op: op, chunks: cs})
		}
		add("pair", wl(1, 0))
		add("pair", wl(8, 0))
		add("pair", bad)
		add("pair", wl(faultBlock, 0))
		add("locfree", wl(1, 0), wl(1, 1))
		add("locfree", wl(1, 1), wl(1, 0))
		add("locfree", wl(1, 2), wl(2, 0))
		add("locfree", wl(1, 0), far)
		add("locfree", wl(1, 0), bad)
		add("locfree-lsb", wl(3, 0), wl(3, 1))
		add("locfree-lsb", wl(3, 1), wl(3, 0))
		add("locfree-lsb", wl(3, 2), wl(4, 0))
		add("locfree-lsb", wl(3, 0), far)
		add("locfree-lsb", wl(faultBlock, 0), wl(3, 0))
		for k := 1; k <= 9; k++ {
			add("chain-lsb", goldenRange(3, 0, k)...)
		}
		add("chain-lsb", append(goldenRange(3, 0, 3), goldenRange(4, 0, 2)...)...)
		add("chain-lsb", wl(3, 0), far)
		add("chain-lsb", wl(3, 0), bad)
		for k := 1; k <= 9; k++ {
			add("mws", goldenRange(5, 0, k)...)
			add("mws", goldenRange(6, 0, k)...)
		}
		add("mws", goldenRange(9, 0, 4)...)
		add("mws", wl(5, 0), wl(7, 0))
		add("mws", wl(5, 0), goldenWL(1, 5, 0))
		add("mws", wl(5, 0), bad)
		add("mws", wl(faultBlock, 0), wl(faultBlock, 1))
		chunks(goldenRange(5, 0, 3), goldenRange(7, 0, 2))
		chunks(goldenRange(5, 0, 8), goldenRange(7, 0, 8), goldenRange(6, 0, 3))
		chunks(goldenRange(6, 0, 2), goldenRange(9, 0, 4))
		chunks(goldenRange(5, 0, 2))
		chunks(goldenRange(5, 0, 3), []WordlineAddr{goldenWL(1, 5, 0), goldenWL(1, 5, 1)})
		chunks([]WordlineAddr{wl(5, 0), wl(7, 0)}, goldenRange(6, 0, 2))
		chunks(goldenRange(5, 0, 9), goldenRange(7, 0, 2))
		chunks(goldenRange(5, 0, 2), goldenRange(6, 0, 1))
		chunks(goldenRange(5, 0, 2), []WordlineAddr{wl(7, 0), bad})
	}
	for _, op := range []latch.TLCOp3{latch.TLCAnd3, latch.TLCOr3, latch.TLCNand3, latch.TLCNor3} {
		out = append(out, goldenSense{kind: "tlc", op3: op, wls: []WordlineAddr{wl(1, 0)}})
	}
	return out
}

// goldenTLCSenses lists the TLC sense over every op, on a full wordline
// and one whose TOP page is erased, and every MLC kind refused on TLC
// cells.
func goldenTLCSenses() []goldenSense {
	var out []goldenSense
	wl := func(b, w int) WordlineAddr { return goldenWL(0, b, w) }
	for _, op := range []latch.TLCOp3{latch.TLCAnd3, latch.TLCOr3, latch.TLCNand3, latch.TLCNor3} {
		for _, w := range []WordlineAddr{wl(1, 0), wl(1, 1), wl(2, 0), wl(SmallTLC().BlocksPerPlane, 0), wl(faultBlock, 0)} {
			out = append(out, goldenSense{kind: "tlc", op3: op, wls: []WordlineAddr{w}})
		}
	}
	pair := []WordlineAddr{wl(1, 0), wl(1, 1)}
	for _, kind := range []string{"pair", "locfree", "locfree-lsb", "chain-lsb", "mws"} {
		out = append(out, goldenSense{kind: kind, op: latch.OpAnd, wls: pair})
	}
	out = append(out, goldenSense{kind: "chain-mws", op: latch.OpAnd, chunks: [][]WordlineAddr{pair, pair}})
	return out
}

// TestSenseGolden pins every bitwise sense the array offers: per call,
// the fault injector's and noise model's arguments, the result's SHA-256,
// Ready and FlipCount, or the sentinel a refusal matches; then each
// array's Stats and per-block read counts, none of which may be
// negative whatever the golden says. Two MLC arrays run the MLC
// list, one whose noise model has the multi-wordline hook and one whose
// model falls back to the read-disturb hook. Regenerate only for a
// deliberate change to sensing:
//
//	go test ./internal/flash -run TestSenseGolden -update-sense
func TestSenseGolden(t *testing.T) {
	var out strings.Builder
	log := &senseLog{}
	type variant struct {
		name   string
		a      *Array
		noise  Corruptor
		senses []goldenSense
	}
	mlc1, mlc2, tlc := testArray(), testArray(), tlcArray()
	programGoldenMLC(t, mlc1)
	programGoldenMLC(t, mlc2)
	seed := byte(3)
	for _, w := range []WordlineAddr{goldenWL(0, 1, 0), goldenWL(0, 1, 1), goldenWL(0, 2, 0)} {
		for kind := LSBPage; kind <= TopPage; kind++ {
			if w.WL == 1 && kind == TopPage {
				continue
			}
			seed += 0x35
			if _, err := tlc.Program(PageAddr{w, kind}, fillPattern(tlc.Geometry().PageSize, seed), 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	variants := []variant{
		{"mlc+mws-hook", mlc1, &recMWSCorruptor{recCorruptor{log: log}}, goldenMLCSenses()},
		{"mlc+disturb-hook", mlc2, &recCorruptor{log: log}, goldenMLCSenses()},
		{"tlc", tlc, &recMWSCorruptor{recCorruptor{log: log}}, goldenTLCSenses()},
	}
	for _, v := range variants {
		v.a.SetCorruptor(v.noise)
		v.a.SetFaultInjector(&recInjector{log: log})
		fmt.Fprintf(&out, "== %s\n", v.name)
		for i, s := range v.senses {
			at := sim.Time(i) * sim.Time(3*sim.Microsecond)
			res, err := s.run(v.a, at)
			calls := log.take()
			if err != nil {
				fmt.Fprintf(&out, "%s @%d:%s => refused %s\n", s, at, calls, senseSentinel(err))
				continue
			}
			fmt.Fprintf(&out, "%s @%d:%s => sha256=%x ready=%d flips=%d\n",
				s, at, calls, sha256.Sum256(res.Data), res.Ready, res.FlipCount)
		}
		fmt.Fprintf(&out, "stats %+v\n", v.a.Stats())
		g := v.a.Geometry()
		for pi := 0; pi < g.Planes(); pi++ {
			p := g.PlaneAt(pi)
			for b := 0; b < g.BlocksPerPlane; b++ {
				n := v.a.ReadCount(p, b)
				if n < 0 {
					// A sense charges a block the senses its program
					// gives the block's wordlines, never fewer than none.
					t.Errorf("%s: %v block %d read count %d is negative", v.name, p, b, n)
				}
				if n != 0 {
					fmt.Fprintf(&out, "reads %v b%d = %d\n", p, b, n)
				}
			}
		}
	}
	const golden = "testdata/sense.golden"
	if *updateSense {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-sense to create it)", err)
	}
	if got := out.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("sense golden differs at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("sense golden differs in length: got %d lines, want %d", len(gl), len(wl))
	}
}
