package ssd

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"parabit/internal/faults"
	"parabit/internal/ftl"
	"parabit/internal/latch"
	"parabit/internal/nvme"
	"parabit/internal/persist"
	"parabit/internal/sim"
)

var updateExec = flag.Bool("update-exec", false, "rewrite testdata/exec.golden from the current device")

// execLog records device calls for the exec golden: per call, the result
// hash, Done and HostDone or the refusal's sentinel, then every counter
// of the device's OpStats, QueryStats, FTL stats and flash stats that
// moved since the previous line. Sections that run the same calls under
// each scheme share a group, and a call must give one outcome across
// its group: the schemes differ in cost, never in result.
type execLog struct {
	t        *testing.T
	out      strings.Builder
	d        *Device
	at       sim.Time
	prev     map[string]int64
	group    string
	outcomes map[string]string
}

// begin starts a section on a fresh device; calls issue from its drain
// time on, 5 µs apart, so they overlap on the modeled resources.
func (l *execLog) begin(name, group string, d *Device) {
	fmt.Fprintf(&l.out, "== %s\n", name)
	l.d, l.at, l.prev, l.group = d, d.DrainTime(), execCounters(d), group
}

// next returns the issue instant of the next call.
func (l *execLog) next() sim.Time {
	at := l.at
	l.at = l.at.Add(5 * sim.Microsecond)
	return at
}

// execCounters flattens the device's counters into name -> value, each
// prefixed by its source: op. OpStats, q. QueryStats (qc. its cache),
// ftl. FTL stats, fl. flash stats.
func execCounters(d *Device) map[string]int64 {
	m := map[string]int64{}
	var walk func(prefix string, v reflect.Value)
	walk = func(prefix string, v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), prefix+v.Type().Field(i).Name
			if f.Kind() == reflect.Struct {
				walk(prefix[:len(prefix)-1]+"c.", f)
				continue
			}
			m[name] = f.Int()
		}
	}
	walk("op.", reflect.ValueOf(d.Stats()))
	walk("q.", reflect.ValueOf(d.QueryStats()))
	walk("ftl.", reflect.ValueOf(d.FTL().Stats()))
	walk("fl.", reflect.ValueOf(d.Array().Stats()))
	return m
}

// execSentinel names the device or FTL sentinel err matches, or quotes
// its message.
func execSentinel(err error) string {
	if err == nil {
		return ""
	}
	for _, s := range []struct {
		name string
		err  error
	}{
		{"ErrNeedOperands", ErrNeedOperands},
		{"ErrNotCoLocated", ErrNotCoLocated},
		{"ErrScrambled", ErrScrambled},
		{"ftl.ErrUnmapped", ftl.ErrUnmapped},
	} {
		if errors.Is(err, s.err) {
			return s.name
		}
	}
	return fmt.Sprintf("%q", err.Error())
}

// record logs one call's outcome and the counters it moved.
func (l *execLog) record(call string, at sim.Time, pages [][]byte, done, hostDone sim.Time, err error) {
	outcome := "err " + execSentinel(err)
	if err == nil {
		h := sha256.New()
		for _, p := range pages {
			fmt.Fprintf(h, "%d:", len(p))
			h.Write(p)
		}
		outcome = fmt.Sprintf("sha=%x", h.Sum(nil)[:8])
	}
	if l.group != "" {
		key := l.group + ": " + call
		if prev, ok := l.outcomes[key]; ok && prev != outcome {
			l.t.Errorf("%s: %s under one scheme, %s under another", key, prev, outcome)
		}
		l.outcomes[key] = outcome
	}
	fmt.Fprintf(&l.out, "%s @%d => %s", call, at, outcome)
	if err == nil {
		fmt.Fprintf(&l.out, " done=%d host=%d", done, hostDone)
	}
	cur := execCounters(l.d)
	l.out.WriteString(" |")
	for _, name := range execCounterOrder(cur) {
		if delta := cur[name] - l.prev[name]; delta != 0 {
			fmt.Fprintf(&l.out, " %s%+d", name, delta)
		}
	}
	l.out.WriteString("\n")
	l.prev = cur
}

// execCounterOrder lists counter names in a fixed order.
func execCounterOrder(m map[string]int64) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// result logs a BitwiseResult call, shipping every other result to the
// host first so HostDone is exercised too.
func (l *execLog) result(call string, at sim.Time, r BitwiseResult, err error, ship bool) {
	if err == nil && ship {
		l.d.ShipToHost(&r)
	}
	l.record(call, at, [][]byte{r.Data}, r.Done, r.HostDone, err)
}

// execLayout writes operand pages in one placement.
type execLayout struct {
	name  string
	write func(d *Device, lpns []uint64, pages [][]byte) error
}

func writeEach(op persist.Op, plane func(i int) int) func(*Device, []uint64, [][]byte) error {
	return func(d *Device, lpns []uint64, pages [][]byte) error {
		for i := range lpns {
			if _, err := d.WritePages(op, plane(i), lpns[i:i+1], pages[i:i+1], 0); err != nil {
				return err
			}
		}
		return nil
	}
}

var execLayouts = []execLayout{
	{"pair", func(d *Device, lpns []uint64, pages [][]byte) error {
		for i := 0; i+1 < len(lpns); i += 2 {
			if _, err := d.WritePages(persist.OpWritePair, 0, lpns[i:i+2], pages[i:i+2], 0); err != nil {
				return err
			}
		}
		return nil
	}},
	{"lsb-group", func(d *Device, lpns []uint64, pages [][]byte) error {
		_, err := d.WritePages(persist.OpWriteLSBGroup, 0, lpns, pages, 0)
		return err
	}},
	{"mws-group", func(d *Device, lpns []uint64, pages [][]byte) error {
		_, err := d.WritePages(persist.OpWriteMWSGroup, 0, lpns, pages, 0)
		return err
	}},
	{"operand", writeEach(persist.OpWriteOperand, func(int) int { return 0 })},
	{"scrambled", writeEach(persist.OpWrite, func(int) int { return 0 })},
	// Cross-plane operands: halves on two planes, then alternating.
	{"split-planes", writeEach(persist.OpWriteOnPlane, func(i int) int { return i / 6 })},
	{"alternating-planes", writeEach(persist.OpWriteOnPlane, func(i int) int { return i % 2 })},
}

// execQueries covers every plan step shape: a read, a NOT of a leaf and
// of a buffered result, binary steps over leaf/leaf, leaf/buffered and
// buffered/buffered, fused chains of leaves, of buffered results, of
// both, with a lone leaf, and chains long enough to split.
var execQueries = []string{
	"5",
	"!3",
	"!(0 ^ 1 ^ 2)",
	"0 ~& 1",
	"(0 & 1 & 2) ~| 3",
	"4 ~^ (5 | 6 | 7)",
	"(0 ^ 1 ^ 2) ~& (3 | 4 | 5)",
	"0 & 1 & 2 & 3",
	"(0 | 1) ^ (2 & 3)",
	"(0 ~| 1) & (2 ~^ 3) & 4",
	"(0 ~| 1) & (2 ~^ 3) & 4 & 5",
	"(0 ~& 1) | (2 ~& 3) | (4 ~& 5)",
	"((0 & 1 & 2 & 3 & 4 & 5 & 6) | 7) ^ 1",
	"0 | 1 | 2 | 3 | 4 | 5 | 6 | 7 | 8 | 9 | 10 | 11",
	"0 ^ 1 ^ 2 ^ 3 ^ 4 ^ 5 ^ 6 ^ 7 ^ 8 ^ 9 ^ 10 ^ 11",
	"0 & 99",
}

// execFormulas covers multi-batch, multi-page, sub-page and misaligned
// formulas.
func execFormulas(pageSize int) []struct {
	name string
	f    nvme.Formula
} {
	sector := nvme.SectorFor(pageSize)
	page := func(lba uint64) nvme.Operand { return nvme.Operand{LBA: lba, Length: pageSize} }
	sub := func(lba uint64, off int) nvme.Operand {
		return nvme.Operand{LBA: lba, Offset: off * sector, Length: 2 * sector}
	}
	return []struct {
		name string
		f    nvme.Formula
	}{
		{"one-term", nvme.Formula{Terms: []nvme.Term{{M: page(0), N: page(1), Op: latch.OpNor}}}},
		{"three-batch", nvme.Formula{Terms: []nvme.Term{
			{M: page(0), N: page(1), Op: latch.OpAnd},
			{M: page(2), N: page(3), Op: latch.OpXor},
			{M: page(4), N: page(5), Op: latch.OpOr}},
			Combine: []latch.Op{latch.OpXor, latch.OpNand}}},
		{"multi-page", nvme.Formula{Terms: []nvme.Term{
			{M: nvme.Operand{LBA: 0, Length: 2 * pageSize}, N: nvme.Operand{LBA: 6, Length: 2 * pageSize}, Op: latch.OpXnor},
			{M: nvme.Operand{LBA: 2, Length: 2 * pageSize}, N: nvme.Operand{LBA: 8, Length: 2 * pageSize}, Op: latch.OpAnd}},
			Combine: []latch.Op{latch.OpOr}}},
		{"sub-page", nvme.Formula{Terms: []nvme.Term{{M: sub(0, 1), N: sub(1, 1), Op: latch.OpXor}}}},
		{"misaligned", nvme.Formula{Terms: []nvme.Term{{M: sub(0, 1), N: sub(1, 3), Op: latch.OpAnd}}}},
		{"misaligned-two-batch", nvme.Formula{Terms: []nvme.Term{
			{M: sub(2, 1), N: sub(3, 1), Op: latch.OpNand},
			{M: sub(4, 2), N: sub(5, 4), Op: latch.OpOr}},
			Combine: []latch.Op{latch.OpXor}}},
	}
}

// execOperands returns twelve operand LPNs and their pages.
func execOperands(d *Device) ([]uint64, [][]byte) {
	lpns := make([]uint64, 12)
	pages := make([][]byte, 12)
	for i := range lpns {
		lpns[i] = uint64(i)
		pages[i] = randPage(d, int64(900+i))
	}
	return lpns, pages
}

// execAll runs the Bitwise, Reduce, ExecuteQuery and ExecuteFormula
// calls of one layout and scheme.
func execAll(t *testing.T, l *execLog, lpns []uint64, scheme Scheme) {
	d := l.d
	n := 0
	for _, pair := range [][2]uint64{{0, 1}, {1, 0}, {5, 10}} {
		for _, op := range latch.Ops {
			at := l.next()
			r, err := d.Bitwise(op, lpns[pair[0]], lpns[pair[1]], scheme, at)
			l.result(fmt.Sprintf("bitwise %v %d,%d", op, pair[0], pair[1]), at, r, err, n%2 == 0)
			n++
		}
	}
	for _, op := range []latch.Op{latch.OpAnd, latch.OpOr, latch.OpXor} {
		for k := 1; k <= len(lpns); k++ {
			if op == latch.OpOr && k%3 != 2 {
				continue // OR takes AND's paths; a few counts suffice
			}
			at := l.next()
			r, err := d.Reduce(op, lpns[:k], scheme, at)
			l.result(fmt.Sprintf("reduce %v k=%d", op, k), at, r, err, k%2 == 0)
		}
	}
	rev := []uint64{lpns[11], lpns[7], lpns[3], lpns[10], lpns[2], lpns[6], lpns[9], lpns[1], lpns[5]}
	for _, op := range []latch.Op{latch.OpAnd, latch.OpXor} {
		at := l.next()
		r, err := d.Reduce(op, rev, scheme, at)
		l.result(fmt.Sprintf("reduce %v shuffled", op), at, r, err, false)
	}
	at := l.next()
	r, err := d.Reduce(latch.OpAnd, nil, scheme, at)
	l.result("reduce AND k=0", at, r, err, false)
	at = l.next()
	r, err = d.Reduce(latch.OpNand, lpns[:3], scheme, at)
	l.result("reduce NAND k=3", at, r, err, false)
	at = l.next()
	r, err = d.Reduce(latch.OpOr, []uint64{lpns[0], 99}, scheme, at)
	l.result("reduce OR unmapped", at, r, err, false)

	execQueryRuns(t, l, scheme, 2)
	for _, fc := range execFormulas(d.PageSize()) {
		at := l.next()
		fr, err := d.ExecuteFormula(batchesOf(t, fc.f, d.PageSize()), scheme, at)
		l.record("formula "+fc.name, at, fr.Pages, fr.Done, fr.HostDone, err)
	}
}

// execQueryRuns runs every query reps times.
func execQueryRuns(t *testing.T, l *execLog, scheme Scheme, reps int) {
	for rep := 0; rep < reps; rep++ {
		for i, q := range execQueries {
			e := mustParse(t, q)
			at := l.next()
			r, err := l.d.ExecuteQuery(e, scheme, at)
			l.result(fmt.Sprintf("query#%d %q", rep, q), at, r, err, i%2 == 1)
		}
	}
}

// execStuckBlock arms a stuck-block fault over lpn's block.
func execStuckBlock(t *testing.T, d *Device, lpn uint64) {
	addr, ok := d.FTL().Lookup(lpn)
	if !ok {
		t.Fatalf("operand %d unmapped", lpn)
	}
	geo := d.cfg.Geometry
	eng, err := faults.NewEngine(faults.Plan{Rules: []faults.Rule{{
		Type:  faults.RuleStuckBlock,
		Plane: geo.PlaneIndex(addr.PlaneAddr),
		Block: addr.Block,
	}}}, geo)
	if err != nil {
		t.Fatal(err)
	}
	d.Array().SetFaultInjector(eng)
}

// TestExecGolden pins what every in-SSD computation does: Bitwise, Reduce
// over one to twelve operands, ExecuteQuery with the result cache on and
// off, and ExecuteFormula, under all four schemes and over each operand
// layout; plus reductions and queries that garbage collection or block
// retirement interrupts, and the TLC three-operand ops. Each call logs
// its result hash, Done, HostDone or refusal, and the counters it moved
// (see execLog). Regenerate only for a deliberate change to execution:
//
//	go test ./internal/ssd -run TestExecGolden -update-exec
func TestExecGolden(t *testing.T) {
	l := &execLog{t: t, outcomes: map[string]string{}}
	for _, layout := range execLayouts {
		for _, scheme := range Schemes {
			for _, cache := range []bool{true, false} {
				cfg := SmallConfig()
				if !cache {
					cfg.QueryCacheBytes = -1
				}
				d := MustNew(cfg)
				lpns, pages := execOperands(d)
				if err := layout.write(d, lpns, pages); err != nil {
					t.Fatalf("%s: %v", layout.name, err)
				}
				l.begin(fmt.Sprintf("%s %v cache=%v", layout.name, scheme, cache),
					fmt.Sprintf("%s cache=%v", layout.name, cache), d)
				if cache {
					execAll(t, l, lpns, scheme)
				} else {
					execQueryRuns(t, l, scheme, 1)
				}
			}
		}
	}

	for _, scheme := range Schemes {
		// Mid-reduction garbage collection: the second plane is primed so
		// the reduction's first internal write there collects the block
		// holding operands 10 and 11.
		for _, op := range []latch.Op{latch.OpAnd, latch.OpXor} {
			d := MustNew(tinyConfig())
			content := map[uint64][]byte{}
			for i, lpn := range []uint64{1, 2} {
				page := randPage(d, int64(100+i))
				if _, err := d.WritePages(persist.OpWriteOnPlane, 0, []uint64{lpn}, [][]byte{page}, 0); err != nil {
					t.Fatal(err)
				}
			}
			fillPlaneForGC(t, d, 1, []uint64{10, 11}, content)
			l.begin(fmt.Sprintf("gc-mid-reduce %v %v", scheme, op), "gc-mid-reduce "+op.String(), d)
			at := l.next()
			r, err := d.Reduce(op, []uint64{1, 2, 10, 11}, scheme, at)
			l.result("reduce 1,2,10,11", at, r, err, true)
		}

		// Mid-reduction retirement: a stuck block under operands 10 and
		// 11 fails the reduction's next program there.
		d := newDevice(t)
		for i, lpn := range []uint64{1, 2, 10, 11} {
			page := randPage(d, int64(200+i))
			if _, err := d.WritePages(persist.OpWriteOnPlane, i/2, []uint64{lpn}, [][]byte{page}, 0); err != nil {
				t.Fatal(err)
			}
		}
		execStuckBlock(t, d, 10)
		l.begin(fmt.Sprintf("retire-mid-reduce %v", scheme), "retire-mid-reduce", d)
		at := l.next()
		r, err := d.Reduce(latch.OpAnd, []uint64{1, 2, 10, 11}, scheme, at)
		l.result("reduce 1,2,10,11", at, r, err, true)
		d.Array().SetFaultInjector(nil)

		// A cached query whose operands garbage collection then migrates.
		d = MustNew(tinyConfig())
		content := map[uint64][]byte{}
		fillPlaneForGC(t, d, 1, []uint64{10, 11}, content)
		l.begin(fmt.Sprintf("gc-query %v", scheme), "gc-query", d)
		e := mustParse(t, "(10 & 11) ^ !10")
		at = l.next()
		r, err = d.ExecuteQuery(e, scheme, at)
		l.result("query", at, r, err, false)
		at = l.next()
		done, err := d.WritePages(persist.OpWriteOnPlane, 1, []uint64{90}, [][]byte{randPage(d, 7777)}, at)
		l.record("write 90", at, nil, done, 0, err)
		at = l.next()
		r, err = d.ExecuteQuery(e, scheme, at)
		l.result("query after gc", at, r, err, true)
	}

	// TLC: the three-operand ops, a refusal, the pairwise calls and a
	// same-plane LSB group.
	d := MustNew(SmallTLCConfig())
	lpns, pages := execOperands(d)
	for i := 0; i < 6; i += 3 {
		if _, err := d.WritePages(persist.OpWriteTriple, 0, lpns[i:i+3], pages[i:i+3], 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := writeEach(persist.OpWriteOperand, func(int) int { return 0 })(d, lpns[6:], pages[6:]); err != nil {
		t.Fatal(err)
	}
	l.begin("tlc", "", d)
	for _, triple := range [][3]uint64{{0, 1, 2}, {5, 3, 4}, {0, 1, 3}} {
		for op := latch.TLCAnd3; op <= latch.TLCNor3; op++ {
			at := l.next()
			r, err := d.BitwiseTriple(op, triple, at)
			l.result(fmt.Sprintf("triple %v %v", op, triple), at, r, err, op%2 == 0)
		}
	}
	for _, scheme := range Schemes {
		at := l.next()
		r, err := d.Bitwise(latch.OpAnd, lpns[6], lpns[7], scheme, at)
		l.result(fmt.Sprintf("bitwise AND 6,7 %v", scheme), at, r, err, false)
		at = l.next()
		r, err = d.Reduce(latch.OpOr, lpns[6:], scheme, at)
		l.result(fmt.Sprintf("reduce OR 6..11 %v", scheme), at, r, err, true)
	}
	// A same-plane aligned LSB group: TLC cells have no LSB chain sense,
	// so the sense-only schemes read each operand and combine in the
	// controller, giving the software fold's bytes.
	group := []uint64{12, 13, 14}
	groupPages := [][]byte{randPage(d, 912), randPage(d, 913), randPage(d, 914)}
	at := l.next()
	done, err := d.WritePages(persist.OpWriteLSBGroup, 0, group, groupPages, at)
	l.record("write lsb-group 12..14", at, nil, done, 0, err)
	groupOR := golden(latch.OpOr, golden(latch.OpOr, groupPages[0], groupPages[1]), groupPages[2])
	for _, scheme := range []Scheme{SchemeLocFree, SchemeFlashCosmos} {
		at := l.next()
		r, err := d.Reduce(latch.OpOr, group, scheme, at)
		if err == nil && !bytes.Equal(r.Data, groupOR) {
			t.Errorf("tlc reduce OR 12..14 %v: result differs from the software fold", scheme)
		}
		l.result(fmt.Sprintf("reduce OR 12..14 %v", scheme), at, r, err, true)
	}

	// TLC triples of host writes: striping lands lpns i, i+P and i+2P on
	// one wordline of a fresh P-plane device. Host writes are stored
	// scrambled, so triples holding one are refused; the plain triple is
	// the control that the co-location holds.
	d = MustNew(SmallTLCConfig())
	planes := uint64(d.Config().Geometry.Planes())
	for lpn := uint64(0); lpn < 3*planes; lpn++ {
		op := persist.OpWriteOperand
		if lpn%planes == 0 || lpn == 1 {
			op = persist.OpWrite
		}
		if _, err := d.WritePages(op, 0, []uint64{lpn}, [][]byte{randPage(d, int64(lpn))}, 0); err != nil {
			t.Fatal(err)
		}
	}
	l.begin("tlc-scrambled", "", d)
	for i := uint64(0); i < 3; i++ {
		triple := [3]uint64{i, i + planes, i + 2*planes}
		for _, lpn := range triple[1:] {
			a, _ := d.FTL().Lookup(triple[0])
			if b, _ := d.FTL().Lookup(lpn); a.WordlineAddr != b.WordlineAddr {
				t.Fatalf("triple %v spans wordlines %v and %v", triple, a, b)
			}
		}
		at := l.next()
		r, err := d.BitwiseTriple(latch.TLCAnd3, triple, at)
		l.result(fmt.Sprintf("triple AND3 %v", triple), at, r, err, true)
	}

	const golden = "testdata/exec.golden"
	if *updateExec {
		if err := os.WriteFile(golden, []byte(l.out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-exec to create it)", err)
	}
	if got := l.out.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("exec golden differs at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("exec golden differs in length: got %d lines, want %d", len(gl), len(wl))
	}
}

// TestExecGoldenFormulasProgramOnlyPairs checks every formula row of the
// exec golden, which TestExecGolden pins to the device: a formula
// programs nothing but its reallocation pairs and the FTL's wordline
// padding, so ftl.ExtraPagesWritten moves by exactly op.ReallocPages +
// ftl.PaddedPages. Term results join from the controller buffer; none is
// stored to flash.
func TestExecGoldenFormulasProgramOnlyPairs(t *testing.T) {
	data, err := os.ReadFile("testdata/exec.golden")
	if err != nil {
		t.Fatal(err)
	}
	section, rows := "", 0
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "== "); ok {
			section = name
		}
		if !strings.HasPrefix(line, "formula ") {
			continue
		}
		rows++
		_, counters, _ := strings.Cut(line, " |")
		moved := map[string]int64{}
		for _, c := range strings.Fields(counters) {
			i := strings.LastIndexAny(c, "+-")
			n, err := strconv.ParseInt(c[max(i, 0):], 10, 64)
			if i <= 0 || err != nil {
				t.Fatalf("%s: bad counter %q", section, c)
			}
			moved[c[:i]] = n
		}
		if got, want := moved["ftl.ExtraPagesWritten"], moved["op.ReallocPages"]+moved["ftl.PaddedPages"]; got != want {
			t.Errorf("%s: %s: %d extra pages written, %d reallocation and padding pages",
				section, line[:strings.Index(line, " @")], got, want)
		}
	}
	if rows == 0 {
		t.Fatal("exec golden has no formula rows")
	}
}
