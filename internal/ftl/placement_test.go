package ftl

import (
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"strings"
	"testing"

	"parabit/internal/faults"
	"parabit/internal/flash"
	"parabit/internal/sim"
)

var updatePlacement = flag.Bool("update-placement", false, "rewrite testdata/placement.golden from the current FTL")

// placementLayout writes one group of pages under one operand layout. i is
// the write's index in its run, for layouts that rotate a parameter.
type placementLayout struct {
	name  string
	group int // pages per write
	tlc   bool
	write func(f *FTL, i int, lpns []uint64, data [][]byte, at sim.Time) (sim.Time, error)
}

func placementLayouts() []placementLayout {
	place := func(l Layout) func(*FTL, int, []uint64, [][]byte, sim.Time) (sim.Time, error) {
		return func(f *FTL, _ int, lpns []uint64, data [][]byte, at sim.Time) (sim.Time, error) {
			return f.Place(l, lpns, data, at)
		}
	}
	onPlane := func(extra bool) func(*FTL, int, []uint64, [][]byte, sim.Time) (sim.Time, error) {
		return func(f *FTL, i int, lpns []uint64, data [][]byte, at sim.Time) (sim.Time, error) {
			l := Layout{Shape: LSBOnly, Fixed: true, Plane: i % f.Array().Geometry().Planes(), Extra: extra}
			return f.Place(l, lpns, data, at)
		}
	}
	return []placementLayout{
		{"write", 1, false, place(Layout{})},
		{"write-relocation", 1, false, place(Layout{Extra: true})},
		{"paired", 2, false, place(Layout{Shape: Shared})},
		{"paired-relocation", 2, false, place(Layout{Shape: Shared, Extra: true})},
		{"triple", 3, true, place(Layout{Shape: Shared})},
		{"lsb-group", 3, false, place(Layout{Shape: LSBOnly})},
		{"mws-group", 3, false, place(Layout{Shape: LSBOnly, OneBlock: true})},
		{"on-plane", 1, false, onPlane(false)},
		{"on-plane-relocation", 1, false, onPlane(true)},
	}
}

// placementScenario is one run condition: a geometry, an FTL config, an
// optional fault plan, and how much traffic to push.
type placementScenario struct {
	name    string
	geo     flash.Geometry
	cfg     Config
	plan    *faults.Plan
	ops     int
	working int // logical pages the run overwrites
	reads   int // reads of random working pages after each write
}

func placementScenarios(tlc bool) []placementScenario {
	small := flash.Small()
	tiny := flash.Geometry{
		Channels: 1, ChipsPerChannel: 1, DiesPerChip: 1, PlanesPerDie: 2,
		BlocksPerPlane: 8, WordlinesPerBlock: 4, PageSize: 16, CellBits: 2,
	}
	if tlc {
		small.CellBits, tiny.CellBits = 3, 3
	}
	return []placementScenario{
		{name: "fault-free", geo: small, cfg: DefaultConfig(), ops: 40, working: 64},
		{name: "gc-pressure", geo: tiny, cfg: DefaultConfig(), ops: 150, working: 40},
		{name: "program-faults", geo: small, cfg: DefaultConfig(), ops: 60, working: 64,
			plan: &faults.Plan{Seed: 11, Rules: []faults.Rule{{Type: faults.RuleProgramFail, Rate: 0.03}}}},
	}
}

// readsScenario is the read-heavy run TestPlacementGolden appends after
// the write-only ones: reads follow every write while a seeded plan fails
// some erases and programs, so GC retires blocks and writes resteer
// between reads that move nothing.
func readsScenario(tlc bool) placementScenario {
	geo := flash.Geometry{
		Channels: 2, ChipsPerChannel: 1, DiesPerChip: 1, PlanesPerDie: 1,
		BlocksPerPlane: 16, WordlinesPerBlock: 4, PageSize: 16, CellBits: 2,
	}
	if tlc {
		geo.CellBits = 3
	}
	return placementScenario{name: "reads", geo: geo, cfg: DefaultConfig(), ops: 80, working: 32, reads: 6,
		plan: &faults.Plan{Seed: 5, Rules: []faults.Rule{
			{Type: faults.RuleEraseFail, Rate: 0.1},
			{Type: faults.RuleProgramFail, Rate: 0.005},
		}}}
}

func placementErrClass(err error) string {
	switch {
	case errors.Is(err, ErrDeviceFull):
		return "E:full"
	case errors.Is(err, ErrUnmapped):
		return "E:unmapped"
	case flash.AsFaultError(err) != nil:
		return "E:fault"
	case errors.Is(err, ErrLogicalRange):
		return "E:range"
	}
	return "E:other"
}

// runPlacement drives one layout through one scenario and renders every
// observable the placement path decides: each write's completion time
// (or error class), the final logical-to-physical map, the counters and
// the invariant audit. Every fourth write is preceded by a dense write so
// the grouped layouts also start from a half-filled wordline. A scenario
// with reads also renders each read's completion time and a checksum of
// the bytes it returned.
func runPlacement(t *testing.T, l placementLayout, sc placementScenario) string {
	t.Helper()
	arr := flash.NewArray(sc.geo, flash.DefaultTiming())
	if sc.plan != nil {
		eng, err := faults.NewEngine(*sc.plan, sc.geo)
		if err != nil {
			t.Fatal(err)
		}
		arr.SetFaultInjector(eng)
	}
	f := New(arr, sc.cfg)
	rng := rand.New(rand.NewSource(int64(len(l.name))*131 + int64(sc.ops)))
	var b strings.Builder
	fmt.Fprintf(&b, "== %s %s\ndone", l.name, sc.name)
	note := func(done sim.Time, err error) {
		if err != nil {
			b.WriteString(" " + placementErrClass(err))
			return
		}
		fmt.Fprintf(&b, " %d", done)
	}
	at := sim.Time(0)
	advance := func(done sim.Time, err error) {
		note(done, err)
		if err == nil && done > at {
			at = done
		}
	}
	var reads strings.Builder
	for i := 0; i < sc.ops; i++ {
		if i%4 == 3 {
			lpn := uint64(rng.Intn(sc.working))
			advance(f.Write(lpn, placementPage(f, i, 0xFF), at))
		}
		perm := rng.Perm(sc.working)
		lpns := make([]uint64, l.group)
		data := make([][]byte, l.group)
		for j := range lpns {
			lpns[j] = uint64(perm[j])
			data[j] = placementPage(f, i, j)
		}
		advance(l.write(f, i, lpns, data, at))
		for r := 0; r < sc.reads; r++ {
			data, done, err := f.Read(uint64(rng.Intn(sc.working)), at)
			if err != nil {
				reads.WriteString(" " + placementErrClass(err))
				continue
			}
			fmt.Fprintf(&reads, " %d:%04x", done, crc32.ChecksumIEEE(data)&0xffff)
			at = max(at, done)
		}
	}
	if sc.reads > 0 {
		b.WriteString("\nread" + reads.String())
	}
	b.WriteString("\nl2p")
	f.l2p.each(func(lpn uint64, v uint32) { fmt.Fprintf(&b, " %d:%d", lpn, v-1) })
	fmt.Fprintf(&b, "\nstats %+v\nfree %d bad %d\ninvariants ", f.Stats(), f.FreeBlocks(), f.BadBlocks())
	if err := f.CheckInvariants(); err != nil {
		b.WriteString(err.Error())
	} else {
		b.WriteString("ok")
	}
	b.WriteString("\n")
	return b.String()
}

func placementPage(f *FTL, i, j int) []byte {
	p := make([]byte, f.PageSize())
	for k := range p {
		p[k] = byte(i*7 + j*31 + k)
	}
	return p
}

// TestPlacementGolden pins every operand layout's placements, completion
// times and counters — fault-free, under garbage-collection pressure,
// under a seeded program-fault plan and, last, read-heavy with erase and
// program faults — against testdata/placement.golden.
// Regenerate with: go test ./internal/ftl -run TestPlacementGolden -update-placement
func TestPlacementGolden(t *testing.T) {
	var b strings.Builder
	for _, l := range placementLayouts() {
		for _, sc := range placementScenarios(l.tlc) {
			b.WriteString(runPlacement(t, l, sc))
		}
	}
	for _, l := range placementLayouts() {
		b.WriteString(runPlacement(t, l, readsScenario(l.tlc)))
	}
	const golden = "testdata/placement.golden"
	if *updatePlacement {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("placement drifted from %s at line %d:\n got  %.300s\n want %.300s", golden, i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("placement drifted from %s: %d lines, want %d", golden, len(gl), len(wl))
	}
}
