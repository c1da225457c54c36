package ssd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"parabit/internal/binio"
	"parabit/internal/flash"
	"parabit/internal/latch"
	"parabit/internal/persist"
)

// chainEvery is the rotation length the chain tests run at: short, so a
// few hundred writes make dozens of rotations.
const chainEvery = 4

// tinyTLCConfig is tinyConfig with three pages per wordline.
func tinyTLCConfig() Config {
	cfg := tinyConfig()
	cfg.Geometry.CellBits = 3
	cfg.Timing = flash.TLCTiming()
	return cfg
}

// fullImage returns the full-image snapshot encoding of d.
func fullImage(t *testing.T, d *Device) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := d.writeSnapshot(&buf, false, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// mountChain rebuilds a device from the snapshot chain dir holds,
// leaving the directory untouched.
func mountChain(t *testing.T, dir string) *Device {
	t.Helper()
	rec, err := persist.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := deviceFromSnapshot(rec.Chain(), rec)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// requireChainMatches fails unless a device mounted from dir's chain
// encodes exactly like d.
func requireChainMatches(t *testing.T, d *Device, dir, when string) {
	t.Helper()
	if !bytes.Equal(fullImage(t, mountChain(t, dir)), fullImage(t, d)) {
		_, files := chainFiles(t, dir)
		t.Fatalf("%s: device mounted from chain %v differs from the live device", when, files)
	}
}

// chainWriter drives random journaled writes of every layout the
// geometry supports over a small working set, enough to keep garbage
// collection busy on a tiny device.
type chainWriter struct {
	t   *testing.T
	d   *Device
	rng *rand.Rand
	tlc bool
}

func (w *chainWriter) write() {
	w.t.Helper()
	lpns := func(n int) []uint64 {
		out := make([]uint64, 0, n)
		for _, i := range w.rng.Perm(24)[:n] {
			out = append(out, uint64(i))
		}
		return out
	}
	var op persist.Op
	var l []uint64
	plane := 0
	switch k := w.rng.Intn(8); {
	case k == 0:
		op, l = persist.OpWrite, lpns(1)
	case k == 1:
		op, l = persist.OpWritePair, lpns(2)
	case k == 2:
		op, l = persist.OpWriteLSBGroup, lpns(2+w.rng.Intn(2))
	case k == 3:
		op, l = persist.OpWriteMWSGroup, lpns(2+w.rng.Intn(2))
	case k == 4:
		op, l, plane = persist.OpWriteOnPlane, lpns(1), w.rng.Intn(2)
	case k == 5 && w.tlc:
		op, l = persist.OpWriteTriple, lpns(3)
	default:
		op, l = persist.OpWriteOperand, lpns(1)
	}
	pages := make([][]byte, len(l))
	for i := range pages {
		pages[i] = randPage(w.d, w.rng.Int63())
	}
	if _, err := w.d.WritePages(op, plane, l, pages, 0); err != nil {
		w.t.Fatalf("%s write of %v: %v", op, l, err)
	}
}

// TestChainMountEquivalence is the chain's correctness contract: after
// every rotation — deltas and the full images the compaction rule
// interleaves — a device mounted from the on-disk chain encodes exactly
// like the live one. It runs MLC and TLC devices with garbage collection
// active and every write layout, ESP block groups included.
func TestChainMountEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		tlc  bool
	}{
		{"mlc", tinyConfig(), false},
		{"tlc", tinyTLCConfig(), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d, err := Create(dir, tc.cfg, chainEvery)
			if err != nil {
				t.Fatal(err)
			}
			w := &chainWriter{t: t, d: d, rng: rand.New(rand.NewSource(7)), tlc: tc.tlc}
			longest := 0
			for rotations := int64(0); rotations < 40; {
				w.write()
				st, _ := d.PersistStats()
				if st.Snapshots == rotations {
					continue
				}
				rotations = st.Snapshots
				requireChainMatches(t, d, dir, "rotation "+strconv.FormatInt(rotations, 10))
				_, files := chainFiles(t, dir)
				longest = max(longest, len(files))
			}
			st, _ := d.PersistStats()
			if gc := d.FTL().Stats().GCRuns; gc == 0 || st.FullSnapshots == 0 || longest < 3 {
				t.Fatalf("%d GC runs, %d full images, longest chain %d: the run must collect, compact and stack deltas",
					gc, st.FullSnapshots, longest)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// currentEpoch reads the epoch CURRENT names.
func currentEpoch(t *testing.T, dir string) uint64 {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "CURRENT"))
	if err != nil {
		t.Fatal(err)
	}
	e, err := strconv.ParseUint(strings.TrimSpace(string(raw)), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// writeToRotationEdge writes until a rotation has just run, then
// chainEvery-1 more writes, so the next commit triggers a rotation.
func writeToRotationEdge(w *chainWriter) {
	st, _ := w.d.PersistStats()
	for before := st.Snapshots; st.Snapshots == before; st, _ = w.d.PersistStats() {
		w.write()
	}
	for i := 1; i < chainEvery; i++ {
		w.write()
	}
}

// TestChainFailedDeltaKeepsChanges pins the changed-block flags across a
// delta rotation that fails writing its file: the flags survive, and the
// next delta, written one commit later, still carries every block
// changed before the failure, so the chain mounts to the live state.
func TestChainFailedDeltaKeepsChanges(t *testing.T) {
	dir := t.TempDir()
	d, err := Create(dir, tinyConfig(), chainEvery)
	if err != nil {
		t.Fatal(err)
	}
	w := &chainWriter{t: t, d: d, rng: rand.New(rand.NewSource(3))}
	writeToRotationEdge(w)
	// A directory where the rotation's temporary file goes makes the
	// snapshot write fail.
	next := currentEpoch(t, dir) + 1
	blocker := filepath.Join(dir, "snap-"+strconv.FormatUint(next, 10)+".bin.tmp")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	changed := d.array.ChangedBlocks()
	if changed == 0 {
		t.Fatal("no blocks changed since the last rotation")
	}
	_, err = d.WriteOperand(0, randPage(d, 1), 0)
	if err == nil || errors.Is(err, persist.ErrPowerCut) {
		t.Fatalf("write whose rotation cannot create its file: %v, want a snapshot error", err)
	}
	if got := d.array.ChangedBlocks(); got < changed {
		t.Fatalf("failed rotation left %d changed blocks, had %d", got, changed)
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WriteOperand(1, randPage(d, 2), 0); err != nil {
		t.Fatal(err)
	}
	if e := currentEpoch(t, dir); e != next {
		t.Fatalf("epoch %d after the retried rotation, want %d", e, next)
	}
	if _, files := chainFiles(t, dir); len(files) < 2 {
		t.Fatalf("retried rotation wrote chain %v, want a delta", files)
	}
	requireChainMatches(t, d, dir, "delta after a failed delta")
	if d.array.ChangedBlocks() != 0 {
		t.Fatal("a durable rotation left changed-block flags set")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// boundaryCut cuts power at the n-th crossing of one persistence
// boundary.
type boundaryCut struct {
	point   string
	n, seen int
}

func (c *boundaryCut) CutAtBoundary(point string) bool {
	if point == c.point {
		c.seen++
	}
	return c.PowerDead()
}

func (c *boundaryCut) PowerDead() bool { return c.seen >= c.n }

// TestChainCutDeltaKeepsChanges pins the flags across a delta whose
// swap a pre-snapshot power cut prevents: none are cleared, and the
// remount, from the old chain plus the journal, matches the live device.
func TestChainCutDeltaKeepsChanges(t *testing.T) {
	dir := t.TempDir()
	d, err := Create(dir, tinyConfig(), chainEvery)
	if err != nil {
		t.Fatal(err)
	}
	w := &chainWriter{t: t, d: d, rng: rand.New(rand.NewSource(5))}
	writeToRotationEdge(w)
	epoch := currentEpoch(t, dir)
	changed := d.array.ChangedBlocks()
	d.store.SetCutInjector(&boundaryCut{point: persist.PointPreSnapshot, n: 1})
	if _, err := d.WriteOperand(0, randPage(d, 1), 0); err != nil {
		t.Fatalf("acknowledged write whose rotation was cut: %v", err)
	}
	if got := d.array.ChangedBlocks(); got < changed {
		t.Fatalf("cut rotation left %d changed blocks, had %d", got, changed)
	}
	if e := currentEpoch(t, dir); e != epoch {
		t.Fatalf("cut rotation moved CURRENT to %d", e)
	}
	staged, err := os.ReadFile(filepath.Join(dir, "snap-"+strconv.FormatUint(epoch+1, 10)+".bin.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(staged) < 16 || binary.LittleEndian.Uint64(staged[8:16]) != epoch {
		t.Fatalf("the cut rotation staged no delta on epoch %d", epoch)
	}
	live := fullImage(t, d)
	d.Crash()
	re, _, err := Open(dir, chainEvery)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !bytes.Equal(fullImage(t, re), live) {
		t.Fatal("remount after a cut delta differs from the device at the cut")
	}
}

// TestChainBrokenMountFails pins the mount's refusal of a broken chain:
// a missing or corrupt member fails Open with ErrCorrupt, and so does a
// delta decoded without the parents it defers blocks to.
func TestChainBrokenMountFails(t *testing.T) {
	build := func(t *testing.T) (string, []string) {
		dir := t.TempDir()
		d, err := Create(dir, tinyConfig(), chainEvery)
		if err != nil {
			t.Fatal(err)
		}
		w := &chainWriter{t: t, d: d, rng: rand.New(rand.NewSource(9))}
		for {
			w.write()
			if _, files := chainFiles(t, dir); len(files) >= 3 {
				d.Crash()
				return dir, files
			}
		}
	}
	t.Run("missing", func(t *testing.T) {
		dir, files := build(t)
		if err := os.Remove(filepath.Join(dir, files[len(files)-1])); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(dir, chainEvery); !errors.Is(err, persist.ErrCorrupt) {
			t.Fatalf("chain without its full image mounted: %v", err)
		}
	})
	t.Run("corrupt", func(t *testing.T) {
		dir, files := build(t)
		path := filepath.Join(dir, files[1])
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0x40
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(dir, chainEvery); !errors.Is(err, persist.ErrCorrupt) {
			t.Fatalf("chain with a corrupt delta mounted: %v", err)
		}
	})
	t.Run("parentless-delta", func(t *testing.T) {
		dir, _ := build(t)
		rec, err := persist.OpenDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := deviceFromSnapshot(rec.Chain()[:1], rec); !errors.Is(err, persist.ErrCorrupt) {
			t.Fatalf("delta decoded without its parents: %v", err)
		}
	})
}

// ftlAndPlain returns d's full FTL encoding and its plain-set encoding.
func ftlAndPlain(t *testing.T, d *Device) ([]byte, []byte) {
	t.Helper()
	var fb, pb bytes.Buffer
	if err := d.ftl.WriteState(&fb, false); err != nil {
		t.Fatal(err)
	}
	b := binio.NewWriter(&pb)
	writePlainSet(b, &d.plain)
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	return fb.Bytes(), pb.Bytes()
}

// TestDeltaChainMatchesLive drives a persistent Small device through
// overwrites pinned to one plane (so garbage collection runs),
// scrambled writes that leave the plain set, operand writes and
// reallocating bitwise operations, which trim their own pages, at a
// rotation every seven writes. After every durable rotation the FTL
// and plain set restored from the on-disk chain encode exactly like the
// live device's.
func TestDeltaChainMatchesLive(t *testing.T) {
	dir := t.TempDir()
	d, err := Create(dir, SmallConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	page := func() []byte { return randPage(d, rng.Int63()) }
	write := func(op persist.Op, plane int, lpn uint64) {
		t.Helper()
		if _, err := d.WritePages(op, plane, []uint64{lpn}, [][]byte{page()}, 0); err != nil {
			t.Fatalf("%s of lpn %d: %v", op, lpn, err)
		}
	}
	// Operands the bitwise operations read; never overwritten scrambled.
	for lpn := uint64(64); lpn < 96; lpn++ {
		write(persist.OpWriteOperand, 0, lpn)
	}
	st, _ := d.PersistStats()
	rotations, deltas := st.Snapshots, int64(0)
	for i := 0; i < 4000; i++ {
		switch k := rng.Intn(20); {
		case k < 11:
			write(persist.OpWriteOnPlane, 1, uint64(rng.Intn(64)))
		case k < 14:
			write(persist.OpWrite, 0, uint64(rng.Intn(64)))
		case k < 16:
			write(persist.OpWriteOperand, 0, 96+uint64(rng.Intn(4000)))
		default:
			m, n := 64+uint64(rng.Intn(32)), 64+uint64(rng.Intn(32))
			if _, err := d.Bitwise(latch.OpXor, m, n, SchemeReAlloc, 0); err != nil {
				t.Fatalf("bitwise %d^%d: %v", m, n, err)
			}
		}
		if st, _ = d.PersistStats(); st.Snapshots == rotations {
			continue
		}
		rotations = st.Snapshots
		deltas = st.Snapshots - st.FullSnapshots
		m := mountChain(t, dir)
		gotFTL, gotPlain := ftlAndPlain(t, m)
		wantFTL, wantPlain := ftlAndPlain(t, d)
		if !bytes.Equal(gotFTL, wantFTL) || !bytes.Equal(gotPlain, wantPlain) {
			_, files := chainFiles(t, dir)
			t.Fatalf("rotation %d: FTL or plain set mounted from chain %v differs from the live device", rotations, files)
		}
	}
	if gc := d.FTL().Stats().GCRuns; gc == 0 || deltas == 0 || d.Stats().Reallocations == 0 {
		t.Fatalf("%d GC runs, %d deltas, %d reallocations: the run must collect, chain deltas and reallocate",
			gc, deltas, d.Stats().Reallocations)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}
