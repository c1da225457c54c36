package ssd

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"parabit/internal/persist"
)

var updateOnDisk = flag.Bool("update-ondisk", false, "rewrite testdata/ondisk.golden from the current encoders")

const onDiskGolden = "testdata/ondisk.golden"

// onDiskOverwrites is how many single-page overwrites buildOnDisk pins to
// plane 1 before its tail of one record per op. It is a multiple of the
// default rotation length, so the tail lands in a fresh journal, large
// enough to fill the plane and run garbage collection, and two rotations
// past a full image, so the last epoch's chain holds two deltas.
const onDiskOverwrites = 28 * persist.DefaultSnapshotEvery

// buildOnDisk drives a TLC Small device (the Small geometry with three
// pages per wordline, so the triple op can run) through a fixed
// sequence under the default rotation length: onDiskOverwrites
// overwrites of eight LPNs on one plane, which rotates the store many
// times and forces GC, then one journaled record of every write op. It
// crashes the device so the last epoch's snapshot and journal stay on
// disk as written.
func buildOnDisk(t *testing.T, dir string) {
	t.Helper()
	d, err := Create(dir, SmallTLCConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	p := func(seed int64) []byte { return randPage(d, seed) }
	for i := 0; i < onDiskOverwrites; i++ {
		lpn := uint64(100 + i%8)
		if _, err := d.WritePages(persist.OpWriteOnPlane, 1, []uint64{lpn}, [][]byte{p(int64(1000 + i))}, 0); err != nil {
			t.Fatalf("overwrite %d: %v", i, err)
		}
	}
	if d.FTL().Stats().GCRuns == 0 {
		t.Fatal("overwrites did not run GC; raise onDiskOverwrites")
	}
	tail := []struct {
		op     persist.Op
		plane  int
		lpns   []uint64
		nPages int
	}{
		{persist.OpWrite, 0, []uint64{0}, 1},
		{persist.OpWriteOperand, 0, []uint64{1}, 1},
		{persist.OpWritePair, 0, []uint64{2, 3}, 2},
		{persist.OpWriteLSBPair, 0, []uint64{4, 5}, 2},
		{persist.OpWriteLSBGroup, 0, []uint64{6, 7, 8}, 3},
		{persist.OpWriteMWSGroup, 0, []uint64{9, 10}, 2},
		{persist.OpWriteOnPlane, 3, []uint64{11}, 1},
		{persist.OpWriteTriple, 0, []uint64{12, 13, 14}, 3},
	}
	seed := int64(1)
	for _, w := range tail {
		pages := make([][]byte, w.nPages)
		for i := range pages {
			pages[i] = p(seed)
			seed++
		}
		if _, err := d.WritePages(w.op, w.plane, w.lpns, pages, 0); err != nil {
			t.Fatalf("%s: %v", w.op, err)
		}
	}
	d.Crash()
}

// chainFiles returns the epoch CURRENT names and the snapshot files of
// its chain, newest first: each PBSNAP2 file names its parent epoch in
// the eight bytes after its magic, and 0 ends the chain at a full image.
func chainFiles(t *testing.T, dir string) (string, []string) {
	t.Helper()
	cur, err := os.ReadFile(filepath.Join(dir, "CURRENT"))
	if err != nil {
		t.Fatal(err)
	}
	epoch := strings.TrimSpace(string(cur))
	var files []string
	for e := epoch; e != "0"; {
		name := "snap-" + e + ".bin"
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) < 16 || string(raw[:8]) != "PBSNAP2\n" {
			t.Fatalf("%s is not a PBSNAP2 file", name)
		}
		files = append(files, name)
		e = strconv.FormatUint(binary.LittleEndian.Uint64(raw[8:16]), 10)
	}
	return epoch, files
}

// segmentFiles returns the journal segments dir keeps besides the
// current epoch's journal, oldest first.
func segmentFiles(t *testing.T, dir, epoch string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var epochs []uint64
	for _, e := range entries {
		num, ok := strings.CutPrefix(e.Name(), "journal-")
		if num, found := strings.CutSuffix(num, ".log"); ok && found && num != epoch {
			n, err := strconv.ParseUint(num, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			epochs = append(epochs, n)
		}
	}
	slices.Sort(epochs)
	var names []string
	for _, n := range epochs {
		names = append(names, "journal-"+strconv.FormatUint(n, 10)+".log")
	}
	return names
}

// renderOnDisk names the SHA-256 and length of CURRENT, every snapshot
// file of the current chain (newest first), the current journal and the
// segments kept beside it (oldest first).
func renderOnDisk(t *testing.T, dir string) string {
	t.Helper()
	epoch, snaps := chainFiles(t, dir)
	var b strings.Builder
	names := append(append([]string{"CURRENT"}, snaps...), "journal-"+epoch+".log")
	names = append(names, segmentFiles(t, dir, epoch)...)
	for _, name := range names {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %d %x\n", name, len(raw), sha256.Sum256(raw))
	}
	return b.String()
}

// TestOnDiskBytesGolden pins the exact bytes the store writes: the
// snapshot chain, journal and segments of the last epoch of buildOnDisk
// must hash to testdata/ondisk.golden. Any change to snapshot encoding, journal
// framing or rotation points shows up here.
// Regenerate with: go test ./internal/ssd -run TestOnDiskBytesGolden -update-ondisk
func TestOnDiskBytesGolden(t *testing.T) {
	dir := t.TempDir()
	buildOnDisk(t, dir)
	got := renderOnDisk(t, dir)
	if *updateOnDisk {
		if err := os.WriteFile(onDiskGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(onDiskGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("on-disk bytes drifted from %s:\n got\n%s\n want\n%s", onDiskGolden, got, want)
	}
}
