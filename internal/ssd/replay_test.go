package ssd

import (
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parabit/internal/persist"
)

var updateJournal = flag.Bool("update-journal", false, "rebuild testdata/journal and testdata/journal.golden from the current device")

const (
	journalDir    = "testdata/journal"
	journalGolden = "testdata/journal.golden"
)

// buildJournal writes one journaled record of every write op — the
// retired lsb-pair op included — into a fresh TLC store in dir and
// crashes it, so the directory holds the journal uncompacted. Two
// overwrites flip pages between the scrambled and plain paths. The
// checked-in testdata/journal predates reallocations that trim their own
// pages: it also holds an OpReclaimInternal, which replay must still
// decode and apply as a no-op, so rebuild it only to retire that record.
func buildJournal(t *testing.T, dir string) {
	t.Helper()
	d, err := Create(dir, SmallTLCConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	p := func(seed int64) []byte { return randPage(d, seed) }
	steps := []func() (err error){
		func() error { _, err := d.WritePages(persist.OpWrite, 0, []uint64{0}, [][]byte{p(1)}, 0); return err },
		func() error { _, err := d.WriteOperand(1, p(2), 0); return err },
		func() error {
			_, err := d.WritePages(persist.OpWritePair, 0, []uint64{2, 3}, [][]byte{p(3), p(4)}, 0)
			return err
		},
		func() error {
			_, err := d.WritePages(persist.OpWriteLSBPair, 0, []uint64{4, 5}, [][]byte{p(5), p(6)}, 0)
			return err
		},
		func() error {
			_, err := d.WriteOperandLSBGroup([]uint64{6, 7, 8}, [][]byte{p(7), p(8), p(9)}, 0)
			return err
		},
		func() error {
			_, err := d.WritePages(persist.OpWriteMWSGroup, 0, []uint64{9, 10}, [][]byte{p(10), p(11)}, 0)
			return err
		},
		func() error {
			_, err := d.WritePages(persist.OpWriteOnPlane, 1, []uint64{11}, [][]byte{p(12)}, 0)
			return err
		},
		func() error {
			_, err := d.WritePages(persist.OpWriteTriple, 0, []uint64{12, 13, 14}, [][]byte{p(13), p(14), p(15)}, 0)
			return err
		},
		func() error { _, err := d.WriteOperand(0, p(16), 0); return err },
		func() error { _, err := d.WritePages(persist.OpWrite, 0, []uint64{1}, [][]byte{p(17)}, 0); return err },
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	d.Crash()
}

// renderReplay mounts a copy of the checked-in journal and renders what
// replay rebuilt: every LPN's physical page and content checksum, the
// plain (unscrambled) set and the FTL counters.
func renderReplay(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	entries, err := os.ReadDir(journalDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(journalDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	d, info, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	var b strings.Builder
	fmt.Fprintf(&b, "replayed %d skipped %d torn %d\n", info.ReplayedRecords, info.SkippedIntents, info.TornBytes)
	geo := d.Config().Geometry
	for lpn := uint64(0); lpn < 15; lpn++ {
		addr, ok := d.FTL().Lookup(lpn)
		data, _, err := d.Read(lpn, 0)
		if !ok || err != nil {
			fmt.Fprintf(&b, "lpn %d unmapped (%v)\n", lpn, err)
			continue
		}
		fmt.Fprintf(&b, "lpn %d ppn %d crc %08x\n", lpn, geo.PPN(addr), crc32.ChecksumIEEE(data))
	}
	plains := make([]uint64, 0, d.plain.n)
	d.plain.each(func(lpn uint64) { plains = append(plains, lpn) })
	fmt.Fprintf(&b, "plain %v\nftl %+v\n", plains, d.FTL().Stats())
	return b.String()
}

// TestJournalReplayGolden mounts a journal holding one record of every
// op (testdata/journal) and requires replay to rebuild the same page
// contents, L2P map, plain set and counters as testdata/journal.golden.
// Regenerate both with: go test ./internal/ssd -run TestJournalReplayGolden -update-journal
func TestJournalReplayGolden(t *testing.T) {
	if *updateJournal {
		if err := os.RemoveAll(journalDir); err != nil {
			t.Fatal(err)
		}
		buildJournal(t, journalDir)
		if err := os.WriteFile(journalGolden, []byte(renderReplay(t)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(journalGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderReplay(t); got != string(want) {
		t.Fatalf("journal replay drifted from %s:\n got\n%s\n want\n%s", journalGolden, got, want)
	}
}
