package ssd

import (
	"bytes"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateJournal = flag.Bool("update-journal", false, "rewrite testdata/journal.golden from the current replay of testdata/journal")

const (
	journalDir    = "testdata/journal"
	journalGolden = "testdata/journal.golden"
)

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

// TestJournalReplayGolden mounts testdata/journal and requires replay to
// rebuild the page contents, L2P map, plain set and counters of
// testdata/journal.golden. The store is a frozen fixture that the current
// device cannot write: its snapshot is a PBSNAP1 file, and its journal
// holds one record of every write op (the retired lsb-pair op included)
// and an OpReclaimInternal, which replay must still decode and apply as a
// no-op, 11 records in all. Regenerate the golden only with:
// go test ./internal/ssd -run TestJournalReplayGolden -update-journal
func TestJournalReplayGolden(t *testing.T) {
	snap, err := os.ReadFile(filepath.Join(journalDir, "snap-1.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(snap, []byte("PBSNAP1\n")) {
		t.Fatalf("%s/snap-1.bin starts %q, want the PBSNAP1 framing", journalDir, snap[:min(len(snap), 8)])
	}
	got := renderReplay(t)
	if !strings.HasPrefix(got, "replayed 11 ") {
		t.Fatalf("%s no longer replays 11 records: %.40s", journalDir, got)
	}
	if *updateJournal {
		if err := os.WriteFile(journalGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(journalGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("journal replay drifted from %s:\n got\n%s\n want\n%s", journalGolden, got, want)
	}
}
