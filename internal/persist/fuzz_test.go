package persist_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"parabit/internal/persist"
	"parabit/internal/ssd"
)

// buildSeedJournal runs a real device through every journaled layout and
// crashes it, returning the raw journal bytes plus the Create-time
// snapshot and CURRENT files the fuzz harness replants per iteration.
func buildSeedJournal(f *testing.F) (journal, snapshot, current []byte) {
	dir := f.TempDir()
	d, err := ssd.Create(dir, ssd.SmallConfig(), 0)
	if err != nil {
		f.Fatal(err)
	}
	page := func(seed byte) []byte {
		p := make([]byte, d.PageSize())
		for i := range p {
			p[i] = seed + byte(i)
		}
		return p
	}
	if _, err := d.WritePages(persist.OpWrite, 0, []uint64{0}, [][]byte{page(1)}, 0); err != nil {
		f.Fatal(err)
	}
	if _, err := d.WriteOperand(1, page(2), 0); err != nil {
		f.Fatal(err)
	}
	if _, err := d.WritePages(persist.OpWritePair, 0, []uint64{2, 3}, [][]byte{page(3), page(4)}, 0); err != nil {
		f.Fatal(err)
	}
	if _, err := d.WriteOperandLSBGroup([]uint64{4, 5}, [][]byte{page(5), page(6)}, 0); err != nil {
		f.Fatal(err)
	}
	if _, err := d.WritePages(persist.OpWriteMWSGroup, 0, []uint64{6, 7}, [][]byte{page(7), page(8)}, 0); err != nil {
		f.Fatal(err)
	}
	if _, err := d.WritePages(persist.OpWriteOnPlane, 1, []uint64{8}, [][]byte{page(9)}, 0); err != nil {
		f.Fatal(err)
	}
	d.Crash()
	journal, err = os.ReadFile(filepath.Join(dir, "journal-1.log"))
	if err != nil {
		f.Fatal(err)
	}
	snapshot, err = os.ReadFile(filepath.Join(dir, "snap-1.bin"))
	if err != nil {
		f.Fatal(err)
	}
	current, err = os.ReadFile(filepath.Join(dir, "CURRENT"))
	if err != nil {
		f.Fatal(err)
	}
	return journal, snapshot, current
}

// FuzzJournalReplay feeds arbitrary bytes to the mount path as the
// journal of an otherwise-valid store. The contract under mutation is
// recover-or-reject: ssd.Open must never panic, and when it succeeds
// the recovered device must agree exactly with an independent golden
// model built from persist.ScanJournal over the same bytes — committed
// entries applied last-write-wins, nothing else. A semantically corrupt
// journal must fail the mount; it must never produce a silently
// different mapping.
func FuzzJournalReplay(f *testing.F) {
	valid, snapshot, current := buildSeedJournal(f)

	f.Add(valid)
	f.Add([]byte{})
	for _, cut := range []int{1, 7, 8, 20, len(valid) / 2, len(valid) - 3} {
		if cut >= 0 && cut < len(valid) {
			f.Add(valid[:cut])
		}
	}
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/3] ^= 0x80
	f.Add(flipped)
	f.Add(append(bytes.Clone(valid), valid...))         // replayed seqs repeat: corrupt
	f.Add(append(bytes.Clone(valid), 0xde, 0xad, 0xbe)) // torn tail

	f.Fuzz(func(t *testing.T, journal []byte) {
		dir := t.TempDir()
		for name, b := range map[string][]byte{
			"CURRENT": current, "snap-1.bin": snapshot, "journal-1.log": journal,
		} {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		entries, used, scanErr := persist.ScanJournal(journal)
		d, info, err := ssd.Open(dir, 0)
		if scanErr != nil {
			if err == nil {
				d.Crash()
				t.Fatalf("scan rejects journal (%v) but mount succeeded", scanErr)
			}
			return
		}
		if err != nil {
			// Replay-time rejection (impossible LPN, wrong page size,
			// wrong geometry for the op) is a legal outcome for mutated
			// bytes; silent acceptance is what the golden check below
			// guards against.
			return
		}
		defer d.Crash()
		if torn := int64(len(journal)) - used; info.TornBytes != torn {
			t.Fatalf("mount reports %d torn bytes, scan says %d", info.TornBytes, torn)
		}
		golden := map[uint64][]byte{}
		committed := 0
		for _, e := range entries {
			if !e.Committed {
				continue
			}
			committed++
			for i, lpn := range e.Record.LPNs {
				golden[lpn] = e.Record.Pages[i]
			}
		}
		if int(info.ReplayedRecords) != committed {
			t.Fatalf("mount replayed %d records, golden model has %d", info.ReplayedRecords, committed)
		}
		for lpn, want := range golden {
			got, _, err := d.Read(lpn, 0)
			if err != nil {
				t.Fatalf("lpn %d committed in journal but unreadable: %v", lpn, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("lpn %d disagrees with golden model after replay", lpn)
			}
		}
		if err := d.FTL().CheckInvariants(); err != nil {
			t.Fatalf("recovered FTL fails audit: %v", err)
		}
	})
}
