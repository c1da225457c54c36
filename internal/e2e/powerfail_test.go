package e2e

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"parabit"
	"parabit/internal/flash"
	"parabit/internal/ftl"
)

// cutPlan builds a fault plan with one power-cut rule.
func cutPlan(point string, afterN int) string {
	return fmt.Sprintf(`{"seed": 7, "rules": [{"type": "power-cut", "point": %q, "after_n": %d}]}`,
		point, afterN)
}

// isPowerCut matches both surfaces of an injected cut: the journal
// boundary error and the flash-level fault a mid-program cut raises.
func isPowerCut(err error) bool {
	return errors.Is(err, parabit.ErrPowerCut) || flash.IsPowerCut(err)
}

// TestPowerFailMatrix is the crash-consistency matrix: for every
// injectable cut point, concurrent clients write fresh pages, overwrite
// their own base pages and query pre-cut operand pairs while the plan
// kills the device mid-traffic. Half the writes are operand pages, which
// snapshots name by reference into the journal segments rotations keep;
// the scrambled half leaves segments below half referenced, so rotations
// retire them, and the last case cuts power at a pre-snapshot boundary
// after segments have retired. After the remount, every acknowledged
// write must read back byte-identical, every unacknowledged fresh write
// must fail explicitly (never stale or partial data), unacknowledged
// overwrites must still show the pre-crash bytes, and the FTL must
// audit clean. Runs under -race: the acked ledger and the device are
// shared across clients.
func TestPowerFailMatrix(t *testing.T) {
	cases := []struct {
		point  string
		afterN int
	}{
		{"pre-journal", 9},
		{"post-journal", 9},
		{"mid-program", 30},
		{"pre-snapshot", 1},
		{"pre-snapshot", 6},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s-%d", tc.point, tc.afterN), func(t *testing.T) {
			dir := t.TempDir()
			plan := cutPlan(tc.point, tc.afterN)
			t.Logf("dir=%s plan=%s", dir, plan)
			d, err := parabit.NewDevice(parabit.WithSmallGeometry(),
				parabit.WithPersistence(dir), parabit.WithSnapshotEvery(6))
			if err != nil {
				t.Fatal(err)
			}

			// Pre-plan state, all acknowledged before the cut can fire:
			// per-client base pages plus one shared operand pair for the
			// query traffic.
			const clients = 4
			const basePerClient = 4
			type ledger struct {
				sync.Mutex
				pages map[uint64][]byte // lpn -> last ACKED content
			}
			led := &ledger{pages: map[uint64][]byte{}}
			pageFor := func(seed int64) []byte {
				p := make([]byte, d.PageSize())
				rand.New(rand.NewSource(seed)).Read(p)
				return p
			}
			for c := 0; c < clients; c++ {
				for i := 0; i < basePerClient; i++ {
					lpn := uint64(c*100 + i)
					p := pageFor(int64(lpn))
					if err := d.Write(lpn, p); err != nil {
						t.Fatal(err)
					}
					led.pages[lpn] = p
				}
			}
			qa, qb := pageFor(9001), pageFor(9002)
			if err := d.WriteOperandPair(900, 901, qa, qb); err != nil {
				t.Fatal(err)
			}
			led.pages[900], led.pages[901] = qa, qb
			wantQuery := evalPage(parabit.And, qa, qb)

			if err := d.InstallFaultPlan([]byte(plan)); err != nil {
				t.Fatal(err)
			}

			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(1000 + c)))
					freshNext := uint64(c*100 + 50)
					// write stores a host page or, every other time, an
					// operand page.
					write := func(lpn uint64, p []byte) error {
						if rng.Intn(2) == 0 {
							return d.WriteOperand(lpn, p)
						}
						return d.Write(lpn, p)
					}
					for i := 0; i < 40; i++ {
						switch rng.Intn(3) {
						case 0: // fresh write to a never-used LPN
							lpn := freshNext
							freshNext++
							p := make([]byte, d.PageSize())
							rng.Read(p)
							err := write(lpn, p)
							if err == nil {
								led.Lock()
								led.pages[lpn] = p
								led.Unlock()
							} else if !isPowerCut(err) {
								t.Errorf("client %d fresh write: non-cut error %v", c, err)
							}
						case 1: // overwrite one of this client's base pages
							lpn := uint64(c*100 + rng.Intn(basePerClient))
							p := make([]byte, d.PageSize())
							rng.Read(p)
							err := write(lpn, p)
							if err == nil {
								led.Lock()
								led.pages[lpn] = p
								led.Unlock()
							} else if !isPowerCut(err) {
								t.Errorf("client %d overwrite: non-cut error %v", c, err)
							}
						case 2: // query traffic over the shared pre-cut pair
							r, err := d.Bitwise(parabit.And, 900, 901, parabit.PreAllocated)
							if err == nil {
								if !bytes.Equal(r.Data, wantQuery) {
									t.Errorf("client %d query: wrong bytes with nil error", c)
								}
							} else if !isPowerCut(err) {
								t.Errorf("client %d query: non-cut error %v", c, err)
							}
						}
					}
				}(c)
			}
			wg.Wait()
			d.Flush()

			fs := d.Stats().Faults
			if fs.PowerCuts == 0 {
				t.Fatalf("plan never cut the power: %+v", fs)
			}
			if ps := d.Stats().Persist; tc.afterN > 1 && tc.point == "pre-snapshot" && ps.RetiredSegments == 0 {
				t.Fatalf("no segment retired before the cut: %+v", ps)
			}
			// Crash-close: the store is dead, so Close releases the handle
			// without flushing anything the crash didn't make durable.
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}

			re, rec, err := parabit.Open(dir)
			if err != nil {
				t.Fatalf("remount: %v", err)
			}
			t.Logf("recovery: %+v", rec)
			if err := re.CheckInvariants(); err != nil {
				t.Errorf("post-recovery FTL audit: %v", err)
			}
			led.Lock()
			defer led.Unlock()
			for lpn, want := range led.pages {
				got, err := re.Read(lpn)
				if err != nil {
					t.Errorf("acked lpn %d lost after %s cut: %v", lpn, tc.point, err)
					continue
				}
				if !bytes.Equal(got, want) {
					t.Errorf("acked lpn %d differs after %s cut", lpn, tc.point)
				}
			}
			// Every fresh LPN that was never acknowledged must fail
			// explicitly — recovery must not invent mappings.
			for c := 0; c < clients; c++ {
				for lpn := uint64(c*100 + 50); lpn < uint64(c*100+90); lpn++ {
					if _, acked := led.pages[lpn]; acked {
						continue
					}
					if _, err := re.Read(lpn); !errors.Is(err, ftl.ErrUnmapped) {
						t.Errorf("unacked lpn %d after %s cut: %v, want ErrUnmapped", lpn, tc.point, err)
					}
				}
			}
			// The pre-cut pair still computes on the remounted device.
			r, err := re.Bitwise(parabit.And, 900, 901, parabit.PreAllocated)
			if err != nil || !bytes.Equal(r.Data, wantQuery) {
				t.Errorf("pre-cut operand pair broken after remount: %v", err)
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPowerFailTornTail hand-truncates the journal mid-frame — the
// bytes a real power cut tears — and requires the remount to truncate,
// not reject: every surviving record reads back exactly, the clipped
// record's write disappears into an explicit unmapped error, and
// nothing reads as garbage.
func TestPowerFailTornTail(t *testing.T) {
	dir := t.TempDir()
	d, err := parabit.NewDevice(parabit.WithSmallGeometry(), parabit.WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}
	pages := map[uint64][]byte{}
	for lpn := uint64(0); lpn < 8; lpn++ {
		p := make([]byte, d.PageSize())
		rand.New(rand.NewSource(int64(lpn))).Read(p)
		if err := d.Write(lpn, p); err != nil {
			t.Fatal(err)
		}
		pages[lpn] = p
	}
	// Kill the device at the next journal boundary so Close behaves like
	// a crash (a graceful close would compact the journal away), then
	// tear the journal tail by hand.
	if err := d.InstallFaultPlan([]byte(cutPlan("pre-journal", 1))); err != nil {
		t.Fatal(err)
	}
	if err := d.Write(99, make([]byte, d.PageSize())); !isPowerCut(err) {
		t.Fatalf("write after cut plan: %v, want power cut", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	cur, err := os.ReadFile(filepath.Join(dir, "CURRENT"))
	if err != nil {
		t.Fatal(err)
	}
	jpath := filepath.Join(dir, "journal-"+strings.TrimSpace(string(cur))+".log")
	raw, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 16 {
		t.Fatalf("journal unexpectedly small: %d bytes", len(raw))
	}
	if err := os.WriteFile(jpath, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	re, rec, err := parabit.Open(dir)
	if err != nil {
		t.Fatalf("torn tail must not be fatal: %v", err)
	}
	if rec.TornBytes == 0 {
		t.Fatalf("no torn bytes reported: %+v", rec)
	}
	if err := re.CheckInvariants(); err != nil {
		t.Errorf("FTL audit after torn-tail mount: %v", err)
	}
	for lpn, want := range pages {
		got, err := re.Read(lpn)
		if err != nil {
			// The record the truncation clipped is allowed to be gone —
			// but only as an explicit unmapped error.
			if !errors.Is(err, ftl.ErrUnmapped) {
				t.Errorf("lpn %d: %v, want data or ErrUnmapped", lpn, err)
			}
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("lpn %d reads garbage after torn-tail mount", lpn)
		}
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPowerFailDeterministicReplay runs the identical scripted workload
// against the identical cut plan twice, crashing and remounting both
// times, and requires the two runs to be indistinguishable: identical
// fault counters, byte-identical metrics exports on both sides of the
// crash, identical recovery summaries and an identical digest of every
// post-recovery page. This is what makes a power-fail failure report
// reproducible from its plan and seed.
func TestPowerFailDeterministicReplay(t *testing.T) {
	const lpns = 24
	run := func(dir string) (st parabit.Stats, preMetrics string, rec parabit.Recovery, postMetrics, digest string) {
		d, err := parabit.NewDevice(parabit.WithSmallGeometry(),
			parabit.WithPersistence(dir), parabit.WithSnapshotEvery(5))
		if err != nil {
			t.Fatal(err)
		}
		d.EnableTelemetry(false)
		if err := d.InstallFaultPlan([]byte(cutPlan("post-journal", 17))); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(4242))
		for i := 0; i < 60; i++ {
			p := make([]byte, d.PageSize())
			rng.Read(p)
			if err := d.Write(uint64(i%lpns), p); err != nil && !isPowerCut(err) {
				t.Fatalf("scripted write %d: %v", i, err)
			}
		}
		d.Flush()
		st = d.Stats()
		if st.Faults.PowerCuts == 0 {
			t.Fatal("scripted run never cut the power")
		}
		var buf bytes.Buffer
		d.WriteMetrics(&buf)
		preMetrics = buf.String()
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}

		re, rec, err := parabit.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		re.EnableTelemetry(false)
		h := sha256.New()
		for lpn := uint64(0); lpn < lpns; lpn++ {
			got, err := re.Read(lpn)
			if err != nil {
				fmt.Fprintf(h, "%d:err:%v\n", lpn, errors.Is(err, ftl.ErrUnmapped))
				continue
			}
			fmt.Fprintf(h, "%d:", lpn)
			h.Write(got)
			fmt.Fprintln(h)
		}
		if err := re.CheckInvariants(); err != nil {
			t.Errorf("post-recovery audit: %v", err)
		}
		buf.Reset()
		re.WriteMetrics(&buf)
		postMetrics = buf.String()
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
		return st, preMetrics, rec, postMetrics, fmt.Sprintf("%x", h.Sum(nil))
	}

	f1, m1, r1, pm1, d1 := run(t.TempDir())
	f2, m2, r2, pm2, d2 := run(t.TempDir())
	if f1 != f2 {
		t.Errorf("counters diverged:\n%+v\n%+v", f1, f2)
	}
	if r1 != r2 {
		t.Errorf("recovery summaries diverged:\n%+v\n%+v", r1, r2)
	}
	if d1 != d2 {
		t.Errorf("post-recovery page digests diverged: %s vs %s", d1, d2)
	}
	if m1 != m2 {
		t.Errorf("pre-crash metrics diverged (first difference at byte %d)", diffAt(m1, m2))
	}
	if pm1 != pm2 {
		t.Errorf("post-recovery metrics diverged (first difference at byte %d)", diffAt(pm1, pm2))
	}
}

// diffAt returns the index of the first differing byte, for error
// messages that would otherwise dump two full metric exports.
func diffAt(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
