package sched

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"parabit/internal/ftl"
	"parabit/internal/latch"
	"parabit/internal/persist"
	"parabit/internal/sim"
	"parabit/internal/ssd"
)

func newSched(t *testing.T) (*Scheduler, *ssd.Device) {
	t.Helper()
	dev, err := ssd.New(ssd.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	return New(dev), dev
}

func pageOf(dev *ssd.Device, seed byte) []byte {
	b := make([]byte, dev.PageSize())
	for i := range b {
		b[i] = seed ^ byte(i*7)
	}
	return b
}

// TestSequentialMatchesBareDevice pins the scheduler's sequential
// semantics to the raw device: one command per batch must observe exactly
// the virtual times and data the unwrapped device reports.
func TestSequentialMatchesBareDevice(t *testing.T) {
	s, _ := newSched(t)
	bare, err := ssd.New(ssd.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, n := pageOf(bare, 3), pageOf(bare, 5)

	wantDone, err := bare.WritePages(persist.OpWritePair, 0, []uint64{0, 1}, [][]byte{m, n}, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := s.Submit(Command{Kind: KindWritePair, LPNs: []uint64{0, 1}, Pages: [][]byte{m, n}}).Wait()
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Done != wantDone {
		t.Fatalf("scheduled pair write done at %v, bare device at %v", r.Done, wantDone)
	}

	bw, err := bare.Bitwise(latch.OpXor, 0, 1, ssd.SchemePreAlloc, wantDone)
	if err != nil {
		t.Fatal(err)
	}
	r = s.Submit(Command{Kind: KindBitwise, LPNs: []uint64{0, 1}, Op: latch.OpXor, Scheme: ssd.SchemePreAlloc}).Wait()
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Done != bw.Done {
		t.Fatalf("scheduled XOR done at %v, bare device at %v", r.Done, bw.Done)
	}
	if !bytes.Equal(r.Data, bw.Data) {
		t.Fatal("scheduled XOR data differs from bare device")
	}
}

// TestBatchSharesIssueInstant proves the parallelism contract: commands
// queued together issue at one instant, so independent per-plane
// operations overlap instead of serializing, and the batch horizon is the
// max — not the sum — of their latencies.
func TestBatchSharesIssueInstant(t *testing.T) {
	s, dev := newSched(t)
	// Pairs stripe round-robin, so the first four land on distinct planes.
	const pairs = 4
	for i := 0; i < pairs; i++ {
		r := s.Submit(Command{
			Kind:  KindWritePair,
			LPNs:  []uint64{uint64(2 * i), uint64(2*i + 1)},
			Pages: [][]byte{pageOf(dev, byte(i)), pageOf(dev, byte(i+9))},
		}).Wait()
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	// Measure a lone AND's service time.
	lone := s.Submit(Command{Kind: KindBitwise, LPNs: []uint64{0, 1}, Op: latch.OpAnd, Scheme: ssd.SchemePreAlloc}).Wait()
	if lone.Err != nil {
		t.Fatal(lone.Err)
	}
	service := lone.Done.Sub(lone.Start)

	// Queue one AND per plane, then wait: one batch.
	tickets := make([]*Ticket, pairs)
	for i := range tickets {
		tickets[i] = s.Submit(Command{
			Kind: KindBitwise, LPNs: []uint64{uint64(2 * i), uint64(2*i + 1)},
			Op: latch.OpAnd, Scheme: ssd.SchemePreAlloc,
		})
	}
	first := tickets[0].Wait()
	for i, tk := range tickets {
		r := tk.Wait()
		if r.Err != nil {
			t.Fatalf("batched AND %d: %v", i, r.Err)
		}
		if r.Start != first.Start {
			t.Fatalf("batched AND %d issued at %v, batch issued at %v", i, r.Start, first.Start)
		}
		if got := r.Done.Sub(r.Start); got != service {
			t.Fatalf("batched AND %d took %v, lone AND took %v: planes did not overlap", i, got, service)
		}
	}
	st := s.Stats()
	if st.MaxBatch < pairs {
		t.Fatalf("max batch %d, want >= %d", st.MaxBatch, pairs)
	}
	if u := st.Utilization(); u <= 0 {
		t.Fatalf("utilization %v after overlapped batch", u)
	}
}

// TestBatchReadWaitsForItsWrite submits a write and a read of one LPN in
// one batch. Transfers for other planes crowd the write's channel first,
// so its program starts late while its plane idles: the read, issued at
// the same instant, would fit its sense into that gap if the plane did
// not wait for the block's program to end.
func TestBatchReadWaitsForItsWrite(t *testing.T) {
	s, dev := newSched(t)
	geo := dev.Array().Geometry()
	const target = 0
	type booking struct {
		label      string
		start, end sim.Time
	}
	var spans []booking
	dev.Array().InstrumentResources(func(name string) sim.ReserveObserver {
		if name != fmt.Sprintf("plane-%d", target) {
			return nil
		}
		return func(label string, start, end sim.Time) {
			spans = append(spans, booking{label, start, end})
		}
	})
	// Another plane on the write's channel takes enough pages that their
	// transfers outlast one sense.
	crowd := target + 1
	if geo.PlaneAt(crowd).Channel != geo.PlaneAt(target).Channel {
		t.Fatal("planes 0 and 1 do not share a channel")
	}
	for i := 0; i < 64; i++ {
		s.Submit(Command{Kind: KindWriteOnPlane, Plane: crowd, LPN: uint64(100 + i), Data: pageOf(dev, byte(i))})
	}
	w := s.Submit(Command{Kind: KindWriteOnPlane, Plane: target, LPN: 7, Data: pageOf(dev, 7)})
	r := s.Submit(Command{Kind: KindRead, LPN: 7})
	rr, wr := r.Wait(), w.Wait()
	if rr.Err != nil || wr.Err != nil {
		t.Fatalf("write: %v, read: %v", wr.Err, rr.Err)
	}
	if rr.Start != wr.Start {
		t.Fatalf("read issued at %v, write at %v: not one batch", rr.Start, wr.Start)
	}
	var programEnd sim.Time
	senses := 0
	for _, sp := range spans {
		switch sp.label {
		case "program":
			programEnd = sp.end
		case "sense":
			senses++
			if programEnd == 0 || sp.start < programEnd {
				t.Fatalf("read sensed at %v, before the write's program ended (%v); plane bookings %v", sp.start, programEnd, spans)
			}
		}
	}
	if senses != 1 || programEnd != wr.Done {
		t.Fatalf("plane %d booked %d senses and a program ending at %v (write done %v): %v", target, senses, programEnd, wr.Done, spans)
	}
	if !bytes.Equal(rr.Data, pageOf(dev, 7)) {
		t.Fatal("read returned other data than the batch wrote")
	}
}

// TestFlushDrains checks Flush executes queued commands without a Wait.
func TestFlushDrains(t *testing.T) {
	s, dev := newSched(t)
	tk := s.Submit(Command{Kind: KindWriteOperand, LPN: 7, Data: pageOf(dev, 1)})
	if done := s.Stats().Completed(); done != 0 {
		t.Fatalf("command ran before any Wait/Flush: %d completed", done)
	}
	horizon := s.Flush()
	if horizon <= 0 {
		t.Fatal("flush did not advance the clock past a program")
	}
	st := s.Stats()
	if st.Completed() != 1 || st.Submitted() != 1 {
		t.Fatalf("after flush: %d/%d completed", st.Completed(), st.Submitted())
	}
	if r := tk.Wait(); r.Err != nil || r.Done != horizon {
		t.Fatalf("flushed ticket: err=%v done=%v horizon=%v", r.Err, r.Done, horizon)
	}
	if s.Now() != horizon {
		t.Fatalf("cursor %v, want %v", s.Now(), horizon)
	}
}

// TestBarrierCompletesWithBatch checks the no-op barrier kind: waiting on
// it drains everything queued before it.
func TestBarrierCompletesWithBatch(t *testing.T) {
	s, dev := newSched(t)
	w := s.Submit(Command{Kind: KindWrite, LPN: 3, Data: pageOf(dev, 2)})
	b := s.Submit(Command{Kind: KindBarrier})
	if r := b.Wait(); r.Err != nil {
		t.Fatal(r.Err)
	}
	if !w.done.Load() {
		t.Fatal("barrier wait did not drain the preceding write")
	}
}

// TestErrorsAreIsolated checks a failing command reports through its own
// ticket without wedging the queue or the clock.
func TestErrorsAreIsolated(t *testing.T) {
	s, dev := newSched(t)
	bad := s.Submit(Command{Kind: KindRead, LPN: 40}) // never written
	good := s.Submit(Command{Kind: KindWriteOperand, LPN: 4, Data: pageOf(dev, 4)})
	if r := bad.Wait(); !errors.Is(r.Err, ftl.ErrUnmapped) {
		t.Fatalf("unmapped read: %v", r.Err)
	}
	if r := good.Wait(); r.Err != nil {
		t.Fatal(r.Err)
	}
	st := s.Stats()
	if st.Queues[KindRead].Errors != 1 {
		t.Fatalf("read queue errors = %d, want 1", st.Queues[KindRead].Errors)
	}
	if st.Queues[KindWriteOperand].Errors != 0 {
		t.Fatalf("write queue errors = %d, want 0", st.Queues[KindWriteOperand].Errors)
	}
}

// TestShortOperandListFailsItsTicket pins that a pairwise or triple
// command with too few LPNs fails on its own ticket with
// ssd.ErrNeedOperands, and the valid command batched beside it still
// completes.
func TestShortOperandListFailsItsTicket(t *testing.T) {
	for _, kind := range []Kind{KindBitwise, KindBitwiseTriple} {
		s, dev := newSched(t)
		if r := s.Submit(Command{Kind: KindWriteOperand, LPN: 4, Data: pageOf(dev, 4)}).Wait(); r.Err != nil {
			t.Fatal(r.Err)
		}
		bad := s.Submit(Command{Kind: kind, Op: latch.OpAnd, LPNs: []uint64{4}, Scheme: ssd.SchemeReAlloc})
		good := s.Submit(Command{Kind: KindRead, LPN: 4})
		if r := bad.Wait(); !errors.Is(r.Err, ssd.ErrNeedOperands) {
			t.Fatalf("%v with one LPN: err = %v, want ErrNeedOperands", kind, r.Err)
		}
		if r := good.Wait(); r.Err != nil || !bytes.Equal(r.Data, pageOf(dev, 4)) {
			t.Fatalf("read batched beside a short %v: err %v", kind, r.Err)
		}
		if st := s.Stats(); st.Queues[kind].Errors != 1 {
			t.Fatalf("%v queue errors = %d, want 1", kind, st.Queues[kind].Errors)
		}
	}
}

// TestQueueStats checks per-kind submission accounting and depth
// high-water marks.
func TestQueueStats(t *testing.T) {
	s, dev := newSched(t)
	for i := 0; i < 3; i++ {
		s.Submit(Command{Kind: KindWriteOperand, LPN: uint64(i), Data: pageOf(dev, byte(i))})
	}
	st := s.Stats()
	if st.Queues[KindWriteOperand].Submitted != 3 {
		t.Fatalf("submitted = %d", st.Queues[KindWriteOperand].Submitted)
	}
	if st.Queues[KindWriteOperand].MaxDepth != 3 {
		t.Fatalf("max depth = %d, want 3", st.Queues[KindWriteOperand].MaxDepth)
	}
	s.Flush()
	st = s.Stats()
	if st.Queues[KindWriteOperand].Completed != 3 {
		t.Fatalf("completed = %d", st.Queues[KindWriteOperand].Completed)
	}
	if st.Batches != 1 || st.MaxBatch != 3 {
		t.Fatalf("batches=%d maxBatch=%d, want 1 and 3", st.Batches, st.MaxBatch)
	}
	if st.Queues[KindWriteOperand].Busy <= 0 {
		t.Fatal("no service time recorded")
	}
}

// TestExclusiveSeesDrainedDevice checks Exclusive's barrier property.
func TestExclusiveSeesDrainedDevice(t *testing.T) {
	s, dev := newSched(t)
	s.Submit(Command{Kind: KindWriteOperand, LPN: 9, Data: pageOf(dev, 9)})
	s.Exclusive(func(d *ssd.Device, now sim.Time) {
		if _, ok := d.FTL().Lookup(9); !ok {
			t.Error("exclusive ran before the queued write")
		}
		if now <= 0 {
			t.Error("clock did not advance past the queued write")
		}
	})
}

// TestStressConcurrentMixed hammers one device from many goroutines with
// mixed reads, writes, bitwise ops and reductions. Run under -race. It
// checks every command's data (private pages round-trip, shared-operand
// results match the byte-wise golden op) and that the FTL bookkeeping
// holds afterward.
func TestStressConcurrentMixed(t *testing.T) {
	s, dev := newSched(t)
	const (
		workers = 12
		ops     = 50
		shared  = 8 // read-only operand pages, written up front
	)
	sharedData := make([][]byte, shared)
	for i := range sharedData {
		sharedData[i] = pageOf(dev, byte(0xC0+i))
		r := s.Submit(Command{Kind: KindWriteOperand, LPN: uint64(i), Data: sharedData[i]}).Wait()
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	goldenOp := func(op latch.Op, a, b []byte) []byte {
		out := make([]byte, len(a))
		for i := range out {
			switch op {
			case latch.OpAnd:
				out[i] = a[i] & b[i]
			case latch.OpOr:
				out[i] = a[i] | b[i]
			case latch.OpXor:
				out[i] = a[i] ^ b[i]
			}
		}
		return out
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers*ops)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			// Each worker owns a private LPN range well above the shared
			// operands.
			base := uint64(1000 + 100*w)
			last := make(map[uint64][]byte)
			ops3 := []latch.Op{latch.OpAnd, latch.OpOr, latch.OpXor}
			for i := 0; i < ops; i++ {
				switch rng.Intn(5) {
				case 0, 1: // write a private page
					lpn := base + uint64(rng.Intn(20))
					data := pageOf(dev, byte(rng.Intn(256)))
					r := s.Submit(Command{Kind: KindWriteOperand, LPN: lpn, Data: data}).Wait()
					if r.Err != nil {
						errs <- fmt.Errorf("worker %d write: %w", w, r.Err)
						return
					}
					last[lpn] = data
				case 2: // read a private page back
					for lpn, want := range last {
						r := s.Submit(Command{Kind: KindRead, LPN: lpn}).Wait()
						if r.Err != nil {
							errs <- fmt.Errorf("worker %d read: %w", w, r.Err)
							return
						}
						if !bytes.Equal(r.Data, want) {
							errs <- fmt.Errorf("worker %d lpn %d: read back wrong data", w, lpn)
							return
						}
						break
					}
				case 3: // bitwise over two shared operands
					op := ops3[rng.Intn(len(ops3))]
					a, b := rng.Intn(shared), rng.Intn(shared)
					r := s.Submit(Command{
						Kind: KindBitwise, LPNs: []uint64{uint64(a), uint64(b)},
						Op: op, Scheme: ssd.SchemeReAlloc,
					}).Wait()
					if r.Err != nil {
						errs <- fmt.Errorf("worker %d bitwise: %w", w, r.Err)
						return
					}
					if !bytes.Equal(r.Data, goldenOp(op, sharedData[a], sharedData[b])) {
						errs <- fmt.Errorf("worker %d bitwise %v(%d,%d): wrong result", w, op, a, b)
						return
					}
				case 4: // reduce three shared operands
					op := ops3[rng.Intn(len(ops3))]
					a, b, c := rng.Intn(shared), rng.Intn(shared), rng.Intn(shared)
					r := s.Submit(Command{
						Kind: KindReduce, LPNs: []uint64{uint64(a), uint64(b), uint64(c)},
						Op: op, Scheme: ssd.SchemeReAlloc,
					}).Wait()
					if r.Err != nil {
						errs <- fmt.Errorf("worker %d reduce: %w", w, r.Err)
						return
					}
					want := goldenOp(op, goldenOp(op, sharedData[a], sharedData[b]), sharedData[c])
					if !bytes.Equal(r.Data, want) {
						errs <- fmt.Errorf("worker %d reduce %v: wrong result", w, op)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	s.Flush()
	st := s.Stats()
	if st.Completed() != st.Submitted() {
		t.Fatalf("completed %d of %d submitted", st.Completed(), st.Submitted())
	}
	var totalErrs int64
	for _, q := range st.Queues {
		totalErrs += q.Errors
	}
	if totalErrs != 0 {
		t.Fatalf("%d commands errored", totalErrs)
	}
	s.Exclusive(func(d *ssd.Device, _ sim.Time) {
		if err := d.FTL().CheckInvariants(); err != nil {
			t.Errorf("FTL invariants violated after stress: %v", err)
		}
	})
}

// TestSubmitCopiesBuffers checks callers can reuse payload buffers after
// Submit returns.
func TestSubmitCopiesBuffers(t *testing.T) {
	s, dev := newSched(t)
	data := pageOf(dev, 6)
	want := append([]byte(nil), data...)
	tk := s.Submit(Command{Kind: KindWriteOperand, LPN: 11, Data: data})
	for i := range data {
		data[i] = 0xFF // clobber before dispatch
	}
	if r := tk.Wait(); r.Err != nil {
		t.Fatal(r.Err)
	}
	r := s.Submit(Command{Kind: KindRead, LPN: 11}).Wait()
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if !bytes.Equal(r.Data, want) {
		t.Fatal("scheduler did not copy the payload at Submit")
	}
}

// TestUnknownKindFailsItsTicket pins that a command of unknown Kind fails
// its own ticket with ErrUnknownKind at Submit, never reaches the queue,
// and leaves the scheduler usable.
func TestUnknownKindFailsItsTicket(t *testing.T) {
	s, dev := newSched(t)
	good := s.Submit(Command{Kind: KindWriteOperand, LPN: 4, Data: pageOf(dev, 4)})
	bad := s.Submit(Command{Kind: Kind(200), LPN: 4})
	if r := bad.Wait(); !errors.Is(r.Err, ErrUnknownKind) {
		t.Fatalf("unknown kind: err = %v, want ErrUnknownKind", r.Err)
	}
	if n := s.Pending(); n != 1 {
		t.Fatalf("%d commands pending, want only the write", n)
	}
	s.Flush()
	if r := good.Wait(); r.Err != nil {
		t.Fatal(r.Err)
	}
	if st := s.Stats(); st.Submitted() != 1 || st.Completed() != 1 {
		t.Fatalf("submitted %d, completed %d, want 1 and 1", st.Submitted(), st.Completed())
	}
}

// newReduceSched returns a scheduler over a device holding one aligned
// LSB group of k operand pages at LPNs 0..k-1, and those LPNs.
func newReduceSched(tb testing.TB, k int) (*Scheduler, []uint64) {
	tb.Helper()
	dev, err := ssd.New(ssd.SmallConfig())
	if err != nil {
		tb.Fatal(err)
	}
	s := New(dev)
	lpns := make([]uint64, k)
	pages := make([][]byte, k)
	for i := range lpns {
		lpns[i] = uint64(i)
		pages[i] = pageOf(dev, byte(i))
	}
	if r := s.Submit(Command{Kind: KindWriteGroup, LPNs: lpns, Pages: pages}).Wait(); r.Err != nil {
		tb.Fatal(r.Err)
	}
	return s, lpns
}

// TestSubmitWaitAllocations pins the request path's allocations: on a
// warm device, Submit plus Wait of a location-free reduction over its LSB
// group allocates the Ticket and the caller-owned result page, nothing
// else.
func TestSubmitWaitAllocations(t *testing.T) {
	s, lpns := newReduceSched(t, 4)
	cmd := Command{Kind: KindReduce, LPNs: lpns, Op: latch.OpAnd, Scheme: ssd.SchemeLocFree}
	for i := 0; i < 4; i++ {
		if r := s.Submit(cmd).Wait(); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if r := s.Submit(cmd).Wait(); r.Err != nil {
			t.Fatal(r.Err)
		}
	})
	if allocs != 2 {
		t.Fatalf("Submit+Wait allocates %v objects, want 2 (the ticket and the result page)", allocs)
	}
}

// TestWaitAcrossGoroutines races the channel-free Wait: submitters on 8
// goroutines hand their tickets to waiters that wait on each twice,
// interleaved with Flush and Exclusive from other goroutines. Every
// result must be its own command's. Run under -race.
func TestWaitAcrossGoroutines(t *testing.T) {
	s, dev := newSched(t)
	const (
		submitters = 8
		perWorker  = 40
		operands   = 8
	)
	data := make([][]byte, operands)
	for i := range data {
		data[i] = pageOf(dev, byte(0x40+i))
		if r := s.Submit(Command{Kind: KindWriteOperand, LPN: uint64(i), Data: data[i]}).Wait(); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	type job struct {
		tk   *Ticket
		want []byte
	}
	jobs := make(chan job, submitters*perWorker)
	errs := make(chan error, 2*submitters*perWorker)
	var submit, wait sync.WaitGroup
	for w := 0; w < submitters; w++ {
		submit.Add(1)
		go func(w int) {
			defer submit.Done()
			for i := 0; i < perWorker; i++ {
				a, b := (w+i)%operands, (w*3+i)%operands
				if i%2 == 0 {
					jobs <- job{s.Submit(Command{Kind: KindRead, LPN: uint64(a)}), data[a]}
					continue
				}
				want := make([]byte, len(data[a]))
				for j := range want {
					want[j] = data[a][j] ^ data[b][j]
				}
				lpns := []uint64{uint64(a), uint64(b)}
				tk := s.Submit(Command{Kind: KindBitwise, LPNs: lpns, Op: latch.OpXor, Scheme: ssd.SchemeReAlloc})
				lpns[0], lpns[1] = 1<<40, 1<<40 // reused at once: Submit copied them
				jobs <- job{tk, want}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		wait.Add(1)
		go func() {
			defer wait.Done()
			for j := range jobs {
				for n := 0; n < 2; n++ {
					if r := j.tk.Wait(); r.Err != nil || !bytes.Equal(r.Data, j.want) {
						errs <- fmt.Errorf("wait %d: err %v, data matches %v", n, r.Err, bytes.Equal(r.Data, j.want))
					}
				}
			}
		}()
	}
	stop := make(chan struct{})
	var drain sync.WaitGroup
	drain.Add(2)
	go func() {
		defer drain.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.Flush()
			}
		}
	}()
	go func() {
		defer drain.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.Exclusive(func(*ssd.Device, sim.Time) {})
			}
		}
	}()
	submit.Wait()
	close(jobs)
	wait.Wait()
	close(stop)
	drain.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := s.Stats(); st.Completed() != st.Submitted() {
		t.Fatalf("completed %d of %d submitted", st.Completed(), st.Submitted())
	}
}

// BenchmarkSubmitWait submits a burst of 8 location-free reductions on a
// warm device and waits for them: one batch per iteration.
func BenchmarkSubmitWait(b *testing.B) {
	const burst = 8
	s, lpns := newReduceSched(b, 4)
	cmd := Command{Kind: KindReduce, LPNs: lpns, Op: latch.OpAnd, Scheme: ssd.SchemeLocFree}
	var tickets [burst]*Ticket
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range tickets {
			tickets[j] = s.Submit(cmd)
		}
		for _, tk := range tickets {
			if r := tk.Wait(); r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

// TestTripleToHostShips pins that a three-operand command honours
// ToHost: kept, its result stays in the controller buffer; shipped, the
// same page reaches the host after it is computed, through the device's
// one host-delivery path, which counts it in ResultBytes.
func TestTripleToHostShips(t *testing.T) {
	dev, err := ssd.New(ssd.SmallTLCConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := New(dev)
	lpns := []uint64{0, 1, 2}
	pages := [][]byte{pageOf(dev, 1), pageOf(dev, 2), pageOf(dev, 3)}
	if r := s.Submit(Command{Kind: KindWriteTriple, LPNs: lpns, Pages: pages}).Wait(); r.Err != nil {
		t.Fatal(r.Err)
	}
	kept := s.Submit(Command{Kind: KindBitwiseTriple, LPNs: lpns, Op3: latch.TLCNor3}).Wait()
	if kept.Err != nil {
		t.Fatal(kept.Err)
	}
	if got := s.Counters().Op.ResultBytes; kept.HostDone != 0 || got != 0 {
		t.Fatalf("kept triple: HostDone %v, %d result bytes; want 0, 0", kept.HostDone, got)
	}
	shipped := s.Submit(Command{Kind: KindBitwiseTriple, LPNs: lpns, Op3: latch.TLCNor3, ToHost: true}).Wait()
	if shipped.Err != nil {
		t.Fatal(shipped.Err)
	}
	if shipped.HostDone <= shipped.Done {
		t.Fatalf("shipped triple reached the host at %v, computed at %v", shipped.HostDone, shipped.Done)
	}
	if !bytes.Equal(shipped.Data, kept.Data) {
		t.Fatal("shipped triple differs from the kept one")
	}
	if got := s.Counters().Op.ResultBytes; got != int64(dev.PageSize()) {
		t.Fatalf("shipped triple counted %d result bytes, want %d", got, dev.PageSize())
	}
}

// TestReadToHostCountsResultBytes pins that a read shipped to the host
// goes through the same host-delivery path as a computed result: it is
// counted in ResultBytes, and a read kept in the controller is not.
func TestReadToHostCountsResultBytes(t *testing.T) {
	s, dev := newSched(t)
	if r := s.Submit(Command{Kind: KindWriteOperand, LPN: 4, Data: pageOf(dev, 4)}).Wait(); r.Err != nil {
		t.Fatal(r.Err)
	}
	if r := s.Submit(Command{Kind: KindRead, LPN: 4}).Wait(); r.Err != nil {
		t.Fatal(r.Err)
	}
	if got := s.Counters().Op.ResultBytes; got != 0 {
		t.Fatalf("controller read counted %d result bytes, want 0", got)
	}
	r := s.Submit(Command{Kind: KindRead, LPN: 4, ToHost: true}).Wait()
	if r.Err != nil || !bytes.Equal(r.Data, pageOf(dev, 4)) {
		t.Fatalf("shipped read: err %v", r.Err)
	}
	if r.HostDone <= r.Start || r.Done != r.HostDone {
		t.Fatalf("shipped read started %v, done %v, at the host %v", r.Start, r.Done, r.HostDone)
	}
	if got := s.Counters().Op.ResultBytes; got != int64(dev.PageSize()) {
		t.Fatalf("shipped read counted %d result bytes, want %d", got, dev.PageSize())
	}
}
