package parabit

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
)

// TestDeviceConcurrentClients hammers one public Device from many
// goroutines with mixed writes, reads, bitwise ops and reductions — the
// scheduler's concurrency contract, meant to run under -race. Every
// result is checked bit-exact and the FTL bookkeeping is verified after.
func TestDeviceConcurrentClients(t *testing.T) {
	d := newTestDevice(t)
	// Telemetry (with tracing) stays attached for the whole hammer run, so
	// -race also covers the sink's counters, histograms and span recorder.
	sink := d.EnableTelemetry(true)
	const (
		workers = 10
		ops     = 40
		shared  = 6
	)
	// Shared read-only operands, laid out pre-allocated in pairs so the
	// PreAllocated scheme also exercises without fallbacks.
	sharedData := make([][]byte, shared)
	for i := 0; i < shared; i += 2 {
		sharedData[i] = pageOf(d, int64(50+i))
		sharedData[i+1] = pageOf(d, int64(51+i))
		if err := d.WriteOperandPair(uint64(i), uint64(i+1), sharedData[i], sharedData[i+1]); err != nil {
			t.Fatal(err)
		}
	}
	goldenOp := func(op Op, a, b []byte) []byte {
		out := make([]byte, len(a))
		for i := range out {
			switch op {
			case And:
				out[i] = a[i] & b[i]
			case Or:
				out[i] = a[i] | b[i]
			case Xor:
				out[i] = a[i] ^ b[i]
			}
		}
		return out
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			base := uint64(500 + 50*w)
			last := make(map[uint64][]byte)
			assoc := []Op{And, Or, Xor}
			for i := 0; i < ops; i++ {
				switch rng.Intn(5) {
				case 0, 1:
					lpn := base + uint64(rng.Intn(10))
					data := pageOf(d, int64(w*1000+i))
					if err := d.Write(lpn, data); err != nil {
						errs <- fmt.Errorf("worker %d write: %w", w, err)
						return
					}
					last[lpn] = data
				case 2:
					for lpn, want := range last {
						got, err := d.Read(lpn)
						if err != nil {
							errs <- fmt.Errorf("worker %d read: %w", w, err)
							return
						}
						if !bytes.Equal(got, want) {
							errs <- fmt.Errorf("worker %d lpn %d: wrong data read back", w, lpn)
							return
						}
						break
					}
				case 3:
					op := assoc[rng.Intn(len(assoc))]
					pair := 2 * rng.Intn(shared/2)
					r, err := d.Bitwise(op, uint64(pair), uint64(pair+1), PreAllocated)
					if err != nil {
						errs <- fmt.Errorf("worker %d bitwise: %w", w, err)
						return
					}
					if !bytes.Equal(r.Data, goldenOp(op, sharedData[pair], sharedData[pair+1])) {
						errs <- fmt.Errorf("worker %d bitwise %v(%d): wrong result", w, op, pair)
						return
					}
				case 4:
					op := assoc[rng.Intn(len(assoc))]
					a, b, c := rng.Intn(shared), rng.Intn(shared), rng.Intn(shared)
					r, err := d.Reduce(op, []uint64{uint64(a), uint64(b), uint64(c)}, Reallocated)
					if err != nil {
						errs <- fmt.Errorf("worker %d reduce: %w", w, err)
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
	d.Flush()
	st := d.Stats()
	if st.Sched.Completed() == 0 || st.Sched.Batches == 0 {
		t.Fatalf("scheduler saw no work: %+v", st)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Errorf("FTL invariants violated: %v", err)
	}
	// Every pre-paired bitwise op should have sensed directly.
	if st.Op.Fallbacks != 0 {
		t.Errorf("pre-allocated operands caused %d fallbacks", st.Op.Fallbacks)
	}
	// The trace must have recorded real spans.
	if sink.Trace().Len() == 0 {
		t.Error("trace recorded no spans")
	}
	var buf bytes.Buffer
	if err := sink.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
}

// TestAsyncBurstBatches submits a burst of commands through the public
// async API before reaping any of them; the scheduler must dispatch the
// whole burst as one batch so the per-plane operations overlap.
func TestAsyncBurstBatches(t *testing.T) {
	d := newTestDevice(t)
	const pairs = 4
	data := make([][]byte, 2*pairs)
	for i := 0; i < 2*pairs; i += 2 {
		data[i] = pageOf(d, int64(10+i))
		data[i+1] = pageOf(d, int64(11+i))
		if err := d.WriteOperandPair(uint64(i), uint64(i+1), data[i], data[i+1]); err != nil {
			t.Fatal(err)
		}
	}
	d.Flush()
	pending := make([]*Pending, pairs)
	for p := 0; p < pairs; p++ {
		pending[p] = d.BitwiseAsync(And, uint64(2*p), uint64(2*p+1), PreAllocated)
	}
	for p, pd := range pending {
		r, err := pd.Wait()
		if err != nil {
			t.Fatalf("pair %d: %v", p, err)
		}
		for i := range r.Data {
			if r.Data[i] != data[2*p][i]&data[2*p+1][i] {
				t.Fatalf("pair %d: wrong AND result at byte %d", p, i)
			}
		}
	}
	if ss := d.Stats().Sched; ss.MaxBatch < pairs {
		t.Errorf("burst of %d dispatched with max batch %d; want a single batch", pairs, ss.MaxBatch)
	}
}

// TestQueryConcurrentClients runs concurrent group writes and bitmap
// queries against one device; queries batch with the writes and must
// return exact results throughout, and every written group must read
// back.
func TestQueryConcurrentClients(t *testing.T) {
	d := newTestDevice(t)
	// Seed columns on aligned LSB slots, so queries always have operands.
	seed := [][]byte{pageOf(d, 0), pageOf(d, 1), pageOf(d, 2), pageOf(d, 3)}
	if err := d.WriteOperandGroup([]uint64{0, 1, 2, 3}, seed); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, d.PageSize())
	for i := range want {
		want[i] = seed[0][i] & seed[1][i] & seed[2][i]
	}
	q := QueryAnd(QueryLPN(0), QueryLPN(1), QueryLPN(2))
	// Even workers write a private two-page group at LPN 100*w.
	written := make(map[uint64][]byte)
	for w := 0; w < 8; w += 2 {
		for i := 0; i < 2; i++ {
			written[uint64(100*w+i)] = pageOf(d, int64(100*w+i))
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if w%2 == 0 {
				lpns := []uint64{uint64(100 * w), uint64(100*w + 1)}
				if err := d.WriteOperandGroup(lpns, [][]byte{written[lpns[0]], written[lpns[1]]}); err != nil {
					errs <- fmt.Errorf("worker %d write: %w", w, err)
				}
				return
			}
			// Reader: intersects three seed columns, checks exact bits.
			for i := 0; i < 4; i++ {
				r, err := d.Query(q, LocationFree)
				if err != nil {
					errs <- fmt.Errorf("worker %d query %d: %w", w, i, err)
					return
				}
				if !bytes.Equal(r.Data, want) {
					errs <- fmt.Errorf("worker %d query %d: wrong intersection", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for lpn, page := range written {
		if got, err := d.Read(lpn); err != nil || !bytes.Equal(got, page) {
			t.Errorf("page %d did not read back: %v", lpn, err)
		}
	}
	if err := d.CheckInvariants(); err != nil {
		t.Errorf("FTL invariants violated: %v", err)
	}
}

// TestFaultPlanWhileReading installs, clears and re-arms fault plans and
// telemetry sinks while other goroutines read the counters and the sink
// and a third submits commands; under -race it checks that the fault
// engine and the sink are reached only under the scheduler's lock. The
// plan only jitters, so every command still succeeds.
func TestFaultPlanWhileReading(t *testing.T) {
	d := newTestDevice(t)
	const plan = `{"seed": 5, "rules": [{"type": "jitter", "rate": 0.5, "max_jitter_us": 3}]}`
	if err := d.WriteOperandPair(0, 1, pageOf(d, 0), pageOf(d, 1)); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	for _, read := range []func(){
		func() { d.Stats() },
		func() { d.WriteMetrics(io.Discard) },
		func() { d.Telemetry().Trace().Len() },
	} {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
					read()
				}
			}
		}()
	}
	var work sync.WaitGroup
	work.Add(2)
	go func() {
		defer work.Done()
		for i := 0; i < 50; i++ {
			if err := d.InstallFaultPlan([]byte(plan)); err != nil {
				t.Error(err)
				return
			}
			d.EnableTelemetry(i%2 == 0)
			d.ClearFaultPlan()
		}
	}()
	go func() {
		defer work.Done()
		for i := 0; i < 200; i++ {
			if _, err := d.Bitwise(And, 0, 1, PreAllocated); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	work.Wait()
	close(done)
	readers.Wait()
	if err := d.CheckInvariants(); err != nil {
		t.Errorf("FTL invariants violated: %v", err)
	}
}
