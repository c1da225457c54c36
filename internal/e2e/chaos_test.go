package e2e

import (
	"bytes"
	"io"
	"math/rand"
	"sync"
	"testing"

	"parabit"
	"parabit/internal/flash"
)

// chaosPlan is a deliberately hostile fault plan: a plane-wide transient
// outage across the start of the run (short enough for the scheduler's
// backoff schedule to ride out), a stuck block, aggressive program- and
// erase-failure rates that force FTL retirement and re-steering, and
// sense jitter. The fixed seed makes every injection deterministic.
const chaosPlan = `{
	"seed": 1011,
	"rules": [
		{"type": "plane-transient", "plane": -1, "from_us": 0, "to_us": 1500},
		{"type": "stuck-block", "plane": 0, "block": 0},
		{"type": "program-fail", "rate": 0.05},
		{"type": "erase-fail", "rate": 0.02},
		{"type": "jitter", "rate": 0.1, "op": "sense", "max_jitter_us": 15}
	]
}`

// evalPage is the software reference for a two-operand bitwise op.
func evalPage(op parabit.Op, x, y []byte) []byte {
	out := make([]byte, len(x))
	for i := range x {
		for b := 0; b < 8; b++ {
			if op.Eval(x[i]&(1<<b) != 0, y[i]&(1<<b) != 0) {
				out[i] |= 1 << b
			}
		}
	}
	return out
}

// evalReduce folds evalPage over a page list.
func evalReduce(op parabit.Op, pages [][]byte) []byte {
	acc := append([]byte(nil), pages[0]...)
	for _, p := range pages[1:] {
		acc = evalPage(op, acc, p)
	}
	return acc
}

// requireCorrectOrFault is the chaos contract: an operation either
// returns exactly the software-reference result or an explicit injected
// fault error. Anything else — wrong data with a nil error, or a
// non-fault failure — is a degradation bug.
func requireCorrectOrFault(t *testing.T, label string, got []byte, err error, want []byte) {
	t.Helper()
	if err != nil {
		if flash.AsFaultError(err) == nil {
			t.Errorf("%s: non-fault error %v", label, err)
		}
		return
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: silent corruption (result differs from software reference)", label)
	}
}

// TestChaosDifferentialAllOpsAllSchemes hammers one device from several
// concurrent clients, each running the complete op x scheme matrix plus
// reductions, with the chaos fault plan, the read-noise model and ECC
// all armed. Every client checks results against the in-memory software
// reference; afterwards the FTL bookkeeping must still audit clean and
// the fault/recovery machinery must show it actually fired. Run it under
// -race: the clients share the scheduler, the fault engine and the sink.
func TestChaosDifferentialAllOpsAllSchemes(t *testing.T) {
	d, err := parabit.NewDevice(parabit.WithSmallGeometry(), parabit.WithErrorModel(11), parabit.WithECC())
	if err != nil {
		t.Fatal(err)
	}
	sink := d.EnableTelemetry(false)
	if err := d.InstallFaultPlan([]byte(chaosPlan)); err != nil {
		t.Fatal(err)
	}

	const clients = 4
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			base := uint64(c * 256)
			next := base
			lpns := func(n int) []uint64 {
				out := make([]uint64, n)
				for i := range out {
					out[i] = next
					next++
				}
				return out
			}
			page := func() []byte {
				p := make([]byte, d.PageSize())
				rng.Read(p)
				return p
			}
			writeOperands := func(scheme parabit.Scheme, ids []uint64, data [][]byte) error {
				switch {
				case scheme == parabit.PreAllocated && len(ids) == 2:
					return d.WriteOperandPair(ids[0], ids[1], data[0], data[1])
				case scheme == parabit.LocationFree:
					return d.WriteOperandGroup(ids, data)
				case scheme == parabit.FlashCosmos:
					// Block-colocated ESP layout: AND/OR ops hit the
					// multi-wordline sense, the rest exercise the scheme's
					// pairwise fallback from the same placement.
					return d.WriteOperandMWSGroup(ids, data)
				default:
					for i, id := range ids {
						if err := d.WriteOperand(id, data[i]); err != nil {
							return err
						}
					}
					return nil
				}
			}

			for _, scheme := range parabit.Schemes {
				for _, op := range parabit.Ops {
					ids := lpns(2)
					x, y := page(), page()
					if err := writeOperands(scheme, ids, [][]byte{x, y}); err != nil {
						if flash.AsFaultError(err) == nil {
							t.Errorf("client %d %v/%v write: non-fault error %v", c, scheme, op, err)
						}
						continue
					}
					r, err := d.Bitwise(op, ids[0], ids[1], scheme)
					requireCorrectOrFault(t, scheme.String()+"/"+op.String(), r.Data, err, evalPage(op, x, y))
				}
				// One reduction per associative op per scheme.
				for _, op := range []parabit.Op{parabit.And, parabit.Or, parabit.Xor} {
					ids := lpns(3)
					data := [][]byte{page(), page(), page()}
					if err := writeOperands(scheme, ids, data); err != nil {
						if flash.AsFaultError(err) == nil {
							t.Errorf("client %d %v reduce write: non-fault error %v", c, scheme, err)
						}
						continue
					}
					r, err := d.Reduce(op, ids, scheme)
					requireCorrectOrFault(t, scheme.String()+"/reduce-"+op.String(), r.Data, err, evalReduce(op, data))
				}
			}
		}(c)
	}
	wg.Wait()
	d.Flush()

	// The translation layer must have absorbed all of that without
	// corrupting its bookkeeping.
	if err := d.CheckInvariants(); err != nil {
		t.Errorf("FTL invariants violated after chaos run: %v", err)
	}

	// The plan must actually have fired, and the degradation machinery
	// must have responded: injections, FTL retirements with re-steered
	// writes, and scheduler retries over the startup outage.
	st := d.Stats()
	if st.Faults.Faults() == 0 || st.Faults.ProgramFails == 0 {
		t.Errorf("chaos plan never injected: %+v", st.Faults)
	}
	if st.FTL.ResteeredWrites == 0 || st.FTL.BlocksRetired == 0 {
		t.Errorf("FTL degradation never engaged: %+v", st.FTL)
	}
	if st.Sched.Retries == 0 {
		t.Errorf("scheduler never retried the transient outage: %+v", st.Sched)
	}

	// And the same story must be visible through telemetry once an
	// export publishes the layers' counts.
	d.WriteMetrics(io.Discard)
	for _, name := range []string{
		"faults.program_fail",
		"ftl.bad_blocks.retired",
		"ftl.faults.resteered_writes",
		"sched.retries",
	} {
		if sink.Counter(name).Value() == 0 {
			t.Errorf("telemetry counter %s never incremented", name)
		}
	}
}

// replayWorkload is a scripted, single-threaded workload: mixed operand
// writes, the full bitwise matrix, reductions and enough overwrite churn
// to trigger GC under the plan's erase-failure rate. Submission order is
// fixed, so with a fixed plan seed the whole simulation is deterministic.
func replayWorkload(t *testing.T, d *parabit.Device) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	page := func() []byte {
		p := make([]byte, d.PageSize())
		rng.Read(p)
		return p
	}
	lpn := uint64(0)
	for round := 0; round < 4; round++ {
		for _, scheme := range parabit.Schemes {
			for _, op := range parabit.Ops {
				a, b := lpn, lpn+1
				lpn += 2
				x, y := page(), page()
				var err error
				if scheme == parabit.LocationFree {
					err = d.WriteOperandGroup([]uint64{a, b}, [][]byte{x, y})
				} else {
					err = d.WriteOperandPair(a, b, x, y)
				}
				if err != nil && flash.AsFaultError(err) == nil {
					t.Fatalf("replay write: %v", err)
				}
				if _, err := d.Bitwise(op, a, b, scheme); err != nil && flash.AsFaultError(err) == nil {
					t.Fatalf("replay bitwise: %v", err)
				}
			}
		}
		// Overwrite churn on a small LPN window to force GC activity.
		for i := 0; i < 64; i++ {
			if err := d.Write(uint64(i%8), page()); err != nil && flash.AsFaultError(err) == nil {
				t.Fatalf("replay churn: %v", err)
			}
		}
	}
	d.Flush()
}

// TestChaosDeterministicReplay runs the identical scripted workload with
// the identical fault-plan seed on two fresh devices and requires the
// runs to be indistinguishable: byte-identical metrics export (counters,
// gauges, latency histograms), identical fault/recovery counters and the
// same simulated clock. This is the property that makes every chaos
// failure reproducible from its plan file.
func TestChaosDeterministicReplay(t *testing.T) {
	run := func() (string, parabit.Stats, int64) {
		d, err := parabit.NewDevice(parabit.WithSmallGeometry(), parabit.WithErrorModel(5), parabit.WithECC())
		if err != nil {
			t.Fatal(err)
		}
		d.EnableTelemetry(false)
		if err := d.InstallFaultPlan([]byte(chaosPlan)); err != nil {
			t.Fatal(err)
		}
		replayWorkload(t, d)
		var buf bytes.Buffer
		d.WriteMetrics(&buf)
		return buf.String(), d.Stats(), int64(d.Elapsed())
	}

	m1, f1, e1 := run()
	m2, f2, e2 := run()
	if f1 != f2 {
		t.Errorf("counters diverged between identical runs:\n  run1: %+v\n  run2: %+v", f1, f2)
	}
	if e1 != e2 {
		t.Errorf("simulated clock diverged: %d vs %d ns", e1, e2)
	}
	if m1 != m2 {
		t.Errorf("metrics export diverged between identical runs:\n--- run1 ---\n%s\n--- run2 ---\n%s", m1, m2)
	}
	if f1.Faults.Faults() == 0 {
		t.Errorf("replay workload never tripped the plan: %+v", f1.Faults)
	}
}
