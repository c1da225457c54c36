package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"time"

	"parabit/internal/energy"
	"parabit/internal/flash"
	"parabit/internal/sim"
)

const (
	// window is the wall length of the sub-windows the host-clock metrics
	// take their median over, each scaled by the slowdown measured right
	// after it, so a neighbour's burst on a shared machine skews one
	// window rather than the whole figure.
	window = 500 * time.Millisecond
	// A timed run builds its stack at least minSetups times, and keeps
	// rebuilding up to maxSetups until setupBudget seconds are spent;
	// setup_s is the lower quartile of the builds: a process's first
	// builds also pay page faults on heap memory later builds reuse, and
	// the quartile tracks the build's own work.
	minSetups, maxSetups = 3, 50
	setupBudget          = 1.0
	// maxSteps caps the timed loop so the per-step record stays a fixed,
	// pre-allocated buffer.
	maxSteps = 4 << 20
)

// errMismatch marks a golden-model or recovery mismatch: it fails the
// whole run instead of counting as a failed op.
var errMismatch = errors.New("golden mismatch")

// A benchWorkload names a load shape and turns a seed into its inputs.
type benchWorkload struct {
	name string
	// simOps is the deterministic prefix the simulated-clock metrics and
	// the result digest cover: every timed run executes at least this many
	// ops (at least 20000, so p999 has 20 samples beyond it), whatever the
	// wall clock does.
	simOps int
	// traceOps is the prefix a traced run covers: the traced loop and
	// every shadow replay run exactly these ops. Self times are
	// differences of replay wall times, so the fast workloads replay their
	// whole generated load to lift sub-microsecond layers out of the noise.
	traceOps int
	// prepare generates every input from seed, before any timing. dir is
	// a scratch directory for persistent stores.
	prepare func(seed int64, dir string) (inputs, error)
}

// inputs is a workload's generated load, able to build stacks that run it.
type inputs interface {
	// build constructs the stack and loads its data: the set-up that
	// setup_s times.
	build() (stack, error)
	// finish runs the post-loop checks on the timed stack (the durable
	// workload's close-and-remount audit) and closes it.
	finish(st stack) error
	// layers builds traced and shadow stacks, runs the first n ops on
	// them, and returns the per-layer metrics.
	layers(n int) (layerResult, error)
}

// A stack is one built instance of the system under test.
type stack interface {
	// step runs step i of the load (one op, or one async burst) and writes
	// each completed op's simulated latency into lat, returning the op
	// count. An op error is a failed op, not a mismatch.
	step(i int, lat []sim.Duration) (int, error)
	// check compares step i's results with the golden model, folding them
	// into the digest.
	check(i int, digest *digest) error
	// now is the simulated clock.
	now() sim.Time
	// flash sums the flash counters of every device in the stack.
	flash() flash.Stats
	close() error
}

// result is what one invocation reports.
type result struct {
	attempted, failed int64
	digest            uint64
	metrics           map[string]metric
	// slowdown and rawRate are a timed run's median machine slowdown and
	// unscaled host_ops_per_s, printed beside the metrics.
	slowdown, rawRate float64
}

// digest is a running FNV-1a-style hash of result bytes, folded a 64-bit
// word at a time (page sizes are multiples of 8).
type digest struct{ h uint64 }

func newDigest() *digest { return &digest{h: 14695981039346656037} }

func (d *digest) add(p []byte) {
	if d == nil {
		return
	}
	for i := 0; i+8 <= len(p); i += 8 {
		d.h ^= binary.LittleEndian.Uint64(p[i:])
		d.h *= 1099511628211
	}
}

// heapBytes returns the live heap after a full collection.
func heapBytes() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// buildTimed builds the stack repeatedly and keeps the last build; it
// returns the lower quartile of the build times, each scaled by the mean
// of the slowdowns measured just before and just after it.
func buildTimed(in inputs) (stack, float64, error) {
	var times []float64
	var st stack
	slow := slowdown()
	for spent := 0.0; len(times) < minSetups || (spent < setupBudget && len(times) < maxSetups); {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, 0, err
			}
			st = nil
		}
		runtime.GC()
		t0 := time.Now()
		s, err := in.build()
		if err != nil {
			return nil, 0, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0).Seconds()
		after := slowdown()
		times = append(times, d/((slow+after)/2))
		slow = after
		spent += d
		st = s
	}
	sort.Float64s(times)
	return st, times[(len(times)-1)/4], nil
}

// timedRun is the untraced measurement: set-up, then a closed loop of
// steps for the given wall seconds (and at least simOps ops).
func timedRun(in inputs, seconds float64, simOps int) (result, error) {
	base := heapBytes()
	st, setup, err := buildTimed(in)
	if err != nil {
		return result{}, err
	}
	lp, err := runLoop(st, seconds, simOps)
	if err != nil {
		st.close()
		return result{}, err
	}
	m := lp.endToEnd()
	res := result{attempted: lp.ops, failed: lp.failed, digest: lp.digest, metrics: m,
		slowdown: lp.scaled(func(w hostWindow) float64 { return w.slowdown }),
		rawRate:  lp.scaled(func(w hostWindow) float64 { return w.rate }),
	}
	lp = nil // the per-step record is harness memory, not the stack's
	heap := float64(heapBytes()-base) / (1 << 20)
	if err := in.finish(st); err != nil {
		return result{}, err
	}
	m["setup_s"] = metric{setup, "s"}
	m["host_heap_mb"] = metric{heap, "MB"}
	return res, nil
}

// loop is one closed-loop run's raw measurements.
type loop struct {
	ops, failed int64
	wall        float64 // loop wall seconds, harness included, window closes not
	callWall    float64 // wall seconds spent inside the stack's calls
	stepUS      []float64
	windows     []hostWindow
	simLat      []sim.Duration // the simulated prefix's ops
	simSpan     sim.Duration   // simulated makespan of the prefix
	flashDelta  flash.Stats    // flash counters over the prefix
	mallocs     uint64
	allocBytes  uint64
	digest      uint64
}

// hostWindow is one wall window of the loop.
type hostWindow struct {
	rate     float64 // ops per wall second
	p50      float64 // median wall time per op, in us
	slowdown float64 // measured right after the window
}

// closeWindow records the window of ops completed in w wall time by steps
// from on. It runs between windows, and the loop leaves its time out.
func (lp *loop) closeWindow(ops int64, w time.Duration, from int) {
	lp.windows = append(lp.windows, hostWindow{
		rate:     float64(ops) / w.Seconds(),
		p50:      median(lp.stepUS[from:]),
		slowdown: slowdown(),
	})
}

// runLoop drives the stack from one goroutine: each step waits for its
// results before the next is issued. Host timings come from the whole
// loop; simulated ones from the first minOps ops, a prefix that depends
// on the inputs alone. The golden check of every step runs between
// steps, outside the per-step timer.
func runLoop(st stack, seconds float64, minOps int) (*loop, error) {
	lp := &loop{
		stepUS: make([]float64, 0, maxSteps),
		simLat: make([]sim.Duration, 0, minOps+64),
	}
	lat := make([]sim.Duration, 64)
	dg := newDigest()
	flash0 := st.flash()
	sim0 := st.now()
	simDone := false
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	winStart, winOps, winStep := start, int64(0), 0
	var closing time.Duration
	for i := 0; i < maxSteps; i++ {
		t0 := time.Now()
		n, err := st.step(i, lat)
		d := time.Since(t0)
		if err != nil {
			if errors.Is(err, errMismatch) {
				return nil, err
			}
			lp.failed++
		}
		lp.ops += int64(n)
		winOps += int64(n)
		lp.callWall += d.Seconds()
		if n > 0 {
			lp.stepUS = append(lp.stepUS, float64(d.Nanoseconds())/1e3/float64(n))
		}
		if !simDone {
			lp.simLat = append(lp.simLat, lat[:n]...)
			if err := st.check(i, dg); err != nil {
				return nil, err
			}
			if len(lp.simLat) >= minOps {
				simDone = true
				lp.simSpan = st.now().Sub(sim0)
				lp.flashDelta = flashSub(st.flash(), flash0)
				lp.digest = dg.h
			}
		} else if err := st.check(i, nil); err != nil {
			return nil, err
		}
		now := time.Now()
		if w := now.Sub(winStart); w >= window {
			lp.closeWindow(winOps, w, winStep)
			closing += time.Since(now)
			now = time.Now()
			winStart, winOps, winStep = now, 0, len(lp.stepUS)
		}
		if simDone && now.After(deadline) {
			break
		}
	}
	lp.wall = (time.Since(start) - closing).Seconds()
	runtime.ReadMemStats(&m1)
	if len(lp.windows) == 0 {
		lp.closeWindow(winOps, time.Since(winStart), winStep)
	}
	lp.mallocs = m1.Mallocs - m0.Mallocs
	lp.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	if !simDone {
		return nil, fmt.Errorf("loop ended after %d ops, before the %d-op simulated prefix", lp.ops, minOps)
	}
	return lp, nil
}

// endToEnd derives the end-to-end metrics (all but setup_s and
// host_heap_mb, which the caller adds).
func (lp *loop) endToEnd() map[string]metric {
	ops := float64(lp.ops)
	sorted := append([]sim.Duration(nil), lp.simLat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	us := make([]float64, len(sorted))
	for i, d := range sorted {
		us[i] = d.Micros()
	}
	n := float64(len(lp.simLat))
	return map[string]metric{
		"host_ops_per_s":       {lp.scaled(func(w hostWindow) float64 { return w.rate * w.slowdown }), "1/s"},
		"host_p50_us":          {lp.scaled(func(w hostWindow) float64 { return w.p50 / w.slowdown }), "us"},
		"host_allocs_per_op":   {float64(lp.mallocs) / ops, "count"},
		"host_bytes_per_op":    {float64(lp.allocBytes) / ops, "B"},
		"sim_ops_per_s":        {n / lp.simSpan.Seconds(), "1/s"},
		"sim_p50_us":           {midQuantile(us, 0.50), "us"},
		"sim_p99_us":           {midQuantile(us, 0.99), "us"},
		"sim_p999_us":          {midQuantile(us, 0.999), "us"},
		"sim_energy_uj_per_op": {energyJ(lp.flashDelta) * 1e6 / n, "uJ"},
	}
}

// scaled is the median over the loop's windows of a host figure scaled
// to the reference machine.
func (lp *loop) scaled(f func(hostWindow) float64) float64 {
	xs := make([]float64, len(lp.windows))
	for i, w := range lp.windows {
		xs[i] = f(w)
	}
	return median(xs)
}

// energyJ converts flash counters to joules with the Fig. 16 model:
// sensing per SRO, cell programming per page, erases per block, and the
// channel transfer of every byte moved in either direction.
func energyJ(st flash.Stats) float64 {
	m := energy.DefaultModel()
	xferPerByte := m.TransferEnergy() / float64(flash.Default().PageSize)
	programCells := m.ProgramEnergy() - m.TransferEnergy()
	return float64(st.SROs)*m.SenseEnergy(1) +
		float64(st.Programs)*programCells +
		float64(st.Erases)*m.EraseEnergy() +
		float64(st.BytesIn+st.BytesOut)*xferPerByte
}

// flashSub returns a - b for the counters the benchmark reads.
func flashSub(a, b flash.Stats) flash.Stats {
	return flash.Stats{
		SROs:       a.SROs - b.SROs,
		Programs:   a.Programs - b.Programs,
		Erases:     a.Erases - b.Erases,
		BitwiseOps: a.BitwiseOps - b.BitwiseOps,
		MWSSenses:  a.MWSSenses - b.MWSSenses,
		BytesOut:   a.BytesOut - b.BytesOut,
		BytesIn:    a.BytesIn - b.BytesIn,
	}
}

// hashOf is a short content key for page matching.
func hashOf(p []byte) uint64 {
	h := fnv.New64a()
	h.Write(p)
	return h.Sum64()
}
