package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"parabit/internal/flash"
	"parabit/internal/latch"
	"parabit/internal/sched"
	"parabit/internal/sim"
	"parabit/internal/ssd"
	"parabit/internal/telemetry"
)

// scheme-reduce is the paper's op-latency story (Figs. 13 and 15) on one
// in-memory small-geometry device: operands preloaded in each scheme's
// native layout, then bursts of async k-operand reductions and pairwise
// ops across all four schemes. No cluster, wire, planner or journal: the
// host time goes to scheduler batching, scheme dispatch and flash
// sensing.
const (
	srBurst     = 8    // async ops submitted before the burst is awaited
	srBursts    = 8192 // generated bursts; the loop cycles through them
	srLSBGroups = 32   // aligned LSB groups of 16 (LocFree)
	srLSBWidth  = 16
	srMWSGroups = 64 // ESP block groups of 8 (Flash-Cosmos)
	srMWSWidth  = 8
	srPairs     = 256 // co-located pairs (ParaBit pre-allocation)
	// srReclaimEvery is the internal-pool cadence: Device.Reclaim runs
	// after every this many bursts, inside the timed loop.
	srReclaimEvery = 32
)

// srSchemeMix weights the schemes an op runs under: the sense-only
// schemes (LocFree, Flash-Cosmos) three eighths each, ParaBit and ReAlloc,
// whose reductions program reallocated operands, an eighth each. The
// median op is then sense-bound, as in the paper's op-latency figures,
// and the reallocations make the tail.
var srSchemeMix = []ssd.Scheme{
	ssd.SchemeLocFree, ssd.SchemeLocFree, ssd.SchemeLocFree,
	ssd.SchemeFlashCosmos, ssd.SchemeFlashCosmos, ssd.SchemeFlashCosmos,
	ssd.SchemePreAlloc, ssd.SchemeReAlloc,
}

var schemeReduce = benchWorkload{name: "scheme-reduce", simOps: 160000, traceOps: srBursts * srBurst, prepare: prepareReduce}

// srOp is one operation of a burst.
type srOp struct {
	reduce bool
	op     latch.Op
	lpns   []uint64
	scheme ssd.Scheme
	// want is the golden result: the software fold over the operand
	// pages, computed with the inputs since the operands never change.
	want []byte
}

type reduceInputs struct {
	pages  [][]byte // operand page by LPN
	lsb    [][]uint64
	mws    [][]uint64
	pairs  [][2]uint64
	bursts [][srBurst]srOp
}

func prepareReduce(seed int64, _ string) (inputs, error) {
	page := ssd.SmallConfig().Geometry.PageSize
	rng := rand.New(rand.NewSource(seed))
	in := &reduceInputs{}
	alloc := func() uint64 {
		p := make([]byte, page)
		rng.Read(p)
		in.pages = append(in.pages, p)
		return uint64(len(in.pages) - 1)
	}
	for g := 0; g < srLSBGroups; g++ {
		grp := make([]uint64, srLSBWidth)
		for j := range grp {
			grp[j] = alloc()
		}
		in.lsb = append(in.lsb, grp)
	}
	for g := 0; g < srMWSGroups; g++ {
		grp := make([]uint64, srMWSWidth)
		for j := range grp {
			grp[j] = alloc()
		}
		in.mws = append(in.mws, grp)
	}
	for p := 0; p < srPairs; p++ {
		in.pairs = append(in.pairs, [2]uint64{alloc(), alloc()})
	}
	folds := []latch.Op{latch.OpAnd, latch.OpOr, latch.OpXor}
	pairwise := []latch.Op{latch.OpAnd, latch.OpOr, latch.OpXnor, latch.OpNand, latch.OpNor, latch.OpXor}
	// span picks k distinct members of a group, in group order.
	span := func(grp []uint64, k int) []uint64 {
		lo := rng.Intn(len(grp) - k + 1)
		return append([]uint64(nil), grp[lo:lo+k]...)
	}
	in.bursts = make([][srBurst]srOp, srBursts)
	for b := range in.bursts {
		for j := range in.bursts[b] {
			o := srOp{scheme: srSchemeMix[rng.Intn(len(srSchemeMix))]}
			switch o.scheme {
			case ssd.SchemeLocFree:
				grp := in.lsb[rng.Intn(len(in.lsb))]
				if rng.Intn(10) < 7 {
					o.reduce, o.op, o.lpns = true, folds[rng.Intn(3)], span(grp, 2+rng.Intn(srLSBWidth-1))
				} else {
					o.op, o.lpns = pairwise[rng.Intn(6)], span(grp, 2)
				}
			case ssd.SchemeFlashCosmos:
				grp := in.mws[rng.Intn(len(in.mws))]
				if rng.Intn(10) < 7 {
					o.reduce, o.op, o.lpns = true, folds[rng.Intn(3)], span(grp, 2+rng.Intn(srMWSWidth-1))
				} else {
					o.op, o.lpns = pairwise[rng.Intn(6)], span(grp, 2)
				}
			case ssd.SchemePreAlloc:
				if rng.Intn(4) != 0 {
					p := in.pairs[rng.Intn(len(in.pairs))]
					o.op, o.lpns = pairwise[rng.Intn(6)], p[:]
				} else {
					o.reduce, o.op = true, folds[rng.Intn(3)]
					for k := 2 + rng.Intn(3); k > 0; k-- {
						p := in.pairs[rng.Intn(len(in.pairs))]
						o.lpns = append(o.lpns, p[0], p[1])
					}
				}
			case ssd.SchemeReAlloc:
				k := 2
				if rng.Intn(10) < 4 {
					o.reduce, o.op, k = true, folds[rng.Intn(3)], 2+rng.Intn(3)
				} else {
					o.op = pairwise[rng.Intn(6)]
				}
				for len(o.lpns) < k {
					lpn := uint64(rng.Intn(len(in.pages)))
					if !containsLPN(o.lpns, lpn) {
						o.lpns = append(o.lpns, lpn)
					}
				}
			}
			o.want = make([]byte, page)
			foldInto(o.want, o.op, in.pagesOf(o.lpns)...)
			in.bursts[b][j] = o
		}
	}
	return in, nil
}

func containsLPN(xs []uint64, x uint64) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// newDevice preloads every operand in its scheme's layout.
func (in *reduceInputs) newDevice() (*devStack, error) {
	ds, err := newDevStack(ssd.SmallConfig(), "")
	if err != nil {
		return nil, err
	}
	var cmds []sched.Command
	for _, grp := range in.lsb {
		cmds = append(cmds, sched.Command{Kind: sched.KindWriteGroup, LPNs: grp, Pages: in.pagesOf(grp)})
	}
	for _, grp := range in.mws {
		cmds = append(cmds, sched.Command{Kind: sched.KindWriteMWSGroup, LPNs: grp, Pages: in.pagesOf(grp)})
	}
	for _, p := range in.pairs {
		cmds = append(cmds, sched.Command{Kind: sched.KindWritePair, LPNs: p[:], Pages: in.pagesOf(p[:])})
	}
	if err := ds.load(cmds); err != nil {
		return nil, err
	}
	return ds, nil
}

func (in *reduceInputs) pagesOf(lpns []uint64) [][]byte {
	out := make([][]byte, len(lpns))
	for i, l := range lpns {
		out[i] = in.pages[l]
	}
	return out
}

func (in *reduceInputs) build() (stack, error) {
	ds, err := in.newDevice()
	if err != nil {
		return nil, err
	}
	return &reduceStack{in: in, devStack: ds}, nil
}

func (in *reduceInputs) finish(st stack) error { return st.close() }

type reduceStack struct {
	*devStack
	in      *reduceInputs
	tickets [srBurst]*sched.Ticket
	last    [srBurst][]byte
}

func (o *srOp) command() sched.Command {
	kind := sched.KindBitwise
	if o.reduce {
		kind = sched.KindReduce
	}
	return sched.Command{Kind: kind, LPNs: o.lpns, Op: o.op, Scheme: o.scheme}
}

func (s *reduceStack) step(i int, lat []sim.Duration) (int, error) {
	burst := &s.in.bursts[i%len(s.in.bursts)]
	for j := range burst {
		s.tickets[j] = s.sched.Submit(burst[j].command())
	}
	var first error
	for j, t := range s.tickets {
		r := t.Wait()
		if r.Err != nil && first == nil {
			first = r.Err
		}
		s.last[j] = r.Data
		lat[j] = r.Done.Sub(r.Start)
	}
	if (i+1)%srReclaimEvery == 0 {
		s.reclaim()
	}
	return srBurst, first
}

func (s *reduceStack) check(i int, dg *digest) error {
	burst := &s.in.bursts[i%len(s.in.bursts)]
	for j := range burst {
		o := &burst[j]
		if !bytes.Equal(s.last[j], o.want) {
			return mismatch(fmt.Sprintf("burst %d op %d (%v %v over %v)", i, j, o.op, o.scheme, o.lpns), s.last[j], o.want)
		}
		dg.add(s.last[j])
	}
	return nil
}

// exec runs one burst op straight on the device (no scheduler).
func (o *srOp) exec(dev *ssd.Device, now sim.Time) error {
	var err error
	if o.reduce {
		_, err = dev.Reduce(o.op, o.lpns, o.scheme, now)
	} else {
		_, err = dev.Bitwise(o.op, o.lpns[0], o.lpns[1], o.scheme, now)
	}
	return err
}

func (in *reduceInputs) layers(n int) (layerResult, error) {
	lr := newLayerResult()
	steps := n / srBurst

	ds, err := in.newDevice()
	if err != nil {
		return lr, err
	}
	sink := ds.traced()
	before := deviceCounters(ds.sched)
	st := &reduceStack{in: in, devStack: ds}
	tr, err := lr.tracedLoop(in, st, n)
	if err != nil {
		return lr, err
	}
	lr.device(deviceCounters(ds.sched).sub(before), float64(n), 0)
	lr.busy(sink, tr.simSpan, 1)
	if err := ds.close(); err != nil {
		return lr, err
	}

	// Shadow replays in lockstep, each on a freshly preloaded device: the
	// scheduler entry point and the device entry point.
	viaSched, err := in.build()
	if err != nil {
		return lr, err
	}
	direct, err := in.newDevice()
	if err != nil {
		return lr, err
	}
	lat := make([]sim.Duration, srBurst)
	t, err := lockstep(steps, 1, oneClass,
		func(i int) error {
			_, err := viaSched.step(i, lat)
			return err
		},
		func(i int) error {
			var err error
			direct.sched.Exclusive(func(dev *ssd.Device, now sim.Time) {
				for j := range in.bursts[i] {
					if e := in.bursts[i][j].exec(dev, now); e != nil && err == nil {
						err = e
					}
				}
				if (i+1)%srReclaimEvery == 0 {
					dev.ReclaimInternal()
				}
			})
			return err
		})
	if err != nil {
		return lr, err
	}
	if err := viaSched.close(); err != nil {
		return lr, err
	}
	if err := direct.close(); err != nil {
		return lr, err
	}
	tSched, tSSD := t[0][0], t[1][0]
	ops := float64(steps * srBurst)
	lr.put("sched.host_self_us_per_cmd", (tSched-tSSD)*1e6/ops)
	lr.put("ssd.host_us_per_op", tSSD*1e6/ops)
	return lr, nil
}

// devStack is one scheduler-fronted device, the single-device stack the
// public parabit.Device wraps.
type devStack struct {
	dev   *ssd.Device
	sched *sched.Scheduler
}

// newDevStack builds an in-memory device, or a persistent one in dir.
func newDevStack(cfg ssd.Config, dir string) (*devStack, error) {
	var dev *ssd.Device
	var err error
	if dir != "" {
		dev, err = ssd.Create(dir, cfg, 0)
	} else {
		dev, err = ssd.New(cfg)
	}
	if err != nil {
		return nil, err
	}
	return &devStack{dev: dev, sched: sched.New(dev)}, nil
}

// load issues preload writes in async batches of 64.
func (ds *devStack) load(cmds []sched.Command) error {
	for lo := 0; lo < len(cmds); lo += 64 {
		var ts []*sched.Ticket
		for _, c := range cmds[lo:min(lo+64, len(cmds))] {
			ts = append(ts, ds.sched.Submit(c))
		}
		for _, t := range ts {
			if r := t.Wait(); r.Err != nil {
				return fmt.Errorf("preload: %w", r.Err)
			}
		}
	}
	return nil
}

// traced attaches a tracing telemetry sink to every layer of the device,
// as parabit.Device.EnableTelemetry(true) does.
func (ds *devStack) traced() *telemetry.Sink {
	sink := telemetry.New()
	sink.EnableTrace()
	ds.sched.Exclusive(func(dev *ssd.Device, _ sim.Time) { dev.SetTelemetry(sink) })
	ds.sched.SetTelemetry(sink)
	return sink
}

func (ds *devStack) reclaim() {
	ds.sched.Exclusive(func(dev *ssd.Device, _ sim.Time) { dev.ReclaimInternal() })
}

func (ds *devStack) now() sim.Time { return ds.sched.Now() }

func (ds *devStack) flash() flash.Stats {
	var st flash.Stats
	ds.sched.Exclusive(func(dev *ssd.Device, _ sim.Time) { st = dev.Array().Stats() })
	return st
}

func (ds *devStack) close() error { return ds.sched.Close() }
