package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"parabit"
	"parabit/internal/latch"
	"parabit/internal/plan"
	"parabit/internal/sched"
	"parabit/internal/sim"
	"parabit/internal/ssd"
)

// durable-ingest puts writes beside reads on one persistent device
// (journal plus snapshots at the default cadence): Zipf-skewed overwrites
// of a working set over half the user pages, mixing single operand pages
// and aligned LSB groups, with planner queries over just-written groups.
// It is the workload that loads FTL placement and garbage collection,
// the journal and snapshots, and result-cache invalidation.
const (
	diGroups   = 875 // aligned LSB groups of diWidth pages: LPNs [0, 7000)
	diWidth    = 8
	diSingles  = 7000 // single operand pages: LPNs [7000, 14000)
	diPayloads = 512  // distinct page payloads the writes draw from
	diOps      = 65536
	diSkew     = 1.1
	diRecent   = 4 // queries pick one of the last diRecent written groups
	diWritePct = 60
	// diQueryWidth bounds a query's leaves: 2 to diQueryWidth pages of
	// one group.
	diQueryWidth = 4
	// diReclaimEvery is the internal-pool cadence: Device.Reclaim runs
	// after every this many ops, inside the timed loop.
	diReclaimEvery = 256
)

var durableIngest = benchWorkload{name: "durable-ingest", simOps: 40000, traceOps: 20000, prepare: prepareIngest}

type diKind uint8

const (
	diWriteSingle diKind = iota
	diWriteGroup
	diQuery
)

type diOp struct {
	kind     diKind
	lpns     []uint64 // written pages, or the query's leaves
	payloads []uint16 // payload index per written page
	op       latch.Op
	expr     *plan.Expr
}

type ingestInputs struct {
	dir      string
	payloads [][]byte
	initial  []uint16 // preload payload per LPN
	ops      []diOp
	stores   int
}

func prepareIngest(seed int64, dir string) (inputs, error) {
	page := ssd.SmallConfig().Geometry.PageSize
	rng := rand.New(rand.NewSource(seed))
	in := &ingestInputs{dir: dir, payloads: make([][]byte, diPayloads)}
	for i := range in.payloads {
		in.payloads[i] = make([]byte, page)
		rng.Read(in.payloads[i])
	}
	in.initial = make([]uint16, diGroups*diWidth+diSingles)
	for i := range in.initial {
		in.initial[i] = uint16(rng.Intn(diPayloads))
	}
	groupPick := rand.NewZipf(rng, diSkew, 1, diGroups-1)
	singlePick := rand.NewZipf(rng, diSkew, 1, diSingles-1)
	recent := []int{0}
	folds := []latch.Op{latch.OpAnd, latch.OpOr}
	in.ops = make([]diOp, diOps)
	for i := range in.ops {
		var o diOp
		switch r := rng.Intn(100); {
		case r < diWritePct/2:
			g := int(groupPick.Uint64())
			o.kind = diWriteGroup
			for j := 0; j < diWidth; j++ {
				o.lpns = append(o.lpns, uint64(g*diWidth+j))
				o.payloads = append(o.payloads, uint16(rng.Intn(diPayloads)))
			}
			recent = append(recent, g)
			if len(recent) > diRecent {
				recent = recent[1:]
			}
		case r < diWritePct:
			o.kind = diWriteSingle
			o.lpns = []uint64{uint64(diGroups*diWidth) + singlePick.Uint64()}
			o.payloads = []uint16{uint16(rng.Intn(diPayloads))}
		default:
			g := recent[rng.Intn(len(recent))]
			k := 2 + rng.Intn(diQueryWidth-1)
			lo := rng.Intn(diWidth - k + 1)
			o.kind, o.op = diQuery, folds[rng.Intn(len(folds))]
			leaves := make([]*plan.Expr, k)
			for j := range leaves {
				o.lpns = append(o.lpns, uint64(g*diWidth+lo+j))
				leaves[j] = plan.Leaf(o.lpns[j])
			}
			if o.op == latch.OpAnd {
				o.expr = plan.And(leaves...)
			} else {
				o.expr = plan.Or(leaves...)
			}
		}
		in.ops[i] = o
	}
	return in, nil
}

// newDevice builds a device holding the preloaded working set: persistent
// in a fresh store directory, or in memory.
func (in *ingestInputs) newDevice(persistent bool) (*devStack, string, error) {
	dir := ""
	if persistent {
		in.stores++
		dir = filepath.Join(in.dir, fmt.Sprintf("store%d", in.stores))
	}
	ds, err := newDevStack(ssd.SmallConfig(), dir)
	if err != nil {
		return nil, "", err
	}
	var cmds []sched.Command
	for g := 0; g < diGroups; g++ {
		lpns := make([]uint64, diWidth)
		pages := make([][]byte, diWidth)
		for j := range lpns {
			lpns[j] = uint64(g*diWidth + j)
			pages[j] = in.payloads[in.initial[lpns[j]]]
		}
		cmds = append(cmds, sched.Command{Kind: sched.KindWriteGroup, LPNs: lpns, Pages: pages})
	}
	for l := diGroups * diWidth; l < len(in.initial); l++ {
		cmds = append(cmds, sched.Command{Kind: sched.KindWriteOperand, LPN: uint64(l), Data: in.payloads[in.initial[l]]})
	}
	if err := ds.load(cmds); err != nil {
		return nil, "", err
	}
	return ds, dir, nil
}

func (in *ingestInputs) build() (stack, error) {
	ds, dir, err := in.newDevice(true)
	if err != nil {
		return nil, err
	}
	return in.stackOn(ds, dir), nil
}

func (in *ingestInputs) stackOn(ds *devStack, dir string) *ingestStack {
	return &ingestStack{
		devStack: ds, in: in, dir: dir,
		model: append([]uint16(nil), in.initial...),
		want:  make([]byte, ds.dev.PageSize()),
	}
}

type ingestStack struct {
	*devStack
	in      *ingestInputs
	dir     string
	model   []uint16 // acknowledged payload per LPN
	last    []byte
	lastErr error
	want    []byte
}

func (o *diOp) command(in *ingestInputs) sched.Command {
	switch o.kind {
	case diWriteSingle:
		return sched.Command{Kind: sched.KindWriteOperand, LPN: o.lpns[0], Data: in.payloads[o.payloads[0]]}
	case diWriteGroup:
		var pages [diWidth][]byte
		for j, p := range o.payloads {
			pages[j] = in.payloads[p]
		}
		return sched.Command{Kind: sched.KindWriteGroup, LPNs: o.lpns, Pages: pages[:]}
	}
	return sched.Command{Kind: sched.KindQuery, Query: o.expr, Scheme: ssd.SchemeLocFree}
}

func (s *ingestStack) step(i int, lat []sim.Duration) (int, error) {
	o := &s.in.ops[i%len(s.in.ops)]
	r := s.sched.Submit(o.command(s.in)).Wait()
	if (i+1)%diReclaimEvery == 0 {
		s.reclaim()
	}
	s.last, s.lastErr = r.Data, r.Err
	lat[0] = r.Done.Sub(r.Start)
	return 1, r.Err
}

// check applies an acknowledged write to the model, or compares a query
// result with the fold over the model's current pages.
func (s *ingestStack) check(i int, dg *digest) error {
	o := &s.in.ops[i%len(s.in.ops)]
	if s.lastErr != nil {
		return nil
	}
	if o.kind != diQuery {
		for j, l := range o.lpns {
			s.model[l] = o.payloads[j]
		}
		return nil
	}
	var pages [diWidth][]byte
	for j, l := range o.lpns {
		pages[j] = s.in.payloads[s.model[l]]
	}
	foldInto(s.want, o.op, pages[:len(o.lpns)]...)
	if !bytes.Equal(s.last, s.want) {
		return mismatch(fmt.Sprintf("op %d (%v)", i, o.expr), s.last, s.want)
	}
	dg.add(s.last)
	return nil
}

// finish closes the device cleanly and audits the remount.
func (in *ingestInputs) finish(st stack) error {
	_, err := st.(*ingestStack).remount()
	return err
}

// remount closes the device, reopens its store through the public
// parabit.Open, and reads back every page of the working set: each must
// equal its last acknowledged write. It returns the Open wall time.
func (s *ingestStack) remount() (float64, error) {
	if err := s.close(); err != nil {
		return 0, fmt.Errorf("close: %w", err)
	}
	t0 := time.Now()
	dev, _, err := parabit.Open(s.dir)
	remount := time.Since(t0).Seconds()
	if err != nil {
		return 0, fmt.Errorf("remount: %w", err)
	}
	defer dev.Close()
	for l, p := range s.model {
		got, err := dev.Read(uint64(l))
		if err != nil {
			return 0, fmt.Errorf("%w: remounted read of lpn %d: %v", errMismatch, l, err)
		}
		if !bytes.Equal(got, s.in.payloads[p]) {
			return 0, mismatch(fmt.Sprintf("remounted lpn %d", l), got, s.in.payloads[p])
		}
	}
	return remount, os.RemoveAll(s.dir)
}

// execDirect runs one op straight on the device; ftlOnly writes through
// the FTL entry point instead (and skips queries).
func (o *diOp) execDirect(in *ingestInputs, dev *ssd.Device, now sim.Time, ftlOnly bool) error {
	var err error
	switch {
	case o.kind == diWriteSingle && ftlOnly:
		_, err = dev.FTL().Write(o.lpns[0], in.payloads[o.payloads[0]], now)
	case o.kind == diWriteSingle:
		_, err = dev.WriteOperand(o.lpns[0], in.payloads[o.payloads[0]], now)
	case o.kind == diWriteGroup:
		pages := make([][]byte, len(o.payloads))
		for j, p := range o.payloads {
			pages[j] = in.payloads[p]
		}
		if ftlOnly {
			_, _, err = dev.FTL().WriteLSBGroup(o.lpns, pages, now)
		} else {
			_, err = dev.WriteOperandLSBGroup(o.lpns, pages, now)
		}
	case !ftlOnly:
		_, err = dev.ExecuteQuery(o.expr, ssd.SchemeLocFree, now)
	}
	return err
}

// directOp runs op i straight on the device entry point (or, with
// ftlOnly, the FTL's write entry point, skipping queries), reclaiming at
// the workload's cadence.
func (in *ingestInputs) directOp(ds *devStack, i int, ftlOnly bool) error {
	var err error
	ds.sched.Exclusive(func(dev *ssd.Device, now sim.Time) {
		err = in.ops[i].execDirect(in, dev, now, ftlOnly)
		if (i+1)%diReclaimEvery == 0 && !ftlOnly {
			dev.ReclaimInternal()
		}
	})
	return err
}

func (in *ingestInputs) layers(n int) (layerResult, error) {
	lr := newLayerResult()
	var writes, queries float64
	for i := 0; i < n; i++ {
		if in.ops[i].kind == diQuery {
			queries++
		} else {
			writes++
		}
	}

	ds, dir, err := in.newDevice(true)
	if err != nil {
		return lr, err
	}
	sink := ds.traced()
	before := deviceCounters(ds.sched)
	st := in.stackOn(ds, dir)
	tr, err := lr.tracedLoop(in, st, n)
	if err != nil {
		return lr, err
	}
	d := deviceCounters(ds.sched).sub(before)
	lr.device(d, float64(n), writes)
	lr.busy(sink, tr.simSpan, 1)
	lr.put("nvme.roundtrips_per_query", ratio(d[cRoundTrips], queries))
	if d[cGCMoved] == 0 || d[cExtraPages] == 0 {
		return lr, fmt.Errorf("durable-ingest never reached garbage collection in %d ops (gc pages %v, extra pages %v)",
			n, d[cGCMoved], d[cExtraPages])
	}
	remount, err := st.remount()
	if err != nil {
		return lr, err
	}
	lr.put("persist.remount_s", remount)

	// Shadow replays in lockstep on freshly preloaded devices: the device
	// entry point on a persistent device and on an in-memory one (the
	// journal's cost is the difference), the scheduler entry point in
	// memory (its self time, clear of journal noise), the FTL's write entry
	// point, and the planner and the device's own round trip as pure
	// functions.
	//
	// Persistent device entry, in-memory scheduler, device and FTL entry.
	var stacks [4]*devStack
	for k := range stacks {
		if stacks[k], _, err = in.newDevice(k == 0); err != nil {
			return lr, err
		}
	}
	memSched := in.stackOn(stacks[1], "")
	page := ssd.SmallConfig().Geometry.PageSize
	norms := make([]*plan.Expr, n)
	rtOK := make([]bool, n)
	var rts float64
	for i := 0; i < n; i++ {
		if o := &in.ops[i]; o.kind == diQuery {
			norm, err := plan.Normalize(o.expr)
			if err != nil {
				return lr, err
			}
			_, ok, err := plan.RoundTrip(norm, page)
			if err != nil {
				return lr, err
			}
			norms[i], rtOK[i] = norm, ok
			if ok {
				rts++
			}
		}
	}
	lat := make([]sim.Duration, 1)
	class := func(i int) int {
		if in.ops[i].kind == diQuery {
			return 1
		}
		return 0
	}
	t, err := lockstep(n, 2, class,
		func(i int) error { return in.directOp(stacks[0], i, false) },
		func(i int) error {
			_, err := memSched.step(i, lat)
			return err
		},
		func(i int) error { return in.directOp(stacks[2], i, false) },
		func(i int) error { return in.directOp(stacks[3], i, true) },
		func(i int) error {
			if class(i) == 0 {
				return nil
			}
			norm, err := plan.Normalize(in.ops[i].expr)
			if err != nil {
				return err
			}
			if !rtOK[i] {
				if _, _, err := plan.RoundTrip(norm, page); err != nil {
					return err
				}
			}
			_, err = plan.Compile(norm)
			return err
		},
		func(i int) error {
			if !rtOK[i] {
				return nil
			}
			_, _, err := plan.RoundTrip(norms[i], page)
			return err
		})
	if err != nil {
		return lr, err
	}
	for _, ds := range stacks {
		if err := ds.close(); err != nil {
			return lr, err
		}
	}
	pw, tSched := t[0][0], t[1][0]+t[1][1]
	mw, mq, fw, tPlan, tRT := t[2][0], t[2][1], t[3][0], t[4][1], t[5][1]
	lr.put("sched.host_self_us_per_cmd", (tSched-(mw+mq))*1e6/float64(n))
	lr.put("persist.host_us_per_write", ratio((pw-mw)*1e6, writes))
	lr.put("ftl.host_us_per_write", ratio(fw*1e6, writes))
	lr.put("ssd.host_us_per_op", (mw-fw+mq-tPlan-tRT)*1e6/float64(n))
	lr.put("plan.host_us_per_query", ratio(tPlan*1e6, queries))
	lr.put("nvme.host_us_per_roundtrip", ratio(tRT*1e6, rts))
	return lr, nil
}
