package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"parabit/internal/cluster"
	"parabit/internal/flash"
	"parabit/internal/latch"
	"parabit/internal/nvme"
	"parabit/internal/plan"
	"parabit/internal/sched"
	"parabit/internal/sim"
	"parabit/internal/ssd"
	"parabit/internal/telemetry"
	"parabit/internal/workload"
)

// bitmap-query serves the §5.3.2 bitmap index from a sharded cluster:
// read-only after load, depth 1, Zipf-skewed chunk and day choice. Most
// queries are chunk-local AND folds that route shard-locally over the
// NVMe wire; one in eight is a cross-chunk OR that must scatter. Every
// fifth query runs under Flash-Cosmos to keep the colocation-miss
// fallback exercised.
const (
	bmShards   = 4
	bmReplicas = 2
	bmUsers    = 2_000_000
	bmDays     = 8
	bmSkew     = 1.2
	// bmQueries is the generated query list; the loop cycles through it.
	bmQueries = 32768
	// bmReclaimEvery is the internal-pool cadence: Cluster.Reclaim runs
	// after every this many queries, inside the timed loop.
	bmReclaimEvery = 64
	tenant         = "bench"
	// bmBlocksPerPlane halves the small geometry's blocks per plane, so
	// the reallocation churn of the Flash-Cosmos fallback brings every
	// shard to garbage-collection steady state early in the simulated
	// prefix. Without collections each query's simulated latency is one
	// of a dozen values fixed by its shape, and the tail quantiles would
	// read the same for every seed.
	bmBlocksPerPlane = 32
)

var bitmapQuery = benchWorkload{name: "bitmap-query", simOps: 200000, traceOps: bmQueries, prepare: prepareBitmap}

type bmQuery struct {
	expr   *plan.Expr
	op     latch.Op
	keys   []uint64
	scheme ssd.Scheme
	// want is the golden result: the software fold over the column
	// pages, computed with the inputs since the data is read-only.
	want []byte
}

type bitmapInputs struct {
	spec    workload.BitmapSpec
	data    *workload.BitmapData
	chunks  int
	pages   map[uint64][]byte // column key -> stored page
	queries []bmQuery
}

func prepareBitmap(seed int64, _ string) (inputs, error) {
	spec := workload.CustomBitmap(bmUsers, bmDays, bmSkew)
	data, err := workload.GenerateBitmap(spec, seed)
	if err != nil {
		return nil, err
	}
	page := ssd.SmallConfig().Geometry.PageSize
	chunks := int((spec.ColumnBytes() + int64(page) - 1) / int64(page))
	in := &bitmapInputs{spec: spec, data: data, chunks: chunks, pages: make(map[uint64][]byte)}
	for day, col := range data.Columns {
		raw := col.Bytes()
		for chunk := 0; chunk < chunks; chunk++ {
			buf := make([]byte, page)
			if lo := chunk * page; lo < len(raw) {
				copy(buf, raw[lo:])
			}
			in.pages[cluster.ColumnKey(chunk, day)] = buf
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	dayPick := spec.DaySampler(rng)
	chunkPick := workload.CustomBitmap(bmUsers, chunks, bmSkew).DaySampler(rng)
	in.queries = make([]bmQuery, bmQueries)
	for i := range in.queries {
		q := bmQuery{scheme: ssd.SchemeLocFree}
		if i%5 == 4 {
			q.scheme = ssd.SchemeFlashCosmos
		}
		if rng.Intn(8) == 0 {
			a, b := chunkPick(), chunkPick()
			for b == a {
				b = chunkPick()
			}
			d := distinctDays(dayPick, 2)
			q.op, q.keys = latch.OpOr, []uint64{cluster.ColumnKey(a, d[0]), cluster.ColumnKey(b, d[1])}
		} else {
			chunk := chunkPick()
			q.op = latch.OpAnd
			for _, d := range distinctDays(dayPick, 2+rng.Intn(5)) {
				q.keys = append(q.keys, cluster.ColumnKey(chunk, d))
			}
		}
		leaves := make([]*plan.Expr, len(q.keys))
		for j, k := range q.keys {
			leaves[j] = plan.Leaf(k)
		}
		if q.op == latch.OpOr {
			q.expr = plan.Or(leaves...)
		} else {
			q.expr = plan.And(leaves...)
		}
		pages := make([][]byte, len(q.keys))
		for j, k := range q.keys {
			pages[j] = in.pages[k]
		}
		q.want = make([]byte, page)
		foldInto(q.want, q.op, pages...)
		in.queries[i] = q
	}
	return in, nil
}

// distinctDays samples k distinct day columns.
func distinctDays(pick func() int, k int) []int {
	out := make([]int, 0, k)
	for len(out) < k {
		d := pick()
		dup := false
		for _, x := range out {
			dup = dup || x == d
		}
		if !dup {
			out = append(out, d)
		}
	}
	return out
}

func (in *bitmapInputs) newCluster() (*cluster.Cluster, error) {
	dev := ssd.SmallConfig()
	dev.Geometry.BlocksPerPlane = bmBlocksPerPlane
	c, err := cluster.New(cluster.Config{
		Shards: bmShards, Replicas: bmReplicas, PlacementOf: cluster.PlacementByChunk, Device: dev,
	})
	if err != nil {
		return nil, err
	}
	svc, err := cluster.NewBitmapService(c, in.spec)
	if err != nil {
		return nil, err
	}
	if err := svc.Load("loader", in.data); err != nil {
		return nil, err
	}
	return c, nil
}

func (in *bitmapInputs) build() (stack, error) {
	c, err := in.newCluster()
	if err != nil {
		return nil, err
	}
	return &bitmapStack{in: in, c: c}, nil
}

func (in *bitmapInputs) finish(st stack) error { return st.close() }

type bitmapStack struct {
	in   *bitmapInputs
	c    *cluster.Cluster
	last []byte
}

func (s *bitmapStack) step(i int, lat []sim.Duration) (int, error) {
	q := &s.in.queries[i%len(s.in.queries)]
	res, err := s.c.Query(tenant, q.expr, q.scheme)
	if (i+1)%bmReclaimEvery == 0 {
		s.c.Reclaim()
	}
	s.last = res.Data
	lat[0] = res.Elapsed
	return 1, err
}

func (s *bitmapStack) check(i int, dg *digest) error {
	q := &s.in.queries[i%len(s.in.queries)]
	if !bytes.Equal(s.last, q.want) {
		return mismatch(fmt.Sprintf("query %d (%v)", i, q.expr), s.last, q.want)
	}
	dg.add(s.last)
	return nil
}

func (s *bitmapStack) now() sim.Time { return s.c.Now() }

func (s *bitmapStack) flash() flash.Stats { return clusterFlash(s.c) }

func (s *bitmapStack) close() error { return s.c.Close() }

// clusterFlash sums every shard's flash counters.
func clusterFlash(c *cluster.Cluster) flash.Stats {
	var total flash.Stats
	c.EachShard(func(sh *cluster.Shard) {
		sh.Scheduler().Exclusive(func(dev *ssd.Device, _ sim.Time) { total.Add(dev.Array().Stats()) })
	})
	return total
}

// shardCmd is one shard-level command of a routed query, as the cluster
// front end would issue it: a planner query over shard-local LPNs, or a
// bare column read inside a scatter.
type shardCmd struct {
	shard int
	read  bool
	lpn   uint64
	local *plan.Expr
	wire  bool // the cluster sends this expression over the NVMe wire first
}

// route mirrors the front end's placement-aware routing over a recovered
// replica map: colocated expressions run on one shard (least routed reads
// first, then lowest id), others recurse per argument with leaf reads.
func route(e *plan.Expr, reps map[uint64]map[int]uint64, reads map[int]int, page int, out []shardCmd) []shardCmd {
	if e.IsLeaf() {
		sh, lpn := pickShard(reps[e.LPN], reads)
		reads[sh]++
		return append(out, shardCmd{shard: sh, read: true, lpn: lpn})
	}
	keys := e.Leaves()
	common := map[int]uint64{}
	for sh := range reps[keys[0]] {
		common[sh] = 0
	}
	for _, k := range keys {
		for sh := range common {
			if _, ok := reps[k][sh]; !ok {
				delete(common, sh)
			}
		}
	}
	if len(common) == 0 {
		for _, a := range e.Args {
			out = route(a, reps, reads, page, out)
		}
		return out
	}
	sh, _ := pickShard(common, reads)
	reads[sh]++
	local := relabel(e, func(k uint64) uint64 { return reps[k][sh] })
	_, wire := plan.ToFormula(local, page)
	return append(out, shardCmd{shard: sh, local: local, wire: wire})
}

func pickShard(cands map[int]uint64, reads map[int]int) (int, uint64) {
	best := -1
	for sh := range cands {
		if best < 0 || reads[sh] < reads[best] || (reads[sh] == reads[best] && sh < best) {
			best = sh
		}
	}
	return best, cands[best]
}

// relabel rebuilds an AND/OR tree with every leaf mapped through f.
func relabel(e *plan.Expr, f func(uint64) uint64) *plan.Expr {
	if e.IsLeaf() {
		return plan.Leaf(f(e.LPN))
	}
	args := make([]*plan.Expr, len(e.Args))
	for i, a := range e.Args {
		args[i] = relabel(a, f)
	}
	if e.Op == latch.OpOr {
		return plan.Or(args...)
	}
	return plan.And(args...)
}

// replicaMap recovers key -> shard -> LPN by content: the directory is
// the front end's private state, but every stored column page is
// distinct, so scanning each shard's mapped pages finds every replica.
func (in *bitmapInputs) replicaMap(c *cluster.Cluster) (map[uint64]map[int]uint64, error) {
	byHash := make(map[uint64]uint64, len(in.pages))
	for k, p := range in.pages {
		byHash[hashOf(p)] = k
	}
	reps := make(map[uint64]map[int]uint64, len(in.pages))
	found := 0
	c.EachShard(func(sh *cluster.Shard) {
		sh.Scheduler().Exclusive(func(dev *ssd.Device, now sim.Time) {
			for lpn := uint64(0); lpn < dev.UserPages(); lpn++ {
				if _, ok := dev.FTL().Lookup(lpn); !ok {
					continue
				}
				data, _, err := dev.Read(lpn, now)
				if err != nil {
					continue
				}
				if k, ok := byHash[hashOf(data)]; ok && bytes.Equal(data, in.pages[k]) {
					if reps[k] == nil {
						reps[k] = map[int]uint64{}
					}
					reps[k][sh.ID()] = lpn
					found++
				}
			}
		})
	})
	if want := len(in.pages) * bmReplicas; found != want {
		return nil, fmt.Errorf("replica scan found %d of %d column replicas", found, want)
	}
	return reps, nil
}

func (in *bitmapInputs) layers(n int) (layerResult, error) {
	lr := newLayerResult()
	queries := in.queries[:n]
	q := float64(n)

	// Traced run: telemetry on every layer of every shard.
	c, err := in.newCluster()
	if err != nil {
		return lr, err
	}
	sink := telemetry.New()
	sink.EnableTrace()
	c.SetTelemetry(sink)
	c.EachShard(func(sh *cluster.Shard) {
		scope := sink.Scope(fmt.Sprintf("shard%d", sh.ID()))
		sh.Scheduler().Exclusive(func(dev *ssd.Device, _ sim.Time) { dev.SetTelemetry(scope) })
	})
	before := clusterCounters(c)
	tr, err := lr.tracedLoop(in, &bitmapStack{in: in, c: c}, n)
	if err != nil {
		return lr, err
	}
	d := clusterCounters(c).sub(before)
	wireRoutes := float64(sink.Counter("cluster.route.wire").Value())
	lr.put("cluster.route_local_ratio", float64(sink.Counter("cluster.route.local").Value())/q)
	lr.put("cluster.route_wire_ratio", wireRoutes/q)
	lr.put("cluster.route_scatter_ratio", float64(sink.Counter("cluster.route.scatter").Value())/q)
	lr.put("cluster.wire_fallbacks", float64(sink.Counter("cluster.wire.fallback").Value()))
	lr.put("cluster.read_skew", readSkew(c))
	lr.put("nvme.commands_per_query", d.nvmeCmds/q)
	lr.put("nvme.roundtrips_per_query", (wireRoutes+d.dev[cRoundTrips])/q)
	lr.device(d.dev, q, 0)
	lr.busy(sink, tr.simSpan, bmShards)

	// Route every query as the front end does, over the replica map the
	// traced cluster's pages reveal (placement is deterministic, so every
	// identically loaded cluster has the same map).
	reps, err := in.replicaMap(c)
	if err != nil {
		return lr, err
	}
	if err := c.Close(); err != nil {
		return lr, err
	}
	page := c.PageSize()
	reads := map[int]int{}
	routed := make([][]shardCmd, len(queries))
	var cmds float64
	for i := range queries {
		routed[i] = route(queries[i].expr, reps, reads, page, nil)
		cmds += float64(len(routed[i]))
	}

	// Shadow replays of the same queries, untraced and in lockstep, each
	// layer entry point on its own freshly loaded cluster: the front end,
	// the shard schedulers, the devices. The planner and the NVMe wire
	// replay as pure functions on the same expressions: the front end's
	// Normalize, its wire exchanges, and the device's Normalize, Compile
	// and own round trip (a round trip the shape check refuses is planner
	// work).
	var clusters [3]*cluster.Cluster
	for k := range clusters {
		if clusters[k], err = in.newCluster(); err != nil {
			return lr, err
		}
	}
	full, viaSched, direct := clusters[0], clusters[1], clusters[2]
	norms := make([][]*plan.Expr, n)
	rtOK := make([][]bool, n)
	var wires, rts float64
	for i := range routed {
		for _, sc := range routed[i] {
			if sc.read {
				continue
			}
			norm, err := plan.Normalize(sc.local)
			if err != nil {
				return lr, err
			}
			_, ok, err := plan.RoundTrip(norm, page)
			if err != nil {
				return lr, err
			}
			norms[i], rtOK[i] = append(norms[i], norm), append(rtOK[i], ok)
			if ok {
				rts++
			}
			if sc.wire {
				wires++
			}
		}
	}
	reclaim := func(c *cluster.Cluster, i int) {
		if (i+1)%bmReclaimEvery == 0 {
			c.Reclaim()
		}
	}
	qp := nvme.NewQueuePair(1024)
	t, err := lockstep(n, 1, oneClass,
		func(i int) error {
			_, err := full.Query(tenant, queries[i].expr, queries[i].scheme)
			reclaim(full, i)
			return err
		},
		func(i int) error {
			for _, sc := range routed[i] {
				if err := submitShard(viaSched, sc, queries[i].scheme).Err; err != nil {
					return err
				}
			}
			reclaim(viaSched, i)
			return nil
		},
		func(i int) error {
			for _, sc := range routed[i] {
				if err := execShard(direct, sc, queries[i].scheme); err != nil {
					return err
				}
			}
			reclaim(direct, i)
			return nil
		},
		func(i int) error {
			_, err := plan.Normalize(queries[i].expr)
			return err
		},
		func(i int) error {
			for _, sc := range routed[i] {
				if sc.wire {
					if err := wireExchange(qp, sc.local, queries[i].scheme, page); err != nil {
						return err
					}
				}
			}
			return nil
		},
		func(i int) error {
			local := 0
			for _, sc := range routed[i] {
				if sc.read {
					continue
				}
				norm, err := plan.Normalize(sc.local)
				if err != nil {
					return err
				}
				if !rtOK[i][local] {
					if _, _, err := plan.RoundTrip(norm, page); err != nil {
						return err
					}
				}
				if _, err := plan.Compile(norm); err != nil {
					return err
				}
				local++
			}
			return nil
		},
		func(i int) error {
			for k, norm := range norms[i] {
				if rtOK[i][k] {
					if _, _, err := plan.RoundTrip(norm, page); err != nil {
						return err
					}
				}
			}
			return nil
		})
	if err != nil {
		return lr, err
	}
	for _, c := range clusters {
		if err := c.Close(); err != nil {
			return lr, err
		}
	}
	tFull, tSched, tSSD, tPlanFront := t[0][0], t[1][0], t[2][0], t[3][0]
	tWire, tPlanDev, tRT := t[4][0], t[5][0], t[6][0]
	lr.put("cluster.host_self_us", (tFull-tSched-tWire-tPlanFront)*1e6/q)
	lr.put("sched.host_self_us_per_cmd", (tSched-tSSD)*1e6/cmds)
	lr.put("ssd.host_us_per_op", (tSSD-tPlanDev-tRT)*1e6/cmds)
	lr.put("plan.host_us_per_query", (tPlanFront+tPlanDev)*1e6/q)
	lr.put("nvme.host_us_per_roundtrip", ratio((tWire+tRT)*1e6, wires+rts))
	return lr, nil
}

// submitShard issues one routed command through the shard's scheduler.
func submitShard(c *cluster.Cluster, sc shardCmd, scheme ssd.Scheme) sched.Result {
	s := c.Shard(sc.shard).Scheduler()
	if sc.read {
		return s.Submit(sched.Command{Kind: sched.KindRead, LPN: sc.lpn, ToHost: true}).Wait()
	}
	return s.Submit(sched.Command{Kind: sched.KindQuery, Query: sc.local, Scheme: scheme, ToHost: true}).Wait()
}

// execShard runs one routed command straight on the shard's device.
func execShard(c *cluster.Cluster, sc shardCmd, scheme ssd.Scheme) error {
	var err error
	c.Shard(sc.shard).Scheduler().Exclusive(func(dev *ssd.Device, now sim.Time) {
		if sc.read {
			_, _, err = dev.ReadToHost(sc.lpn, now)
			return
		}
		var br ssd.BitwiseResult
		br, err = dev.ExecuteQuery(sc.local, scheme, now)
		if err == nil {
			dev.ShipToHost(&br)
		}
	})
	return err
}

// wireExchange is the front end's wire path for one shard-local query:
// formula encoding, queue-pair exchange, device-side parse and lift.
func wireExchange(qp *nvme.QueuePair, e *plan.Expr, scheme ssd.Scheme, page int) error {
	f, ok := plan.ToFormula(e, page)
	if !ok {
		return nil
	}
	f.Scheme, f.SchemeValid = uint8(scheme), true
	cmds, err := nvme.EncodeFormula(f, page)
	if err != nil {
		return err
	}
	parsed, err := qp.Exchange(cmds)
	if err != nil {
		return err
	}
	if _, _, err := nvme.StreamScheme(parsed); err != nil {
		return err
	}
	batches, err := nvme.ParseBatches(parsed, page)
	if err != nil {
		return err
	}
	_, err = plan.FromBatches(batches, page)
	return err
}

func readSkew(c *cluster.Cluster) float64 {
	var reads []int64
	c.EachShard(func(sh *cluster.Shard) { reads = append(reads, sh.Reads()) })
	var mx, sum int64
	for _, r := range reads {
		sum += r
		mx = max(mx, r)
	}
	return ratio(float64(mx)*float64(len(reads)), float64(sum))
}

// clusterCounters sums the device-level counters of every shard.
type clusterSnap struct {
	dev      devCounters
	nvmeCmds float64
}

func (a clusterSnap) sub(b clusterSnap) clusterSnap {
	return clusterSnap{dev: a.dev.sub(b.dev), nvmeCmds: a.nvmeCmds - b.nvmeCmds}
}

func clusterCounters(c *cluster.Cluster) clusterSnap {
	var s clusterSnap
	c.EachShard(func(sh *cluster.Shard) {
		s.nvmeCmds += float64(sh.QueuePair().Stats().Submitted)
		s.dev = s.dev.add(deviceCounters(sh.Scheduler()))
	})
	return s
}
