package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"parabit/internal/cluster"
	"parabit/internal/plan"
	"parabit/internal/sim"
	"parabit/internal/ssd"
	"parabit/internal/telemetry"
	"parabit/internal/wallclock"
	"parabit/internal/workload"
)

// The cluster benchmark serves the §5.3.2 bitmap workload from a sharded
// multi-device cluster two ways:
//
//   - deterministic (-cluster): one serial query stream over a seeded
//     bitmap, producing the BENCH_cluster.json report — overall
//     and per-shard latency percentiles, route mix (shard-local, wire,
//     scatter/gather) and read skew;
//   - hammer (-hammer -cluster N): concurrent multi-tenant load with
//     per-tenant QoS armed, reporting per-kind outcome counts (ok,
//     rate-rejected, queue-rejected, unavailable, error) separately from
//     the latency percentiles, plus per-shard lanes and skew.
//
// Both load the bitmap chunk-placed, so cross-day reductions route
// shard-locally while cross-chunk queries must scatter.

const clusterSeed = 1

// clusterSpec is the cluster's shape and the deterministic mode's query
// count.
type clusterSpec struct {
	shards, replicas int
	users            int64
	days             int
	skew             float64
	queries          int
}

// defaultClusterSpec holds the flag defaults, which BENCH_cluster.json
// records.
var defaultClusterSpec = clusterSpec{
	shards: defaultClusterShards, replicas: 2,
	users: 2_000_000, days: 6, skew: 1.2,
	queries: 240,
}

// clusterShardReport is one shard's lane in the JSON report.
type clusterShardReport struct {
	ID     int     `json:"id"`
	Reads  int64   `json:"reads"`
	Writes int64   `json:"writes"`
	P50US  float64 `json:"p50_us"`
	P95US  float64 `json:"p95_us"`
	P99US  float64 `json:"p99_us"`
}

// clusterReport is the BENCH_cluster.json schema.
type clusterReport struct {
	Shards       int                  `json:"shards"`
	Replicas     int                  `json:"replicas"`
	Users        int64                `json:"users"`
	Days         int                  `json:"days"`
	Chunks       int                  `json:"chunks"`
	Queries      int                  `json:"queries"`
	Seed         int64                `json:"seed"`
	Skew         float64              `json:"skew"`
	Scheme       string               `json:"scheme"`
	P50US        float64              `json:"p50_us"`
	P95US        float64              `json:"p95_us"`
	P99US        float64              `json:"p99_us"`
	RouteLocal   int64                `json:"route_local"`
	RouteWire    int64                `json:"route_wire"`
	RouteScatter int64                `json:"route_scatter"`
	ReadSkew     float64              `json:"read_skew"`
	PerShard     []clusterShardReport `json:"per_shard"`
}

// benchCluster builds a chunk-placed cluster serving the generated
// bitmap, with telemetry attached to sink (trace lanes register at
// SetTelemetry time, so enable tracing on the sink before calling).
func benchCluster(sink *telemetry.Sink, cs clusterSpec) (*cluster.Cluster, *cluster.BitmapService, error) {
	spec := workload.CustomBitmap(cs.users, cs.days, cs.skew)
	c, err := cluster.New(cluster.Config{
		Shards:      cs.shards,
		Replicas:    cs.replicas,
		PlacementOf: cluster.PlacementByChunk,
	})
	if err != nil {
		return nil, nil, err
	}
	c.SetTelemetry(sink)
	svc, err := cluster.NewBitmapService(c, spec)
	if err != nil {
		return nil, nil, err
	}
	data, err := workload.GenerateBitmap(spec, clusterSeed)
	if err != nil {
		return nil, nil, err
	}
	if err := svc.Load("loader", data); err != nil {
		return nil, nil, err
	}
	return c, svc, nil
}

// pickDays samples k distinct day columns with the spec's skew.
func pickDays(sample func() int, days, k int) []int {
	seen := make(map[int]bool, k)
	out := make([]int, 0, k)
	for len(out) < k {
		d := sample()
		if d >= days || seen[d] {
			continue
		}
		seen[d] = true
		out = append(out, d)
	}
	return out
}

// shardReports reads the per-shard lanes out of the scoped telemetry.
func shardReports(c *cluster.Cluster, sink *telemetry.Sink) ([]clusterShardReport, float64) {
	var out []clusterShardReport
	var reads []int64
	c.EachShard(func(sh *cluster.Shard) {
		h := sink.Histogram(fmt.Sprintf("shard%d.sched.latency.query", sh.ID()))
		qs := h.Quantiles(0.50, 0.95, 0.99)
		out = append(out, clusterShardReport{
			ID:     sh.ID(),
			Reads:  sh.Reads(),
			Writes: sh.Writes(),
			P50US:  qs[0].Micros(),
			P95US:  qs[1].Micros(),
			P99US:  qs[2].Micros(),
		})
		reads = append(reads, sh.Reads())
	})
	var max, sum int64
	for _, r := range reads {
		sum += r
		if r > max {
			max = r
		}
	}
	skew := 0.0
	if sum > 0 {
		skew = float64(max) * float64(len(reads)) / float64(sum)
	}
	return out, skew
}

// runClusterBench is the deterministic mode: a serial seeded query stream
// whose JSON report is byte-stable run over run.
func runClusterBench(cs clusterSpec, w io.Writer) (clusterReport, error) {
	scheme := ssd.SchemeLocFree
	sink := telemetry.New()
	c, svc, err := benchCluster(sink, cs)
	if err != nil {
		return clusterReport{}, err
	}
	rng := rand.New(rand.NewSource(clusterSeed))
	sample := workload.CustomBitmap(cs.users, cs.days, cs.skew).DaySampler(rng)
	chunks := svc.Chunks()

	lats := make([]time.Duration, 0, cs.queries)
	for i := 0; i < cs.queries; i++ {
		// Every fifth query runs under Flash-Cosmos: columns are placed by
		// the normal write path, so these exercise the FC colocation-miss
		// fallback end to end through the serving layer and NVMe wire.
		qScheme := scheme
		if i%5 == 2 {
			qScheme = ssd.SchemeFlashCosmos
		}
		var q *plan.Expr
		if chunks > 1 && i%4 == 3 {
			// Cross-chunk query: operands live in different placement
			// groups, so the front end must scatter and combine host-side.
			a, b := rng.Intn(chunks), rng.Intn(chunks)
			for b == a {
				b = rng.Intn(chunks)
			}
			d := pickDays(sample, cs.days, 2)
			q = plan.Or(
				plan.Leaf(cluster.ColumnKey(a, d[0])),
				plan.Leaf(cluster.ColumnKey(b, d[1])))
		} else {
			// Chunk-local cross-day reduction, the serving hot path.
			chunk := rng.Intn(chunks)
			ds := pickDays(sample, cs.days, 2+rng.Intn(3))
			leaves := make([]*plan.Expr, len(ds))
			for j, d := range ds {
				leaves[j] = plan.Leaf(cluster.ColumnKey(chunk, d))
			}
			q = plan.And(leaves...)
		}
		res, err := c.Query("bench", q, qScheme)
		if err != nil {
			return clusterReport{}, fmt.Errorf("cluster bench query %d: %w", i, err)
		}
		lats = append(lats, res.Elapsed.Std())
	}

	ps := percentiles(lats, 0.50, 0.95, 0.99)
	rep := clusterReport{
		Shards:       cs.shards,
		Replicas:     cs.replicas,
		Users:        cs.users,
		Days:         cs.days,
		Chunks:       chunks,
		Queries:      cs.queries,
		Seed:         clusterSeed,
		Skew:         cs.skew,
		Scheme:       fmt.Sprintf("%v+%v", scheme, ssd.SchemeFlashCosmos),
		P50US:        micros(ps[0]),
		P95US:        micros(ps[1]),
		P99US:        micros(ps[2]),
		RouteLocal:   sink.Counter("cluster.route.local").Value(),
		RouteWire:    sink.Counter("cluster.route.wire").Value(),
		RouteScatter: sink.Counter("cluster.route.scatter").Value(),
	}
	rep.PerShard, rep.ReadSkew = shardReports(c, sink)

	fmt.Fprintf(w, "cluster: %d shards x%d replicas, %d users, %d day columns in %d chunks\n",
		cs.shards, cs.replicas, cs.users, cs.days, chunks)
	fmt.Fprintf(w, "  %d queries (skew %.2f): p50 %.1fus p95 %.1fus p99 %.1fus\n",
		cs.queries, cs.skew, rep.P50US, rep.P95US, rep.P99US)
	fmt.Fprintf(w, "  routes: %d local, %d wire, %d scatter; read skew %.2fx\n",
		rep.RouteLocal, rep.RouteWire, rep.RouteScatter, rep.ReadSkew)
	fmt.Fprintln(w, "  per-shard: id reads writes p50 p95 p99")
	for _, s := range rep.PerShard {
		fmt.Fprintf(w, "    %2d %8d %8d %9.1fus %9.1fus %9.1fus\n",
			s.ID, s.Reads, s.Writes, s.P50US, s.P95US, s.P99US)
	}
	return rep, nil
}

// clusterOutcome indexes the hammer's per-kind outcome counters.
type clusterOutcome int

const (
	outcomeOK clusterOutcome = iota
	outcomeRejectedRate
	outcomeRejectedQueue
	outcomeUnavailable
	outcomeError
	numOutcomes
)

// classify maps an operation error to its outcome bucket.
func classify(err error) clusterOutcome {
	if err == nil {
		return outcomeOK
	}
	var ae *cluster.AdmissionError
	if errors.As(err, &ae) {
		if ae.Reason == "queue" {
			return outcomeRejectedQueue
		}
		return outcomeRejectedRate
	}
	if errors.Is(err, cluster.ErrUnavailable) {
		return outcomeUnavailable
	}
	return outcomeError
}

// runClusterHammer drives the cluster from n concurrent clients spread
// over several tenants, half of them QoS-capped, against millions of
// simulated users. Outcome counts are per kind and separate from the
// latency percentiles, which come from the per-shard telemetry lanes.
func runClusterHammer(n, ops, tenants int, cs clusterSpec, tracePath string, metrics bool, w io.Writer) error {
	scheme := ssd.SchemeLocFree
	sink := telemetry.New()
	if tracePath != "" {
		sink.EnableTrace()
	}
	c, svc, err := benchCluster(sink, cs)
	if err != nil {
		return err
	}
	if tenants < 1 {
		tenants = 1
	}
	// Odd tenants run capped: the rate limit rejects once the burst is
	// spent (virtual time advances far slower than op count), and the
	// in-flight bound sheds concurrent pile-ups.
	for t := 0; t < tenants; t++ {
		if t%2 == 1 {
			c.SetTenantQoS(fmt.Sprintf("tenant%d", t),
				cluster.QoS{OpsPerSec: 2000, Burst: 20 + 10*t, MaxInFlight: 4})
		}
	}
	chunks := svc.Chunks()

	// kinds: 0 query, 1 read, 2 write
	kindNames := []string{"query", "read", "write"}
	var outcomes [3][numOutcomes]atomic.Int64
	wallStart := wallclock.Start()
	var wg sync.WaitGroup
	errCh := make(chan error, n)
	for cl := 0; cl < n; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant%d", cl%tenants)
			// Odd clients query under Flash-Cosmos so the multi-tenant mix
			// keeps both the MWS dispatch and its fallback paths hot.
			scheme := scheme
			if cl%2 == 1 {
				scheme = ssd.SchemeFlashCosmos
			}
			rng := rand.New(rand.NewSource(int64(1000 + cl)))
			sample := workload.CustomBitmap(cs.users, cs.days, cs.skew).DaySampler(rng)
			// Skew the chunk axis with the same Zipf: days of one chunk
			// are colocated, so only hot *chunks* make hot replica sets —
			// the hot-shard effect the EXPERIMENTS recipe measures.
			chunkPick := workload.CustomBitmap(cs.users, chunks, cs.skew).DaySampler(rng)
			page := make([]byte, c.PageSize())
			for i := 0; i < ops; i++ {
				var kind int
				var err error
				switch rng.Intn(4) {
				case 0, 1:
					kind = 0
					chunk := chunkPick()
					ds := pickDays(sample, cs.days, 2)
					_, err = c.Query(tenant, plan.And(
						plan.Leaf(cluster.ColumnKey(chunk, ds[0])),
						plan.Leaf(cluster.ColumnKey(chunk, ds[1]))), scheme)
				case 2:
					kind = 1
					_, _, err = c.ReadColumn(tenant, cluster.ColumnKey(chunkPick(), sample()))
				case 3:
					kind = 2
					rng.Read(page)
					_, err = c.WriteColumn(tenant, cluster.ColumnKey(chunkPick(), sample()), page)
				}
				out := classify(err)
				outcomes[kind][out].Add(1)
				if out == outcomeError {
					errCh <- fmt.Errorf("client %d (%s): %w", cl, kindNames[kind], err)
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return err
	}
	wall := wallStart.Elapsed()

	fmt.Fprintf(w, "cluster hammer: %d clients x %d ops over %d tenants, %d shards x%d replicas in %v wall\n",
		n, ops, tenants, cs.shards, cs.replicas, wall.Round(time.Millisecond))
	fmt.Fprintf(w, "  bitmap             %d users, %d day columns in %d chunks (skew %.2f)\n",
		cs.users, cs.days, chunks, cs.skew)
	fmt.Fprintf(w, "  virtual clock      %v\n", sim.Duration(c.Now()).Std())
	fmt.Fprintln(w, "  per-kind outcomes: kind ok rejected-rate rejected-queue unavailable error")
	for k, name := range kindNames {
		fmt.Fprintf(w, "    %-6s", name)
		for o := clusterOutcome(0); o < numOutcomes; o++ {
			fmt.Fprintf(w, " %12d", outcomes[k][o].Load())
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "  per-shard lanes: id reads writes query-p50 query-p95 query-p99 qp-drained")
	shardReps, skewX := shardReports(c, sink)
	c.EachShard(func(sh *cluster.Shard) {
		for _, s := range shardReps {
			if s.ID != sh.ID() {
				continue
			}
			fmt.Fprintf(w, "    %2d %8d %8d %9.1fus %9.1fus %9.1fus %10d\n",
				s.ID, s.Reads, s.Writes, s.P50US, s.P95US, s.P99US, sh.QueuePair().Stats().Drained)
		}
	})
	fmt.Fprintf(w, "  read skew          %.2fx (hottest shard vs mean)\n", skewX)
	fmt.Fprintf(w, "  admission          %d rate-rejected, %d queue-rejected (typed, not errors)\n",
		sink.Counter("cluster.admission.rejected.rate").Value(),
		sink.Counter("cluster.admission.rejected.queue").Value())
	if metrics {
		// Each shard's Stats-backed counts publish into its scope.
		c.EachShard(func(sh *cluster.Shard) { sh.Scheduler().PublishMetrics() })
		fmt.Fprintln(w, "\nmetrics:")
		sink.WriteMetrics(w)
	}
	if tracePath != "" {
		if err := writeTraceFile(tracePath, sink.WriteTrace); err != nil {
			return err
		}
		fmt.Fprintf(w, "\ntrace written to %s (one lane set per shard)\n", tracePath)
	}
	return nil
}
