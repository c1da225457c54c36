package main

import (
	"fmt"
	"strings"
	"time"

	"parabit/internal/sched"
	"parabit/internal/sim"
	"parabit/internal/ssd"
	"parabit/internal/telemetry"
)

// layerUnits lists every per-layer metric with its unit. Each workload
// reports all of them; a layer the workload never reaches reads 0.
var layerUnits = map[string]string{
	"cluster.host_self_us":               "us",
	"cluster.route_local_ratio":          "ratio",
	"cluster.route_wire_ratio":           "ratio",
	"cluster.route_scatter_ratio":        "ratio",
	"cluster.read_skew":                  "ratio",
	"cluster.wire_fallbacks":             "count",
	"nvme.host_us_per_roundtrip":         "us",
	"nvme.commands_per_query":            "count",
	"nvme.roundtrips_per_query":          "count",
	"plan.host_us_per_query":             "us",
	"plan.steps_per_query":               "count",
	"plan.fused_operands_per_chain":      "count",
	"plan.cache_hit_ratio":               "ratio",
	"plan.cache_evictions":               "count",
	"plan.cache_invalidations_per_write": "count",
	"sched.host_self_us_per_cmd":         "us",
	"sched.batch_width":                  "count",
	"sched.overlap":                      "ratio",
	"sched.retries":                      "count",
	"ssd.host_us_per_op":                 "us",
	"ssd.fallback_ratio":                 "ratio",
	"ssd.reallocations_per_op":           "count",
	"ssd.mws_share":                      "ratio",
	"ftl.host_us_per_write":              "us",
	"ftl.write_amp":                      "ratio",
	"ftl.gc_runs":                        "count",
	"ftl.gc_pages_moved_per_write":       "count",
	"ftl.padded_pages":                   "count",
	"flash.sros_per_op":                  "count",
	"flash.programs_per_op":              "count",
	"flash.erases_per_kop":               "count",
	"flash.sense_busy_ratio":             "ratio",
	"flash.program_busy_ratio":           "ratio",
	"flash.channel_busy_ratio":           "ratio",
	"interconnect.host_link_busy_ratio":  "ratio",
	"persist.host_us_per_write":          "us",
	"persist.journal_bytes_per_write":    "B",
	"persist.snapshots_per_kwrite":       "count",
	"persist.remount_s":                  "s",
	"bench.self_share":                   "ratio",
	"bench.trace_overhead":               "ratio",
}

// layerResult collects the per-layer metrics of one traced run.
type layerResult struct {
	m      map[string]metric
	digest uint64
	ops    int64
	failed int64
}

func newLayerResult() layerResult {
	lr := layerResult{m: make(map[string]metric, len(layerUnits))}
	for name, unit := range layerUnits {
		lr.m[name] = metric{0, unit}
	}
	return lr
}

func (lr layerResult) put(name string, v float64) {
	unit, ok := layerUnits[name]
	if !ok {
		panic("perfbench: unregistered layer metric " + name)
	}
	lr.m[name] = metric{v, unit}
}

// traceRun is the --trace 1 measurement: per-layer metrics from a traced
// run plus the untraced shadow replays, over the first n ops.
func traceRun(in inputs, n int) (result, error) {
	lr, err := in.layers(n)
	if err != nil {
		return result{}, err
	}
	return result{attempted: lr.ops, failed: lr.failed, digest: lr.digest, metrics: lr.m}, nil
}

// tracedLoop runs the first n ops, golden checks included, on an
// untraced twin of the stack and then on the telemetry-enabled stack st.
// It records the harness's share of the traced wall time and the tracing
// overhead: traced over untraced time inside the stack's calls.
func (lr *layerResult) tracedLoop(in inputs, st stack, n int) (*loop, error) {
	twin, err := in.build()
	if err != nil {
		return nil, err
	}
	untraced, err := runLoop(twin, 0, n)
	if err != nil {
		return nil, err
	}
	if err := twin.close(); err != nil {
		return nil, err
	}
	tr, err := runLoop(st, 0, n)
	if err != nil {
		return nil, err
	}
	lr.ops, lr.failed, lr.digest = tr.ops, tr.failed, tr.digest
	lr.put("bench.self_share", ratio(tr.wall-tr.callWall, tr.wall))
	lr.put("bench.trace_overhead", ratio(tr.callWall, untraced.callWall))
	return tr, nil
}

// Device-level counters, read through the stats accessors the stack
// already has, as one flat vector so windows subtract field by field.
const (
	cBitwiseOps = iota
	cReallocs
	cFallbacks
	cQueries
	cPlanSteps
	cFusedChains
	cFusedOperands
	cRoundTrips
	cCacheHits
	cCacheMisses
	cCacheEvictions
	cCacheInvalidations
	cHostPages
	cExtraPages
	cGCRuns
	cGCMoved
	cPadded
	cSROs
	cPrograms
	cErases
	cSenseOps
	cMWS
	cCmds
	cBatches
	cBusy
	cHorizon
	cRetries
	cJournalBytes
	cSnapshots
	nCounters
)

type devCounters [nCounters]float64

func (a devCounters) add(b devCounters) devCounters {
	for i := range a {
		a[i] += b[i]
	}
	return a
}

func (a devCounters) sub(b devCounters) devCounters {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

// deviceCounters reads one device's counters through its scheduler.
func deviceCounters(s *sched.Scheduler) devCounters {
	var c devCounters
	s.Exclusive(func(dev *ssd.Device, _ sim.Time) {
		op, q, ft, fl := dev.Stats(), dev.QueryStats(), dev.FTL().Stats(), dev.Array().Stats()
		c[cBitwiseOps], c[cReallocs], c[cFallbacks] = float64(op.BitwiseOps), float64(op.Reallocations), float64(op.Fallbacks)
		c[cQueries], c[cPlanSteps] = float64(q.Queries), float64(q.PlanSteps)
		c[cFusedChains], c[cFusedOperands], c[cRoundTrips] = float64(q.FusedChains), float64(q.FusedOperands), float64(q.NVMeRoundTrips)
		c[cCacheHits], c[cCacheMisses] = float64(q.Cache.Hits), float64(q.Cache.Misses)
		c[cCacheEvictions], c[cCacheInvalidations] = float64(q.Cache.Evictions), float64(q.Cache.Invalidations)
		c[cHostPages], c[cExtraPages] = float64(ft.HostPagesWritten), float64(ft.ExtraPagesWritten)
		c[cGCRuns], c[cGCMoved], c[cPadded] = float64(ft.GCRuns), float64(ft.GCPagesMoved), float64(ft.PaddedPages)
		c[cSROs], c[cPrograms], c[cErases] = float64(fl.SROs), float64(fl.Programs), float64(fl.Erases)
		c[cSenseOps], c[cMWS] = float64(fl.BitwiseOps), float64(fl.MWSSenses)
		if ps, ok := dev.PersistStats(); ok {
			c[cJournalBytes], c[cSnapshots] = float64(ps.JournalBytes), float64(ps.Snapshots)
		}
	})
	ss := s.Stats()
	c[cCmds], c[cBatches] = float64(ss.Completed()), float64(ss.Batches)
	c[cBusy], c[cHorizon], c[cRetries] = float64(ss.BusyTime()), float64(ss.Horizon), float64(ss.Retries)
	return c
}

// device derives the planner, scheduler, controller, FTL, flash and
// persistence metrics from a window of device counters covering ops
// workload ops, writes of them host writes.
func (lr layerResult) device(d devCounters, ops, writes float64) {
	lr.put("plan.steps_per_query", ratio(d[cPlanSteps], d[cQueries]))
	lr.put("plan.fused_operands_per_chain", ratio(d[cFusedOperands], d[cFusedChains]))
	lr.put("plan.cache_hit_ratio", ratio(d[cCacheHits], d[cCacheHits]+d[cCacheMisses]))
	lr.put("plan.cache_evictions", d[cCacheEvictions])
	lr.put("plan.cache_invalidations_per_write", ratio(d[cCacheInvalidations], writes))
	lr.put("sched.batch_width", ratio(d[cCmds], d[cBatches]))
	lr.put("sched.overlap", ratio(d[cBusy], d[cHorizon]))
	lr.put("sched.retries", d[cRetries])
	lr.put("ssd.fallback_ratio", ratio(d[cFallbacks], d[cBitwiseOps]))
	lr.put("ssd.reallocations_per_op", ratio(d[cReallocs], ops))
	lr.put("ssd.mws_share", ratio(d[cMWS], d[cSenseOps]))
	lr.put("ftl.write_amp", ratio(d[cHostPages]+d[cExtraPages], d[cHostPages]))
	lr.put("ftl.gc_runs", d[cGCRuns])
	lr.put("ftl.gc_pages_moved_per_write", ratio(d[cGCMoved], writes))
	lr.put("ftl.padded_pages", d[cPadded])
	lr.put("flash.sros_per_op", ratio(d[cSROs], ops))
	lr.put("flash.programs_per_op", ratio(d[cPrograms], ops))
	lr.put("flash.erases_per_kop", ratio(d[cErases]*1000, ops))
	lr.put("persist.journal_bytes_per_write", ratio(d[cJournalBytes], writes))
	lr.put("persist.snapshots_per_kwrite", ratio(d[cSnapshots]*1000, writes))
}

// busy derives the flash and host-link busy ratios from the trace's
// plane, channel and host-link lanes: simulated busy time over lanes x
// makespan. devices is the number of devices whose lanes the sink holds.
func (lr layerResult) busy(sink *telemetry.Sink, span sim.Duration, devices int) {
	events := sink.Trace().Events()
	type lane struct{ proc, name string }
	procs := map[int]string{}
	lanes := map[[2]int]lane{}
	for _, ev := range events {
		if ev.Ph == "M" && ev.Name == "process_name" {
			procs[ev.PID] = ev.Args["name"]
		}
	}
	for _, ev := range events {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			lanes[[2]int{ev.PID, ev.TID}] = lane{procs[ev.PID], ev.Args["name"]}
		}
	}
	var sense, program, channel, link float64
	planes, chans := 0, 0
	for _, l := range lanes {
		if strings.HasSuffix(l.proc, "flash") && strings.HasPrefix(l.name, "plane-") {
			planes++
		}
		if strings.HasSuffix(l.proc, "flash") && strings.HasPrefix(l.name, "chan-") {
			chans++
		}
	}
	for _, ev := range events {
		if ev.Ph != "X" {
			continue
		}
		l := lanes[[2]int{ev.PID, ev.TID}]
		switch {
		case strings.HasSuffix(l.proc, "flash") && strings.HasPrefix(l.name, "plane-"):
			switch ev.Name {
			case "program", "erase":
				program += ev.Dur
			case "sense", "bitwise", "mws", "chain", "hold":
				sense += ev.Dur
			}
		case strings.HasSuffix(l.proc, "flash") && strings.HasPrefix(l.name, "chan-"):
			channel += ev.Dur
		case strings.HasSuffix(l.proc, "host") && l.name == "link":
			link += ev.Dur
		}
	}
	us := span.Micros()
	lr.put("flash.sense_busy_ratio", ratio(sense, float64(planes)*us))
	lr.put("flash.program_busy_ratio", ratio(program, float64(planes)*us))
	lr.put("flash.channel_busy_ratio", ratio(channel, float64(chans)*us))
	lr.put("interconnect.host_link_busy_ratio", ratio(link, float64(devices)*us))
}

// lockChunk is how many consecutive ops one replay runs before the next
// replay takes its turn.
const lockChunk = 128

// lockstep runs ops 0..n-1 through every replay, chunk by chunk: each
// replay runs the chunk's ops before the next one does, and the starting
// replay rotates from chunk to chunk. Every replay thus sees the same
// phases of a shared machine, so differences between replays of adjacent
// layers measure the layer, not the neighbours. It returns the summed
// call time of each replay, split by the class cls assigns each op.
func lockstep(n, classes int, cls func(i int) int, replays ...func(i int) error) ([][]float64, error) {
	total := make([][]float64, len(replays))
	for k := range total {
		total[k] = make([]float64, classes)
	}
	for lo, chunk := 0, 0; lo < n; lo, chunk = lo+lockChunk, chunk+1 {
		hi := min(lo+lockChunk, n)
		for j := range replays {
			k := (chunk + j) % len(replays)
			for i := lo; i < hi; i++ {
				t0 := time.Now()
				err := replays[k](i)
				total[k][cls(i)] += time.Since(t0).Seconds()
				if err != nil {
					return nil, fmt.Errorf("replay %d op %d: %w", k, i, err)
				}
			}
		}
	}
	return total, nil
}

// oneClass puts every op in class 0.
func oneClass(int) int { return 0 }
