// parabit-bench regenerates the paper's evaluation tables and figures,
// drives the simulated SSD under load, writes the BENCH_*.json records
// and replays operation scripts.
//
// Usage:
//
//	parabit-bench -list             list available experiments
//	parabit-bench -run fig13a      regenerate one experiment
//	parabit-bench -run all -format csv
//	                                regenerate everything, as CSV
//	parabit-bench -hammer=16       drive one device from 16 concurrent clients
//	parabit-bench -hammer -trace out.json -metrics
//	                                hammer with telemetry: write a Chrome
//	                                trace-event file and a metrics summary
//	parabit-bench -hammer -faults plan.json
//	                                hammer with a fault-injection plan armed;
//	                                ends with a fault/recovery summary
//	parabit-bench -planner -out BENCH_planner.json
//	                                query-planner benchmark: the same query
//	                                workload fused (planner + cache) and
//	                                unfused (op-by-op with write-backs)
//	parabit-bench -fc -out BENCH_fc.json
//	                                Flash-Cosmos benchmark: MWS vs chained
//	                                LocFree reductions over a k sweep
//	parabit-bench -cluster=4 -out BENCH_cluster.json
//	                                deterministic sharded-cluster benchmark:
//	                                a seeded query stream over a chunk-placed
//	                                bitmap, with per-shard latency lanes and
//	                                the route mix (local/wire/scatter)
//	parabit-bench -hammer=8 -cluster=4
//	                                concurrent multi-tenant cluster hammer with
//	                                QoS armed; reports per-kind outcome counts
//	                                (ok/rejected/unavailable) separately from
//	                                the latency percentiles
//	parabit-bench -replay script.txt
//	parabit-bench -replay demo     replay an operation script (see replay.go
//	                                for the language; "-" reads stdin) and
//	                                report per-op latencies
//
// The -out records are deterministic; TestBenchRecordsGolden regenerates
// them and compares them byte for byte with the checked-in files.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"parabit"
	"parabit/internal/experiments"
	"parabit/internal/flash"
	"parabit/internal/sched"
	"parabit/internal/telemetry"
	"parabit/internal/wallclock"
)

// defaultHammerClients is the client count a bare -hammer flag uses.
const defaultHammerClients = 8

// defaultClusterShards is the shard count a bare -cluster flag uses.
const defaultClusterShards = 4

// countFlag is a bool-style flag that takes a count: bare -name means
// bare, -name=N means N and -name=false means 0. A bare -hammer followed
// by a count ("-hammer 16") is rescued from the positional arguments
// after parsing.
type countFlag struct{ n, bare int }

func (c *countFlag) String() string   { return strconv.Itoa(c.n) }
func (c *countFlag) IsBoolFlag() bool { return true }

func (c *countFlag) Set(v string) error {
	switch v {
	case "true":
		c.n = c.bare
		return nil
	case "false":
		c.n = 0
		return nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		return fmt.Errorf("want a positive count, got %q", v)
	}
	c.n = n
	return nil
}

func main() {
	list := flag.Bool("list", false, "list available experiments")
	run := flag.String("run", "", "experiment id to run, or \"all\"")
	format := flag.String("format", "table", "output format: table or csv")
	hammer := countFlag{bare: defaultHammerClients}
	flag.Var(&hammer, "hammer", "drive one device from N concurrent clients (bare flag: 8) and report scheduler stats")
	hammerOps := flag.Int("hammer-ops", 200, "operations per hammer client")
	tracePath := flag.String("trace", "", "hammer and replay modes: write a Chrome trace-event JSON file here")
	metrics := flag.Bool("metrics", false, "hammer mode: print the telemetry metrics summary")
	faultsPath := flag.String("faults", "", "hammer mode: arm this JSON fault-injection plan")
	persistDir := flag.String("persist", "", "hammer and replay modes: back the device with an on-disk store here (hammer: remount and report recovery afterwards; replay: recover the store if one exists)")
	snapEvery := flag.Int("snapshot-every", 0, "with -persist: compact the journal after this many committed records (0 = default, negative disables)")
	replay := flag.String("replay", "", "replay an operation script: a file, \"demo\" for the built-in one, or \"-\" for stdin")
	planner := flag.Bool("planner", false, "run the query-planner benchmark: fused vs unfused p99")
	schemeName := flag.String("scheme", "locfree", "planner mode: placement scheme (prealloc, realloc, locfree, fc, or a registry name)")
	fc := flag.Bool("fc", false, "run the Flash-Cosmos benchmark: MWS vs chained-LocFree reduction sweep")
	clusterShards := countFlag{bare: defaultClusterShards}
	flag.Var(&clusterShards, "cluster", "cluster mode: shard count (bare flag: 4); combine with -hammer for the concurrent multi-tenant hammer")
	spec := defaultClusterSpec
	flag.Int64Var(&spec.users, "users", spec.users, "cluster mode: bitmap user count (column bits)")
	flag.IntVar(&spec.days, "days", spec.days, "cluster mode: bitmap day-column count")
	flag.Float64Var(&spec.skew, "skew", spec.skew, "cluster mode: Zipf day-access skew (<=1 for uniform)")
	flag.IntVar(&spec.replicas, "replicas", spec.replicas, "cluster mode: replicas per column")
	flag.IntVar(&spec.queries, "cluster-queries", spec.queries, "cluster mode: deterministic query count")
	tenants := flag.Int("tenants", 4, "cluster hammer: tenant count (odd tenants run QoS-capped)")
	out := flag.String("out", "", "planner, fc and cluster modes: write the mode's JSON record here (the BENCH_*.json format)")
	flag.Parse()

	// Rescue "-hammer 16": the bool-style flag left the count as a
	// positional argument, which also stopped flag parsing — consume the
	// count and re-parse whatever followed it.
	if hammer.n > 0 && flag.NArg() > 0 {
		if v, err := strconv.Atoi(flag.Arg(0)); err == nil && v > 0 {
			hammer.n = v
			if err := flag.CommandLine.Parse(flag.Args()[1:]); err != nil {
				os.Exit(2)
			}
		}
	}
	spec.shards = clusterShards.n

	var rec any
	var err error
	switch {
	case *replay != "":
		err = runReplay(*replay, *tracePath, *persistDir, *snapEvery, os.Stdout)
	case *planner:
		scheme, perr := parabit.ParseScheme(*schemeName)
		if perr != nil {
			fmt.Fprintln(os.Stderr, perr)
			os.Exit(2)
		}
		rec, err = runPlanner(scheme, os.Stdout)
	case *fc:
		rec, err = runFC(os.Stdout)
	case hammer.n > 0 && spec.shards > 0:
		err = runClusterHammer(hammer.n, *hammerOps, *tenants, spec, *tracePath, *metrics, os.Stdout)
	case hammer.n > 0:
		err = runHammer(hammer.n, *hammerOps, *tracePath, *faultsPath, *persistDir, *snapEvery, *metrics, os.Stdout)
	case spec.shards > 0:
		rec, err = runClusterBench(spec, os.Stdout)
	case *list:
		fmt.Println("available experiments:")
		for _, e := range parabit.Experiments() {
			fmt.Println("  " + e)
		}
	case *run != "":
		err = runExperiments(*run, *format, os.Stdout)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *out != "" {
		if rec == nil {
			fmt.Fprintln(os.Stderr, "-out: only -planner, -fc and -cluster (without -hammer) write a record")
			os.Exit(2)
		}
		blob, err := encodeRecord(rec)
		if err == nil {
			err = os.WriteFile(*out, blob, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("report written to %s\n", *out)
	}
}

// runExperiments renders one experiment, or with id "all" every one in
// ID order, as a table or as CSV.
func runExperiments(id, format string, w io.Writer) error {
	render := parabit.RunExperiment
	switch format {
	case "table":
	case "csv":
		render = parabit.RunExperimentCSV
	default:
		return fmt.Errorf("unknown format %q", format)
	}
	ids := []string{id}
	if id == "all" {
		ids = ids[:0]
		for _, d := range experiments.Drivers() {
			ids = append(ids, d.ID)
		}
	}
	for _, id := range ids {
		out, err := render(id)
		if err != nil {
			return err
		}
		if len(ids) > 1 {
			out += "\n"
		}
		fmt.Fprint(w, out)
	}
	return nil
}

// encodeRecord is the BENCH_*.json byte format: indented JSON and a
// trailing newline.
func encodeRecord(rec any) ([]byte, error) {
	blob, err := json.MarshalIndent(rec, "", "  ")
	return append(blob, '\n'), err
}

// writeTraceFile creates path and fills it with a Chrome trace-event
// export; the file opens in chrome://tracing or ui.perfetto.dev.
func writeTraceFile(path string, export func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := export(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// percentiles returns the qs-quantiles of lats: for each q, the element
// at index int(q·(n−1)) of a sorted copy. It returns zeros for no
// samples.
func percentiles(lats []time.Duration, qs ...float64) []time.Duration {
	out := make([]time.Duration, len(qs))
	if len(lats) == 0 {
		return out
	}
	sorted := slices.Clone(lats)
	slices.Sort(sorted)
	for i, q := range qs {
		out[i] = sorted[int(q*float64(len(sorted)-1))]
	}
	return out
}

// micros converts a duration to the records' floating-point µs.
func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// runHammer drives one device from n concurrent clients with a mixed
// write/read/bitwise/reduce workload and reports how the command
// scheduler batched it: queue depths, dispatch rounds, and how much the
// simulated plane parallelism overlapped command service. With tracePath
// or metrics set, the run executes with telemetry attached; the trace
// file opens in chrome://tracing or ui.perfetto.dev with one lane per
// plane, channel and scheduler queue.
func runHammer(n, ops int, tracePath, faultsPath, persistDir string, snapEvery int, metrics bool, w io.Writer) error {
	devOpts := []parabit.Option{parabit.WithSmallGeometry()}
	if persistDir != "" {
		devOpts = append(devOpts, parabit.WithPersistence(persistDir),
			parabit.WithSnapshotEvery(snapEvery))
	}
	dev, err := parabit.NewDevice(devOpts...)
	if err != nil {
		return err
	}
	// Telemetry is always on: the per-queue report needs the latency
	// histograms even when no trace or metrics dump was requested.
	sink := dev.EnableTelemetry(tracePath != "")
	if faultsPath != "" {
		if err := dev.InstallFaultPlanFile(faultsPath); err != nil {
			return err
		}
	}
	const shared = 8
	for i := 0; i < shared; i += 2 {
		a, b := make([]byte, dev.PageSize()), make([]byte, dev.PageSize())
		rand.New(rand.NewSource(int64(i))).Read(a)
		rand.New(rand.NewSource(int64(i + 1))).Read(b)
		if err := dev.WriteOperandPair(uint64(i), uint64(i+1), a, b); err != nil {
			return err
		}
	}
	// A block-colocated group past the pair range, so the mix also drives
	// Flash-Cosmos multi-wordline reductions.
	fcLPNs := []uint64{shared, shared + 1, shared + 2, shared + 3}
	fcPages := make([][]byte, len(fcLPNs))
	for i := range fcPages {
		fcPages[i] = make([]byte, dev.PageSize())
		rand.New(rand.NewSource(int64(shared + i))).Read(fcPages[i])
	}
	if err := dev.WriteOperandMWSGroup(fcLPNs, fcPages); err != nil {
		return err
	}
	assoc := []parabit.Op{parabit.And, parabit.Or, parabit.Xor}
	wallStart := wallclock.Start()
	var wg sync.WaitGroup
	var surfacedFaults atomic.Int64
	errCh := make(chan error, n)
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			base := uint64(100 + 50*w)
			page := make([]byte, dev.PageSize())
			// Issue in bursts of outstanding commands, like an NVMe queue
			// with depth > 1, then reap the burst.
			for i := 0; i < ops; {
				burst := 1 + rng.Intn(8)
				if burst > ops-i {
					burst = ops - i
				}
				pending := make([]*parabit.Pending, 0, burst)
				for j := 0; j < burst; j++ {
					switch rng.Intn(6) {
					case 0:
						rng.Read(page)
						pending = append(pending, dev.WriteAsync(base+uint64(rng.Intn(16)), page))
					case 1:
						pair := uint64(2 * rng.Intn(shared/2))
						pending = append(pending, dev.BitwiseAsync(assoc[rng.Intn(len(assoc))],
							pair, pair+1, parabit.PreAllocated))
					case 2:
						pending = append(pending, dev.ReduceAsync(assoc[rng.Intn(len(assoc))],
							[]uint64{0, 1, 2}, parabit.Reallocated))
					case 3:
						rng.Read(page)
						pending = append(pending, dev.WriteOperandAsync(base+uint64(rng.Intn(16)), page))
					case 4:
						a := uint64(2 * rng.Intn(shared/2))
						b := uint64(2 * rng.Intn(shared/2))
						q := parabit.QueryOr(
							parabit.QueryAnd(parabit.QueryLPN(a), parabit.QueryLPN(a+1)),
							parabit.QueryXor(parabit.QueryLPN(b), parabit.QueryLPN(b+1)))
						pending = append(pending, dev.QueryAsync(q, parabit.Reallocated))
					case 5:
						op := parabit.And
						if rng.Intn(2) == 1 {
							op = parabit.Or
						}
						pending = append(pending, dev.ReduceAsync(op, fcLPNs, parabit.FlashCosmos))
					}
				}
				i += burst
				for _, p := range pending {
					if _, err := p.Wait(); err != nil {
						// With a fault plan armed, unrecoverable injected
						// faults surface as explicit errors — that is the
						// degradation contract, not a workload failure.
						if flash.AsFaultError(err) != nil || errors.Is(err, parabit.ErrPowerCut) {
							surfacedFaults.Add(1)
							continue
						}
						errCh <- fmt.Errorf("client %d: %w", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return err
	}
	dev.Flush()
	wall := wallStart.Elapsed()
	st := dev.Stats()
	ss := st.Sched
	fmt.Fprintf(w, "hammer: %d clients x %d ops in %v wall\n", n, ops, wall.Round(time.Millisecond))
	fmt.Fprintf(w, "  virtual elapsed    %v\n", dev.Elapsed())
	fmt.Fprintf(w, "  commands           %d in %d batches (max batch %d)\n", ss.Completed(), ss.Batches, ss.MaxBatch)
	fmt.Fprintf(w, "  plane overlap      %.2fx (summed service / makespan)\n", ss.Utilization())
	fmt.Fprintf(w, "  bitwise ops        %d (%d fallbacks, %d reallocations)\n",
		st.Op.BitwiseOps, st.Op.Fallbacks, st.Op.Reallocations)
	if qs := st.Query; qs.Queries > 0 {
		fmt.Fprintf(w, "  queries            %d (%d plan steps, %d fused chains, %d cache hits, %d invalidations)\n",
			qs.Queries, qs.PlanSteps, qs.FusedChains, qs.Cache.Hits, qs.Cache.Invalidations)
	}
	fmt.Fprintf(w, "  write amplification %.3f\n", st.FTL.WriteAmplification())
	writeQueues(w, ss, sink)
	if faultsPath != "" {
		fs := st.Faults
		fmt.Fprintf(w, "fault injection (%s):\n", faultsPath)
		fmt.Fprintf(w, "  injected           %d (%d transient, %d dead-plane, %d program, %d erase, %d stuck-block, %d power-cut)\n",
			fs.Faults(), fs.PlaneTransient, fs.PlaneDead, fs.ProgramFails, fs.EraseFails, fs.StuckBlock, fs.PowerCuts)
		fmt.Fprintf(w, "  jitter events      %d\n", fs.JitterEvents)
		fmt.Fprintf(w, "  sched retries      %d (%d exhausted)\n", ss.Retries, ss.RetriesExhausted)
		fmt.Fprintf(w, "  blocks retired     %d (%d pages rescued, %d writes re-steered)\n",
			st.FTL.BlocksRetired, st.FTL.RetirePagesMoved, st.FTL.ResteeredWrites)
		fmt.Fprintf(w, "  surfaced errors    %d\n", surfacedFaults.Load())
	}
	if metrics {
		fmt.Fprintln(w, "\nmetrics:")
		dev.WriteMetrics(w)
	}
	if tracePath != "" {
		if err := writeTraceFile(tracePath, dev.WriteTrace); err != nil {
			return err
		}
		fmt.Fprintf(w, "\ntrace written to %s (open in chrome://tracing or ui.perfetto.dev)\n", tracePath)
	}
	if persistDir != "" {
		if st.Persistent {
			fmt.Fprintf(w, "persistence (%s):\n", persistDir)
			fmt.Fprintf(w, "  journal            %d records, %d bytes, %d snapshots\n",
				st.Persist.JournalRecords, st.Persist.JournalBytes, st.Persist.Snapshots)
		}
		// Close (or, after a power cut, abandon) the store and remount:
		// the recovery summary proves the journal covered everything the
		// run acknowledged.
		if err := dev.Close(); err != nil {
			return err
		}
		re, rec, err := parabit.Open(persistDir, parabit.WithSnapshotEvery(snapEvery))
		if err != nil {
			return fmt.Errorf("remount %s: %w", persistDir, err)
		}
		fmt.Fprintf(w, "  remount            %d records replayed, %d in-flight discarded, %d torn bytes, %v replay span\n",
			rec.ReplayedRecords, rec.SkippedIntents, rec.TornBytes, rec.ReplayTime)
		if err := re.CheckInvariants(); err != nil {
			return fmt.Errorf("post-recovery invariants: %w", err)
		}
		fmt.Fprintf(w, "  invariants         ok after recovery\n")
		return re.Close()
	}
	return nil
}

// writeQueues prints the scheduler's per-queue table: one row per
// command kind that saw traffic, with its latency percentiles from sink.
func writeQueues(w io.Writer, ss sched.Stats, sink *telemetry.Sink) {
	fmt.Fprintln(w, "  per-queue: kind submitted errors maxdepth busy p50 p95 p99")
	for k, q := range ss.Queues {
		if q.Submitted == 0 {
			continue
		}
		kind := sched.Kind(k).String()
		// Errors count rejected/failed submissions per kind, reported
		// apart from the latency percentiles: a queue that sheds load
		// fast would otherwise look healthy on latency alone.
		lat := sink.Histogram("sched.latency."+kind).Quantiles(0.50, 0.95, 0.99)
		fmt.Fprintf(w, "    %-14s %9d %6d %8d %12v %9.1fus %9.1fus %9.1fus\n",
			kind, q.Submitted, q.Errors, q.MaxDepth, q.Busy.Std(),
			lat[0].Micros(), lat[1].Micros(), lat[2].Micros())
	}
}
