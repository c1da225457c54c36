package main

// The replayer runs an operation script against one small simulated SSD
// and reports each operation's result and modeled latency.
//
// Script format (one directive per line, '#' comments):
//
//	write   <lpn> <hex>                     # plain data page
//	operand <lpn> <hex>                     # lone operand (the ReAlloc layout)
//	pair    <lpnA> <lpnB> <hexA> <hexB>     # co-located operand pair
//	group   <lpn1,lpn2,...> <hex1,hex2,...> # aligned LSB group
//	mws     <lpn1,lpn2,...> <hex1,hex2,...> # block-colocated Flash-Cosmos group
//	bitwise <op> <scheme> <lpnA> <lpnB>
//	reduce  <op> <scheme> <lpn1,lpn2,...>
//	query   <scheme> <expr>                 # planned query, e.g. (1 & 2) | !3
//	latch   <op> [locfree]                  # print the latching-circuit table
//	flush                                   # drain the queue, print the clock
//	stats                                   # print a stats snapshot
//	faults  <plan.json>                     # arm a fault-injection plan
//	faults  off                             # disarm fault injection
//
// A hex pattern repeats to fill the page. Every replay runs with
// telemetry attached and ends with a per-op span breakdown: count, mean
// and p50/p95/p99 of each command kind's modeled service latency.

import (
	"bufio"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"parabit"
	"parabit/internal/flash"
	"parabit/internal/latch"
	"parabit/internal/sim"
	"parabit/internal/telemetry"
)

// demoTrace is the script "-replay demo" runs.
const demoTrace = `# demonstration: pre-allocated pair, then a location-free reduction
pair 0 1 a5 3c
bitwise AND prealloc 0 1
bitwise XOR prealloc 0 1
group 10,11,12,13 ff,0f,33,55
reduce AND locfree 10,11,12,13
reduce XOR locfree 10,11,12,13
query locfree (10 & 11 & 12) | 13
query locfree (10 & 11 & 12) | 13
flush
stats
`

// runReplay replays the script src names: a file, "demo" or "-" for
// stdin. With persistDir set the device is backed by an on-disk store
// there, recovered first if one exists.
func runReplay(src, tracePath, persistDir string, snapEvery int, w io.Writer) error {
	var r io.Reader
	switch src {
	case "demo":
		r = strings.NewReader(demoTrace)
	case "-":
		r = os.Stdin
	default:
		f, err := os.Open(src)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	dev, err := openReplayDevice(persistDir, snapEvery, w)
	if err != nil {
		return err
	}
	sink := dev.EnableTelemetry(tracePath != "")
	n, err := replayLines(dev, r, w)
	if err != nil {
		dev.Close()
		return err
	}
	s := dev.Stats()
	fmt.Fprintf(w, "\nreplayed %d trace lines: %d bitwise ops, %d SROs, %d reallocations, elapsed %v\n",
		n, s.Op.BitwiseOps, s.Flash.SROs, s.Op.Reallocations, dev.Elapsed())
	printBreakdown(w, sink)
	if tracePath != "" {
		if err := writeTraceFile(tracePath, dev.WriteTrace); err != nil {
			dev.Close()
			return err
		}
		fmt.Fprintf(w, "trace written to %s (open in chrome://tracing or ui.perfetto.dev)\n", tracePath)
	}
	return dev.Close()
}

// replayLines executes each directive of r and counts them.
func replayLines(dev *parabit.Device, r io.Reader, w io.Writer) (int, error) {
	sc := bufio.NewScanner(r)
	n := 0
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := execute(dev, line, w); err != nil {
			return n, fmt.Errorf("line %d: %w", lineNo, err)
		}
		n++
	}
	return n, sc.Err()
}

// openReplayDevice builds the small simulated SSD: in-memory by default,
// or backed by (and, on reuse, recovered from) an on-disk store.
func openReplayDevice(dir string, snapEvery int, w io.Writer) (*parabit.Device, error) {
	if dir == "" {
		return parabit.NewDevice(parabit.WithSmallGeometry())
	}
	if _, err := os.Stat(filepath.Join(dir, "CURRENT")); err == nil {
		dev, rec, err := parabit.Open(dir, parabit.WithSnapshotEvery(snapEvery))
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "recovered %s: %d records replayed, %d in-flight writes discarded, %d torn bytes truncated\n",
			dir, rec.ReplayedRecords, rec.SkippedIntents, rec.TornBytes)
		return dev, nil
	}
	return parabit.NewDevice(parabit.WithSmallGeometry(), parabit.WithPersistence(dir),
		parabit.WithSnapshotEvery(snapEvery))
}

// printBreakdown reports each command kind's span latencies: how many
// commands ran and the shape of their modeled service time.
func printBreakdown(w io.Writer, sink *telemetry.Sink) {
	const prefix = "sched.latency."
	header := false
	sink.EachHistogram(func(name string, h *telemetry.Histogram) {
		if h.Count() == 0 || !strings.HasPrefix(name, prefix) {
			return
		}
		if !header {
			fmt.Fprintln(w, "\nper-op span breakdown (virtual time):")
			fmt.Fprintln(w, "  kind            count      mean       p50       p95       p99")
			header = true
		}
		mean := sim.Duration(int64(h.Sum()) / h.Count())
		fmt.Fprintf(w, "  %-14s %6d %9v %9v %9v %9v\n",
			strings.TrimPrefix(name, prefix), h.Count(), mean,
			h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99))
	})
}

// execute runs one script directive.
func execute(dev *parabit.Device, line string, w io.Writer) error {
	f := strings.Fields(line)
	switch f[0] {
	case "write", "operand":
		if len(f) != 3 {
			return fmt.Errorf("%s wants <lpn> <hex>", f[0])
		}
		lpn, err := strconv.ParseUint(f[1], 10, 64)
		if err != nil {
			return err
		}
		page, err := fillPage(f[2], dev.PageSize())
		if err != nil {
			return err
		}
		if f[0] == "operand" {
			return dev.WriteOperand(lpn, page)
		}
		return dev.Write(lpn, page)
	case "pair":
		if len(f) != 5 {
			return fmt.Errorf("pair wants <lpnA> <lpnB> <hexA> <hexB>")
		}
		a, errA := strconv.ParseUint(f[1], 10, 64)
		b, errB := strconv.ParseUint(f[2], 10, 64)
		pa, errPA := fillPage(f[3], dev.PageSize())
		pb, errPB := fillPage(f[4], dev.PageSize())
		if err := errors.Join(errA, errB, errPA, errPB); err != nil {
			return err
		}
		return dev.WriteOperandPair(a, b, pa, pb)
	case "group", "mws":
		if len(f) != 3 {
			return fmt.Errorf("%s wants <lpns> <hexes>", f[0])
		}
		lpns, err := parseLPNs(f[1])
		if err != nil {
			return err
		}
		pages, err := fillPages(f[2], dev.PageSize())
		if err != nil {
			return err
		}
		if len(pages) != len(lpns) {
			return fmt.Errorf("%d lpns but %d patterns", len(lpns), len(pages))
		}
		if f[0] == "mws" {
			return dev.WriteOperandMWSGroup(lpns, pages)
		}
		return dev.WriteOperandGroup(lpns, pages)
	case "bitwise":
		if len(f) != 5 {
			return fmt.Errorf("bitwise wants <op> <scheme> <lpnA> <lpnB>")
		}
		op, scheme, err := parseOpScheme(f[1], f[2])
		if err != nil {
			return err
		}
		a, errA := strconv.ParseUint(f[3], 10, 64)
		b, errB := strconv.ParseUint(f[4], 10, 64)
		if err := errors.Join(errA, errB); err != nil {
			return err
		}
		r, err := dev.Bitwise(op, a, b, scheme)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "bitwise %-8v %-16v -> %x... in %v\n", op, scheme, r.Data[:4], r.Latency)
	case "reduce":
		if len(f) != 4 {
			return fmt.Errorf("reduce wants <op> <scheme> <lpns>")
		}
		op, scheme, err := parseOpScheme(f[1], f[2])
		if err != nil {
			return err
		}
		lpns, err := parseLPNs(f[3])
		if err != nil {
			return err
		}
		r, err := dev.Reduce(op, lpns, scheme)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "reduce  %-8v %-16v over %d operands -> %x... in %v\n",
			op, scheme, len(lpns), r.Data[:4], r.Latency)
	case "query":
		if len(f) < 3 {
			return fmt.Errorf("query wants <scheme> <expr>")
		}
		scheme, err := parabit.ParseScheme(f[1])
		if err != nil {
			return err
		}
		q, err := parabit.ParseQuery(strings.Join(f[2:], " "))
		if err != nil {
			return err
		}
		r, err := dev.Query(q, scheme)
		if err != nil {
			return err
		}
		qs := dev.Stats().Query
		fmt.Fprintf(w, "query   %-16v %s -> %x... in %v (%d fused chains, %d cache hits so far)\n",
			scheme, q, r.Data[:4], r.Latency, qs.FusedChains, qs.Cache.Hits)
	case "latch":
		if len(f) < 2 || len(f) > 3 || (len(f) == 3 && f[2] != "locfree") {
			return fmt.Errorf("latch wants <op> [locfree]")
		}
		op, err := parseOp(f[1])
		if err != nil {
			return err
		}
		seq, kind, k := latch.ForOp(latch.Op(op)), latch.SensePair, 1
		if len(f) == 3 {
			seq, kind, k = latch.ForOpLocFree(latch.Op(op)), latch.SenseLocFree, 2
		}
		fmt.Fprint(w, latch.FormatTable(seq, latch.RunSymbolic(seq, true)))
		// The sense is priced as the array prices it.
		c := latch.MustPrice(kind, latch.Op(op), k)
		fmt.Fprintf(w, "SROs: %d (%.0fµs on the modeled MLC flash)\n",
			c.SROs, flash.DefaultTiming().SenseLatency(c, flash.Default().PageSize).Micros())
	case "flush":
		if len(f) != 1 {
			return fmt.Errorf("flush takes no arguments")
		}
		dev.Flush()
		fmt.Fprintf(w, "flush   queue drained, clock at %v\n", dev.Elapsed())
	case "stats":
		if len(f) != 1 {
			return fmt.Errorf("stats takes no arguments")
		}
		printStats(dev, w)
	case "faults":
		if len(f) != 2 {
			return fmt.Errorf("faults wants <plan.json> or off")
		}
		if f[1] == "off" {
			dev.ClearFaultPlan()
			fmt.Fprintln(w, "faults  injection disarmed")
			return nil
		}
		if err := dev.InstallFaultPlanFile(f[1]); err != nil {
			return err
		}
		fmt.Fprintf(w, "faults  plan %s armed\n", f[1])
	default:
		return fmt.Errorf("unknown trace verb %q", f[0])
	}
	return nil
}

// printStats is the stats directive: device counters, then fault and
// persistence counters when they are in play.
func printStats(dev *parabit.Device, w io.Writer) {
	s := dev.Stats()
	fmt.Fprintf(w, "stats   %d bitwise (%d fallbacks, %d reallocs), %d SROs, %d programs, "+
		"gc %d runs/%d pages, WA %.3f\n",
		s.Op.BitwiseOps, s.Op.Fallbacks, s.Op.Reallocations, s.Flash.SROs, s.Flash.Programs,
		s.FTL.GCRuns, s.FTL.GCPagesMoved, s.FTL.WriteAmplification())
	if fs := s.Faults; fs.Faults() > 0 || fs.JitterEvents > 0 {
		fmt.Fprintf(w, "faults  %d injected (%d transient, %d dead, %d program, %d erase, %d stuck), "+
			"%d jitter, %d retries (%d exhausted), %d blocks retired (%d pages rescued, %d re-steered)\n",
			fs.Faults(), fs.PlaneTransient, fs.PlaneDead, fs.ProgramFails, fs.EraseFails,
			fs.StuckBlock, fs.JitterEvents, s.Sched.Retries, s.Sched.RetriesExhausted,
			s.FTL.BlocksRetired, s.FTL.RetirePagesMoved, s.FTL.ResteeredWrites)
	}
	if ps := s.Persist; s.Persistent {
		fmt.Fprintf(w, "persist %d journal records (%d bytes), %d snapshots, %d replayed at mount\n",
			ps.JournalRecords, ps.JournalBytes, ps.Snapshots, ps.ReplayedRecords)
	}
}

func parseOp(s string) (parabit.Op, error) {
	for _, op := range parabit.Ops {
		if strings.EqualFold(op.String(), s) {
			return op, nil
		}
	}
	return 0, fmt.Errorf("unknown op %q", s)
}

func parseOpScheme(opStr, schemeStr string) (parabit.Op, parabit.Scheme, error) {
	op, err := parseOp(opStr)
	if err != nil {
		return 0, 0, err
	}
	scheme, err := parabit.ParseScheme(schemeStr)
	return op, scheme, err
}

// parseLPNs parses a comma-separated LPN list.
func parseLPNs(s string) ([]uint64, error) {
	var out []uint64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseUint(part, 10, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// fillPages fills one page per comma-separated hex pattern.
func fillPages(s string, ps int) ([][]byte, error) {
	var out [][]byte
	for _, h := range strings.Split(s, ",") {
		page, err := fillPage(h, ps)
		if err != nil {
			return nil, err
		}
		out = append(out, page)
	}
	return out, nil
}

// fillPage repeats a hex pattern to fill a page of ps bytes.
func fillPage(hexStr string, ps int) ([]byte, error) {
	pattern, err := hex.DecodeString(hexStr)
	if err != nil {
		return nil, err
	}
	if len(pattern) == 0 {
		return nil, fmt.Errorf("empty pattern")
	}
	out := make([]byte, ps)
	for i := range out {
		out[i] = pattern[i%len(pattern)]
	}
	return out, nil
}
