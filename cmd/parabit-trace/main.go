// parabit-trace replays a simple operation trace against the simulated
// SSD and reports per-operation and total modeled latency.
//
// Trace format (one op per line, '#' comments):
//
//	write   <lpn> <hexpattern>
//	pair    <lpnA> <lpnB> <hexA> <hexB>     # co-located operand pair
//	group   <lpn1,lpn2,...> <hex1,hex2,...> # aligned LSB group
//	bitwise <op> <scheme> <lpnA> <lpnB>
//	reduce  <op> <scheme> <lpn1,lpn2,...>
//	query   <scheme> <expr>                 # planned query, e.g. (1 & 2) | !3
//	flush                                   # drain the queue, print the clock
//	stats                                   # print a mid-trace stats snapshot
//	faults  <plan.json>                     # arm a fault-injection plan
//	faults  off                             # disarm fault injection
//
// Usage:
//
//	parabit-trace -f trace.txt
//	parabit-trace -demo              # run a built-in demonstration trace
//	parabit-trace -demo -trace t.json # also export a Chrome trace-event file
//
// Every replay runs with telemetry attached and ends with a per-op span
// breakdown: count, mean and p50/p95/p99 of each command kind's modeled
// service latency.
package main

import (
	"bufio"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"parabit"
	"parabit/internal/sim"
	"parabit/internal/telemetry"
)

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

func main() {
	file := flag.String("f", "", "trace file to replay")
	demo := flag.Bool("demo", false, "replay the built-in demo trace")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON file of the replay here")
	flag.Parse()

	var reader *bufio.Scanner
	switch {
	case *demo:
		reader = bufio.NewScanner(strings.NewReader(demoTrace))
	case *file != "":
		f, err := os.Open(*file)
		if err != nil {
			fail("%v", err)
		}
		defer f.Close()
		reader = bufio.NewScanner(f)
	default:
		flag.Usage()
		os.Exit(2)
	}

	dev, err := parabit.NewDevice(parabit.WithSmallGeometry())
	if err != nil {
		fail("%v", err)
	}
	sink := dev.EnableTelemetry(*tracePath != "")

	lineNo := 0
	ops := 0
	for reader.Scan() {
		lineNo++
		line := strings.TrimSpace(reader.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := execute(dev, line); err != nil {
			fail("line %d: %v", lineNo, err)
		}
		ops++
	}
	if err := reader.Err(); err != nil {
		fail("%v", err)
	}
	s := dev.Stats()
	fmt.Printf("\nreplayed %d trace lines: %d bitwise ops, %d SROs, %d reallocations, elapsed %v\n",
		ops, s.BitwiseOps, s.SROs, s.Reallocations, dev.Elapsed())
	printBreakdown(os.Stdout, sink)
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fail("%v", err)
		}
		if err := dev.WriteTrace(f); err != nil {
			fail("%v", err)
		}
		if err := f.Close(); err != nil {
			fail("%v", err)
		}
		fmt.Printf("trace written to %s (open in chrome://tracing or ui.perfetto.dev)\n", *tracePath)
	}
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

func execute(dev *parabit.Device, line string) error {
	fields := strings.Fields(line)
	switch fields[0] {
	case "write":
		if len(fields) != 3 {
			return fmt.Errorf("write wants <lpn> <hex>")
		}
		lpn, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return err
		}
		data, err := fillPage(fields[2], dev.PageSize())
		if err != nil {
			return err
		}
		return dev.Write(lpn, data)
	case "pair":
		if len(fields) != 5 {
			return fmt.Errorf("pair wants <lpnA> <lpnB> <hexA> <hexB>")
		}
		a, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return err
		}
		b, err := strconv.ParseUint(fields[2], 10, 64)
		if err != nil {
			return err
		}
		da, err := fillPage(fields[3], dev.PageSize())
		if err != nil {
			return err
		}
		db, err := fillPage(fields[4], dev.PageSize())
		if err != nil {
			return err
		}
		return dev.WriteOperandPair(a, b, da, db)
	case "group":
		if len(fields) != 3 {
			return fmt.Errorf("group wants <lpns> <hexes>")
		}
		lpns, err := parseLPNs(fields[1])
		if err != nil {
			return err
		}
		var data [][]byte
		for _, h := range strings.Split(fields[2], ",") {
			page, err := fillPage(h, dev.PageSize())
			if err != nil {
				return err
			}
			data = append(data, page)
		}
		if len(data) != len(lpns) {
			return fmt.Errorf("%d lpns but %d patterns", len(lpns), len(data))
		}
		return dev.WriteOperandGroup(lpns, data)
	case "bitwise":
		if len(fields) != 5 {
			return fmt.Errorf("bitwise wants <op> <scheme> <lpnA> <lpnB>")
		}
		op, scheme, err := parseOpScheme(fields[1], fields[2])
		if err != nil {
			return err
		}
		a, err := strconv.ParseUint(fields[3], 10, 64)
		if err != nil {
			return err
		}
		b, err := strconv.ParseUint(fields[4], 10, 64)
		if err != nil {
			return err
		}
		r, err := dev.Bitwise(op, a, b, scheme)
		if err != nil {
			return err
		}
		fmt.Printf("bitwise %-8v %-16v -> %x... in %v\n", op, scheme, r.Data[:4], r.Latency)
		return nil
	case "flush":
		if len(fields) != 1 {
			return fmt.Errorf("flush takes no arguments")
		}
		dev.Flush()
		fmt.Printf("flush   queue drained, clock at %v\n", dev.Elapsed())
		return nil
	case "stats":
		if len(fields) != 1 {
			return fmt.Errorf("stats takes no arguments")
		}
		s := dev.Stats()
		fmt.Printf("stats   %d bitwise (%d fallbacks, %d reallocs), %d SROs, %d programs, "+
			"gc %d runs/%d pages, reclaim %d/%d, wl %d/%d, WA %.3f\n",
			s.BitwiseOps, s.Fallbacks, s.Reallocations, s.SROs, s.Programs,
			s.GCRuns, s.GCPagesMoved, s.ReadReclaims, s.ReclaimPagesMoved,
			s.StaticWLMoves, s.WLPagesMoved, s.WriteAmplification)
		if fs := dev.FaultStats(); fs.Injected > 0 || fs.JitterEvents > 0 {
			fmt.Printf("faults  %d injected (%d transient, %d dead, %d program, %d erase, %d stuck), "+
				"%d jitter, %d retries (%d exhausted), %d blocks retired (%d pages rescued, %d re-steered)\n",
				fs.Injected, fs.PlaneTransient, fs.PlaneDead, fs.ProgramFails, fs.EraseFails,
				fs.StuckBlock, fs.JitterEvents, fs.Retries, fs.RetriesExhausted,
				fs.BlocksRetired, fs.RetirePagesMoved, fs.ResteeredWrites)
		}
		return nil
	case "faults":
		if len(fields) != 2 {
			return fmt.Errorf("faults wants <plan.json> or off")
		}
		if fields[1] == "off" {
			dev.ClearFaultPlan()
			fmt.Println("faults  injection disarmed")
			return nil
		}
		if err := dev.InstallFaultPlanFile(fields[1]); err != nil {
			return err
		}
		fmt.Printf("faults  plan %s armed\n", fields[1])
		return nil
	case "query":
		if len(fields) < 3 {
			return fmt.Errorf("query wants <scheme> <expr>")
		}
		scheme, err := parabit.ParseScheme(fields[1])
		if err != nil {
			return err
		}
		q, err := parabit.ParseQuery(strings.Join(fields[2:], " "))
		if err != nil {
			return err
		}
		r, err := dev.Query(q, scheme)
		if err != nil {
			return err
		}
		qs := dev.QueryStats()
		fmt.Printf("query   %-16v %s -> %x... in %v (%d fused chains, %d cache hits so far)\n",
			scheme, q, r.Data[:4], r.Latency, qs.FusedChains, qs.CacheHits)
		return nil
	case "reduce":
		if len(fields) != 4 {
			return fmt.Errorf("reduce wants <op> <scheme> <lpns>")
		}
		op, scheme, err := parseOpScheme(fields[1], fields[2])
		if err != nil {
			return err
		}
		lpns, err := parseLPNs(fields[3])
		if err != nil {
			return err
		}
		r, err := dev.Reduce(op, lpns, scheme)
		if err != nil {
			return err
		}
		fmt.Printf("reduce  %-8v %-16v over %d operands -> %x... in %v\n",
			op, scheme, len(lpns), r.Data[:4], r.Latency)
		return nil
	}
	return fmt.Errorf("unknown trace verb %q", fields[0])
}

func parseOpScheme(opStr, schemeStr string) (parabit.Op, parabit.Scheme, error) {
	var op parabit.Op
	found := false
	for _, o := range parabit.Ops {
		if strings.EqualFold(o.String(), opStr) {
			op, found = o, true
		}
	}
	if !found {
		return 0, 0, fmt.Errorf("unknown op %q", opStr)
	}
	scheme, err := parabit.ParseScheme(schemeStr)
	if err != nil {
		return 0, 0, err
	}
	return op, scheme, nil
}

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

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
