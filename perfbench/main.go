// Command perfbench is the repository benchmark: it runs one named
// workload against the simulator stack, checks every result against a
// software golden model, and prints the end-to-end metrics (--trace 0) or
// the per-layer metrics (--trace 1) as one JSON object on the last line of
// standard output.
//
//	go run . --workload bitmap-query --seed 1 --seconds 10 --trace 0
//
// Inputs derive from --seed alone; the same seed reproduces the same
// inputs, the same simulated-clock metrics and the same result digest.
// See README.md for the workloads, the metric definitions and the
// layer-to-metric map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// workloads is the registry, in the order BENCHMARK.json lists them.
var workloads = []benchWorkload{bitmapQuery, schemeReduce, durableIngest}

func lookup(name string) (benchWorkload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: bitmap-query, scheme-reduce or durable-ingest")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "length of the timed loop in wall seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run")
	flag.Parse()
	rep, err := run(*name, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one invocation. Any golden or recovery mismatch is an
// error: the command then exits non-zero without printing a report.
func run(name string, seed int64, seconds float64, traced bool) (report, error) {
	w, err := lookup(name)
	if err != nil {
		return report{}, err
	}
	if seconds <= 0 {
		return report{}, errors.New("--seconds must be positive")
	}
	// Persistent stores live in the working directory's build area, so
	// the benchmark writes nowhere outside its checkout.
	root := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return report{}, err
	}
	tmp, err := os.MkdirTemp(root, "run-")
	if err != nil {
		return report{}, err
	}
	defer os.RemoveAll(tmp)
	in, err := w.prepare(seed, tmp)
	if err != nil {
		return report{}, fmt.Errorf("%s: inputs: %w", name, err)
	}
	var res result
	if traced {
		res, err = traceRun(in, w.traceOps)
	} else {
		res, err = timedRun(in, seconds, w.simOps)
	}
	if err != nil {
		return report{}, fmt.Errorf("%s: %w", name, err)
	}
	printSummary(name, seed, res)
	return report{Correct: true, Attempted: res.attempted, Failed: res.failed, Metrics: res.metrics}, nil
}

func printSummary(name string, seed int64, res result) {
	fmt.Printf("workload %s seed %d: %d ops attempted, %d failed, result digest %016x\n",
		name, seed, res.attempted, res.failed, res.digest)
	if res.slowdown > 0 {
		fmt.Printf("  machine slowdown %.3f against the reference; unscaled host_ops_per_s %.1f\n", res.slowdown, res.rawRate)
	}
	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.metrics[n]
		fmt.Printf("  %-36s %16.6f %s\n", n, m.Value, m.Unit)
	}
}
