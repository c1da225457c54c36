package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"time"

	"parabit"
)

// The planner benchmark runs one deterministic multi-op query workload two
// ways and compares per-query latency tails:
//
//   - fused: through Device.Query — the planner fuses associative chains
//     into single multi-operand latch programs, shares repeated
//     sub-queries, and serves hot intermediates from the controller-DRAM
//     result cache;
//   - unfused: every internal node as a separate two-operand command, with
//     each intermediate written back to flash before it can participate in
//     the next operation — the baseline an SSD without the planner pays.
//
// Both runs execute the identical query list on identically loaded
// devices, so the p99 gap is the planner's doing. The simulation is
// deterministic: the same binary produces the same JSON report every run,
// which TestBenchRecordsGolden compares with BENCH_planner.json.

const (
	plannerSeed    = 1
	plannerQueries = 160
	// plannerGroup is the size of each aligned LSB operand group; the
	// workload draws chains from within a group so location-free fusion
	// has its aligned wordlines.
	plannerGroup = 8
	// plannerScratchBase is where the unfused baseline parks write-back
	// intermediates, clear of the operand groups.
	plannerScratchBase = 1000
)

// qnode is the benchmark's own expression shape, convertible both to a
// parabit.Query (fused run) and to the serial op-by-op schedule of the
// unfused baseline.
type qnode struct {
	leaf bool
	lpn  uint64
	op   parabit.Op
	kids []*qnode
}

func qleaf(lpn uint64) *qnode { return &qnode{leaf: true, lpn: lpn} }

func qop(op parabit.Op, kids ...*qnode) *qnode { return &qnode{op: op, kids: kids} }

func (n *qnode) query() parabit.Query {
	if n.leaf {
		return parabit.QueryLPN(n.lpn)
	}
	qs := make([]parabit.Query, len(n.kids))
	for i, k := range n.kids {
		qs[i] = k.query()
	}
	switch n.op {
	case parabit.And:
		return parabit.QueryAnd(qs...)
	case parabit.Or:
		return parabit.QueryOr(qs...)
	default:
		return parabit.QueryXor(qs...)
	}
}

// plannerWorkload builds the deterministic query list: fusable chains of
// several lengths, nested trees, and a recurring hot conjunction that
// gives the result cache something to serve.
func plannerWorkload(rng *rand.Rand) []*qnode {
	group := func(g int) func() uint64 {
		base := uint64(g * plannerGroup)
		return func() uint64 { return base + uint64(rng.Intn(plannerGroup)) }
	}
	// Distinct LPNs from one group, so chains fold distinct wordlines.
	pick := func(g, k int) []*qnode {
		next := group(g)
		seen := map[uint64]bool{}
		var out []*qnode
		for len(out) < k {
			lpn := next()
			if seen[lpn] {
				continue
			}
			seen[lpn] = true
			out = append(out, qleaf(lpn))
		}
		return out
	}
	assoc := []parabit.Op{parabit.And, parabit.Or, parabit.Xor}
	queries := make([]*qnode, 0, plannerQueries)
	for len(queries) < plannerQueries {
		switch rng.Intn(5) {
		case 0:
			// The hot sub-query: identical every time it appears, so after
			// its first computation the cache answers.
			queries = append(queries, qop(parabit.And, qleaf(0), qleaf(1), qleaf(2), qleaf(3)))
		case 1:
			queries = append(queries, qop(parabit.And, pick(rng.Intn(2), 3+rng.Intn(4))...))
		case 2:
			queries = append(queries, qop(parabit.Or, pick(rng.Intn(2), 3+rng.Intn(2))...))
		case 3:
			queries = append(queries, qop(parabit.Xor, pick(rng.Intn(2), 3)...))
		case 4:
			op := assoc[rng.Intn(len(assoc))]
			queries = append(queries, qop(op,
				qop(parabit.And, pick(0, 3)...),
				qop(parabit.Or, pick(1, 2)...)))
		}
	}
	return queries
}

// plannerDevice builds one device with the two operand groups loaded in
// the scheme's native layout: block-colocated ESP groups for
// Flash-Cosmos, aligned LSB groups for everything else.
func plannerDevice(rng *rand.Rand, scheme parabit.Scheme) (*parabit.Device, error) {
	dev, err := parabit.NewDevice(parabit.WithSmallGeometry())
	if err != nil {
		return nil, err
	}
	for g := 0; g < 2; g++ {
		lpns := make([]uint64, plannerGroup)
		data := make([][]byte, plannerGroup)
		for i := range lpns {
			lpns[i] = uint64(g*plannerGroup + i)
			page := make([]byte, dev.PageSize())
			rng.Read(page)
			data[i] = page
		}
		if scheme == parabit.FlashCosmos {
			err = dev.WriteOperandMWSGroup(lpns, data)
		} else {
			err = dev.WriteOperandGroup(lpns, data)
		}
		if err != nil {
			return nil, err
		}
	}
	return dev, nil
}

// unfusedRunner executes a query as the planner-less baseline would: one
// two-operand command per internal fold, every intermediate written back
// to a scratch operand page first.
type unfusedRunner struct {
	dev     *parabit.Device
	scratch uint64
}

func (u *unfusedRunner) park(data []byte) (uint64, time.Duration, error) {
	u.scratch++
	r, err := u.dev.WriteOperandAsync(u.scratch, data).Wait()
	if err != nil {
		return 0, 0, err
	}
	return u.scratch, r.Latency, nil
}

func (u *unfusedRunner) eval(n *qnode, scheme parabit.Scheme) ([]byte, time.Duration, error) {
	if n.leaf {
		return nil, 0, fmt.Errorf("planner bench: bare-leaf query in workload")
	}
	var lat time.Duration
	lpns := make([]uint64, 0, len(n.kids))
	for _, k := range n.kids {
		if k.leaf {
			lpns = append(lpns, k.lpn)
			continue
		}
		data, l, err := u.eval(k, scheme)
		if err != nil {
			return nil, 0, err
		}
		lat += l
		lpn, wl, err := u.park(data)
		if err != nil {
			return nil, 0, err
		}
		lat += wl
		lpns = append(lpns, lpn)
	}
	cur, err := u.dev.Bitwise(n.op, lpns[0], lpns[1], scheme)
	if err != nil {
		return nil, 0, err
	}
	lat += cur.Latency
	for _, lpn := range lpns[2:] {
		s, wl, err := u.park(cur.Data)
		if err != nil {
			return nil, 0, err
		}
		lat += wl
		cur, err = u.dev.Bitwise(n.op, s, lpn, scheme)
		if err != nil {
			return nil, 0, err
		}
		lat += cur.Latency
	}
	return cur.Data, lat, nil
}

// plannerSide is one run's latency shape in the JSON report.
type plannerSide struct {
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P99US  float64 `json:"p99_us"`
}

// plannerReport is the BENCH_planner.json schema.
type plannerReport struct {
	Queries       int         `json:"queries"`
	Scheme        string      `json:"scheme"`
	Seed          int64       `json:"seed"`
	Fused         plannerSide `json:"fused"`
	Unfused       plannerSide `json:"unfused"`
	P99SpeedupX   float64     `json:"p99_speedup_x"`
	FusedChains   int64       `json:"fused_chains"`
	FusedOperands int64       `json:"fused_operands"`
	CacheHits     int64       `json:"cache_hits"`
}

func side(lats []time.Duration) plannerSide {
	var sum time.Duration
	for _, l := range lats {
		sum += l
	}
	ps := percentiles(lats, 0.50, 0.99)
	return plannerSide{
		MeanUS: micros(sum / time.Duration(len(lats))),
		P50US:  micros(ps[0]),
		P99US:  micros(ps[1]),
	}
}

// runPlanner measures the workload both ways, cross-checks the results
// bit-for-bit, prints the comparison and returns the JSON report.
func runPlanner(scheme parabit.Scheme, w io.Writer) (plannerReport, error) {
	queries := plannerWorkload(rand.New(rand.NewSource(plannerSeed)))

	fusedDev, err := plannerDevice(rand.New(rand.NewSource(plannerSeed+1)), scheme)
	if err != nil {
		return plannerReport{}, err
	}
	unfusedDev, err := plannerDevice(rand.New(rand.NewSource(plannerSeed+1)), scheme)
	if err != nil {
		return plannerReport{}, err
	}
	baseline := &unfusedRunner{dev: unfusedDev, scratch: plannerScratchBase}

	fusedLats := make([]time.Duration, 0, len(queries))
	unfusedLats := make([]time.Duration, 0, len(queries))
	for i, q := range queries {
		fr, err := fusedDev.Query(q.query(), scheme)
		if err != nil {
			return plannerReport{}, fmt.Errorf("fused query %d: %w", i, err)
		}
		ud, ul, err := baseline.eval(q, scheme)
		if err != nil {
			return plannerReport{}, fmt.Errorf("unfused query %d: %w", i, err)
		}
		if !bytes.Equal(fr.Data, ud) {
			return plannerReport{}, fmt.Errorf("query %d: fused and unfused runs disagree (%q)", i, q.query())
		}
		fusedLats = append(fusedLats, fr.Latency)
		unfusedLats = append(unfusedLats, ul)
	}

	qs := fusedDev.Stats().Query
	rep := plannerReport{
		Queries:       len(queries),
		Scheme:        scheme.String(),
		Seed:          plannerSeed,
		Fused:         side(fusedLats),
		Unfused:       side(unfusedLats),
		FusedChains:   qs.FusedChains,
		FusedOperands: qs.FusedOperands,
		CacheHits:     qs.Cache.Hits,
	}
	if rep.Fused.P99US > 0 {
		rep.P99SpeedupX = rep.Unfused.P99US / rep.Fused.P99US
	}

	fmt.Fprintf(w, "planner: %d queries, scheme %v (virtual time)\n", rep.Queries, scheme)
	fmt.Fprintf(w, "  %-8s %10s %10s %10s\n", "", "mean", "p50", "p99")
	fmt.Fprintf(w, "  %-8s %9.1fus %9.1fus %9.1fus\n", "fused", rep.Fused.MeanUS, rep.Fused.P50US, rep.Fused.P99US)
	fmt.Fprintf(w, "  %-8s %9.1fus %9.1fus %9.1fus\n", "unfused", rep.Unfused.MeanUS, rep.Unfused.P50US, rep.Unfused.P99US)
	fmt.Fprintf(w, "  p99 speedup %.2fx; %d fused chains over %d operands, %d cache hits\n",
		rep.P99SpeedupX, rep.FusedChains, rep.FusedOperands, rep.CacheHits)
	return rep, nil
}
