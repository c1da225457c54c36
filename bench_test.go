package parabit

// The benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation (they regenerate and print the same rows/series the
// paper reports), plus ablation benches for the design choices DESIGN.md
// calls out. Run everything with:
//
//	go test -bench=. -benchmem
//
// The per-figure benches print their table once (first iteration) and
// then measure the driver's own cost; the functional benches measure the
// simulated device's host-visible throughput.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"parabit/internal/experiments"
	"parabit/internal/flash"
	"parabit/internal/latch"
	"parabit/internal/persist"
	"parabit/internal/ssd"
)

var printOnce sync.Map

func runFigure(b *testing.B, id string) {
	b.Helper()
	d, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	env := experiments.DefaultEnv()
	if _, done := printOnce.LoadOrStore(id, true); !done {
		b.Logf("\n%s", d.Run(env).Table())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.Run(env)
	}
}

// BenchmarkFig04Motivation regenerates Figure 4: data-movement vs bitwise
// time in the PIM and ISC baselines across image counts.
func BenchmarkFig04Motivation(b *testing.B) { runFigure(b, "fig4") }

// BenchmarkFig13aSingleOp regenerates Figure 13(a): single-operation
// latency across PIM, ISC, ParaBit and ParaBit-ReAlloc.
func BenchmarkFig13aSingleOp(b *testing.B) { runFigure(b, "fig13a") }

// BenchmarkFig13b8MB regenerates Figure 13(b): 8 MB-operand latencies.
func BenchmarkFig13b8MB(b *testing.B) { runFigure(b, "fig13b") }

// BenchmarkFig14aSegmentation regenerates Figure 14(a).
func BenchmarkFig14aSegmentation(b *testing.B) { runFigure(b, "fig14a") }

// BenchmarkFig14bBitmap regenerates Figure 14(b).
func BenchmarkFig14bBitmap(b *testing.B) { runFigure(b, "fig14b") }

// BenchmarkFig14cEncryption regenerates Figure 14(c).
func BenchmarkFig14cEncryption(b *testing.B) { runFigure(b, "fig14c") }

// BenchmarkFig15LocFree regenerates Figure 15: the three ParaBit schemes
// compared on op latency and the case studies.
func BenchmarkFig15LocFree(b *testing.B) { runFigure(b, "fig15") }

// BenchmarkFig16Energy regenerates Figure 16: normalized per-op energy.
func BenchmarkFig16Energy(b *testing.B) { runFigure(b, "fig16") }

// BenchmarkFig17Errors regenerates Figure 17: bit errors vs P/E cycles
// and sensing count, plus application-level error rates.
func BenchmarkFig17Errors(b *testing.B) { runFigure(b, "fig17") }

// BenchmarkSec52Crossover regenerates the §5.2 crossover analysis.
func BenchmarkSec52Crossover(b *testing.B) { runFigure(b, "crossover") }

// BenchmarkSec54Endurance regenerates the §5.4 effective-TBW table.
func BenchmarkSec54Endurance(b *testing.B) { runFigure(b, "endurance") }

// BenchmarkSec57Compression regenerates the §5.7 break-even analysis.
func BenchmarkSec57Compression(b *testing.B) { runFigure(b, "compression") }

// --- Functional benches: the simulated device doing real page work. ---

func benchDevice(b *testing.B) *Device {
	b.Helper()
	d, err := NewDevice(WithSmallGeometry())
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkDeviceBitwisePreAlloc measures host-visible simulator
// throughput for co-located XOR pages.
func BenchmarkDeviceBitwisePreAlloc(b *testing.B) {
	d := benchDevice(b)
	x := make([]byte, d.PageSize())
	y := make([]byte, d.PageSize())
	rand.New(rand.NewSource(1)).Read(x)
	rand.New(rand.NewSource(2)).Read(y)
	if err := d.WriteOperandPair(0, 1, x, y); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(d.PageSize()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Bitwise(Xor, 0, 1, PreAllocated); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeviceReduceLocFree measures a 16-operand chained reduction.
func BenchmarkDeviceReduceLocFree(b *testing.B) {
	d := benchDevice(b)
	const k = 16
	lpns := make([]uint64, k)
	pages := make([][]byte, k)
	for i := range lpns {
		lpns[i] = uint64(i)
		pages[i] = make([]byte, d.PageSize())
		rand.New(rand.NewSource(int64(i))).Read(pages[i])
	}
	if err := d.WriteOperandGroup(lpns, pages); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(k * d.PageSize()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Reduce(And, lpns, LocationFree); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (DESIGN.md §5). ---

// BenchmarkAblationLatchVsVector compares the gate-level latching-circuit
// simulation against the word-wide kernel for one 8 KB page op: the
// reason the hot path uses kernels (the latch package proves they agree).
func BenchmarkAblationLatchVsVector(b *testing.B) {
	pageBytes := 8192
	x := make([]byte, pageBytes)
	y := make([]byte, pageBytes)
	rand.New(rand.NewSource(3)).Read(x)
	rand.New(rand.NewSource(4)).Read(y)

	b.Run("circuit", func(b *testing.B) {
		seq := latch.ForOp(latch.OpXor)
		b.SetBytes(int64(pageBytes))
		for i := 0; i < b.N; i++ {
			for byteIdx := 0; byteIdx < pageBytes; byteIdx++ {
				for bit := 0; bit < 8; bit++ {
					cell := latch.FromBits(x[byteIdx]&(1<<bit) != 0, y[byteIdx]&(1<<bit) != 0)
					c := latch.NewCircuit(latch.CellSensor{cell})
					_ = c.Run(seq)
				}
			}
		}
	})
	b.Run("vector", func(b *testing.B) {
		out := make([]byte, pageBytes)
		b.SetBytes(int64(pageBytes))
		for i := 0; i < b.N; i++ {
			for j := range out {
				out[j] = x[j] ^ y[j]
			}
		}
	})
}

// BenchmarkAblationSerialVsTreeCombine contrasts the paper's serialized
// combine phase with a tree combine that exploits plane parallelism —
// the speedup the paper leaves on the table for the bitmap reduction.
func BenchmarkAblationSerialVsTreeCombine(b *testing.B) {
	geo := flash.Default()
	tm := flash.DefaultTiming()
	const k = 360
	column := int64(100_000_000)
	waves := float64(column) / float64(geo.WaveBytes())
	step := ssd.ReallocStepLatency(tm, latch.OpAnd, 0, geo.PageSize).Seconds()
	sense := OpLatency(And).Seconds()
	b.Run("serial", func(b *testing.B) {
		var total float64
		for i := 0; i < b.N; i++ {
			total = float64(k/2)*waves*sense + float64(k/2-1)*waves*step
		}
		b.ReportMetric(total, "modeled-sec")
	})
	b.Run("tree", func(b *testing.B) {
		var total float64
		for i := 0; i < b.N; i++ {
			// log2(k/2) levels of parallel combines; each level's realloc
			// programs overlap across planes, costing one step per level
			// per wave-equivalent of data still in flight.
			levels := 0
			for n := k / 2; n > 1; n = (n + 1) / 2 {
				levels++
			}
			total = float64(k/2)*waves*sense + float64(levels)*waves*step
		}
		b.ReportMetric(total, "modeled-sec")
	})
}

// BenchmarkAblationStriping compares channel-first striping against a
// single-channel layout for a full-device read burst: programs are
// plane-bound, but read transfers serialize on the channel buses, so the
// striping choice shows up as sustained read bandwidth — the allocation
// decision behind the SSD's wave parallelism.
func BenchmarkAblationStriping(b *testing.B) {
	run := func(b *testing.B, geo flash.Geometry) {
		cfg := ssd.DefaultConfig()
		cfg.Geometry = geo
		dev, err := ssd.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		page := make([]byte, geo.PageSize)
		n := geo.Planes() * 4
		for lpn := 0; lpn < n; lpn++ {
			if _, err := dev.WritePages(persist.OpWrite, 0, []uint64{uint64(lpn)}, [][]byte{page}, 0); err != nil {
				b.Fatal(err)
			}
		}
		dev.ResetTiming()
		var modeled float64
		for i := 0; i < b.N; i++ {
			dev.ResetTiming()
			var last float64
			for lpn := 0; lpn < n; lpn++ {
				_, done, err := dev.Read(uint64(lpn), 0)
				if err != nil {
					b.Fatal(err)
				}
				if s := float64(done); s > last {
					last = s
				}
			}
			modeled = last / 1e6
		}
		b.ReportMetric(modeled, "modeled-ms")
	}
	// Full-size 8 KB pages so transfers (≈21 µs on a 400 MB/s channel)
	// are comparable to senses and the bus actually loads.
	base := flash.Geometry{
		Channels: 4, ChipsPerChannel: 2, DiesPerChip: 1, PlanesPerDie: 2,
		BlocksPerPlane: 64, WordlinesPerBlock: 32, PageSize: 8192, CellBits: 2,
	}
	b.Run("striped-multichannel", func(b *testing.B) { run(b, base) })
	b.Run("single-channel", func(b *testing.B) {
		geo := base
		geo.ChipsPerChannel *= geo.Channels
		geo.Channels = 1
		run(b, geo)
	})
}

// BenchmarkAblationECCRealloc measures the §4.4.3 error-intolerant mode:
// moving operands to fresh cells before every op even when co-located
// (ReAlloc path) versus trusting the pre-allocated layout.
func BenchmarkAblationECCRealloc(b *testing.B) {
	for _, tc := range []struct {
		name   string
		scheme Scheme
	}{
		{"trusting-prealloc", PreAllocated},
		{"ecc-realloc", Reallocated},
	} {
		b.Run(tc.name, func(b *testing.B) {
			d := benchDevice(b)
			x := make([]byte, d.PageSize())
			y := make([]byte, d.PageSize())
			rand.New(rand.NewSource(5)).Read(x)
			rand.New(rand.NewSource(6)).Read(y)
			if err := d.WriteOperandPair(0, 1, x, y); err != nil {
				b.Fatal(err)
			}
			var modeled float64
			for i := 0; i < b.N; i++ {
				r, err := d.Bitwise(Xor, 0, 1, tc.scheme)
				if err != nil {
					b.Fatal(err)
				}
				modeled = float64(r.Latency.Microseconds())
			}
			b.ReportMetric(modeled, "modeled-µs/op")
		})
	}
}

// BenchmarkAblationChannelContention quantifies what the paper's cost
// accounting leaves out: per-wave reallocation with explicit channel
// transfers for every plane (64 planes share a channel on the default
// geometry) versus the lockstep model.
func BenchmarkAblationChannelContention(b *testing.B) {
	geo := flash.Default()
	tm := flash.DefaultTiming()
	lockstep := ssd.ReallocStepLatency(tm, latch.OpAnd, 1, geo.PageSize).Seconds()
	planesPerChannel := geo.PlanesPerChannel()
	perChanBytes := planesPerChannel * geo.PageSize
	// With contention: each channel serializes reads out (1 page/plane)
	// and programs in (2 pages/plane) at the channel rate.
	contended := tm.SenseSRO.Seconds() +
		tm.Transfer(perChanBytes).Seconds() + // operand reads out
		2*(tm.Transfer(perChanBytes).Seconds()) + // paired program data in
		2*tm.ProgramPage.Seconds() +
		OpLatency(And).Seconds()
	b.Run("paper-lockstep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = lockstep
		}
		b.ReportMetric(lockstep*1e3, "modeled-ms/wave")
	})
	b.Run("with-contention", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = contended
		}
		b.ReportMetric(contended*1e3, "modeled-ms/wave")
	})
	if contended < lockstep {
		b.Fatal("contention model should cost more")
	}
}

// BenchmarkScrambler measures the firmware scrambling cost the operand
// path avoids.
func BenchmarkScrambler(b *testing.B) {
	d := benchDevice(b)
	data := make([]byte, d.PageSize())
	rand.New(rand.NewSource(7)).Read(data)
	b.Run("scrambled-write", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if err := d.Write(uint64(i%1000), data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

var _ = fmt.Sprintf // keep fmt for debug printing in table dumps

// BenchmarkDeviceQuery measures the public query path end to end: a
// 3-way AND over an aligned LSB group under LocationFree, planned and
// run as one fused chain. The result cache is off, so every iteration
// plans and senses.
func BenchmarkDeviceQuery(b *testing.B) {
	d, err := NewDevice(WithSmallGeometry(), WithQueryCache(-1))
	if err != nil {
		b.Fatal(err)
	}
	lpns := []uint64{0, 1, 2}
	pages := make([][]byte, len(lpns))
	for i := range pages {
		pages[i] = pageOf(d, int64(11+i))
	}
	if err := d.WriteOperandGroup(lpns, pages); err != nil {
		b.Fatal(err)
	}
	q := QueryAnd(QueryLPN(0), QueryLPN(1), QueryLPN(2))
	b.SetBytes(int64(len(lpns) * d.PageSize()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Query(q, LocationFree); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtTLC regenerates the §4.4.1 TLC extension analysis.
func BenchmarkExtTLC(b *testing.B) { runFigure(b, "ext-tlc") }

// BenchmarkExtScale regenerates the §4.4.2 all-flash-array scaling table.
func BenchmarkExtScale(b *testing.B) { runFigure(b, "ext-scale") }

// BenchmarkExtGC regenerates the GC/write-amplification characterization.
// Each iteration replays the full functional churn, so it is the slowest
// driver by far.
func BenchmarkExtGC(b *testing.B) {
	if testing.Short() {
		b.Skip("functional churn; skipped in -short")
	}
	runFigure(b, "ext-gc")
}

// BenchmarkDeviceTLCAnd3 measures the §4.4.1 TLC three-operand AND on the
// functional simulator.
func BenchmarkDeviceTLCAnd3(b *testing.B) {
	d, err := NewDevice(WithTLCGeometry())
	if err != nil {
		b.Fatal(err)
	}
	var data [3][]byte
	for i := range data {
		data[i] = make([]byte, d.PageSize())
		rand.New(rand.NewSource(int64(i))).Read(data[i])
	}
	lpns := [3]uint64{0, 1, 2}
	if err := d.WriteOperandTriple(lpns, data); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(3 * d.PageSize()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Bitwise3(And3, lpns); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtEnergy regenerates the system-level energy extension.
func BenchmarkExtEnergy(b *testing.B) { runFigure(b, "ext-energy") }
