package telemetry

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"parabit/internal/sim"
)

// naiveQuantile is the reference the histogram is checked against: sort
// and index, with the same nearest-rank convention.
func naiveQuantile(vals []int64, q float64) int64 {
	s := append([]int64(nil), vals...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int64(q*float64(len(s)) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > int64(len(s)) {
		rank = int64(len(s))
	}
	return s[rank-1]
}

func TestHistogramQuantileVsNaive(t *testing.T) {
	dists := map[string]func(r *rand.Rand) int64{
		// Uniform small values land in exact buckets.
		"uniform-small": func(r *rand.Rand) int64 { return r.Int63n(histSub) },
		// Microsecond-to-millisecond latencies, the realistic range.
		"uniform-wide": func(r *rand.Rand) int64 { return 1_000 + r.Int63n(10_000_000) },
		// Log-uniform exercises every bucket scale.
		"log-uniform": func(r *rand.Rand) int64 { return int64(1) << uint(r.Intn(40)) },
		// Heavy tail: mostly small with rare huge values.
		"heavy-tail": func(r *rand.Rand) int64 {
			if r.Intn(100) == 0 {
				return r.Int63n(1 << 40)
			}
			return r.Int63n(50_000)
		},
	}
	for name, gen := range dists {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(42))
			h := newHistogram(name)
			vals := make([]int64, 5000)
			for i := range vals {
				vals[i] = gen(r)
				h.Observe(sim.Duration(vals[i]))
			}
			for _, q := range []float64{0, 0.25, 0.50, 0.90, 0.95, 0.99, 1} {
				got := int64(h.Quantile(q))
				want := naiveQuantile(vals, q)
				// Log-linear buckets with histSub sub-buckets bound the
				// relative error at 1/histSub of the bucket width; allow
				// 5 % plus one ULP of slack for rank-vs-midpoint skew.
				tol := want / 20
				if tol < 1 {
					tol = 1
				}
				if got < want-tol || got > want+tol {
					t.Errorf("q=%.2f: got %d, naive %d (tol %d)", q, got, want, tol)
				}
			}
			if h.Count() != int64(len(vals)) {
				t.Errorf("count %d, want %d", h.Count(), len(vals))
			}
			var sum int64
			for _, v := range vals {
				sum += v
			}
			if int64(h.Sum()) != sum {
				t.Errorf("sum %d, want %d", h.Sum(), sum)
			}
		})
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	h := newHistogram("edges")
	if h.Quantile(0.5) != 0 || h.Count() != 0 {
		t.Fatal("empty histogram must report zero")
	}
	h.Observe(1234)
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := h.Quantile(q); got != 1234 {
			t.Errorf("single-value histogram q=%v: got %v", q, got)
		}
	}
	if h.Min() != 1234 || h.Max() != 1234 {
		t.Errorf("min/max: %v/%v", h.Min(), h.Max())
	}
	h.Observe(-5) // clamps to zero
	if h.Min() != 0 {
		t.Errorf("negative observation should clamp: min %v", h.Min())
	}
}

func TestBucketMidStaysInBucket(t *testing.T) {
	for _, v := range []int64{0, 1, histSub - 1, histSub, 100, 1 << 20, 1<<40 + 12345, 1 << 62} {
		idx := bucketOf(v)
		mid := bucketMid(idx)
		if bucketOf(mid) != idx {
			t.Errorf("v=%d: bucket %d has midpoint %d in bucket %d", v, idx, mid, bucketOf(mid))
		}
		if v < histSub && mid != v {
			t.Errorf("exact range: v=%d got midpoint %d", v, mid)
		}
	}
}

// TestNilSinkNoAllocations is the disabled-fast-path contract: with a nil
// sink, registration, every metric update and every span call must not
// allocate.
func TestNilSinkNoAllocations(t *testing.T) {
	var s *Sink
	c := s.Counter("x")
	g := s.Gauge("x")
	h := s.Histogram("x")
	tk := s.Trace().Track("p", "l")
	if n := testing.AllocsPerRun(100, func() {
		c.Add(1)
		c.Set(3)
		g.Set(7)
		h.Observe(123)
		tk.Span("op", 0, 10)
		tk.Instant("i", 5)
		s.Counter("y").Add(1)
		s.Trace().Track("p", "l2").Span("op", 0, 1)
	}); n != 0 {
		t.Fatalf("nil sink allocated %v times per op batch", n)
	}
}

func TestNilHandlesAreInert(t *testing.T) {
	var s *Sink
	if s.Counter("c").Value() != 0 || s.Gauge("g").Value() != 0 {
		t.Error("nil handles must read zero")
	}
	if s.Histogram("h").Quantile(0.5) != 0 {
		t.Error("nil histogram must read zero")
	}
	if s.Trace() != nil || s.EnableTrace() != nil {
		t.Error("nil sink must not produce a trace")
	}
	s.EachCounter(func(string, int64) { t.Error("nil sink visited a counter") })
	s.WriteMetrics(nil) // must not panic
}

func TestSinkRegistrationIsIdempotent(t *testing.T) {
	s := New()
	if s.Counter("a") != s.Counter("a") {
		t.Error("same name must return the same counter")
	}
	if s.Histogram("h") != s.Histogram("h") {
		t.Error("same name must return the same histogram")
	}
	tr := s.EnableTrace()
	if tr != s.EnableTrace() || tr != s.Trace() {
		t.Error("EnableTrace must be idempotent")
	}
	if tr.Track("p", "l") != tr.Track("p", "l") {
		t.Error("same (process, lane) must return the same track")
	}
}

func TestConcurrentMetricsAndSpans(t *testing.T) {
	s := New()
	tr := s.EnableTrace()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := s.Counter("ops")
			h := s.Histogram("lat")
			tk := tr.Track("proc", "lane")
			for i := 0; i < per; i++ {
				c.Add(1)
				h.Observe(sim.Duration(i))
				tk.Span("op", sim.Time(i), sim.Time(i+1))
				s.Gauge("depth").Set(int64(i))
			}
		}(w)
	}
	wg.Wait()
	if got := s.Counter("ops").Value(); got != workers*per {
		t.Errorf("counter: %d, want %d", got, workers*per)
	}
	if got := s.Histogram("lat").Count(); got != workers*per {
		t.Errorf("histogram: %d, want %d", got, workers*per)
	}
	if got := tr.Len(); got != workers*per {
		t.Errorf("trace: %d events, want %d", got, workers*per)
	}
}

func BenchmarkCounterAddDisabled(b *testing.B) {
	var s *Sink
	c := s.Counter("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkCounterAddEnabled(b *testing.B) {
	c := New().Counter("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkHistogramObserveEnabled(b *testing.B) {
	h := New().Histogram("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(sim.Duration(i & 0xfffff))
	}
}

func BenchmarkTrackSpanEnabled(b *testing.B) {
	tk := New().EnableTrace().Track("p", "l")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tk.Span("op", sim.Time(i), sim.Time(i+10))
	}
}
