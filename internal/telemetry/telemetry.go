// Package telemetry is the observability layer of the simulated device
// stack: a concurrency-safe metrics registry (counters, gauges and
// simulated-time latency histograms) plus span-based tracing over
// sim.Time with a Chrome/Perfetto trace-event exporter.
//
// The design goal is that *disabled* telemetry costs nothing. A nil *Sink
// is a valid, permanently-disabled sink: every method on it — and on every
// handle it returns — is a no-op that performs no allocation, so
// instrumented code caches handles once and calls them unconditionally:
//
//	c := sink.Counter("ftl.gc.runs") // nil handle when sink is nil
//	...
//	c.Add(1)                         // free when disabled
//
// Enabled handles are safe for concurrent use: counters, gauges and
// histogram buckets are atomics, and the trace recorder serializes event
// appends behind a mutex. All timestamps are virtual (sim.Time); nothing
// in this package reads the wall clock.
package telemetry

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"parabit/internal/sim"
)

// Sink is the root registry. Create one with New, hand it to each layer's
// SetTelemetry, and export with WriteMetrics / WriteTrace. The zero value
// is not usable; a nil *Sink is (as a disabled sink).
type Sink struct {
	mu       sync.Mutex
	counters map[string]*Counter   // guarded by mu
	gauges   map[string]*Gauge     // guarded by mu
	hists    map[string]*Histogram // guarded by mu
	// registration order, for stable summary output
	counterOrder []string // guarded by mu
	gaugeOrder   []string // guarded by mu
	histOrder    []string // guarded by mu
	trace        *Trace   // guarded by mu
	// scope is the metric-name (and trace-process) prefix of a scoped
	// view; base points at the registry owner. Both are zero at the root.
	scope string
	base  *Sink
}

// root returns the registry owner: the sink itself, or the base of a
// scoped view.
func (s *Sink) root() *Sink {
	if s != nil && s.base != nil {
		return s.base
	}
	return s
}

// Scope returns a view of the sink whose metric names and trace processes
// are prefixed with "name." — the per-instance lanes a multi-device
// system (one sink, N shards) uses to keep each shard's counters,
// histograms and trace tracks apart. Scoped handles share the root
// registry, so one WriteMetrics / WriteTrace call exports every scope.
// Scopes nest; a nil sink scopes to nil.
func (s *Sink) Scope(name string) *Sink {
	if s == nil || name == "" {
		return s
	}
	return &Sink{scope: s.scope + name + ".", base: s.root()}
}

// New returns an enabled sink with metrics only; call EnableTrace to also
// record spans.
func New() *Sink {
	return &Sink{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// EnableTrace turns on span recording and returns the trace recorder
// (scoped like the sink). Idempotent; safe to call before any layer is
// attached.
func (s *Sink) EnableTrace() *Trace {
	if s == nil {
		return nil
	}
	r := s.root()
	r.mu.Lock()
	if r.trace == nil {
		r.trace = newTrace()
	}
	tr := r.trace
	r.mu.Unlock()
	return tr.scoped(s.scope)
}

// Trace returns the trace recorder (scoped like the sink), or nil when
// the sink is nil or tracing was never enabled. The nil result is itself
// a valid disabled recorder.
func (s *Sink) Trace() *Trace {
	if s == nil {
		return nil
	}
	r := s.root()
	r.mu.Lock()
	tr := r.trace
	r.mu.Unlock()
	return tr.scoped(s.scope)
}

// Counter returns the named counter, registering it on first use.
// Returns nil (a disabled handle) on a nil sink.
func (s *Sink) Counter(name string) *Counter {
	if s == nil {
		return nil
	}
	r := s.root()
	name = s.scope + name
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{name: name}
		r.counters[name] = c
		r.counterOrder = append(r.counterOrder, name)
	}
	return c
}

// Gauge returns the named gauge, registering it on first use.
func (s *Sink) Gauge(name string) *Gauge {
	if s == nil {
		return nil
	}
	r := s.root()
	name = s.scope + name
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{name: name}
		r.gauges[name] = g
		r.gaugeOrder = append(r.gaugeOrder, name)
	}
	return g
}

// Histogram returns the named latency histogram, registering it on first
// use.
func (s *Sink) Histogram(name string) *Histogram {
	if s == nil {
		return nil
	}
	r := s.root()
	name = s.scope + name
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(name)
		r.hists[name] = h
		r.histOrder = append(r.histOrder, name)
	}
	return h
}

// EachCounter visits every registered counter in registration order.
// Scoped views visit the whole registry, every scope included.
func (s *Sink) EachCounter(f func(name string, value int64)) {
	if s == nil {
		return
	}
	r := s.root()
	r.mu.Lock()
	names := append([]string(nil), r.counterOrder...)
	r.mu.Unlock()
	for _, n := range names {
		r.mu.Lock()
		c := r.counters[n]
		r.mu.Unlock()
		f(n, c.Value())
	}
}

// EachGauge visits every registered gauge in registration order.
func (s *Sink) EachGauge(f func(name string, value int64)) {
	if s == nil {
		return
	}
	r := s.root()
	r.mu.Lock()
	names := append([]string(nil), r.gaugeOrder...)
	r.mu.Unlock()
	for _, n := range names {
		r.mu.Lock()
		g := r.gauges[n]
		r.mu.Unlock()
		f(n, g.Value())
	}
}

// EachHistogram visits every registered histogram in registration order.
func (s *Sink) EachHistogram(f func(name string, h *Histogram)) {
	if s == nil {
		return
	}
	r := s.root()
	r.mu.Lock()
	names := append([]string(nil), r.histOrder...)
	r.mu.Unlock()
	for _, n := range names {
		r.mu.Lock()
		h := r.hists[n]
		r.mu.Unlock()
		f(n, h)
	}
}

// Counter is a monotonically increasing event count.
type Counter struct {
	name string
	v    atomic.Int64
}

// Add increments the counter. No-op on a nil handle.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Set replaces the count with a total another record keeps: a layer's
// Stats field, published at export. No-op on a nil handle.
func (c *Counter) Set(v int64) {
	if c == nil {
		return
	}
	c.v.Store(v)
}

// Value returns the current count; 0 on a nil handle.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous level (queue depth, free blocks, ...).
type Gauge struct {
	name string
	v    atomic.Int64
}

// Set stores the current level. No-op on a nil handle.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the level by delta. No-op on a nil handle.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current level; 0 on a nil handle.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram bucket layout: log-linear, histSub sub-buckets per power of
// two. Values 0..histSub-1 are exact; above that the relative quantile
// error is bounded by 1/histSub (~3 %), which is far below the modeled
// timing differences the breakdowns are meant to show.
const (
	histSubBits = 5
	histSub     = 1 << histSubBits
	// Positive int64 exponents run 0..62; exponents below histSubBits
	// collapse into the exact range, so (63-histSubBits)*histSub linear
	// buckets follow the histSub exact ones.
	histBuckets = (63-histSubBits)*histSub + histSub
)

// bucketOf maps a non-negative value to its bucket index.
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < histSub {
		return int(v)
	}
	exp := 63 - bits.LeadingZeros64(uint64(v))
	sub := int((v >> uint(exp-histSubBits)) & (histSub - 1))
	return (exp-histSubBits)*histSub + histSub + sub
}

// bucketMid returns the midpoint of a bucket's value range.
func bucketMid(idx int) int64 {
	if idx < histSub {
		return int64(idx)
	}
	exp := (idx-histSub)/histSub + histSubBits
	sub := int64((idx - histSub) % histSub)
	width := int64(1) << uint(exp-histSubBits)
	lo := (int64(histSub) + sub) * width
	return lo + width/2
}

// Histogram records simulated-time latencies and answers quantile
// queries. Recording is lock-free (atomic bucket increments); quantiles
// read a racy-but-consistent-enough snapshot, which is fine for
// reporting.
type Histogram struct {
	name    string
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // valid when count > 0
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

func newHistogram(name string) *Histogram {
	h := &Histogram{name: name}
	h.min.Store(int64(1)<<62 - 1)
	return h
}

// Observe records one latency. Negative durations clamp to zero. No-op on
// a nil handle.
func (h *Histogram) Observe(d sim.Duration) {
	if h == nil {
		return
	}
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bucketOf(v)].Add(1)
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of all observations.
func (h *Histogram) Sum() sim.Duration {
	if h == nil {
		return 0
	}
	return sim.Duration(h.sum.Load())
}

// Min returns the smallest observation, or 0 when empty.
func (h *Histogram) Min() sim.Duration {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return sim.Duration(h.min.Load())
}

// Max returns the largest observation, or 0 when empty.
func (h *Histogram) Max() sim.Duration {
	if h == nil {
		return 0
	}
	return sim.Duration(h.max.Load())
}

// Quantile returns the value at or below which the fraction q of
// observations fall, approximated to the bucket resolution. q is clamped
// to [0, 1]; an empty histogram returns 0.
func (h *Histogram) Quantile(q float64) sim.Duration {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var seen int64
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		seen += n
		if seen >= rank {
			// Clamp the bucket midpoint to the recorded extremes so
			// tiny sample counts don't report values nobody observed.
			v := bucketMid(i)
			if mn := h.min.Load(); v < mn {
				v = mn
			}
			if mx := h.max.Load(); v > mx {
				v = mx
			}
			return sim.Duration(v)
		}
	}
	return sim.Duration(h.max.Load())
}

// Quantiles returns several quantiles in one bucket walk order; it is
// just a convenience over Quantile.
func (h *Histogram) Quantiles(qs ...float64) []sim.Duration {
	out := make([]sim.Duration, len(qs))
	for i, q := range qs {
		out[i] = h.Quantile(q)
	}
	return out
}
