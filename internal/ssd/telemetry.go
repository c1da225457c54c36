package ssd

import (
	"parabit/internal/latch"
	"parabit/internal/sim"
	"parabit/internal/telemetry"
)

// teleOps / teleSchemes size the tagged-counter tables; they mirror
// latch.Ops and the scheme registry (checked in the tests).
const (
	teleOps     = 8
	teleSchemes = len(schemeNames)
)

// opSchemeName / fallbackName are built once at init so that tagging a
// bitwise operation never concatenates strings on the hot path.
var (
	opSchemeName [teleOps][teleSchemes]string
	opSchemeSpan [teleOps][teleSchemes]string
	fallbackName [teleSchemes]string
	tripleOpName = "ssd.bitwise.triple"
)

func init() {
	for _, op := range latch.Ops {
		for si, sc := range Schemes {
			opSchemeName[op][si] = "ssd.op." + op.String() + "." + sc.String()
			opSchemeSpan[op][si] = op.String() + "/" + sc.String()
		}
	}
	for si, sc := range Schemes {
		fallbackName[si] = "ssd.fallbacks." + sc.String()
	}
}

// devTele holds the device's telemetry handles. The zero value (all nil)
// is the disabled state: every handle method is a free no-op, and noteOp
// bails on the nil sink before building anything.
type devTele struct {
	sink     *telemetry.Sink
	opTrack  *telemetry.Track
	cCombine *telemetry.Counter
	// qTrack is the query planner's lane: plan spans, fuse spans and
	// cache hit/evict instants.
	qTrack *telemetry.Track
}

// SetTelemetry attaches (or, with nil, detaches) a telemetry sink to the
// device and everything below it: the FTL's maintenance events, every
// plane's sense path, every channel bus, and the host link each get their
// own trace lane when the sink records a trace. The live counters are
// the ones no Stats field holds: bitwise ops tagged by op and scheme,
// scheme fallbacks, controller combines and TLC triples. Everything the
// device's Stats count reaches the sink through sched's PublishMetrics.
func (d *Device) SetTelemetry(s *telemetry.Sink) {
	d.ftl.SetTelemetry(s)
	d.tele = devTele{
		sink:     s,
		cCombine: s.Counter("ssd.combine.controller"),
	}
	tr := s.Trace()
	if tr == nil {
		d.array.InstrumentResources(nil)
		d.host.InstrumentBus(nil)
		return
	}
	d.tele.opTrack = tr.Track("ssd", "bitwise")
	d.tele.qTrack = tr.Track("ssd", "query")
	// One occupancy lane per plane and per channel, registered eagerly so
	// the lanes exist even before any traffic reaches them.
	d.array.InstrumentResources(func(name string) sim.ReserveObserver {
		tk := tr.Track("flash", name)
		return func(label string, start, end sim.Time) {
			tk.Span(label, start, end)
		}
	})
	hostTk := tr.Track("host", "link")
	d.host.InstrumentBus(func(label string, start, end sim.Time) {
		hostTk.Span(label, start, end)
	})
}

// noteOp tags one completed bitwise operation with its op and execution
// scheme: a per-combination counter (registered lazily, so the summary
// shows only combinations that actually ran) and a span on the device's
// bitwise lane. A fallback is tagged with the scheme whose path ran it:
// ParaBit's reallocation as SchemeReAlloc, a Flash-Cosmos miss's
// location-free sense as SchemeLocFree.
func (d *Device) noteOp(op latch.Op, scheme Scheme, start, done sim.Time) {
	if d.tele.sink == nil || int(op) >= teleOps || int(scheme) >= teleSchemes {
		return
	}
	d.tele.sink.Counter(opSchemeName[op][scheme]).Add(1)
	d.tele.opTrack.Span(opSchemeSpan[op][scheme], start, done)
}

// noteFallback counts and tags one scheme-precondition miss.
func (d *Device) noteFallback(scheme Scheme) {
	d.stats.Fallbacks++
	if d.tele.sink == nil || int(scheme) >= teleSchemes {
		return
	}
	d.tele.sink.Counter(fallbackName[scheme]).Add(1)
}
