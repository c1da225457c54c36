package sim

// Resource models a unit of hardware that can execute one operation at a
// time: a flash plane, a die's sense path, a channel bus, a DRAM bank.
// Callers reserve spans of virtual time on it, and the resource orders
// them by virtual time, not by call order: a request takes the earliest
// idle gap at or after its issue instant that fits its duration, so work
// booked for a later instant does not delay work issued earlier. This is
// how command queuing behaves in the devices being modeled, whose
// controllers order flash transactions by time.
//
// The calendar of busy spans is bounded. Once it holds calendarCap spans,
// the oldest folds into a floor no later request starts before. The floor
// never exceeds the end of the latest booked span, so no request starts
// later than a single high-water mark of booked work would start it.
//
// Resource performs no callback scheduling — it is pure occupancy
// bookkeeping: a reservation returns when the work would start and end.
type Resource struct {
	name string
	// floor is the earliest instant a new booking may start: the end of
	// the newest span folded out of the calendar.
	floor Time
	// spans holds the booked work at or after floor, sorted, disjoint and
	// never touching: abutting spans merge. It is allocated at the first
	// booking with room for calendarCap spans and never grows beyond.
	spans []span
	// obs, when set, receives every reservation (telemetry tracing).
	obs ReserveObserver
}

// span is one busy interval [start, end) of a Resource.
type span struct{ start, end Time }

// calendarCap bounds the spans a Resource keeps. Requests issued close
// together in virtual time leave a few gaps each, so a few dozen spans
// keep every gap such requests can still fill; older gaps fold into the
// floor.
const calendarCap = 32

// ReserveObserver receives each reservation made on an instrumented
// resource: the label the reserving layer gave the work ("sense",
// "program", "xfer", ...) and the interval actually occupied. Observers
// run synchronously inside Reserve; keep them cheap.
type ReserveObserver func(label string, start, end Time)

// NewResource returns an idle resource with the given diagnostic name.
func NewResource(name string) *Resource {
	return &Resource{name: name}
}

// Name returns the diagnostic name supplied at construction.
func (r *Resource) Name() string { return r.name }

// Reserve books the resource for duration d in the earliest idle gap that
// starts no earlier than "at" and fits d, or after all booked work. It
// returns the interval actually occupied.
func (r *Resource) Reserve(at Time, d Duration) (start, end Time) {
	return r.ReserveLabeled(at, d, "busy")
}

// ReserveLabeled is Reserve with a label describing the work, which the
// observer (if any) receives — this is how occupancy lanes in an exported
// trace distinguish senses from programs from transfers.
func (r *Resource) ReserveLabeled(at Time, d Duration, label string) (start, end Time) {
	start = r.book(Max(at, r.floor), d)
	end = start.Add(d)
	if r.obs != nil {
		r.obs(label, start, end)
	}
	return start, end
}

// book places d at the earliest fit at or after at (which is at or after
// the floor) and returns its start. A request at or after the start of
// the latest span, the common case, only looks at that span.
func (r *Resource) book(at Time, d Duration) Time {
	i, n := 0, len(r.spans)
	if n > 0 && at >= r.spans[n-1].start {
		i = n - 1
	}
	for ; i < n && at.Add(d) > r.spans[i].start; i++ {
		at = Max(at, r.spans[i].end)
	}
	r.place(i, span{at, at.Add(d)})
	return at
}

// place records s in the gap before spans[i] (after the last span when i
// is len(spans)), merging it with the spans it abuts. A full calendar
// first folds its oldest span, which is s itself when i is 0.
func (r *Resource) place(i int, s span) {
	if s.start == s.end {
		return // occupies nothing
	}
	joinPrev := i > 0 && r.spans[i-1].end == s.start
	joinNext := i < len(r.spans) && r.spans[i].start == s.end
	switch {
	case joinPrev && joinNext:
		r.spans[i-1].end = r.spans[i].end
		r.spans = append(r.spans[:i], r.spans[i+1:]...)
	case joinPrev:
		r.spans[i-1].end = s.end
	case joinNext:
		r.spans[i].start = s.start
	case len(r.spans) == calendarCap && i == 0:
		r.floor = s.end
	default:
		if r.spans == nil {
			r.spans = make([]span, 0, calendarCap)
		}
		if len(r.spans) == calendarCap {
			r.floor = r.spans[0].end
			r.spans = append(r.spans[:0], r.spans[1:]...)
			i--
		}
		r.spans = append(r.spans, span{})
		copy(r.spans[i+1:], r.spans[i:])
		r.spans[i] = s
	}
}

// SetObserver installs (or, with nil, removes) the reservation observer.
func (r *Resource) SetObserver(obs ReserveObserver) { r.obs = obs }

// FreeAt returns the instant all booked work ends.
func (r *Resource) FreeAt() Time {
	if n := len(r.spans); n > 0 {
		return r.spans[n-1].end
	}
	return r.floor
}

// Reset returns the resource to idle at time zero.
func (r *Resource) Reset() {
	r.floor = 0
	r.spans = r.spans[:0]
}
