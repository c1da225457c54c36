package sim

// Resource models a unit of hardware that can execute one operation at a
// time: a flash plane, a die's sense path, a channel bus, a DRAM bank.
// Callers reserve spans of virtual time on it; overlapping requests are
// serialized in arrival order, which is how command queuing behaves in the
// devices being modeled.
//
// Resource performs no callback scheduling — it is pure occupancy
// bookkeeping: a reservation returns when the work would start and end.
type Resource struct {
	name string
	// freeAt is the first instant the resource is idle.
	freeAt Time
	// obs, when set, receives every reservation (telemetry tracing).
	obs ReserveObserver
}

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

// Reserve books the resource for duration d, starting no earlier than "at"
// and no earlier than the end of the previously booked work. It returns the
// interval actually occupied.
func (r *Resource) Reserve(at Time, d Duration) (start, end Time) {
	return r.ReserveLabeled(at, d, "busy")
}

// ReserveLabeled is Reserve with a label describing the work, which the
// observer (if any) receives — this is how occupancy lanes in an exported
// trace distinguish senses from programs from transfers.
func (r *Resource) ReserveLabeled(at Time, d Duration, label string) (start, end Time) {
	start = Max(at, r.freeAt)
	end = start.Add(d)
	r.freeAt = end
	if r.obs != nil {
		r.obs(label, start, end)
	}
	return start, end
}

// SetObserver installs (or, with nil, removes) the reservation observer.
func (r *Resource) SetObserver(obs ReserveObserver) { r.obs = obs }

// FreeAt returns the earliest instant at which new work could start.
func (r *Resource) FreeAt() Time { return r.freeAt }

// Reset returns the resource to idle at time zero.
func (r *Resource) Reset() { r.freeAt = 0 }
