package sim

import (
	"testing"
	"testing/quick"
)

func TestResourceSerializes(t *testing.T) {
	r := NewResource("plane")
	s1, e1 := r.Reserve(0, 100)
	if s1 != 0 || e1 != 100 {
		t.Fatalf("first reservation [%v,%v], want [0,100]", s1, e1)
	}
	// Requested at t=50 while busy until 100: must start at 100.
	s2, e2 := r.Reserve(50, 30)
	if s2 != 100 || e2 != 130 {
		t.Fatalf("overlapping reservation [%v,%v], want [100,130]", s2, e2)
	}
	// Requested after idle gap: starts at request time.
	s3, _ := r.Reserve(1000, 10)
	if s3 != 1000 {
		t.Fatalf("post-gap reservation starts at %v, want 1000", s3)
	}
}

// requests decodes quick-check input into reservation requests at
// instants and durations small enough to collide often.
func requests(raw []uint16) (ats []Time, ds []Duration) {
	for _, v := range raw {
		ats = append(ats, Time(v%997))
		ds = append(ds, Duration(v%31+1))
	}
	return ats, ds
}

// Property: a reservation never starts before its request and never
// overlaps any earlier reservation, including ones folded into the floor.
func TestResourceNoOverlapProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		r := NewResource("x")
		var booked []span
		ats, ds := requests(raw)
		for i, at := range ats {
			s, e := r.Reserve(at, ds[i])
			if s < at || e != s.Add(ds[i]) {
				return false
			}
			for _, b := range booked {
				if s < b.end && b.start < e {
					return false
				}
			}
			booked = append(booked, span{s, e})
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: while the calendar has room, a reservation takes the earliest
// gap at or after its request that fits it.
func TestResourceEarliestGapProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		r := NewResource("x")
		var booked []span
		ats, ds := requests(raw)
		for i, at := range ats[:min(len(ats), calendarCap)] {
			want := at
			for moved := true; moved; {
				moved = false
				for _, b := range booked {
					if want < b.end && b.start < want.Add(ds[i]) {
						want, moved = b.end, true
					}
				}
			}
			s, e := r.Reserve(at, ds[i])
			if s != want {
				return false
			}
			booked = append(booked, span{s, e})
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: no reservation starts later than a single high-water mark of
// all earlier reservations would start it, however many the calendar
// folded.
func TestResourceHighWaterBoundProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		r := NewResource("x")
		var highWater Time
		ats, ds := requests(raw)
		for i, at := range ats {
			// Push requests forward so long inputs overflow the calendar.
			at += Time(i * 8)
			s, e := r.Reserve(at, ds[i])
			if s > Max(at, highWater) {
				return false
			}
			highWater = Max(highWater, e)
		}
		return r.FreeAt() == highWater
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// FuzzResourceCalendar checks every reservation against a brute-force
// map of busy ticks: it must start at the first tick at or after both its
// request and the calendar's floor from which its whole duration is
// idle. Spans folded into the floor end at or before it, so the map's
// older ticks cannot change the answer.
func FuzzResourceCalendar(f *testing.F) {
	f.Add([]byte{10, 3, 0, 4, 12, 2, 5, 1})
	f.Add([]byte{200, 5, 100, 5, 0, 5, 150, 20, 120, 1})
	f.Fuzz(func(t *testing.T, in []byte) {
		r := NewResource("x")
		busy := map[Time]bool{}
		var highWater Time
		for i := 0; i+1 < len(in); i += 2 {
			// Drift requests forward so long inputs overflow the calendar.
			at := Time(in[i]) + Time(i)
			d := Duration(in[i+1]%16 + 1)
			floor := r.floor
			want := Max(at, floor)
			for fits := false; !fits; {
				fits = true
				for tick := want; tick < want.Add(d); tick++ {
					if busy[tick] {
						want, fits = tick+1, false
						break
					}
				}
			}
			s, e := r.Reserve(at, d)
			if s != want || e != s.Add(d) {
				t.Fatalf("request %d at %v for %v: got [%v,%v), want start %v (floor %v)", i/2, at, d, s, e, want, floor)
			}
			for tick := s; tick < e; tick++ {
				busy[tick] = true
			}
			highWater = Max(highWater, e)
			if r.floor > highWater {
				t.Fatalf("floor %v above every booked end %v", r.floor, highWater)
			}
			if len(r.spans) > calendarCap {
				t.Fatalf("calendar holds %d spans, cap %d", len(r.spans), calendarCap)
			}
			// The calendar's spans are exactly the busy ticks at or
			// after the floor, as maximal runs.
			prevEnd := r.floor
			for j, sp := range r.spans {
				if sp.start >= sp.end || (j > 0 && sp.start <= prevEnd) || sp.start < r.floor {
					t.Fatalf("spans %v with floor %v are not sorted, disjoint and apart", r.spans, r.floor)
				}
				for tick := prevEnd; tick < sp.end; tick++ {
					if busy[tick] != (tick >= sp.start) {
						t.Fatalf("tick %v busy=%v disagrees with spans %v", tick, busy[tick], r.spans)
					}
				}
				prevEnd = sp.end
			}
			for tick := range busy {
				if tick >= prevEnd {
					t.Fatalf("busy tick %v after the last span %v", tick, r.spans)
				}
			}
		}
	})
}

// TestResourceReserveNoAllocations pins reservations on a full calendar
// to zero allocations: the span list is allocated once, at its cap.
func TestResourceReserveNoAllocations(t *testing.T) {
	r := NewResource("x")
	for i := 0; i < 2*calendarCap; i++ {
		r.Reserve(Time(i*100), 30)
	}
	if len(r.spans) != calendarCap {
		t.Fatalf("calendar holds %d spans, want it full at %d", len(r.spans), calendarCap)
	}
	at := Time(2 * calendarCap * 100)
	if n := testing.AllocsPerRun(100, func() {
		r.Reserve(at, 30)    // after all work: folds the oldest span
		r.Reserve(at-250, 5) // into an earlier gap
		r.Reserve(at-180, 1) // abutting an earlier span
		at += 100
	}); n != 0 {
		t.Fatalf("Reserve allocated %v times on a full calendar", n)
	}
}

// BenchmarkResourceReserve books a stream of requests that mostly arrive
// in time order, with every fourth issued earlier into a gap, on a
// calendar that stays full.
func BenchmarkResourceReserve(b *testing.B) {
	r := NewResource("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		at := Time(i/4*100) + Time(i%4)*40
		if i%4 == 3 {
			at -= 1000
		}
		r.Reserve(at, 30)
	}
}

func TestDurationConversions(t *testing.T) {
	d := 25 * Microsecond
	if d.Micros() != 25 {
		t.Fatalf("Micros() = %v", d.Micros())
	}
	if d.Seconds() != 25e-6 {
		t.Fatalf("Seconds() = %v", d.Seconds())
	}
	if d.Std().Microseconds() != 25 {
		t.Fatalf("Std() = %v", d.Std())
	}
	if (2 * Second).String() != "2s" {
		t.Fatalf("String() = %q", (2 * Second).String())
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(100)
	t1 := t0.Add(50)
	if t1 != 150 {
		t.Fatalf("Add: %v", t1)
	}
	if t1.Sub(t0) != 50 {
		t.Fatalf("Sub: %v", t1.Sub(t0))
	}
	if Max(t0, t1) != t1 || Max(t1, t0) != t1 {
		t.Fatal("Max wrong")
	}
}
