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

// Property: a resource never starts an op before both the request time and
// the end of all previously accepted work, and never overlaps intervals.
func TestResourceNoOverlapProperty(t *testing.T) {
	f := func(reqs []uint16) bool {
		r := NewResource("x")
		var prevEnd Time
		for i, raw := range reqs {
			at := Time(raw % 997)
			d := Duration(raw%31 + 1)
			s, e := r.Reserve(at, d)
			if s < at || e != s.Add(d) {
				return false
			}
			if i > 0 && s < prevEnd {
				return false
			}
			prevEnd = e
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
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
