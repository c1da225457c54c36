package parabit

import (
	"bytes"
	"testing"
	"time"
)

func TestTLCDeviceTripleOps(t *testing.T) {
	d := newTestDevice(t, WithTLCGeometry())
	a, b, c := pageOf(d, 1), pageOf(d, 2), pageOf(d, 3)
	lpns := [3]uint64{0, 1, 2}
	if err := d.WriteOperandTriple(lpns, [3][]byte{a, b, c}); err != nil {
		t.Fatal(err)
	}
	for _, op := range Op3s {
		r, err := d.Bitwise3(op, lpns)
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		for i := range r.Data {
			for bit := 0; bit < 8; bit++ {
				x := a[i]&(1<<bit) != 0
				y := b[i]&(1<<bit) != 0
				z := c[i]&(1<<bit) != 0
				if (r.Data[i]&(1<<bit) != 0) != op.Eval(x, y, z) {
					t.Fatalf("%v: bit %d.%d wrong", op, i, bit)
				}
			}
		}
	}
}

func TestTLCAnd3Latency(t *testing.T) {
	// §4.4.1: AND3 is one sense — 60 µs under TLC timing.
	d := newTestDevice(t, WithTLCGeometry())
	a, b, c := pageOf(d, 4), pageOf(d, 5), pageOf(d, 6)
	lpns := [3]uint64{0, 1, 2}
	if err := d.WriteOperandTriple(lpns, [3][]byte{a, b, c}); err != nil {
		t.Fatal(err)
	}
	r, err := d.Bitwise3(And3, lpns)
	if err != nil {
		t.Fatal(err)
	}
	if r.Latency != 60*time.Microsecond {
		t.Errorf("AND3 latency = %v, want 60µs", r.Latency)
	}
	if Op3Latency(And3) != 60*time.Microsecond {
		t.Errorf("Op3Latency(And3) = %v", Op3Latency(And3))
	}
	if Op3Latency(Or3) != 120*time.Microsecond {
		t.Errorf("Op3Latency(Or3) = %v", Op3Latency(Or3))
	}
}

func TestTLCRejectsMLCOps(t *testing.T) {
	d := newTestDevice(t, WithTLCGeometry())
	a, b := pageOf(d, 7), pageOf(d, 8)
	if err := d.WriteOperand(0, a); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteOperand(1, b); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Bitwise(And, 0, 1, Reallocated); err == nil {
		t.Fatal("MLC scheme op accepted on TLC device")
	}
}

func TestMLCRejectsTripleOps(t *testing.T) {
	d := newTestDevice(t)
	a := pageOf(d, 9)
	if err := d.WriteOperandTriple([3]uint64{0, 1, 2}, [3][]byte{a, a, a}); err == nil {
		t.Fatal("triple write accepted on MLC device")
	}
}

func TestTLCBaselineReadsRoundTrip(t *testing.T) {
	// All three TLC pages (1, 2 and 4 senses) must read back exactly.
	d := newTestDevice(t, WithTLCGeometry())
	a, b, c := pageOf(d, 10), pageOf(d, 11), pageOf(d, 12)
	if err := d.WriteOperandTriple([3]uint64{0, 1, 2}, [3][]byte{a, b, c}); err != nil {
		t.Fatal(err)
	}
	for i, want := range [][]byte{a, b, c} {
		got, err := d.Read(uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("TLC page %d corrupted", i)
		}
	}
}

func TestTLCSegmentationEndToEnd(t *testing.T) {
	// The segmentation recognition (Y AND U AND V) on TLC: the whole
	// three-way AND is one sense per page triple.
	d := newTestDevice(t, WithTLCGeometry())
	ps := d.PageSize()
	y, u, v := pageOf(d, 20), pageOf(d, 21), pageOf(d, 22)
	if err := d.WriteOperandTriple([3]uint64{0, 1, 2}, [3][]byte{y, u, v}); err != nil {
		t.Fatal(err)
	}
	r, err := d.Bitwise3(And3, [3]uint64{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, ps)
	for i := range want {
		want[i] = y[i] & u[i] & v[i]
	}
	if !bytes.Equal(r.Data, want) {
		t.Fatal("TLC recognition wrong")
	}
	s := d.Stats()
	if s.Flash.SROs != 1 {
		t.Fatalf("recognition used %d SROs, want 1 (single VREAD1 sense)", s.Flash.SROs)
	}
}
