package ftl

import (
	"math/rand"
	"testing"

	"parabit/internal/telemetry"
)

// churnUntilGC overwrites half the logical space at random until garbage
// collection has run.
func churnUntilGC(t *testing.T, f *FTL) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	span := int(f.LogicalPages()) / 2
	for i := 0; f.Stats().GCRuns == 0; i++ {
		if i > 20*int(f.LogicalPages()) {
			t.Fatal("GC never triggered")
		}
		if _, err := f.Write(uint64(rng.Intn(span)), page(f, byte(i)), 0); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTelemetryTracesMaintenance forces garbage collection with a
// tracing sink attached and checks that the GC lane recorded spans. The
// maintenance counts stay in Stats and register no counter.
func TestTelemetryTracesMaintenance(t *testing.T) {
	f := newFTL()
	sink := telemetry.New()
	tr := sink.EnableTrace()
	f.SetTelemetry(sink)
	churnUntilGC(t, f)
	if tr.Len() == 0 {
		t.Error("maintenance recorded no spans")
	}
	sink.EachCounter(func(name string, _ int64) {
		t.Errorf("FTL registered counter %s", name)
	})
}

// TestSetTelemetryNilDetaches makes sure detaching returns the FTL to the
// free no-op state.
func TestSetTelemetryNilDetaches(t *testing.T) {
	f := newFTL()
	sink := telemetry.New()
	tr := sink.EnableTrace()
	f.SetTelemetry(sink)
	f.SetTelemetry(nil)
	churnUntilGC(t, f)
	if n := tr.Len(); n != 0 {
		t.Errorf("detached sink still recorded %d spans", n)
	}
}
