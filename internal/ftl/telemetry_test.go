package ftl

import (
	"math/rand"
	"testing"

	"parabit/internal/telemetry"
)

// TestTelemetryMirrorsMaintenanceStats forces garbage collection with a
// sink attached and checks that the telemetry counters track Stats
// exactly and that the maintenance lanes recorded spans.
func TestTelemetryMirrorsMaintenanceStats(t *testing.T) {
	f := newFTL()
	sink := telemetry.New()
	tr := sink.EnableTrace()
	f.SetTelemetry(sink)

	// Overwrite churn forces GC.
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

	st := f.Stats()
	for name, want := range map[string]int64{
		"ftl.gc.runs":        st.GCRuns,
		"ftl.gc.pages_moved": st.GCPagesMoved,
		"ftl.padded_pages":   st.PaddedPages,
	} {
		if got := sink.Counter(name).Value(); got != want {
			t.Errorf("%s: counter %d, stats %d", name, got, want)
		}
	}
	if tr.Len() == 0 {
		t.Error("maintenance recorded no spans")
	}
}

// TestSetTelemetryNilDetaches makes sure detaching returns the FTL to the
// free no-op state.
func TestSetTelemetryNilDetaches(t *testing.T) {
	f := newFTL()
	sink := telemetry.New()
	f.SetTelemetry(sink)
	f.SetTelemetry(nil)
	for lpn := uint64(0); lpn < 10; lpn++ {
		if _, err := f.Write(lpn, page(f, byte(lpn)), 0); err != nil {
			t.Fatal(err)
		}
	}
	sink.EachCounter(func(name string, v int64) {
		if v != 0 {
			t.Errorf("detached sink still received %s=%d", name, v)
		}
	})
}
