package sched

import (
	"testing"

	"parabit/internal/faults"
	"parabit/internal/flash"
	"parabit/internal/sim"
	"parabit/internal/ssd"
)

// installPlan arms a fault plan directly on the device's array, the way
// the facade does via the scheduler's exclusive section.
func installPlan(t *testing.T, dev *ssd.Device, plan faults.Plan) *faults.Engine {
	t.Helper()
	eng, err := faults.NewEngine(plan, dev.Array().Geometry())
	if err != nil {
		t.Fatal(err)
	}
	dev.Array().SetFaultInjector(eng)
	return eng
}

// TestRetryRidesOutTransientOutage proves the scheduler absorbs a plane
// outage shorter than its backoff budget: the command retries in
// simulated time and succeeds, with no error surfacing to the caller.
func TestRetryRidesOutTransientOutage(t *testing.T) {
	s, dev := newSched(t)
	// All planes out for the first 150 µs; default policy's first retry
	// lands at 200 µs, past the window.
	installPlan(t, dev, faults.Plan{Rules: []faults.Rule{
		{Type: faults.RulePlaneTransient, Plane: -1, FromUS: 0, ToUS: 150},
	}})
	r := s.Submit(Command{Kind: KindWrite, LPN: 0, Data: pageOf(dev, 9)}).Wait()
	if r.Err != nil {
		t.Fatalf("write during transient outage not retried: %v", r.Err)
	}
	if r.Done <= sim.Time(150*sim.Microsecond) {
		t.Fatalf("retried write reports completion %v inside the outage window", r.Done)
	}
	st := s.Stats()
	if st.Retries == 0 {
		t.Error("no retries counted")
	}
	if st.RetriesExhausted != 0 {
		t.Errorf("RetriesExhausted = %d for a recoverable outage", st.RetriesExhausted)
	}
	got := s.Submit(Command{Kind: KindRead, LPN: 0}).Wait()
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	want := pageOf(dev, 9)
	for i := range want {
		if got.Data[i] != want[i] {
			t.Fatalf("byte %d: %02x, want %02x", i, got.Data[i], want[i])
		}
	}
}

// TestRetryExhaustsOnLongOutage proves a transient outage longer than the
// whole backoff schedule surfaces as a clean transient fault.
func TestRetryExhaustsOnLongOutage(t *testing.T) {
	s, dev := newSched(t)
	installPlan(t, dev, faults.Plan{Rules: []faults.Rule{
		{Type: faults.RulePlaneTransient, Plane: -1, FromUS: 0, ToUS: 1_000_000},
	}})
	r := s.Submit(Command{Kind: KindWrite, LPN: 0, Data: pageOf(dev, 1)}).Wait()
	if !flash.IsTransientFault(r.Err) {
		t.Fatalf("err = %v, want transient fault after exhausted retries", r.Err)
	}
	st := s.Stats()
	if want := int64(retryAttempts - 1); st.Retries != want {
		t.Errorf("Retries = %d, want %d", st.Retries, want)
	}
	if st.RetriesExhausted != 1 {
		t.Errorf("RetriesExhausted = %d, want 1", st.RetriesExhausted)
	}
}

// TestPermanentFaultDoesNotRetry proves dead-plane errors surface at
// once: retrying cannot help, and the retry counters stay at zero.
func TestPermanentFaultDoesNotRetry(t *testing.T) {
	s, dev := newSched(t)
	installPlan(t, dev, faults.Plan{Rules: []faults.Rule{
		{Type: faults.RulePlaneDead, Plane: -1},
	}})
	r := s.Submit(Command{Kind: KindWrite, LPN: 0, Data: pageOf(dev, 1)}).Wait()
	fe := flash.AsFaultError(r.Err)
	if fe == nil || fe.Kind != flash.FaultPlaneDead {
		t.Fatalf("err = %v, want dead-plane fault", r.Err)
	}
	if st := s.Stats(); st.Retries != 0 || st.RetriesExhausted != 0 {
		t.Errorf("dead plane consumed retries: %+v", st)
	}
}
