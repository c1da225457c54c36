package cluster

import (
	"errors"
	"sync"
	"testing"

	"parabit/internal/sim"
	"parabit/internal/telemetry"
)

func TestAdmissionRateLimit(t *testing.T) {
	var a admitter
	a.init()
	a.set("limited", QoS{OpsPerSec: 2, Burst: 2})

	// Burst admits two, then the bucket is dry.
	for i := 0; i < 2; i++ {
		tn, err := a.admit("limited", 0)
		if err != nil {
			t.Fatalf("burst admit %d: %v", i, err)
		}
		tn.release()
	}
	_, err := a.admit("limited", 0)
	if !errors.Is(err, ErrAdmission) {
		t.Fatalf("dry-bucket error = %v, want ErrAdmission", err)
	}
	var ae *AdmissionError
	if !errors.As(err, &ae) || ae.Reason != "rate" || ae.Tenant != "limited" {
		t.Fatalf("rejection = %+v, want rate rejection for limited", ae)
	}

	// Half a virtual second refills one token at 2 ops/s.
	tn, err := a.admit("limited", sim.Time(500*sim.Millisecond))
	if err != nil {
		t.Fatalf("post-refill admit: %v", err)
	}
	tn.release()
	if _, err := a.admit("limited", sim.Time(500*sim.Millisecond)); !errors.Is(err, ErrAdmission) {
		t.Fatalf("second post-refill admit = %v, want ErrAdmission", err)
	}
}

func TestAdmissionQueueDepth(t *testing.T) {
	var a admitter
	a.init()
	a.set("bounded", QoS{MaxInFlight: 2})

	r1, err := a.admit("bounded", 0)
	if err != nil {
		t.Fatalf("admit 1: %v", err)
	}
	r2, err := a.admit("bounded", 0)
	if err != nil {
		t.Fatalf("admit 2: %v", err)
	}
	_, err = a.admit("bounded", 0)
	var ae *AdmissionError
	if !errors.As(err, &ae) || ae.Reason != "queue" {
		t.Fatalf("over-depth error = %v, want queue rejection", err)
	}
	r1.release()
	r3, err := a.admit("bounded", 0)
	if err != nil {
		t.Fatalf("admit after release: %v", err)
	}
	r3.release()
	r2.release()
}

// TestQueueRejectionDoesNotChargeRateToken pins the check order: a
// request bounced for queue depth must leave the rate bucket untouched,
// not double-penalize the tenant.
func TestQueueRejectionDoesNotChargeRateToken(t *testing.T) {
	var a admitter
	a.init()
	a.set("both", QoS{OpsPerSec: 1, Burst: 2, MaxInFlight: 1})
	r1, err := a.admit("both", 0)
	if err != nil {
		t.Fatalf("admit 1: %v", err)
	}
	var ae *AdmissionError
	if _, err := a.admit("both", 0); !errors.As(err, &ae) || ae.Reason != "queue" {
		t.Fatalf("over-depth error = %v, want queue rejection", err)
	}
	r1.release()
	// The second burst token must have survived the queue rejection.
	r2, err := a.admit("both", 0)
	if err != nil {
		t.Fatalf("admit after queue rejection: %v", err)
	}
	r2.release()
}

// TestRejectionCountingRacesTelemetryRebind pins the countReject fix:
// setTelemetry rebinds the rejection counters under a.mu, so charging a
// rejection must load them under the same lock. The old code cached the
// counter pointer outside the lock — under -race this test caught it, and
// rejections could land on a counter that had already been swapped out.
// Alternating between two counter pairs makes the accounting exact: every
// rejection must charge exactly one of them.
func TestRejectionCountingRacesTelemetryRebind(t *testing.T) {
	var a admitter
	a.init()
	a.set("tenant", QoS{MaxInFlight: 1})
	sink := telemetry.New()
	rateA, queueA := sink.Counter("a.rate"), sink.Counter("a.queue")
	rateB, queueB := sink.Counter("b.rate"), sink.Counter("b.queue")
	a.setTelemetry(rateA, queueA)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				a.setTelemetry(rateB, queueB)
			} else {
				a.setTelemetry(rateA, queueA)
			}
		}
	}()

	// Hold the single in-flight slot so every further admit is a queue
	// rejection racing the rebinder.
	tn, err := a.admit("tenant", 0)
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	const rejects = 1000
	for i := 0; i < rejects; i++ {
		if _, err := a.admit("tenant", 0); !errors.Is(err, ErrAdmission) {
			t.Fatalf("admit %d = %v, want ErrAdmission", i, err)
		}
	}
	tn.release()
	close(stop)
	wg.Wait()

	if got := queueA.Value() + queueB.Value(); got != rejects {
		t.Fatalf("queue rejections counted = %d, want %d", got, rejects)
	}
	if got := rateA.Value() + rateB.Value(); got != 0 {
		t.Fatalf("rate rejections counted = %d, want 0", got)
	}
}

func TestClusterEndToEndAdmission(t *testing.T) {
	c := MustNew(Config{Shards: 2, Replicas: 1})
	c.SetTenantQoS("capped", QoS{OpsPerSec: 1, Burst: 1})
	data := make([]byte, c.PageSize())
	if _, err := c.WriteColumn("capped", 1, data); err != nil {
		t.Fatalf("first write: %v", err)
	}
	// Virtual time has advanced microseconds at most; at 1 op/s the
	// bucket cannot have refilled.
	_, err := c.WriteColumn("capped", 2, data)
	if !errors.Is(err, ErrAdmission) {
		t.Fatalf("second write = %v, want ErrAdmission", err)
	}
	// Other tenants are unaffected.
	if _, err := c.WriteColumn("free", 2, data); err != nil {
		t.Fatalf("unthrottled tenant: %v", err)
	}
}
