package cluster

import (
	"errors"
	"fmt"
	"sync"

	"parabit/internal/sim"
	"parabit/internal/telemetry"
)

// Admission control runs per tenant: a token bucket shapes request rate
// and a bound on in-flight requests caps queue depth, both on the
// cluster's virtual clock. Rejections are typed (ErrAdmission) so callers
// and benchmarks can separate back-pressure from real failures.

// ErrAdmission is the class of typed admission rejections; match with
// errors.Is.
var ErrAdmission = errors.New("cluster: admission denied")

// AdmissionError is a typed rejection: which tenant, and whether the rate
// limit ("rate") or the in-flight bound ("queue") fired.
type AdmissionError struct {
	Tenant string
	Reason string
}

func (e *AdmissionError) Error() string {
	return fmt.Sprintf("cluster: tenant %q rejected (%s limit)", e.Tenant, e.Reason)
}

// Is makes errors.Is(err, ErrAdmission) true for every AdmissionError.
func (e *AdmissionError) Is(target error) bool { return target == ErrAdmission }

// QoS is one tenant's admission policy. Zero fields are unlimited.
type QoS struct {
	// OpsPerSec refills the tenant's token bucket, in operations per
	// simulated second.
	OpsPerSec float64
	// Burst caps the bucket (default: OpsPerSec rounded up, minimum 1).
	Burst int
	// MaxInFlight bounds the tenant's concurrently admitted operations.
	MaxInFlight int
}

func (q QoS) burst() float64 {
	if q.Burst > 0 {
		return float64(q.Burst)
	}
	if q.OpsPerSec >= 1 {
		return q.OpsPerSec
	}
	return 1
}

// tenant is one token bucket plus in-flight count.
type tenant struct {
	mu       sync.Mutex
	qos      QoS      // guarded by mu
	tokens   float64  // guarded by mu
	last     sim.Time // guarded by mu
	inflight int      // guarded by mu
}

// admitter owns the tenant table. A tenant's bucket lock nests inside
// nothing; the table lock is taken while a bucket is held (rejection
// counting), never the other way around.
//
//parabit:lockorder tenant.mu < admitter.mu
type admitter struct {
	mu          sync.Mutex
	tenants     map[string]*tenant // guarded by mu
	rejectRate  *telemetry.Counter // guarded by mu
	rejectQueue *telemetry.Counter // guarded by mu
}

func (a *admitter) init() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.tenants = make(map[string]*tenant)
}

func (a *admitter) setTelemetry(rate, queue *telemetry.Counter) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.rejectRate = rate
	a.rejectQueue = queue
}

func (a *admitter) set(name string, q QoS) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.tenants[name] = &tenant{qos: q, tokens: q.burst()}
}

// get returns the tenant's bucket. A tenant that never called
// SetTenantQoS gets the zero QoS: admitted without limit.
func (a *admitter) get(name string) *tenant {
	a.mu.Lock()
	defer a.mu.Unlock()
	t, ok := a.tenants[name]
	if !ok {
		t = &tenant{}
		a.tenants[name] = t
	}
	return t
}

// admit charges one operation against the tenant's QoS at the given
// virtual instant. On success the returned tenant's release must be
// called when the operation completes; on rejection the error matches
// ErrAdmission.
func (a *admitter) admit(name string, now sim.Time) (*tenant, error) {
	t := a.get(name)
	t.mu.Lock()
	defer t.mu.Unlock()
	// Check the in-flight bound before charging the bucket, so a request
	// bounced for queue depth doesn't also burn rate budget.
	if t.qos.MaxInFlight > 0 && t.inflight >= t.qos.MaxInFlight {
		a.countReject(true)
		return nil, &AdmissionError{Tenant: name, Reason: "queue"}
	}
	if t.qos.OpsPerSec > 0 {
		if now > t.last {
			t.tokens += now.Sub(t.last).Seconds() * t.qos.OpsPerSec
			if cap := t.qos.burst(); t.tokens > cap {
				t.tokens = cap
			}
			t.last = now
		}
		if t.tokens < 1 {
			a.countReject(false)
			return nil, &AdmissionError{Tenant: name, Reason: "rate"}
		}
		t.tokens--
	}
	t.inflight++
	return t, nil
}

// release ends one operation admit admitted.
func (t *tenant) release() {
	t.mu.Lock()
	t.inflight--
	t.mu.Unlock()
}

// countReject bumps the matching rejection counter. The counter fields
// are read under a.mu — setTelemetry rebinds them concurrently, so
// loading them outside the lock would race.
func (a *admitter) countReject(queue bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	c := a.rejectRate
	if queue {
		c = a.rejectQueue
	}
	// c may be nil when telemetry is detached; Counter.Add is nil-safe.
	c.Add(1)
}
