package flash

import (
	"errors"
	"fmt"

	"parabit/internal/sim"
)

// FaultOp identifies which flash primitive a fault injector is consulted
// about. Sensing covers baseline reads and every ParaBit variant alike:
// all of them occupy the plane's sense path.
type FaultOp uint8

// Fault injection points.
const (
	FaultSense FaultOp = iota
	FaultProgram
	FaultErase
)

var faultOpNames = [...]string{"sense", "program", "erase"}

func (o FaultOp) String() string {
	if int(o) < len(faultOpNames) {
		return faultOpNames[o]
	}
	return "unknown"
}

// FaultKind classifies an injected fault. The FTL and scheduler key their
// recovery policy off this taxonomy: transient plane faults are retried
// in simulated time, program/erase failures retire the block, and dead
// planes surface as permanent errors.
type FaultKind uint8

// Injected fault classes.
const (
	// FaultPlaneTransient is a temporarily unresponsive plane (power
	// glitch, die-internal maintenance): the same operation succeeds when
	// reissued after the window passes.
	FaultPlaneTransient FaultKind = iota
	// FaultPlaneDead is a permanently failed plane.
	FaultPlaneDead
	// FaultProgramFail is a program-status failure: the page did not
	// program; the block must be retired per the datasheet contract.
	FaultProgramFail
	// FaultEraseFail is an erase-status failure; the block is worn out.
	FaultEraseFail
	// FaultStuckBlock is a block that fails every program and erase — a
	// manufacturing-grade bad block discovered in the field.
	FaultStuckBlock
	// FaultPowerCut is a device-wide power loss: the operation it lands on
	// dies mid-flight and every operation after it fails until the device
	// is remounted from persistent state. Nothing recovers in-run — the
	// persistence layer's journal replay is the recovery path.
	FaultPowerCut
)

var faultKindNames = [...]string{
	"plane-transient", "plane-dead", "program-fail", "erase-fail", "stuck-block",
	"power-cut",
}

func (k FaultKind) String() string {
	if int(k) < len(faultKindNames) {
		return faultKindNames[k]
	}
	return "unknown"
}

// FaultError is the error an injected fault surfaces as. It carries
// enough location and classification for the layers above to pick a
// recovery path without string matching.
type FaultError struct {
	Op    FaultOp
	Kind  FaultKind
	Plane PlaneAddr
	Block int
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("flash: injected %s fault (%s) at %v block %d",
		e.Kind, e.Op, e.Plane, e.Block)
}

// AsFaultError unwraps err to the injected *FaultError, or nil. A nil err
// returns before errors.As, whose target would otherwise escape to the
// heap on every successful command.
func AsFaultError(err error) *FaultError {
	if err == nil {
		return nil
	}
	var fe *FaultError
	if errors.As(err, &fe) {
		return fe
	}
	return nil
}

// IsTransientFault reports whether err is an injected fault the caller
// should retry later in simulated time (the plane recovers on its own).
func IsTransientFault(err error) bool {
	fe := AsFaultError(err)
	return fe != nil && fe.Kind == FaultPlaneTransient
}

// IsProgramFault reports whether err is a program failure that calls for
// retiring the target block and re-steering the write.
func IsProgramFault(err error) bool {
	fe := AsFaultError(err)
	return fe != nil && fe.Op == FaultProgram &&
		(fe.Kind == FaultProgramFail || fe.Kind == FaultStuckBlock)
}

// IsPowerCut reports whether err is an injected device-wide power loss.
// No in-run recovery applies: the FTL must not re-steer it and the
// scheduler must not retry it — the device is down until remount.
func IsPowerCut(err error) bool {
	fe := AsFaultError(err)
	return fe != nil && fe.Kind == FaultPowerCut
}

// IsEraseFault reports whether err is an erase failure that calls for
// retiring the target block.
func IsEraseFault(err error) bool {
	fe := AsFaultError(err)
	return fe != nil && fe.Op == FaultErase &&
		(fe.Kind == FaultEraseFail || fe.Kind == FaultStuckBlock)
}

// FaultOutcome is an injector's verdict on one operation. A nil Err with
// a positive Delay is latency jitter: the operation succeeds but its
// plane reservation stretches by Delay. A non-nil Err fails the
// operation; block-level program/erase failures still consume the
// nominal operation time (the plane was busy attempting it), while
// plane-level faults fail fast.
type FaultOutcome struct {
	Err   error
	Delay sim.Duration
}

// FaultInjector decides, per operation, whether to inject a fault.
// Implementations live outside this package (internal/faults provides
// the scriptable engine); the array consults the injector on every
// sense, program and erase. A nil injector means no structural faults —
// the analogue of a nil Corruptor for bit errors.
type FaultInjector interface {
	// Inspect is called once per operation with its primitive, location
	// and issue time. It must be deterministic for a fixed construction
	// seed and call sequence.
	Inspect(op FaultOp, plane PlaneAddr, block int, at sim.Time) FaultOutcome
}

// SetFaultInjector installs a structural-fault model beside the bit-error
// Corruptor; nil restores fault-free operation.
func (a *Array) SetFaultInjector(fi FaultInjector) { a.injector = fi }

// checkFault consults the installed injector. It returns the jitter to
// add to the operation's duration and, when the operation fails, the
// injected error.
func (a *Array) checkFault(op FaultOp, plane PlaneAddr, block int, at sim.Time) (sim.Duration, error) {
	if a.injector == nil {
		return 0, nil
	}
	out := a.injector.Inspect(op, plane, block, at)
	if out.Err != nil {
		a.stats.InjectedFaults++
		return out.Delay, out.Err
	}
	if out.Delay > 0 {
		a.stats.JitterEvents++
	}
	return out.Delay, nil
}

// failOp books the plane for a failed block-level attempt: the plane was
// genuinely busy for the nominal operation time (plus any jitter) before
// reporting the failure status. Plane-level faults and power cuts skip
// this — a dead or unresponsive plane rejects the command immediately,
// and a powered-off device reserves nothing.
func (a *Array) failOp(pl *plane, at sim.Time, nominal, jitter sim.Duration, err error) {
	fe := AsFaultError(err)
	if fe == nil {
		return
	}
	switch fe.Kind {
	case FaultPlaneTransient, FaultPlaneDead, FaultPowerCut:
		return
	}
	pl.sense.ReserveLabeled(at, nominal+jitter, "fault-"+fe.Kind.String())
}
