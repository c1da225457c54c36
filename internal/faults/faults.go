// Package faults is a deterministic, seedable structural-fault injection
// engine for the simulated flash array. Where internal/reliability models
// analog misbehaviour (bit flips that ECC corrects), this package models
// the digital failure modes real NAND management must survive: program
// and erase status failures, blocks stuck bad, planes that drop out
// transiently or die outright, and latency jitter on any primitive.
//
// Faults are scripted by a Plan — a JSON-serializable rule list — and
// executed by an Engine implementing flash.FaultInjector. Everything is
// driven by the construction seed and the (operation, location, time)
// sequence the device presents: replaying the same workload against the
// same plan reproduces the same faults, byte for byte. Nothing here reads
// the wall clock.
package faults

import (
	"fmt"
	"math/rand"
	"sync"

	"parabit/internal/flash"
	"parabit/internal/persist"
	"parabit/internal/sim"
	"parabit/internal/telemetry"
)

// Rule types understood by Plan.Rules[].Type.
const (
	// RulePlaneTransient makes a plane reject every operation inside the
	// [FromUS, ToUS) simulated-time window with a retryable fault.
	RulePlaneTransient = "plane-transient"
	// RulePlaneDead kills a plane permanently from FromUS onward.
	RulePlaneDead = "plane-dead"
	// RuleStuckBlock makes one block fail every program and erase.
	RuleStuckBlock = "stuck-block"
	// RuleProgramFail fails each program with probability Rate.
	RuleProgramFail = "program-fail"
	// RuleEraseFail fails each erase with probability Rate.
	RuleEraseFail = "erase-fail"
	// RuleJitter stretches matching operations by a random delay up to
	// MaxJitterUS, with probability Rate.
	RuleJitter = "jitter"
	// RulePowerCut kills the whole device at a persistence boundary or
	// mid-program: the AfterN'th crossing of Point dies, and every
	// operation after it fails with flash.FaultPowerCut until the device
	// is remounted from its on-disk store.
	RulePowerCut = "power-cut"
)

// Rule is one scripted fault source. Which fields matter depends on Type;
// unused fields must be zero. Plane is a linear plane index (see
// flash.Geometry.PlaneIndex); -1 targets every plane.
type Rule struct {
	Type string `json:"type"`
	// Plane targets plane-transient/plane-dead/stuck-block rules.
	Plane int `json:"plane,omitempty"`
	// Block targets stuck-block rules.
	Block int `json:"block,omitempty"`
	// FromUS/ToUS bound window rules in simulated microseconds. ToUS 0
	// means open-ended.
	FromUS int64 `json:"from_us,omitempty"`
	ToUS   int64 `json:"to_us,omitempty"`
	// Rate is the per-operation probability for program-fail, erase-fail
	// and jitter rules.
	Rate float64 `json:"rate,omitempty"`
	// Op restricts jitter rules to one primitive: "sense", "program",
	// "erase", or "" for all three.
	Op string `json:"op,omitempty"`
	// MaxJitterUS is the jitter rule's maximum added delay.
	MaxJitterUS int64 `json:"max_jitter_us,omitempty"`
	// Point targets power-cut rules: one of persist's boundary names
	// ("pre-journal", "post-journal", "mid-program", "pre-snapshot").
	Point string `json:"point,omitempty"`
	// AfterN makes a power-cut rule fire on the N'th crossing of its
	// point (1-based); 0 means the first.
	AfterN int64 `json:"after_n,omitempty"`
}

// Plan is a complete fault script: a seed for the probabilistic rules and
// the rule list. The zero Plan injects nothing.
type Plan struct {
	Seed  int64  `json:"seed"`
	Rules []Rule `json:"rules"`
}

// Validate checks every rule against the device geometry so a typo'd
// plan fails loudly at install time, not silently at run time.
func (p Plan) Validate(geo flash.Geometry) error {
	for i, r := range p.Rules {
		where := func(format string, args ...any) error {
			return fmt.Errorf("faults: rule %d (%s): %s", i, r.Type, fmt.Sprintf(format, args...))
		}
		checkPlane := func() error {
			if r.Plane != -1 && (r.Plane < 0 || r.Plane >= geo.Planes()) {
				return where("plane %d out of range [0,%d) (or -1 for all)", r.Plane, geo.Planes())
			}
			return nil
		}
		switch r.Type {
		case RulePlaneTransient:
			if err := checkPlane(); err != nil {
				return err
			}
			if r.ToUS != 0 && r.ToUS <= r.FromUS {
				return where("empty window [%d,%d)us", r.FromUS, r.ToUS)
			}
		case RulePlaneDead:
			if err := checkPlane(); err != nil {
				return err
			}
		case RuleStuckBlock:
			if err := checkPlane(); err != nil {
				return err
			}
			if r.Plane == -1 {
				return where("stuck-block needs a specific plane")
			}
			if r.Block < 0 || r.Block >= geo.BlocksPerPlane {
				return where("block %d out of range [0,%d)", r.Block, geo.BlocksPerPlane)
			}
		case RuleProgramFail, RuleEraseFail:
			if r.Rate <= 0 || r.Rate > 1 {
				return where("rate %v outside (0,1]", r.Rate)
			}
		case RuleJitter:
			if r.Rate <= 0 || r.Rate > 1 {
				return where("rate %v outside (0,1]", r.Rate)
			}
			if r.MaxJitterUS <= 0 {
				return where("max_jitter_us must be positive")
			}
			switch r.Op {
			case "", "sense", "program", "erase":
			default:
				return where("unknown op %q", r.Op)
			}
		case RulePowerCut:
			ok := false
			for _, p := range persist.Points {
				if r.Point == p {
					ok = true
					break
				}
			}
			if !ok {
				return where("unknown cut point %q (want one of %v)", r.Point, persist.Points)
			}
			if r.AfterN < 0 {
				return where("after_n must be non-negative")
			}
		default:
			return where("unknown rule type")
		}
	}
	return nil
}

// Stats counts injected faults by class. All counts are cumulative since
// engine construction.
type Stats struct {
	PlaneTransient int64 // operations rejected by a transient plane window
	PlaneDead      int64 // operations rejected by a dead plane
	ProgramFails   int64 // injected program-status failures
	EraseFails     int64 // injected erase-status failures
	StuckBlock     int64 // program/erase attempts on a stuck block
	PowerCuts      int64 // operations rejected because power is gone (incl. the cut itself)
	JitterEvents   int64 // operations stretched by jitter
	JitterTotal    sim.Duration
}

// Faults totals the failure injections (jitter excluded: those
// operations still succeed).
func (s Stats) Faults() int64 {
	return s.PlaneTransient + s.PlaneDead + s.ProgramFails + s.EraseFails + s.StuckBlock +
		s.PowerCuts
}

// window is a compiled plane-outage rule.
type window struct {
	plane    int      // -1 = all
	from, to sim.Time // to == 0 means open-ended
	kind     flash.FaultKind
}

// jitter is a compiled jitter rule.
type jitter struct {
	op    flash.FaultOp
	anyOp bool
	rate  float64
	max   sim.Duration
}

// Engine executes a Plan. It implements flash.FaultInjector and is safe
// for concurrent use; the embedded RNG draws in device-presentation
// order, which the single-threaded simulated device keeps deterministic.
type Engine struct {
	mu  sync.Mutex
	rng *rand.Rand // guarded by mu

	// Compiled plan; immutable after NewEngine.
	windows   []window
	stuck     map[[2]int]bool
	progRate  float64
	eraseRate float64
	jitters   []jitter
	cuts      []cutRule
	geo       flash.Geometry

	// Power-cut state: per-point boundary-crossing counters and the
	// latched dead flag. Once dead, every Inspect fails and every
	// CutAtBoundary answer is moot — the store checks PowerDead first.
	cutSeen map[string]int64 // guarded by mu
	dead    bool             // guarded by mu

	stats Stats // guarded by mu

	// faultTrack is the trace lane; nil (a free no-op) until
	// SetTelemetry runs.
	faultTrack *telemetry.Track // guarded by mu
}

// cutRule is a compiled power-cut rule: the boundary it watches and the
// 1-based crossing count it fires on.
type cutRule struct {
	point  string
	afterN int64
}

// NewEngine compiles a validated plan against the device geometry.
func NewEngine(plan Plan, geo flash.Geometry) (*Engine, error) {
	if err := plan.Validate(geo); err != nil {
		return nil, err
	}
	e := &Engine{
		rng:     rand.New(rand.NewSource(plan.Seed)),
		stuck:   make(map[[2]int]bool),
		cutSeen: make(map[string]int64),
		geo:     geo,
	}
	us := func(v int64) sim.Time { return sim.Time(sim.Duration(v) * sim.Microsecond) }
	for _, r := range plan.Rules {
		switch r.Type {
		case RulePlaneTransient:
			e.windows = append(e.windows, window{
				plane: r.Plane, from: us(r.FromUS), to: us(r.ToUS), kind: flash.FaultPlaneTransient,
			})
		case RulePlaneDead:
			e.windows = append(e.windows, window{
				plane: r.Plane, from: us(r.FromUS), kind: flash.FaultPlaneDead,
			})
		case RuleStuckBlock:
			e.stuck[[2]int{r.Plane, r.Block}] = true
		case RuleProgramFail:
			e.progRate += r.Rate
		case RuleEraseFail:
			e.eraseRate += r.Rate
		case RuleJitter:
			j := jitter{rate: r.Rate, max: sim.Duration(r.MaxJitterUS) * sim.Microsecond}
			switch r.Op {
			case "sense":
				j.op = flash.FaultSense
			case "program":
				j.op = flash.FaultProgram
			case "erase":
				j.op = flash.FaultErase
			default:
				j.anyOp = true
			}
			e.jitters = append(e.jitters, j)
		case RulePowerCut:
			n := r.AfterN
			if n == 0 {
				n = 1
			}
			e.cuts = append(e.cuts, cutRule{point: r.Point, afterN: n})
		}
	}
	return e, nil
}

// Stats returns a copy of the injection counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// SetTelemetry attaches (or, with nil, detaches) a telemetry sink: an
// instant event on the "faults" lane per injection, so every fault is
// visible in an exported trace. The counts stay in Stats.
func (e *Engine) SetTelemetry(s *telemetry.Sink) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.faultTrack = s.Trace().Track("faults", "injected")
}

// failLocked records and returns one injected failure.
func (e *Engine) failLocked(op flash.FaultOp, kind flash.FaultKind, plane flash.PlaneAddr, block int, at sim.Time) flash.FaultOutcome {
	switch kind {
	case flash.FaultPlaneTransient:
		e.stats.PlaneTransient++
	case flash.FaultPlaneDead:
		e.stats.PlaneDead++
	case flash.FaultProgramFail:
		e.stats.ProgramFails++
	case flash.FaultEraseFail:
		e.stats.EraseFails++
	case flash.FaultStuckBlock:
		e.stats.StuckBlock++
	case flash.FaultPowerCut:
		e.stats.PowerCuts++
	}
	e.faultTrack.Instant(kind.String()+"/"+op.String(), at)
	return flash.FaultOutcome{Err: &flash.FaultError{Op: op, Kind: kind, Plane: plane, Block: block}}
}

// Inspect implements flash.FaultInjector. Rule precedence: plane outages
// (no RNG draw) first, then stuck blocks, then the probabilistic
// program/erase failures, then jitter.
func (e *Engine) Inspect(op flash.FaultOp, plane flash.PlaneAddr, block int, at sim.Time) flash.FaultOutcome {
	e.mu.Lock()
	defer e.mu.Unlock()
	// A dead device fails everything; a mid-program cut rule kills it on
	// the N'th program the plan targets. Both precede every other rule
	// and draw no RNG, so they never perturb the plan's other injections.
	if e.dead {
		return e.failLocked(op, flash.FaultPowerCut, plane, block, at)
	}
	if op == flash.FaultProgram && e.crossLocked(persist.PointMidProgram) {
		e.dead = true
		return e.failLocked(op, flash.FaultPowerCut, plane, block, at)
	}
	pidx := e.geo.PlaneIndex(plane)
	for _, w := range e.windows {
		if w.plane != -1 && w.plane != pidx {
			continue
		}
		if at < w.from || (w.to != 0 && at >= w.to) {
			continue
		}
		return e.failLocked(op, w.kind, plane, block, at)
	}
	if op != flash.FaultSense && e.stuck[[2]int{pidx, block}] {
		return e.failLocked(op, flash.FaultStuckBlock, plane, block, at)
	}
	if op == flash.FaultProgram && e.progRate > 0 && e.rng.Float64() < e.progRate {
		return e.failLocked(op, flash.FaultProgramFail, plane, block, at)
	}
	if op == flash.FaultErase && e.eraseRate > 0 && e.rng.Float64() < e.eraseRate {
		return e.failLocked(op, flash.FaultEraseFail, plane, block, at)
	}
	var delay sim.Duration
	for _, j := range e.jitters {
		if !j.anyOp && j.op != op {
			continue
		}
		if e.rng.Float64() < j.rate {
			delay += sim.Duration(e.rng.Int63n(int64(j.max))) + 1
		}
	}
	if delay > 0 {
		e.stats.JitterEvents++
		e.stats.JitterTotal += delay
		e.faultTrack.Instant("jitter/"+op.String(), at)
	}
	return flash.FaultOutcome{Delay: delay}
}

// crossLocked counts one crossing of a persistence boundary and reports
// whether any power-cut rule fires on exactly this crossing. Counting is
// unconditional so a plan's after_n always means "the N'th crossing since
// the engine was installed", independent of other rules.
func (e *Engine) crossLocked(point string) bool {
	e.cutSeen[point]++
	n := e.cutSeen[point]
	for _, c := range e.cuts {
		if c.point == point && c.afterN == n {
			return true
		}
	}
	return false
}

// CutAtBoundary implements persist.CutInjector: the journal store asks
// before and after each durability-relevant step whether the power fails
// right there. Once a cut fires the engine stays dead — every later
// boundary reports a cut and every flash op fails with FaultPowerCut —
// until a new engine (or nil) is installed.
func (e *Engine) CutAtBoundary(point string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dead {
		return true
	}
	if !e.crossLocked(point) {
		return false
	}
	e.dead = true
	e.stats.PowerCuts++
	return true
}

// PowerDead implements persist.CutInjector.
func (e *Engine) PowerDead() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.dead
}
