package faults

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"parabit/internal/flash"
	"parabit/internal/sim"
	"parabit/internal/telemetry"
)

func testGeo(t *testing.T) flash.Geometry {
	t.Helper()
	geo := flash.Small()
	if err := geo.Validate(); err != nil {
		t.Fatal(err)
	}
	return geo
}

func TestPlanValidate(t *testing.T) {
	geo := testGeo(t)
	bad := []Plan{
		{Rules: []Rule{{Type: "nonsense"}}},
		{Rules: []Rule{{Type: RulePlaneTransient, Plane: geo.Planes()}}},
		{Rules: []Rule{{Type: RulePlaneTransient, Plane: 0, FromUS: 10, ToUS: 5}}},
		{Rules: []Rule{{Type: RuleStuckBlock, Plane: -1, Block: 0}}},
		{Rules: []Rule{{Type: RuleStuckBlock, Plane: 0, Block: geo.BlocksPerPlane}}},
		{Rules: []Rule{{Type: RuleProgramFail, Rate: 0}}},
		{Rules: []Rule{{Type: RuleEraseFail, Rate: 1.5}}},
		{Rules: []Rule{{Type: RuleJitter, Rate: 0.5, MaxJitterUS: 0}}},
		{Rules: []Rule{{Type: RuleJitter, Rate: 0.5, MaxJitterUS: 10, Op: "reticulate"}}},
	}
	for i, p := range bad {
		if err := p.Validate(geo); err == nil {
			t.Errorf("plan %d: expected validation error", i)
		}
	}
	good := Plan{Seed: 1, Rules: []Rule{
		{Type: RulePlaneTransient, Plane: -1, FromUS: 0, ToUS: 100},
		{Type: RulePlaneDead, Plane: 2, FromUS: 500},
		{Type: RuleStuckBlock, Plane: 0, Block: 3},
		{Type: RuleProgramFail, Rate: 0.01},
		{Type: RuleEraseFail, Rate: 0.02},
		{Type: RuleJitter, Rate: 0.1, MaxJitterUS: 50, Op: "sense"},
	}}
	if err := good.Validate(geo); err != nil {
		t.Fatalf("good plan rejected: %v", err)
	}
}

func TestPlaneWindows(t *testing.T) {
	geo := testGeo(t)
	e, err := NewEngine(Plan{Rules: []Rule{
		{Type: RulePlaneTransient, Plane: 1, FromUS: 100, ToUS: 200},
		{Type: RulePlaneDead, Plane: 2, FromUS: 300},
	}}, geo)
	if err != nil {
		t.Fatal(err)
	}
	p1, p2 := geo.PlaneAt(1), geo.PlaneAt(2)
	us := func(v int64) sim.Time { return sim.Time(sim.Duration(v) * sim.Microsecond) }

	if out := e.Inspect(flash.FaultSense, p1, 0, us(50)); out.Err != nil {
		t.Errorf("before window: %v", out.Err)
	}
	out := e.Inspect(flash.FaultSense, p1, 0, us(150))
	if !flash.IsTransientFault(out.Err) {
		t.Errorf("inside window: want transient fault, got %v", out.Err)
	}
	if out := e.Inspect(flash.FaultProgram, p1, 0, us(250)); out.Err != nil {
		t.Errorf("after window: %v", out.Err)
	}

	if out := e.Inspect(flash.FaultErase, p2, 0, us(100)); out.Err != nil {
		t.Errorf("before death: %v", out.Err)
	}
	out = e.Inspect(flash.FaultErase, p2, 0, us(1_000_000))
	fe := flash.AsFaultError(out.Err)
	if fe == nil || fe.Kind != flash.FaultPlaneDead {
		t.Errorf("dead plane: got %v", out.Err)
	}
	st := e.Stats()
	if st.PlaneTransient != 1 || st.PlaneDead != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestStuckBlockAndRates(t *testing.T) {
	geo := testGeo(t)
	e, err := NewEngine(Plan{Seed: 42, Rules: []Rule{
		{Type: RuleStuckBlock, Plane: 0, Block: 7},
		{Type: RuleProgramFail, Rate: 0.5},
	}}, geo)
	if err != nil {
		t.Fatal(err)
	}
	p0 := geo.PlaneAt(0)
	// Stuck block: every program and erase fails, senses still work.
	if out := e.Inspect(flash.FaultSense, p0, 7, 0); out.Err != nil {
		t.Errorf("sense on stuck block should pass: %v", out.Err)
	}
	if out := e.Inspect(flash.FaultProgram, p0, 7, 0); !flash.IsProgramFault(out.Err) {
		t.Errorf("program on stuck block: %v", out.Err)
	}
	if out := e.Inspect(flash.FaultErase, p0, 7, 0); !flash.IsEraseFault(out.Err) {
		t.Errorf("erase on stuck block: %v", out.Err)
	}
	// Rate faults: with rate 0.5, 200 programs on a healthy block must
	// see failures and successes both.
	fails := 0
	for i := 0; i < 200; i++ {
		if out := e.Inspect(flash.FaultProgram, p0, 1, 0); out.Err != nil {
			if !flash.IsProgramFault(out.Err) {
				t.Fatalf("unexpected error class: %v", out.Err)
			}
			fails++
		}
	}
	if fails == 0 || fails == 200 {
		t.Errorf("program-fail rate 0.5 produced %d/200 failures", fails)
	}
}

func TestJitterDeterminism(t *testing.T) {
	geo := testGeo(t)
	plan := Plan{Seed: 7, Rules: []Rule{
		{Type: RuleJitter, Rate: 0.3, MaxJitterUS: 40, Op: "sense"},
		{Type: RuleProgramFail, Rate: 0.1},
	}}
	run := func() ([]sim.Duration, []bool, Stats) {
		e, err := NewEngine(plan, geo)
		if err != nil {
			t.Fatal(err)
		}
		var delays []sim.Duration
		var progFail []bool
		for i := 0; i < 500; i++ {
			s := e.Inspect(flash.FaultSense, geo.PlaneAt(i%geo.Planes()), i%geo.BlocksPerPlane, sim.Time(i))
			if s.Err != nil {
				t.Fatalf("sense fault from jitter-only sense rules: %v", s.Err)
			}
			delays = append(delays, s.Delay)
			p := e.Inspect(flash.FaultProgram, geo.PlaneAt(i%geo.Planes()), i%geo.BlocksPerPlane, sim.Time(i))
			progFail = append(progFail, p.Err != nil)
		}
		return delays, progFail, e.Stats()
	}
	d1, f1, s1 := run()
	d2, f2, s2 := run()
	if !reflect.DeepEqual(d1, d2) || !reflect.DeepEqual(f1, f2) || s1 != s2 {
		t.Fatal("identical seed + call sequence produced different outcomes")
	}
	if s1.JitterEvents == 0 {
		t.Error("jitter rule at rate 0.3 never fired in 500 senses")
	}
	max := sim.Duration(40) * sim.Microsecond
	for _, d := range d1 {
		if d < 0 || d > max {
			t.Fatalf("jitter delay %v outside [0, %v]", d, max)
		}
	}
}

func TestTelemetryCounters(t *testing.T) {
	geo := testGeo(t)
	e, err := NewEngine(Plan{Rules: []Rule{
		{Type: RuleStuckBlock, Plane: 0, Block: 0},
	}}, geo)
	if err != nil {
		t.Fatal(err)
	}
	sink := telemetry.New()
	sink.EnableTrace()
	e.SetTelemetry(sink)
	e.Inspect(flash.FaultProgram, geo.PlaneAt(0), 0, 0)
	if got := e.Stats().StuckBlock; got != 1 {
		t.Errorf("Stats().StuckBlock = %d, want 1", got)
	}
	if sink.Trace().Len() == 0 {
		t.Error("no trace event recorded for injected fault")
	}
}

func TestLoadPlan(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "plan.json")
	body := `{"seed": 99, "rules": [
		{"type": "plane-transient", "plane": -1, "from_us": 0, "to_us": 500},
		{"type": "program-fail", "rate": 0.05}
	]}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := LoadPlan(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 99 || len(p.Rules) != 2 || p.Rules[1].Rate != 0.05 {
		t.Errorf("loaded plan %+v", p)
	}
	if _, err := ParsePlan([]byte(`{"seed": 1, "surprise": true}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := LoadPlan(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}
