package latch

import (
	"strings"
	"testing"
)

// TestShippedSequencesValidate pins the accept path outside the fuzzer:
// every control program the package ships (tableSequences) must pass
// Validate as-is. A failure here means a sequence table was edited into
// an illegal circuit program.
func TestShippedSequencesValidate(t *testing.T) {
	for _, s := range tableSequences() {
		if err := s.Validate(); err != nil {
			t.Errorf("shipped sequence %s fails Validate: %v", s.Name, err)
		}
	}
}

func TestValidateRejectsIllegalSequences(t *testing.T) {
	cases := []struct {
		name string
		seq  Sequence
		want string // substring of the error
	}{
		{
			name: "empty",
			seq:  Sequence{Name: "EMPTY"},
			want: "is empty",
		},
		{
			name: "no init first",
			seq:  Sequence{Name: "NO-INIT", Steps: []Step{sense(VRead1), m2, m3}},
			want: "must begin with StepInit or StepInitInv",
		},
		{
			name: "combine without sense",
			seq:  Sequence{Name: "BLIND", Steps: []Step{init0, m2, m3}},
			want: "has no StepSense since the last initialization or transfer",
		},
		{
			name: "combine after reinit clears the sense",
			seq:  Sequence{Name: "STALE", Steps: []Step{init0, sense(VRead1), reinit, m1}},
			want: "has no StepSense since the last initialization or transfer",
		},
		{
			name: "combine after M3 reuses a consumed sense",
			seq:  Sequence{Name: "STALE-M3", Steps: []Step{init0, sense(VRead1), m2, m3, m1, m3}},
			want: "has no StepSense since the last initialization or transfer",
		},
		{
			name: "unknown kind",
			seq:  Sequence{Name: "BOGUS", Steps: []Step{init0, {Kind: StepKind(99)}}},
			want: "unknown StepKind 99",
		},
		{
			name: "MWS over the wordline cap",
			seq:  Sequence{Name: "MWS-9", Steps: []Step{init0, senseMulti(MaxMWSOperands + 1), m2, m3}},
			want: "selects 9 wordlines",
		},
		{
			name: "MWS of one wordline",
			seq:  Sequence{Name: "MWS-1", Steps: []Step{init0, senseMulti(1), m2, m3}},
			want: "selects 1 wordlines",
		},
		{
			name: "MWS mixed with a pairwise sense",
			seq:  Sequence{Name: "MWS-MIXED", Steps: []Step{init0, sense(VRead2), m2, senseMulti(4), m2, m3}},
			want: "mixes a multi-wordline sense with 1 other senses",
		},
		{
			name: "too long",
			seq:  Sequence{Name: "LONG", Steps: longSteps(MaxSteps + 1)},
			want: "more than the 64",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.seq.Validate()
			if err == nil {
				t.Fatalf("Validate(%q) = nil, want error containing %q", tc.seq.Name, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate(%q) = %q, want error containing %q", tc.seq.Name, err, tc.want)
			}
		})
	}
}

// TestValidateAcceptsRuntimeAssembly covers a sequence stitched together
// at run time, outside any table: a pairwise chain over three wordlines.
func TestValidateAcceptsRuntimeAssembly(t *testing.T) {
	steps := []Step{init0}
	for wl := 0; wl < 3; wl++ {
		steps = append(steps, senseWL(wl, VRead2), m2)
	}
	steps = append(steps, m3)
	s := Sequence{Name: "RUNTIME", Steps: steps}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate(%q) = %v, want nil", s.Name, err)
	}
}

func longSteps(n int) []Step {
	steps := []Step{init0}
	for len(steps) < n {
		steps = append(steps, sense(VRead2), m2)
	}
	return steps[:n]
}
