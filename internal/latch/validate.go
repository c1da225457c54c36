package latch

import "fmt"

// MaxSteps bounds any single control sequence. The longest fixed programs
// (location-free XOR and XNOR) have 16 steps; a chained program is
// unrolled only up to MaxChain operands, the most that fit this cap, and
// a longer chain runs its body looped. Anything past it is a construction
// bug, not a bigger circuit.
const MaxSteps = 64

// Validate checks the circuit-ordering invariants every legal control
// program must satisfy:
//
//   - the sequence is non-empty and at most MaxSteps long;
//   - every step kind is one the circuit defines (StepInit..StepSenseMulti);
//   - the first step is StepInit or StepInitInv — the latches are
//     undefined before initialization;
//   - every StepM1/StepM2 combine is preceded by a sense (StepSense or
//     StepSenseMulti) since the most recent initialization, so SO holds a
//     sensed value to combine;
//   - every StepM3 transfer has some prior initialization, so L1 holds
//     a defined value to move into L2;
//   - a StepSenseMulti selects between 2 and MaxMWSOperands wordlines —
//     the per-sense operand cap the sense amplifier margin allows;
//   - a StepSenseMulti is the only sense in its sequence: a multi-wordline
//     sense discharges the whole string, so mixing it into a pairwise
//     sense chain would combine against an already-collapsed SO.
//
// It returns nil for legal sequences and a descriptive error naming the
// first violation otherwise. It is the one checker of this contract:
// the MWS table runs it on every program it builds, the chain table on each
// chain unrolled at 2 and 3 operands, and the package tests over every
// fixed table and every unrolled chain.
func (s Sequence) Validate() error {
	if len(s.Steps) == 0 {
		return fmt.Errorf("sequence %q is empty: a control program must initialize the latches", s.Name)
	}
	if len(s.Steps) > MaxSteps {
		return fmt.Errorf("sequence %q has %d steps, more than the %d any legal control program needs", s.Name, len(s.Steps), MaxSteps)
	}
	sawInit := false
	senseSinceInit := false
	senses := 0
	mws := false
	for i, st := range s.Steps {
		if st.Kind > StepSenseMulti {
			return fmt.Errorf("sequence %q step %d: unknown StepKind %d; the circuit defines kinds StepInit..StepSenseMulti", s.Name, i+1, uint8(st.Kind))
		}
		if i == 0 && st.Kind != StepInit && st.Kind != StepInitInv {
			return fmt.Errorf("sequence %q must begin with StepInit or StepInitInv, not %s: the circuit latches are undefined before initialization", s.Name, st.Kind)
		}
		switch st.Kind {
		case StepInit, StepInitInv, StepReinitL1, StepReinitL1Inv:
			sawInit = true
			senseSinceInit = false
		case StepSense:
			senseSinceInit = true
			senses++
		case StepSenseMulti:
			if st.WLCount < 2 || st.WLCount > MaxMWSOperands {
				return fmt.Errorf("sequence %q step %d: multi-wordline sense selects %d wordlines; the sense amplifier margin allows 2..%d per sense", s.Name, i+1, st.WLCount, MaxMWSOperands)
			}
			senseSinceInit = true
			senses++
			mws = true
		case StepM1, StepM2:
			if !senseSinceInit {
				return fmt.Errorf("sequence %q: %s combine at step %d has no StepSense since the last initialization: SO holds no sensed value to combine", s.Name, st.Kind, i+1)
			}
		case StepM3:
			if !sawInit {
				return fmt.Errorf("sequence %q: StepM3 transfer at step %d before any initialization: L1 holds no value to transfer", s.Name, i+1)
			}
		}
	}
	if mws && senses > 1 {
		return fmt.Errorf("sequence %q mixes a multi-wordline sense with %d other senses: an MWS discharges the whole string and must be the only sense in its control program", s.Name, senses-1)
	}
	return nil
}
