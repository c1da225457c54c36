package latch

import (
	"strings"
	"testing"
)

// encodeSteps flattens a step list to one byte per step for the fuzzer;
// decodeSteps is its inverse. The low nibble carries the kind — covering
// both every defined kind and undefined ones past StepSenseMulti, so the
// fuzzer reaches the unknown-kind rejection path — and the high nibble
// carries the multi-wordline sense's wordline count, whose 0..15 range
// straddles the legal 2..MaxMWSOperands window on both sides.
func encodeSteps(steps []Step) []byte {
	b := make([]byte, len(steps))
	for i, st := range steps {
		b[i] = byte(st.Kind) | byte(st.WLCount)<<4
	}
	return b
}

func decodeSteps(b []byte) []Step {
	steps := make([]Step, len(b))
	for i, k := range b {
		steps[i] = Step{Kind: StepKind(k & 0x0f), WLCount: int(k >> 4)}
	}
	return steps
}

// referenceValidate is an independent restatement of the Validate rules,
// written as a direct transcription of the doc comment rather than a copy
// of the implementation, so the fuzzer compares two derivations.
func referenceValidate(steps []Step) bool {
	if len(steps) == 0 || len(steps) > MaxSteps {
		return false
	}
	if steps[0].Kind != StepInit && steps[0].Kind != StepInitInv {
		return false
	}
	sawInit, senseSinceInit := false, false
	senses, mws := 0, false
	for _, st := range steps {
		switch st.Kind {
		case StepInit, StepInitInv, StepReinitL1, StepReinitL1Inv:
			sawInit, senseSinceInit = true, false
		case StepSense:
			senses++
			senseSinceInit = true
		case StepSenseMulti:
			if st.WLCount < 2 || st.WLCount > MaxMWSOperands {
				return false
			}
			senses++
			senseSinceInit = true
			mws = true
		case StepM1, StepM2:
			if !senseSinceInit {
				return false
			}
		case StepM3:
			if !sawInit {
				return false
			}
		default:
			return false
		}
	}
	// An MWS discharges the whole string: it must be the sole sense.
	return !mws || senses == 1
}

// tableSequences returns every fixed control program the simulator can
// run: the MLC baseline page reads; the basic, location-free and
// all-LSB location-free sequences for every operation; the Flash-Cosmos
// program for every MWS-computable operation and every operand count
// 2..MaxMWSOperands; the TLC page reads and three-operand operations;
// and every chained program unrolled for k from 3 to MaxChain (at k=2 a
// chain is its op's all-LSB location-free program).
func tableSequences() []Sequence {
	seqs := []Sequence{ReadLSB, ReadMSB}
	for _, op := range Ops {
		seqs = append(seqs, ForOp(op), ForOpLocFree(op), lsbSeqs[op])
		if MWSComputable(op) {
			for k := 2; k <= MaxMWSOperands; k++ {
				seqs = append(seqs, forOpMWS(op, k))
			}
		}
	}
	for _, p := range []TLCPage{TLCLSB, TLCCSB, TLCMSB} {
		seqs = append(seqs, TLCReadSequence(p))
	}
	for _, op := range []TLCOp3{TLCAnd3, TLCOr3, TLCNand3, TLCNor3} {
		seqs = append(seqs, tlcSeqs[op])
	}
	for _, op := range chainOps {
		for k := 3; k <= MaxChain(op); k++ {
			seqs = append(seqs, chains[op].unroll(op, k))
		}
	}
	return seqs
}

// FuzzLatchSequenceValidate asserts Validate never panics on arbitrary
// step lists and agrees with an independently written reference
// validator. The corpus is seeded with every real table sequence, so the
// accept path is always exercised alongside fuzzer-found reject paths.
func FuzzLatchSequenceValidate(f *testing.F) {
	for _, s := range tableSequences() {
		f.Add(encodeSteps(s.Steps))
	}
	f.Add([]byte{})                                // empty
	f.Add([]byte{byte(StepSense)})                 // bad first step
	f.Add([]byte{byte(StepInit), 0x0e})            // unknown kind
	f.Add(make([]byte, MaxSteps+1))                // too long
	f.Add([]byte{byte(StepInitInv), byte(StepM1)}) // combine before sense
	// MWS seeds: over/under the wordline cap, and mixed with a pairwise
	// sense (the sole-sense rule).
	f.Add([]byte{byte(StepInit), byte(StepSenseMulti) | 9<<4, byte(StepM2), byte(StepM3)})
	f.Add([]byte{byte(StepInit), byte(StepSenseMulti) | 1<<4, byte(StepM2), byte(StepM3)})
	f.Add([]byte{byte(StepInit), byte(StepSense), byte(StepSenseMulti) | 4<<4, byte(StepM2), byte(StepM3)})

	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 4*MaxSteps {
			raw = raw[:4*MaxSteps]
		}
		seq := Sequence{Name: "fuzz", Steps: decodeSteps(raw)}
		err := seq.Validate() // must not panic
		if legal := referenceValidate(seq.Steps); legal == (err != nil) {
			t.Fatalf("Validate = %v but reference says legal=%v for %d steps %v",
				err, legal, len(seq.Steps), seq.Steps)
		}
		if err != nil && !strings.Contains(err.Error(), "fuzz") {
			t.Fatalf("error does not name the sequence: %v", err)
		}
	})
}

// TestTableSequencesValidate pins the list that the fuzz corpus and
// TestShippedSequencesValidate draw from — 2 MLC reads, 3 tables of 8
// ops, 4 MWS ops at 7 operand counts, 3 TLC reads, 4 TLC ops and the
// AND, OR and XOR chains of 3 to 31, 16 and 8 operands, each a distinct
// program — so a shipped program cannot drop out of Validate's check
// unnoticed.
func TestTableSequencesValidate(t *testing.T) {
	seqs := tableSequences()
	names := make(map[string]bool, len(seqs))
	for _, s := range seqs {
		if names[s.Name] {
			t.Errorf("table sequence %s listed twice", s.Name)
		}
		names[s.Name] = true
	}
	if want := 2 + 3*8 + 4*(MaxMWSOperands-1) + 3 + 4 + 29 + 14 + 6; len(seqs) != want {
		t.Errorf("%d table sequences, want %d", len(seqs), want)
	}
}
