package latch

import "fmt"

// SenseKind names the operand layout a bitwise sense reads, and with it
// the control program that runs the sense and prices it (Price). Every
// kind is one validated program applied to operand pages on one plane
// (paper §4.1–4.4).
type SenseKind uint8

const (
	// SensePair is basic ParaBit (§4.1): the LSB page of the one operand
	// wordline holds the first operand and its MSB page the second.
	SensePair SenseKind = iota
	// SenseLocFree is location-free ParaBit (§4.2): the first operand is
	// the MSB page of wordline 0, the second the LSB page of wordline 1.
	// Both wordlines share a plane — they use that plane's latching
	// circuits via CACHE READ RANDOM — but may sit in different blocks.
	// XOR-family ops require the added inverter hardware.
	SenseLocFree
	// SenseLocFreeLSB is the location-free op of the all-LSB layout
	// (§5.5): the operands are the LSB pages of wordlines 0 and 1 on one
	// plane, at the shorter LSB program's SRO count (2 for
	// AND/OR/NAND/NOR, 4 for XOR/XNOR).
	SenseLocFreeLSB
	// SenseChainLSB reduces the LSB pages of two or more wordlines on one
	// plane with a single chained location-free program of the op's base
	// (chain.go).
	SenseChainLSB
	// SenseMWS is a Flash-Cosmos reduction: one multi-wordline sense over
	// the LSB pages of 2..MaxMWSOperands wordlines that share a block,
	// computing AND/OR/NAND/NOR of all of them in a single read
	// operation. Operands not written with ESP still compute correctly
	// but sense with degraded margin, which the reliability model prices.
	SenseMWS
	// SenseChainMWS chains consecutive multi-wordline senses on one
	// plane, one per chunk of 2..MaxMWSOperands block-colocated
	// wordlines: each chunk folds inside its NAND strings, and chunk
	// results accumulate in the plane's latches exactly as chained
	// location-free senses do — no program between chunks. This is how a
	// reduction wider than the sense-margin cap stays on the single-sense
	// cost curve: k operands cost ceil(k/8) serialized MWS reads. NAND/NOR
	// invert once at the end; the per-chunk programs use the op's
	// non-inverted base so the accumulation stays associative.
	SenseChainMWS
	// SenseTLC is a three-operand op on a TLC wordline whose LSB, CSB and
	// TOP pages hold the operands (§4.4.1 — AND3 is a single sense at
	// VREAD1 detecting state E).
	SenseTLC
	numKinds
)

var senseKindNames = [numKinds]string{"pair", "location-free", "location-free LSB", "LSB chain", "MWS", "MWS chain", "TLC"}

func (k SenseKind) String() string {
	if k < numKinds {
		return senseKindNames[k]
	}
	return fmt.Sprintf("SenseKind(%d)", uint8(k))
}

// Cost is what one sense charges, read from its control program: the
// single read operations it issues, the controller-buffer register loads
// it takes, and the senses that select each operand wordline — the read
// disturb each absorbs.
type Cost struct {
	// SROs counts the program's sensing steps; a multi-wordline sense
	// counts as one.
	SROs int
	// Loads counts the pages the program reloads from the controller
	// buffer into the plane register (a chained XOR's partial results).
	Loads int
	// MWS is the number of wordlines the program's multi-wordline sense
	// selects, or 0 for a program that senses one wordline at a time.
	MWS int
	// reads holds the senses of operand wordlines 0 and 1, later those of
	// each later operand wordline (one chain body run's, or one
	// multi-wordline sense's).
	reads [2]int
	later int
}

// Reads returns the senses that select operand wordline i of the sense.
func (c Cost) Reads(i int) int {
	if i < len(c.reads) {
		return c.reads[i]
	}
	return c.later
}

// costOf counts a program's senses and the wordlines each selects. Every
// wordline past the first two is sensed alike in every program the
// package holds (a multi-wordline sense selects each once), so the third
// one's count stands for all of them.
func costOf(steps []Step) Cost {
	var c Cost
	var perWL [MaxMWSOperands]int
	for _, st := range steps {
		switch st.Kind {
		case StepSense:
			c.SROs++
			perWL[st.WL]++
		case StepSenseMulti:
			c.SROs++
			c.MWS = st.WLCount
			for wl := st.WL; wl < st.WL+st.WLCount; wl++ {
				perWL[wl]++
			}
		}
	}
	c.reads = [2]int{perWL[0], perWL[1]}
	c.later = perWL[2]
	return c
}

// fixed holds the cost of every one-program sense kind per op, built once
// from the program tables; an op without a program of the kind has the
// zero Cost, since every program senses at least once. A TLC entry is
// keyed by the op its three pages fold with (TLCOp3.Op).
var fixed [numKinds][numOps]Cost

// fixedWLs is the operand wordline count of each one-program kind.
var fixedWLs = [numKinds]int{SensePair: 1, SenseLocFree: 2, SenseLocFreeLSB: 2, SenseTLC: 1}

func init() {
	for op := Op(0); op < numOps; op++ {
		fixed[SensePair][op] = costOf(basicSeqs[op].Steps)
		fixed[SenseLocFree][op] = costOf(locFreeSeqs[op].Steps)
		fixed[SenseLocFreeLSB][op] = costOf(lsbSeqs[op].Steps)
	}
	for o, seq := range tlcSeqs {
		fixed[SenseTLC][TLCOp3(o).Op()] = costOf(seq.Steps)
	}
}

// Price returns the cost of one sense of kind folding k operand
// wordlines with op, or the error refusing it: an unknown kind or op, an
// op the kind has no program for, or a k the program cannot fold. For a
// TLC sense op is the two-operand op its three pages fold with
// (TLCOp3.Op) and k is 1. A multi-wordline sense of either MWS kind is
// priced one chunk of k wordlines at a time, with the op's base program;
// a chained one costs the sum of its chunks. A chained LSB sense longer
// than one program (MaxChain) runs its body looped and is priced alike.
// Price reads tables built at package initialization and allocates
// nothing unless it refuses.
func Price(kind SenseKind, op Op, k int) (Cost, error) {
	if op >= numOps {
		return Cost{}, fmt.Errorf("latch: unknown op %v", op)
	}
	switch kind {
	case SensePair, SenseLocFree, SenseLocFreeLSB, SenseTLC:
		if k != fixedWLs[kind] {
			return Cost{}, fmt.Errorf("latch: %v sense of %d wordlines, want %d", kind, k, fixedWLs[kind])
		}
		if c := fixed[kind][op]; c.SROs > 0 {
			return c, nil
		}
		return Cost{}, fmt.Errorf("latch: no %v program for op %v", kind, op)
	case SenseChainLSB:
		return priceChain(op, k)
	case SenseMWS, SenseChainMWS:
		base, _ := op.Base()
		p := mwsAt(base, k)
		return p.cost, p.err
	}
	return Cost{}, fmt.Errorf("latch: unknown sense kind %v", kind)
}

// MustPrice is Price for a sense whose program the caller knows the
// tables hold, such as a one-program kind of one of Ops; it panics if
// the lookup refuses.
func MustPrice(kind SenseKind, op Op, k int) Cost {
	c, err := Price(kind, op, k)
	if err != nil {
		panic(err)
	}
	return c
}
