package latch

import (
	"encoding/binary"
	"fmt"
)

// Base splits the operation into the associative operation a k-operand
// fold of it accumulates with, and whether the fold complements its result
// once at the end: NAND folds as AND then complement, NOR as OR, XNOR as
// XOR — the decomposition the chained latch sequences use. AND, OR and XOR
// are their own base. A NOT has no fold and also returns itself.
func (o Op) Base() (base Op, complement bool) {
	switch o {
	case OpNand:
		return OpAnd, true
	case OpNor:
		return OpOr, true
	case OpXnor:
		return OpXor, true
	}
	return o, false
}

// Apply computes the operation over whole pages into dst, 64 bits at a
// time with a byte tail. dst may be the same slice as lsb, msb or both —
// every word is loaded before it is stored — which is how a fold
// accumulates in one result page. The package tests prove per-bit
// equivalence between this kernel and the actual control sequences (see
// TestKernelMatchesCircuit); it exists so an 8 KB page op is about a
// thousand word ops instead of 65536 circuit simulations.
func (o Op) Apply(dst, lsb, msb []byte) {
	n := len(dst)
	if len(lsb) != n || len(msb) != n {
		panic(fmt.Sprintf("latch: page sizes differ: dst %d, lsb %d, msb %d", n, len(lsb), len(msb)))
	}
	// Every op is AND, OR or XOR of its inputs, optionally inverted; a NOT
	// is the inverted AND of its one input with itself.
	base, inv := o.Base()
	var mask uint64
	switch o {
	case OpAnd, OpOr, OpXor, OpNand, OpNor, OpXnor:
	case OpNotLSB:
		base, inv, msb = OpAnd, true, lsb
	case OpNotMSB:
		base, inv, lsb = OpAnd, true, msb
	default:
		panic(fmt.Sprintf("latch: unknown op %v", o))
	}
	if inv {
		mask = ^uint64(0)
	}
	// Reslicing every operand to n, and each word to [i:i+8], lets the
	// compiler drop the per-load bounds checks.
	le := binary.LittleEndian
	lsb, msb = lsb[:n], msb[:n]
	i := 0
	switch base {
	case OpAnd:
		for ; i+8 <= n; i += 8 {
			d, l, m := dst[i:i+8], lsb[i:i+8], msb[i:i+8]
			le.PutUint64(d, le.Uint64(l)&le.Uint64(m)^mask)
		}
		for ; i < n; i++ {
			dst[i] = lsb[i]&msb[i] ^ byte(mask)
		}
	case OpOr:
		for ; i+8 <= n; i += 8 {
			d, l, m := dst[i:i+8], lsb[i:i+8], msb[i:i+8]
			le.PutUint64(d, (le.Uint64(l)|le.Uint64(m))^mask)
		}
		for ; i < n; i++ {
			dst[i] = (lsb[i] | msb[i]) ^ byte(mask)
		}
	case OpXor:
		for ; i+8 <= n; i += 8 {
			d, l, m := dst[i:i+8], lsb[i:i+8], msb[i:i+8]
			le.PutUint64(d, le.Uint64(l)^le.Uint64(m)^mask)
		}
		for ; i < n; i++ {
			dst[i] = lsb[i] ^ msb[i] ^ byte(mask)
		}
	}
}

// Fold computes the operation across two or more equal-sized pages into
// dst, left to right. Each step but the last applies the op's base and the
// last applies the op itself, so a complementing op inverts in the same
// pass. Every step after the first accumulates into dst in place, so dst
// may alias pages[0] but no later page; the other pages are only read.
func (o Op) Fold(dst []byte, pages [][]byte) {
	base, _ := o.Base()
	acc := pages[0]
	for i, p := range pages[1:] {
		step := base
		if i == len(pages)-2 {
			step = o
		}
		step.Apply(dst, acc, p)
		acc = dst
	}
}
