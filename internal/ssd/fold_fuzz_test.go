package ssd

import (
	"bytes"
	"errors"
	"testing"

	"parabit/internal/ftl"
	"parabit/internal/latch"
	"parabit/internal/persist"
	"parabit/internal/plan"
)

// fuzzBytes hands out fuzz input bytes, then zeros once it runs dry.
type fuzzBytes []byte

func (b *fuzzBytes) next(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0])
	*b = (*b)[1:]
	return v % n
}

// Operand placements FuzzDeviceFold draws, one per operand or run of
// operands.
const (
	fuzzOperand = iota
	fuzzScrambled
	fuzzPlane0
	fuzzPlane1
	fuzzPair
	fuzzLSBGroup
	fuzzMWSGroup
	numFuzzLayouts
)

// Fuzz input modes.
const (
	fuzzBitwise = iota
	fuzzReduce
	fuzzQuery
	numFuzzModes
)

// fuzzConfig is tinyConfig with 16 blocks of 8 wordlines on planes
// planes: room for a twelve-operand reallocating reduction and a
// full-width MWS group, small enough that a primed plane collects garbage
// mid-reduction.
func fuzzConfig(planes int) Config {
	cfg := tinyConfig()
	cfg.Geometry.PlanesPerDie = planes
	cfg.Geometry.BlocksPerPlane = 16
	cfg.Geometry.WordlinesPerBlock = 8
	return cfg
}

// fuzzOpExpr is the expression Bitwise(op, a, b) computes: the NOT pair
// complements the first or the second operand.
func fuzzOpExpr(op latch.Op, a, b *plan.Expr) *plan.Expr {
	switch op {
	case latch.OpAnd:
		return plan.And(a, b)
	case latch.OpOr:
		return plan.Or(a, b)
	case latch.OpXor:
		return plan.Xor(a, b)
	case latch.OpXnor:
		return plan.Xnor(a, b)
	case latch.OpNand:
		return plan.Nand(a, b)
	case latch.OpNor:
		return plan.Nor(a, b)
	case latch.OpNotLSB:
		return plan.Not(a)
	}
	return plan.Not(b)
}

// fuzzTree draws a query tree over lpns, at most depth levels deep.
func fuzzTree(in *fuzzBytes, lpns []uint64, depth int) *plan.Expr {
	if depth == 0 || in.next(3) == 0 {
		return plan.Leaf(lpns[in.next(len(lpns))])
	}
	op := latch.Ops[in.next(len(latch.Ops))]
	switch op {
	case latch.OpAnd, latch.OpOr, latch.OpXor:
		args := make([]*plan.Expr, 2+in.next(4))
		for i := range args {
			args[i] = fuzzTree(in, lpns, depth-1)
		}
		switch op {
		case latch.OpAnd:
			return plan.And(args...)
		case latch.OpOr:
			return plan.Or(args...)
		}
		return plan.Xor(args...)
	case latch.OpNotLSB, latch.OpNotMSB:
		return plan.Not(fuzzTree(in, lpns, depth-1))
	}
	return fuzzOpExpr(op, fuzzTree(in, lpns, depth-1), fuzzTree(in, lpns, depth-1))
}

// fuzzPlace writes the operands in the placements the input draws. A
// fuzzPlane1 operand goes to plane 1 on two planes and, with more, to one
// of planes 1 and up by its position, so runs of them spread one operand
// per plane. With prime set, the last two operands are written first as
// the victims of a plane primed so that the next block-opening write
// there collects them (see fillPlaneForGC).
func fuzzPlace(t *testing.T, d *Device, in *fuzzBytes, lpns []uint64, prime bool, content map[uint64][]byte) {
	planes := d.cfg.Geometry.Planes()
	if prime && len(lpns) >= 2 {
		fillPlaneForGC(t, d, 1, lpns[len(lpns)-2:], content)
		lpns = lpns[:len(lpns)-2]
	}
	for i := 0; i < len(lpns); {
		layout, run := in.next(numFuzzLayouts), 1
		var op persist.Op
		plane := 0
		switch layout {
		case fuzzOperand:
			op = persist.OpWriteOperand
		case fuzzScrambled:
			op = persist.OpWrite
		case fuzzPlane0:
			op = persist.OpWriteOnPlane
		case fuzzPlane1:
			op, plane = persist.OpWriteOnPlane, 1+i%(planes-1)
		case fuzzPair:
			op, run = persist.OpWritePair, 2
		case fuzzLSBGroup:
			op, run = persist.OpWriteLSBGroup, 2+in.next(7)
		case fuzzMWSGroup:
			op, run = persist.OpWriteMWSGroup, 2+in.next(7)
		}
		if i+run > len(lpns) {
			if op == persist.OpWritePair {
				op, run = persist.OpWriteOperand, 1
			} else {
				run = len(lpns) - i
			}
		}
		pages := make([][]byte, run)
		for j := range pages {
			pages[j] = randPage(d, int64(1+lpns[i+j])*7919)
			content[lpns[i+j]] = pages[j]
		}
		if _, err := d.WritePages(op, plane, lpns[i:i+run], pages, 0); err != nil {
			t.Fatalf("write %v %v: %v", op, lpns[i:i+run], err)
		}
		i += run
	}
}

// FuzzDeviceFold draws an op, an operand count, a placement per operand
// and a scheme; runs Bitwise, Reduce or a random ExecuteQuery tree; and
// checks the result against plan.Expr.Eval over the written pages. A
// query runs twice, the second time from the result cache. The only
// refusal accepted is a full device. The seed corpus covers each mode, every placement, garbage
// collection in the middle of a reduction, and reductions spread over
// two to four planes.
//
// Input layout: mode, scheme, op, operand count, a flags byte (bit 0
// primes garbage collection; the byte halved, mod 3, adds planes to the
// two), then the placement draws, then the operand order or the query
// tree.
func FuzzDeviceFold(f *testing.F) {
	f.Add([]byte{fuzzBitwise, 0, 0, 2, 0, fuzzPair})
	f.Add([]byte{fuzzBitwise, 2, 6, 2, 0, fuzzPlane1, fuzzPlane1})
	f.Add([]byte{fuzzBitwise, 3, 3, 2, 0, fuzzMWSGroup, 0})
	f.Add([]byte{fuzzReduce, 0, 0, 7, 0, fuzzPair, fuzzPair, fuzzScrambled, fuzzPair})
	f.Add([]byte{fuzzReduce, 1, 5, 12, 0, fuzzOperand, fuzzScrambled, fuzzPlane0, fuzzPlane1, fuzzPair, fuzzLSBGroup, 3, fuzzMWSGroup, 4})
	f.Add([]byte{fuzzReduce, 2, 1, 9, 0, fuzzLSBGroup, 3, fuzzPlane1, fuzzLSBGroup, 6})
	f.Add([]byte{fuzzReduce, 3, 0, 12, 0, fuzzMWSGroup, 6, fuzzPlane0, fuzzMWSGroup, 6, fuzzPlane1})
	f.Add([]byte{fuzzQuery, 1, 0, 6, 0, fuzzPair, fuzzPair, fuzzPair, 1, 0, 1, 2, 1, 3, 4, 5, 0, 6})
	f.Add([]byte{fuzzQuery, 3, 0, 8, 0, fuzzMWSGroup, 6, fuzzPlane1, fuzzPlane0, 1, 0, 3, 1, 2, 2, 5, 1, 7})
	// Garbage collection mid-reduction: operands 0 and 1 on plane 0, the
	// victims 2 and 3 on the primed plane 1.
	for scheme := byte(0); scheme < 4; scheme++ {
		f.Add([]byte{fuzzReduce, scheme, 0, 4, 1, fuzzPlane0, fuzzPlane0})
		f.Add([]byte{fuzzReduce, scheme, 5, 4, 1, fuzzPlane0, fuzzPlane0})
		f.Add([]byte{fuzzQuery, scheme, 0, 4, 1, fuzzPlane0, fuzzPlane0, 1, 0, 0, 1, 2, 2, 3})
	}
	// Location-free and Flash-Cosmos reductions over three and four
	// planes (flags 2 and 4): lone operands per plane, chains beside lone
	// operands, and block groups beside spread strays, each combining
	// its partials in the controller buffer.
	for _, scheme := range []byte{2, 3} {
		for _, op := range []byte{0, 1, 5} { // AND, OR, XOR
			f.Add([]byte{fuzzReduce, scheme, op, 3, 4, fuzzPlane0, fuzzPlane1, fuzzPlane1, fuzzPlane1})
			f.Add([]byte{fuzzReduce, scheme, op, 6, 2, fuzzPlane1, fuzzPlane0, fuzzPlane1, fuzzPlane1, fuzzPlane0, fuzzPlane1, fuzzPlane0})
			f.Add([]byte{fuzzReduce, scheme, op, 10, 4, fuzzMWSGroup, 2, fuzzPlane1, fuzzMWSGroup, 1, fuzzPlane1, fuzzLSBGroup, 0})
			f.Add([]byte{fuzzReduce, scheme, op, 11, 2, fuzzMWSGroup, 4, fuzzMWSGroup, 4})
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		mode := in.next(numFuzzModes)
		scheme := Schemes[in.next(len(Schemes))]
		op := latch.Ops[in.next(len(latch.Ops))]
		k := 1 + in.next(12)
		if mode == fuzzBitwise {
			k = 2
		}
		flags := in.next(256)
		prime := flags%2 == 1
		d := MustNew(fuzzConfig(2 + flags/2%3))
		lpns := make([]uint64, k)
		for i := range lpns {
			lpns[i] = uint64(i)
		}
		content := map[uint64][]byte{}
		fuzzPlace(t, d, &in, lpns, prime, content)
		at := d.DrainTime()

		var e *plan.Expr
		var got BitwiseResult
		var err error
		switch mode {
		case fuzzBitwise:
			e = fuzzOpExpr(op, plan.Leaf(lpns[0]), plan.Leaf(lpns[1]))
			got, err = d.Bitwise(op, lpns[0], lpns[1], scheme, at)
		case fuzzReduce:
			switch op {
			case latch.OpAnd, latch.OpOr, latch.OpXor:
			default:
				op = latch.OpAnd
			}
			// Operands fold in a drawn order.
			for i := len(lpns) - 1; i > 0; i-- {
				j := in.next(i + 1)
				lpns[i], lpns[j] = lpns[j], lpns[i]
			}
			e = plan.Leaf(lpns[0])
			for _, lpn := range lpns[1:] {
				e = fuzzOpExpr(op, e, plan.Leaf(lpn))
			}
			got, err = d.Reduce(op, lpns, scheme, at)
		default:
			e = fuzzTree(&in, lpns, 3)
			got, err = d.ExecuteQuery(e, scheme, at)
			if err == nil {
				var again BitwiseResult
				again, err = d.ExecuteQuery(e, scheme, got.Done)
				if err == nil && !bytes.Equal(again.Data, got.Data) {
					t.Fatalf("%v %v: the repeated query answered differently", scheme, e)
				}
			}
		}
		if errors.Is(err, ftl.ErrDeviceFull) {
			t.Skipf("%v %v: out of space: %v", scheme, e, err)
		}
		if err != nil {
			t.Fatalf("%v %v: %v", scheme, e, err)
		}
		want, err := e.Eval(func(lpn uint64) ([]byte, error) { return content[lpn], nil })
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Data, want) {
			t.Fatalf("%v %v: device result differs from the software evaluation", scheme, e)
		}
		if got.Done < at {
			t.Fatalf("%v %v: done %v before issue %v", scheme, e, got.Done, at)
		}
		if err := d.FTL().CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}
