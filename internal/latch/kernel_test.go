package latch

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestBaseReproducesEval pins the fold decomposition: for every op and
// operand pair, the base op's result, complemented when Base says so,
// equals Op.Eval. AND, OR and XOR are their own base, as are the NOTs.
func TestBaseReproducesEval(t *testing.T) {
	for _, op := range Ops {
		base, complement := op.Base()
		switch op {
		case OpAnd, OpOr, OpXor, OpNotLSB, OpNotMSB:
			if base != op || complement {
				t.Fatalf("%v.Base() = %v, %v; want itself, no complement", op, base, complement)
			}
		default:
			if base != OpAnd && base != OpOr && base != OpXor {
				t.Fatalf("%v.Base() = %v, not an associative op", op, base)
			}
		}
		for _, l := range []bool{false, true} {
			for _, m := range []bool{false, true} {
				if got := base.Eval(l, m) != complement; got != op.Eval(l, m) {
					t.Fatalf("%v on (%v,%v): base %v complement %v gives %v, Eval %v",
						op, l, m, base, complement, got, op.Eval(l, m))
				}
			}
		}
	}
}

// TestKernelMatchesCircuit is the bridge between the fast word-wide
// kernels used on page data and the actual latching-circuit sequences:
// for random operand bytes and every op, each result bit must equal the
// circuit's OUT after running the real control sequence on that bit's cell.
func TestKernelMatchesCircuit(t *testing.T) {
	f := func(x, y byte, opIdx uint8) bool {
		op := Ops[int(opIdx)%len(Ops)]
		out := kernelOut(op, []byte{x}, []byte{y})[0]
		for b := 0; b < 8; b++ {
			cell := FromBits(x&(1<<b) != 0, y&(1<<b) != 0)
			c := NewCircuit(CellSensor{cell})
			if c.Run(ForOp(op)) != (out&(1<<b) != 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	for _, op := range Ops {
		checkKernelWide(t, op, circuitTable(ForOp(op), func(l, m bool) CellSensor {
			return CellSensor{FromBits(l, m)}
		}))
	}
}

// Same bridge for the location-free sequences.
func TestKernelMatchesLocFreeCircuit(t *testing.T) {
	f := func(nByte, mByte byte, opIdx uint8) bool {
		op := BinaryOps[int(opIdx)%len(BinaryOps)]
		out := kernelOut(op, []byte{nByte}, []byte{mByte})[0]
		for b := 0; b < 8; b++ {
			n := nByte&(1<<b) != 0
			m := mByte&(1<<b) != 0
			// Cell 0 holds M in its MSB; cell 1 holds N in its LSB.
			cells := CellSensor{FromBits(false, m), FromBits(n, false)}
			c := NewCircuit(cells)
			if c.Run(ForOpLocFree(op)) != (out&(1<<b) != 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	for _, op := range BinaryOps {
		checkKernelWide(t, op, circuitTable(ForOpLocFree(op), func(n, m bool) CellSensor {
			return CellSensor{FromBits(false, m), FromBits(n, false)}
		}))
	}
}

// kernelOut runs the page kernel into a fresh page.
func kernelOut(op Op, lsb, msb []byte) []byte {
	out := make([]byte, len(lsb))
	op.Apply(out, lsb, msb)
	return out
}

// circuitTable runs seq on the latching circuit once per operand-bit pair:
// table[l][m] is OUT when the kernel's LSB operand bit is l and its MSB
// operand bit is m, with the cells built by cells.
func circuitTable(seq Sequence, cells func(l, m bool) CellSensor) (table [2][2]bool) {
	for l := 0; l < 2; l++ {
		for m := 0; m < 2; m++ {
			table[l][m] = NewCircuit(cells(l == 1, m == 1)).Run(seq)
		}
	}
	return table
}

// checkKernelWide checks Op.Apply bit for bit against a circuit truth
// table on random pages that reach the word-wide body: one word, a word
// plus a byte tail, and a 256-byte page, besides the tail-only single
// byte. Each width runs out of place and in place with dst aliasing the
// LSB operand, the MSB operand, or both.
func checkKernelWide(t *testing.T, op Op, table [2][2]bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(op) + 1))
	bit := func(p []byte, i int) int { return int(p[i/8]>>(i%8)) & 1 }
	clone := func(p []byte) []byte { return append([]byte(nil), p...) }
	for _, width := range []int{1, 8, 13, 256} {
		for round := 0; round < 8; round++ {
			lsb, msb := make([]byte, width), make([]byte, width)
			rng.Read(lsb)
			rng.Read(msb)
			lsb0, msb0 := clone(lsb), clone(msb)
			cases := []struct {
				name string
				run  func() []byte
				l, m []byte // the operands the result must be computed from
			}{
				{"fresh", func() []byte { return kernelOut(op, lsb, msb) }, lsb0, msb0},
				{"dst=lsb", func() []byte {
					d := clone(lsb)
					op.Apply(d, d, msb)
					return d
				}, lsb0, msb0},
				{"dst=msb", func() []byte {
					d := clone(msb)
					op.Apply(d, lsb, d)
					return d
				}, lsb0, msb0},
				{"dst=lsb=msb", func() []byte {
					d := clone(lsb)
					op.Apply(d, d, d)
					return d
				}, lsb0, lsb0},
			}
			for _, c := range cases {
				got := c.run()
				for i := 0; i < 8*width; i++ {
					if want := table[bit(c.l, i)][bit(c.m, i)]; (bit(got, i) == 1) != want {
						t.Fatalf("%v %s width %d: bit %d = %d, circuit says %v", op, c.name, width, i, bit(got, i), want)
					}
				}
			}
			if !bytes.Equal(lsb, lsb0) || !bytes.Equal(msb, msb0) {
				t.Fatalf("%v width %d: the kernel wrote to an operand it only reads", op, width)
			}
		}
	}
}

// Bridge: LSB location-free kernels equal the circuit per bit. The flash
// array passes wordline m in the kernel's LSB slot and n in its MSB slot, so the
// NOT pair inverts m (NOT-LSB) or n (NOT-MSB) as the sequences do.
func TestKernelMatchesLocFreeLSBCircuit(t *testing.T) {
	f := func(mByte, nByte byte, opIdx uint8) bool {
		op := Ops[int(opIdx)%len(Ops)]
		out := kernelOut(op, []byte{mByte}, []byte{nByte})[0]
		for b := 0; b < 8; b++ {
			m := mByte&(1<<b) != 0
			nn := nByte&(1<<b) != 0
			cells := CellSensor{FromBits(m, false), FromBits(nn, false)}
			c := NewCircuit(cells)
			if c.Run(lsbSeqs[op]) != (out&(1<<b) != 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	for _, op := range Ops {
		checkKernelWide(t, op, circuitTable(lsbSeqs[op], func(m, n bool) CellSensor {
			return CellSensor{FromBits(m, false), FromBits(n, false)}
		}))
	}
}
