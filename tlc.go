package parabit

import (
	"fmt"
	"time"

	"parabit/internal/flash"
	"parabit/internal/latch"
	"parabit/internal/sched"
)

// Op3 is a three-operand bitwise operation on a TLC device (§4.4.1): the
// three operand bits live in the LSB, CSB and MSB pages of one TLC cell,
// and the operation is a short latching-circuit sequence — AND3 is a
// single sense at VREAD1, the paper's own example.
type Op3 uint8

// The supported three-operand operations.
const (
	And3 Op3 = iota
	Or3
	Nand3
	Nor3
)

// Op3s lists them all.
var Op3s = []Op3{And3, Or3, Nand3, Nor3}

func (o Op3) String() string { return o.latch().String() }

func (o Op3) latch() latch.TLCOp3 {
	if o > Nor3 {
		panic(fmt.Sprintf("parabit: invalid op3 %d", uint8(o)))
	}
	return latch.TLCOp3(o)
}

// Eval computes the operation on three bits.
func (o Op3) Eval(a, b, c bool) bool { return o.latch().Eval(a, b, c) }

// WithTLCGeometry selects a small TLC device (three pages per wordline,
// TLC timing): the §4.4.1 extension. Three-operand operations
// (WriteOperandTriple + Bitwise3) become available; the MLC two-operand
// schemes are rejected by TLC hardware.
func WithTLCGeometry() Option {
	return func(c *config) {
		c.cfg.Geometry = flash.SmallTLC()
		c.cfg.Timing = flash.TLCTiming()
	}
}

// WriteOperandTriple stores three operand pages co-located in one TLC
// wordline. TLC devices only.
func (d *Device) WriteOperandTriple(lpns [3]uint64, data [3][]byte) error {
	_, err := wait(d.sched.Submit(sched.Command{
		Kind:  sched.KindWriteTriple,
		LPNs:  lpns[:],
		Pages: data[:],
	}))
	return err
}

// Bitwise3 executes a three-operand operation over a co-located TLC
// triple and returns the bit-exact result with its modeled latency.
func (d *Device) Bitwise3(op Op3, lpns [3]uint64) (Result, error) {
	return wait(d.sched.Submit(sched.Command{
		Kind: sched.KindBitwiseTriple,
		LPNs: lpns[:],
		Op3:  op.latch(),
	}))
}

// Op3Latency returns the in-flash latency of a three-operand TLC
// operation under TLC timing.
func Op3Latency(op Op3) time.Duration {
	c := latch.MustPrice(latch.SenseTLC, op.latch().Op(), 1)
	return flash.TLCTiming().SenseLatency(c, flash.SmallTLC().PageSize).Std()
}
