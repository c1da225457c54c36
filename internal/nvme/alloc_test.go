package nvme

import (
	"testing"

	"parabit/internal/latch"
)

// TestWarmWireAllocatesNothing pins both halves of a wire crossing at
// zero allocations once their buffers are warm: the host's encode, the
// queue pair's exchange and the device's parse, over a one-term formula,
// a three-term formula with multi-page operands, and a sub-page one.
func TestWarmWireAllocatesNothing(t *testing.T) {
	const ps = 8192
	page := func(lba uint64, pages int) Operand { return Operand{LBA: lba, Length: pages * ps} }
	formulas := map[string]Formula{
		"one-term": {Terms: []Term{{M: page(1, 1), N: page(2, 1), Op: latch.OpAnd}}},
		"three-term": {
			Terms: []Term{
				{M: page(0, 2), N: page(4, 2), Op: latch.OpAnd},
				{M: page(8, 1), N: page(9, 1), Op: latch.OpXor},
				{M: page(10, 3), N: page(20, 3), Op: latch.OpOr},
			},
			Combine:     []latch.Op{latch.OpOr, latch.OpNand},
			Scheme:      2,
			SchemeValid: true,
		},
		"sub-page": {Terms: []Term{{
			M:  Operand{LBA: 3, Length: 1024},
			N:  Operand{LBA: 3, Offset: 2048, Length: 1024},
			Op: latch.OpXnor,
		}}},
	}
	qp := NewQueuePair(64)
	var cmds, wire []Command
	var p Parser
	for name, f := range formulas {
		crossing := func() {
			var err error
			if cmds, err = AppendCommands(cmds[:0], f, ps); err != nil {
				t.Fatal(err)
			}
			if wire, err = qp.AppendExchange(wire[:0], cmds); err != nil {
				t.Fatal(err)
			}
			if _, err = p.Parse(wire, ps); err != nil {
				t.Fatal(err)
			}
		}
		crossing()
		steps := map[string]func(){
			"encode": func() { cmds, _ = AppendCommands(cmds[:0], f, ps) },
			"exchange": func() {
				wire, _ = qp.AppendExchange(wire[:0], cmds)
			},
			"parse": func() {
				if _, err := p.Parse(wire, ps); err != nil {
					t.Fatal(err)
				}
			},
		}
		for step, run := range steps {
			if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
				t.Fatalf("%s: warm %s allocates %v times", name, step, allocs)
			}
		}
		batches, err := p.Parse(wire, ps)
		if err != nil {
			t.Fatal(err)
		}
		checkBatchesMatch(t, f, batches, ps)
	}
}
