package nvme

import (
	"errors"
	"sync"
	"testing"

	"parabit/internal/latch"
)

func testFormula(t *testing.T, pageSize int) []Command {
	t.Helper()
	f := Formula{
		Terms: []Term{
			{M: Operand{LBA: 1, Length: pageSize}, N: Operand{LBA: 2, Length: pageSize}, Op: latch.OpAnd},
			{M: Operand{LBA: 3, Length: pageSize}, N: Operand{LBA: 4, Length: pageSize}, Op: latch.OpXor},
		},
		Combine: []latch.Op{latch.OpOr},
	}
	cmds, err := EncodeFormula(f, pageSize)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return cmds
}

func TestQueuePairExchangeSurvivesWire(t *testing.T) {
	const pageSize = 256
	cmds := testFormula(t, pageSize)
	qp := NewQueuePair(8)
	got, err := qp.Exchange(cmds)
	if err != nil {
		t.Fatalf("exchange: %v", err)
	}
	if len(got) != len(cmds) {
		t.Fatalf("exchange returned %d commands, submitted %d", len(got), len(cmds))
	}
	// Everything that crossed is exactly what Encode/Decode preserves.
	for i, c := range cmds {
		want := Decode(c.LBA, c.Encode())
		if got[i] != want {
			t.Fatalf("command %d changed across the wire:\n got %+v\nwant %+v", i, got[i], want)
		}
	}
	st := qp.Stats()
	if st.Submitted != int64(len(cmds)) || st.Drained != int64(len(cmds)) || st.Rejected != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MaxDepth != len(cmds) {
		t.Fatalf("max depth %d, want %d", st.MaxDepth, len(cmds))
	}
}

func TestQueuePairBoundsDepth(t *testing.T) {
	const pageSize = 256
	cmds := testFormula(t, pageSize)
	qp := NewQueuePair(len(cmds) - 1)
	if _, err := qp.Exchange(cmds); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-depth exchange = %v, want ErrQueueFull", err)
	}
	if st := qp.Stats(); st.Rejected != int64(len(cmds)) || st.Submitted != 0 {
		t.Fatalf("rejection stats = %+v", st)
	}
	// A rejected exchange leaves the queue clean for the next stream.
	qp2 := NewQueuePair(len(cmds))
	if _, err := qp2.Exchange(cmds); err != nil {
		t.Fatalf("exact-depth exchange: %v", err)
	}
}

func TestQueuePairConcurrentExchangesDoNotShear(t *testing.T) {
	const pageSize = 256
	cmds := testFormula(t, pageSize)
	qp := NewQueuePair(len(cmds)) // one stream at a time fits
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got, err := qp.Exchange(cmds)
				if err != nil {
					panic(err)
				}
				if len(got) != len(cmds) {
					panic("sheared stream")
				}
			}
		}()
	}
	wg.Wait()
	if st := qp.Stats(); st.Drained != 8*50*int64(len(cmds)) {
		t.Fatalf("drained %d, want %d", st.Drained, 8*50*len(cmds))
	}
}
