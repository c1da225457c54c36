package nvme

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"parabit/internal/latch"
)

// parseBatchesMap is the map-based CMD Parse module that Parser replaced,
// kept verbatim as the differential oracle: batches keyed by order in a
// map, each batch's latest tag-1 command in another.
func parseBatchesMap(cmds []Command, pageSize int) ([]Batch, error) {
	if len(cmds) == 0 {
		return nil, fmt.Errorf("%w: empty command stream", ErrBadCommand)
	}
	if len(cmds)%2 != 0 {
		return nil, fmt.Errorf("%w: odd command count %d", ErrBadCommand, len(cmds))
	}
	byOrder := map[int]*Batch{}
	// lastSecond remembers each batch's most recent tag-1 command so the
	// sub-operation chain verifies per batch: batches may interleave in
	// the stream, so the previous command in stream order is not
	// necessarily this batch's predecessor.
	lastSecond := map[int]Command{}
	var orders []int
	for i := 0; i < len(cmds); i += 2 {
		first, second := cmds[i], cmds[i+1]
		if first.OperandTag != 0 || second.OperandTag != 1 {
			return nil, fmt.Errorf("%w: commands %d,%d have tags %d,%d",
				ErrBadCommand, i, i+1, first.OperandTag, second.OperandTag)
		}
		if !first.PointerValid || first.Pointer != second.LBA {
			return nil, fmt.Errorf("%w: command %d does not bind its pair (ptr %d vs LBA %d)",
				ErrBadCommand, i, first.Pointer, second.LBA)
		}
		if first.BatchOrder != second.BatchOrder {
			return nil, fmt.Errorf("%w: pair %d spans batches %d and %d",
				ErrBadCommand, i, first.BatchOrder, second.BatchOrder)
		}
		order := int(first.BatchOrder)
		b, ok := byOrder[order]
		if !ok {
			op, err := first.IntraOp.Op()
			if err != nil {
				return nil, fmt.Errorf("%w: batch %d intra op: %v", ErrBadCommand, order, err)
			}
			b = &Batch{Order: order, Op: op}
			// The last batch carries OpNone; test it first so its absent
			// extra op costs no error value.
			if second.ExtraOp < OpNone {
				b.Extra = latch.Op(second.ExtraOp)
			}
			byOrder[order] = b
			orders = append(orders, order)
		}
		sub := SubOp{M: first.LBA, N: second.LBA, Length: pageSize}
		if first.SectorCount != 0 || second.SectorCount != 0 {
			if first.SectorCount != second.SectorCount {
				return nil, fmt.Errorf("%w: pair %d sector counts differ (%d vs %d)",
					ErrBadCommand, i, first.SectorCount, second.SectorCount)
			}
			sector := SectorFor(pageSize)
			sub.SectorOffset = int(first.SectorOffset) * sector
			sub.NSectorOffset = int(second.SectorOffset) * sector
			sub.Length = int(first.SectorCount) * sector
		}
		// Verify the sub-operation chain: this batch's previous pair must
		// have pointed its second command at this pair's first operand.
		if len(b.Subs) > 0 {
			prev := lastSecond[order]
			if !prev.PointerValid || prev.Pointer != first.LBA {
				return nil, fmt.Errorf("%w: batch %d sub-op %d not chained",
					ErrBadCommand, order, len(b.Subs))
			}
		}
		lastSecond[order] = second
		b.Subs = append(b.Subs, sub)
	}
	// Batches execute in order; later batches consume earlier results, so
	// orders must be dense from zero.
	out := make([]Batch, 0, len(orders))
	for want := 0; want < len(orders); want++ {
		b, ok := byOrder[want]
		if !ok {
			return nil, fmt.Errorf("%w: batch order %d missing", ErrBadCommand, want)
		}
		b.HasNext = want < len(orders)-1
		out = append(out, *b)
	}
	return out, nil
}

// streamFromBytes decodes a command stream from fuzz input. Its first
// byte picks the shape. Even modes encode a valid formula of up to five
// terms, some spanning several pages, and merge the terms' pair streams
// in an input-chosen order, so batch orders interleave while each chain
// stays in order; mode 2 (mod 4) then corrupts one field. Odd modes
// build raw pairs over small value ranges, so that pairs bind, chains
// link and orders repeat often enough to reach every check.
func streamFromBytes(data []byte, pageSize int) []Command {
	if len(data) == 0 {
		return nil
	}
	mode, data := data[0], data[1:]
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return int(b)
	}
	if mode%2 == 1 {
		var cmds []Command
		for n := next() % 12; n > 0; n-- {
			b0, b1, b2 := next(), next(), next()
			order := uint8(b1 % 4)
			first := Command{LBA: uint64(b2 % 8), IntraOp: OpCode(b0 % 9), BatchOrder: order,
				Pointer: uint64(b2 >> 3 % 8), PointerValid: b0&0x40 == 0}
			second := Command{LBA: uint64(b2 >> 3 % 8), OperandTag: 1, ExtraOp: OpCode(b1 >> 2 % 9),
				BatchOrder: order, Pointer: uint64(b2 >> 6), PointerValid: b1&0x80 == 0}
			switch b0 >> 4 % 8 {
			case 0:
				first.OperandTag = 1
			case 1:
				second.BatchOrder++
			case 2:
				first.Pointer++
			case 3:
				first.SectorCount, second.SectorCount = uint8(b1%3), uint8(b1>>3%3)
				first.SectorOffset, second.SectorOffset = uint8(b2%4), uint8(b2>>2%4)
			}
			cmds = append(cmds, first, second)
		}
		if next()%8 == 0 && len(cmds) > 0 {
			cmds = cmds[:len(cmds)-1]
		}
		return cmds
	}
	f := Formula{Scheme: uint8(next() % 8), SchemeValid: next()%2 == 0}
	for n := 1 + next()%5; n > 0; n-- {
		lba := uint64(next() % 16)
		length := (1 + next()%3) * pageSize
		m, nOp := Operand{LBA: lba, Length: length}, Operand{LBA: lba + 8, Length: length}
		if next()%4 == 0 {
			sector := SectorFor(pageSize)
			m = Operand{LBA: lba, Offset: 0, Length: sector}
			nOp = Operand{LBA: lba + 8, Offset: sector * (next() % (pageSize / sector)), Length: sector}
			if nOp.Offset+nOp.Length > pageSize {
				nOp.Offset = 0
			}
		}
		f.Terms = append(f.Terms, Term{M: m, N: nOp, Op: latch.Op(next() % len(latch.Ops))})
		if len(f.Terms) > 1 {
			f.Combine = append(f.Combine, latch.Op(next()%len(latch.Ops)))
		}
	}
	enc, err := EncodeFormula(f, pageSize)
	if err != nil {
		return nil
	}
	// Merge the batches' pair streams, each in its own order.
	var byBatch [][]Command
	for i := 0; i < len(enc); i += 2 {
		o := int(enc[i].BatchOrder)
		if o == len(byBatch) {
			byBatch = append(byBatch, nil)
		}
		byBatch[o] = append(byBatch[o], enc[i], enc[i+1])
	}
	cmds := make([]Command, 0, len(enc))
	for len(cmds) < len(enc) {
		b := next() % len(byBatch)
		for len(byBatch[b]) == 0 {
			b = (b + 1) % len(byBatch)
		}
		cmds = append(cmds, byBatch[b][:2]...)
		byBatch[b] = byBatch[b][2:]
	}
	if mode%4 == 2 {
		c := &cmds[next()%len(cmds)]
		switch next() % 8 {
		case 0:
			c.OperandTag ^= 1
		case 1:
			c.PointerValid = !c.PointerValid
		case 2:
			c.Pointer = uint64(next() % 24)
		case 3:
			c.BatchOrder = uint8(next() % 6)
		case 4:
			c.IntraOp = OpCode(next() % 9)
		case 5:
			c.ExtraOp = OpCode(next() % 9)
		case 6:
			c.SectorCount = uint8(next() % 4)
		default:
			c.LBA = uint64(next() % 24)
		}
	}
	return cmds
}

// FuzzParseBatches holds Parser to the map-based parser it replaced: on
// every command stream, interleaved batch orders included, the two return
// equal batches, or the same error, wrapping ErrBadCommand. One parser
// serves every input, so scratch left by one stream must not reach the
// next.
func FuzzParseBatches(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0, 0, 0, 0, 0, 0, 1}, 2)                         // one whole-page term
	f.Add([]byte{0, 3, 1, 0, 2, 0, 2, 0, 0, 5, 5, 5, 5, 4, 1, 2, 2, 0}, 4) // three multi-page terms, shuffled
	f.Add([]byte{2, 2, 1, 3, 0, 3, 0, 3, 1, 3, 1, 2, 5, 0, 3, 1, 2, 1}, 1) // corrupted field
	f.Add([]byte{1, 6, 0x02, 0x08, 0, 0x83, 0x09, 0, 0x04, 0x0a, 0, 0}, 3) // raw commands
	var p Parser
	f.Fuzz(func(t *testing.T, data []byte, pageSel int) {
		pageSize := fuzzPageSizes[((pageSel%len(fuzzPageSizes))+len(fuzzPageSizes))%len(fuzzPageSizes)]
		cmds := streamFromBytes(data, pageSize)
		want, werr := parseBatchesMap(cmds, pageSize)
		got, err := p.Parse(cmds, pageSize)
		if (err != nil) != (werr != nil) {
			t.Fatalf("Parser error %v, oracle error %v", err, werr)
		}
		if err != nil {
			if err.Error() != werr.Error() {
				t.Fatalf("Parser error %q, oracle error %q", err, werr)
			}
			if !errors.Is(err, ErrBadCommand) {
				t.Fatalf("Parser error %v does not wrap ErrBadCommand", err)
			}
			if got != nil {
				t.Fatalf("Parser returned %d batches beside its error", len(got))
			}
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Parser batches\n%+v\noracle\n%+v", got, want)
		}
		if fresh, err := ParseBatches(cmds, pageSize); err != nil || !reflect.DeepEqual(fresh, want) {
			t.Fatalf("ParseBatches %+v, %v; oracle %+v", fresh, err, want)
		}
	})
}

// TestParserSubsDoNotOverlap pins that a batch's sub-operations cannot
// grow into its neighbour's: each Subs slice is capped at its length.
func TestParserSubsDoNotOverlap(t *testing.T) {
	f := Formula{
		Terms: []Term{
			{M: Operand{LBA: 0, Length: 2 * 512}, N: Operand{LBA: 4, Length: 2 * 512}, Op: latch.OpAnd},
			{M: Operand{LBA: 8, Length: 512}, N: Operand{LBA: 9, Length: 512}, Op: latch.OpOr},
		},
		Combine: []latch.Op{latch.OpXor},
	}
	cmds, err := EncodeFormula(f, 512)
	if err != nil {
		t.Fatal(err)
	}
	var p Parser
	batches, err := p.Parse(cmds, 512)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range batches {
		if cap(b.Subs) != len(b.Subs) {
			t.Fatalf("batch %d Subs has cap %d beyond its %d sub-operations", i, cap(b.Subs), len(b.Subs))
		}
	}
}
