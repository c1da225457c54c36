package nvme

import (
	"fmt"
	"slices"

	"parabit/internal/latch"
)

// EncodeFormula lowers a validated formula to the NVMe command stream the
// host driver would submit: per batch, page-sized sub-operation pairs with
// the pointer chaining of §4.3.1/Fig. 11. The stream is ordered: for each
// term, sub-operation by sub-operation, first operand then second.
func EncodeFormula(f Formula, pageSize int) ([]Command, error) {
	return AppendCommands(nil, f, pageSize)
}

// AppendCommands is EncodeFormula appending the stream to dst, so a
// caller that keeps dst encodes without allocating. A formula Validate
// refuses returns dst unchanged with the error.
func AppendCommands(dst []Command, f Formula, pageSize int) ([]Command, error) {
	if err := f.Validate(pageSize); err != nil {
		return dst, err
	}
	for ti, term := range f.Terms {
		extra := OpNone
		if ti < len(f.Combine) {
			extra = FromOp(f.Combine[ti])
		}
		subs := term.M.Pages(pageSize)
		if n := term.N.Pages(pageSize); n > subs {
			subs = n
		}
		for si := 0; si < subs; si++ {
			mLBA := term.M.LBA + uint64(si)
			nLBA := term.N.LBA + uint64(si)
			first := Command{
				LBA:          mLBA,
				OperandTag:   0,
				IntraOp:      FromOp(term.Op),
				BatchOrder:   uint8(ti),
				Pointer:      nLBA, // binds the two operands of the pair
				PointerValid: true,
			}
			second := Command{
				LBA:        nLBA,
				OperandTag: 1,
				ExtraOp:    extra,
				BatchOrder: uint8(ti),
			}
			// Chain to the next sub-operation's first operand.
			if si+1 < subs {
				second.Pointer = term.M.LBA + uint64(si+1)
				second.PointerValid = true
			}
			// Sub-page operands carry sector offset/length; only a
			// single-page operand can be sub-page.
			if subs == 1 && (term.M.Offset != 0 || term.M.Length < pageSize) {
				sector := SectorFor(pageSize)
				first.SectorOffset = uint8(term.M.Offset / sector)
				first.SectorCount = uint8(term.M.Length / sector)
				second.SectorOffset = uint8(term.N.Offset / sector)
				second.SectorCount = uint8(term.N.Length / sector)
			}
			if f.SchemeValid {
				first.SchemeHint, first.SchemeHintValid = f.Scheme, true
				second.SchemeHint, second.SchemeHintValid = f.Scheme, true
			}
			dst = append(dst, first, second)
		}
	}
	return dst, nil
}

// StreamScheme recovers the placement-scheme hint from a parsed command
// stream: every command must agree — all hintless, or all carrying the
// same scheme. A mixed stream is a malformed submission (two drivers'
// formulas sheared together, or a corrupted DWord 14) and errors rather
// than letting half a query execute under the wrong scheme.
func StreamScheme(cmds []Command) (uint8, bool, error) {
	if len(cmds) == 0 {
		return 0, false, nil
	}
	scheme, valid := cmds[0].SchemeHint, cmds[0].SchemeHintValid
	for i, c := range cmds[1:] {
		if c.SchemeHintValid != valid || (valid && c.SchemeHint != scheme) {
			return 0, false, fmt.Errorf("%w: command %d scheme hint (%d,%v) disagrees with stream (%d,%v)",
				ErrBadCommand, i+1, c.SchemeHint, c.SchemeHintValid, scheme, valid)
		}
	}
	return scheme, valid, nil
}

// SubOp is one device-side sub-operation: a bound pair of page-granularity
// operand reads (two "CMD"s of Fig. 11).
type SubOp struct {
	M, N uint64 // logical page addresses of the operands
	// SectorOffset and NSectorOffset are the byte offsets of the M and N
	// operands within their pages (from each command's sector fields);
	// 0 = page start. The two operands may start at different offsets.
	SectorOffset  int
	NSectorOffset int
	Length        int // byte length; pageSize when SectorCount was 0
}

// Batch is the device-side structure the CMD Parse module builds for one
// bitwise term (Fig. 11): its sub-operations, the intra-batch operation,
// and the extra-batch operation linking it to the following batch.
type Batch struct {
	Order   int
	Op      latch.Op
	Extra   latch.Op // combine with next batch's result
	HasNext bool     // whether Extra is meaningful
	Subs    []SubOp
}

// ParseBatches is the device-side CMD Parse module: it reconstructs the
// batch list from the submitted command stream, validating the pairing
// and pointer chaining invariants.
func ParseBatches(cmds []Command, pageSize int) ([]Batch, error) {
	return new(Parser).Parse(cmds, pageSize)
}

// Parser is the CMD Parse module with reusable scratch: the batches Parse
// returns, and their sub-operations, live in the parser and stay valid
// until its next Parse. The zero value is ready to use; scratch grows on
// first use. Not safe for concurrent use.
type Parser struct {
	// batches, last and next are indexed by batch order, which the 8-bit
	// wire field bounds to MaxTerms, so no map is needed. last is the
	// stream index of the batch's latest tag-1 command; next counts the
	// batch's sub-operations, then marks where its next one goes in subs.
	batches    []Batch
	last, next []int
	subs       []SubOp
}

// Parse is ParseBatches into the parser's scratch.
func (p *Parser) Parse(cmds []Command, pageSize int) ([]Batch, error) {
	if len(cmds) == 0 {
		return nil, fmt.Errorf("%w: empty command stream", ErrBadCommand)
	}
	if len(cmds)%2 != 0 {
		return nil, fmt.Errorf("%w: odd command count %d", ErrBadCommand, len(cmds))
	}
	var seen [MaxTerms]bool
	orders := 0
	for i := 0; i < len(cmds); i += 2 {
		first, second := &cmds[i], &cmds[i+1]
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
		if !seen[order] {
			op, err := first.IntraOp.Op()
			if err != nil {
				return nil, fmt.Errorf("%w: batch %d intra op: %v", ErrBadCommand, order, err)
			}
			b := Batch{Order: order, Op: op}
			// The last batch carries OpNone; test it first so its absent
			// extra op costs no error value.
			if second.ExtraOp < OpNone {
				b.Extra = latch.Op(second.ExtraOp)
			}
			p.batches, p.last, p.next = atLeast(p.batches, order+1), atLeast(p.last, order+1), atLeast(p.next, order+1)
			p.batches[order], p.next[order] = b, 0
			seen[order] = true
			orders++
		}
		if _, err := pairSub(first, second, i, pageSize); err != nil {
			return nil, err
		}
		// Verify the sub-operation chain: this batch's previous pair must
		// have pointed its second command at this pair's first operand.
		// Batches may interleave in the stream, so the previous command
		// in stream order is not necessarily this batch's predecessor.
		if p.next[order] > 0 {
			prev := &cmds[p.last[order]]
			if !prev.PointerValid || prev.Pointer != first.LBA {
				return nil, fmt.Errorf("%w: batch %d sub-op %d not chained",
					ErrBadCommand, order, p.next[order])
			}
		}
		p.last[order] = i + 1
		p.next[order]++
	}
	// Batches execute in order; later batches consume earlier results, so
	// orders must be dense from zero.
	for want := 0; want < orders; want++ {
		if !seen[want] {
			return nil, fmt.Errorf("%w: batch order %d missing", ErrBadCommand, want)
		}
	}
	// Every order below the count is present, so none lies above it. Lay
	// each batch's sub-operations out contiguously, in stream order.
	batches := p.batches[:orders]
	at := 0
	for o := range batches {
		n := p.next[o]
		p.next[o] = at
		at += n
	}
	p.subs = atLeast(p.subs[:0], at)
	for i := 0; i < len(cmds); i += 2 {
		o := cmds[i].BatchOrder
		p.subs[p.next[o]], _ = pairSub(&cmds[i], &cmds[i+1], i, pageSize)
		p.next[o]++
	}
	start := 0
	for o := range batches {
		end := p.next[o]
		batches[o].Subs = p.subs[start:end:end]
		batches[o].HasNext = o < orders-1
		start = end
	}
	return batches, nil
}

// pairSub is the sub-operation the pair at stream index i names.
func pairSub(first, second *Command, i, pageSize int) (SubOp, error) {
	sub := SubOp{M: first.LBA, N: second.LBA, Length: pageSize}
	if first.SectorCount != 0 || second.SectorCount != 0 {
		if first.SectorCount != second.SectorCount {
			return SubOp{}, fmt.Errorf("%w: pair %d sector counts differ (%d vs %d)",
				ErrBadCommand, i, first.SectorCount, second.SectorCount)
		}
		sector := SectorFor(pageSize)
		sub.SectorOffset = int(first.SectorOffset) * sector
		sub.NSectorOffset = int(second.SectorOffset) * sector
		sub.Length = int(first.SectorCount) * sector
	}
	return sub, nil
}

// atLeast extends s to length n, reusing its backing array when it fits.
func atLeast[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	return slices.Grow(s, n-len(s))[:n]
}

// RoundTrip is the host boundary of a formula: encode it to wire
// commands (including the DWord pack/unpack) and parse them back into
// batches, exactly as host firmware and device firmware would.
func RoundTrip(f Formula, pageSize int) ([]Batch, error) {
	cmds, err := EncodeFormula(f, pageSize)
	if err != nil {
		return nil, err
	}
	// Exercise the wire encoding: pack to DWords and decode again.
	wire := make([]Command, len(cmds))
	for i, c := range cmds {
		wire[i] = Decode(c.LBA, c.Encode())
	}
	return ParseBatches(wire, pageSize)
}
