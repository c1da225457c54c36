// Package nvme implements the host-side command encoding ParaBit layers on
// NVMe (paper §4.3.1, Fig. 10): bitwise-operation semantics tucked into the
// reserved bytes of ordinary NVMe read commands, and the device-side parse
// that reconstructs batches from them.
//
// A bitwise expression like (M0 ? N0) ! (M1 ? N1) — where ? is the
// intra-batch operation and ! the extra-batch operation combining batch
// results — is conveyed as one command pair per batch:
//
//   - the first operand's command carries operand tag 0, the intra-batch
//     operation type (i-t), the batch order, and — in the reserved DWords
//     2 and 3 — the logical address of the second operand;
//   - the second operand's command carries operand tag 1, the extra-batch
//     operation type (e-t), and, when the operand is split into
//     sub-operations, the logical address of the next sub-operation's
//     first operand in DWords 2 and 3.
//
// Operands larger than a flash page are split into page-sized
// sub-operations chained through that pointer; operands smaller than a
// page carry a sector-granularity offset and length in DWord 13's
// remaining reserved byte.
package nvme

import (
	"errors"
	"fmt"

	"parabit/internal/latch"
)

// SectorSize is the addressing granularity of sub-page operands on
// standard 8 KB pages (the "granularity of sector" in §4.3.1).
const SectorSize = 512

// SectorFor returns the sector granularity for a page size: 512 bytes
// when the page divides evenly into at most 256 addressable 512-byte
// sectors (the DWord 13 offset/count fields are 8 bits each, with count
// 0 meaning the whole page), otherwise pageSize/16 so the fields still
// cover the page. Small test geometries use sub-512-byte pages; pages
// beyond 128 KB would overflow the 8-bit sector fields at 512-byte
// granularity and get the coarser /16 sectors instead.
func SectorFor(pageSize int) int {
	if pageSize >= SectorSize && pageSize%SectorSize == 0 && pageSize/SectorSize <= 256 {
		return SectorSize
	}
	s := pageSize / 16
	if s < 1 {
		s = 1
	}
	return s
}

// OpCode is the 3-bit bitwise-operation type stored in the i-t and e-t
// fields. Values match latch.Op plus a "none" marker for unused e-t.
type OpCode uint8

// OpNone marks an absent extra-batch operation (the last batch).
const OpNone OpCode = 7 + 1 // one past the last latch op

// FromOp converts a latch operation to its wire code.
func FromOp(op latch.Op) OpCode { return OpCode(op) }

// Op converts a wire code back to a latch operation.
func (c OpCode) Op() (latch.Op, error) {
	if c >= OpNone {
		return 0, fmt.Errorf("nvme: opcode %d is not an operation", c)
	}
	return latch.Op(c), nil
}

// Command is one NVMe read command with ParaBit's vendor fields decoded.
// DWord fields are kept explicit so the wire round-trip is testable
// against the bit layout in Fig. 10.
type Command struct {
	// LBA is the logical block (flash-page) address of this operand page.
	LBA uint64
	// OperandTag is 0 for a batch's first operand, 1 for the second
	// (first reserved bit of DWord 13).
	OperandTag uint8
	// IntraOp is the intra-batch operation (3 bits of DWord 13, valid on
	// tag-0 commands).
	IntraOp OpCode
	// ExtraOp is the extra-batch operation combining this batch's result
	// with the next batch (3 bits of DWord 13, valid on tag-1 commands).
	ExtraOp OpCode
	// BatchOrder sequences batches of one formula (DWord 13 bits).
	BatchOrder uint8
	// Pointer is DWords 2 and 3: on a tag-0 command, the LBA of the
	// second operand; on a tag-1 command, the LBA of the next
	// sub-operation's first operand (PointerValid distinguishes zero).
	Pointer      uint64
	PointerValid bool
	// SectorOffset and SectorCount describe sub-page operands in sectors;
	// SectorCount 0 means the whole page.
	SectorOffset uint8
	SectorCount  uint8
	// SchemeHint carries the host's placement-scheme selection in reserved
	// DWord 14 (3 bits plus a valid flag), so a Flash-Cosmos or
	// location-free execution preference survives the wire instead of
	// riding an out-of-band channel. SchemeHintValid distinguishes an
	// absent hint from scheme 0.
	SchemeHint      uint8
	SchemeHintValid bool
}

// Wire layout constants for DWord 13 (all within the 4 reserved bytes).
const (
	tagBit        = 0     // bit 0: operand tag
	intraShift    = 1     // bits 1-3: i-t
	extraShift    = 4     // bits 4-6: e-t
	orderShift    = 8     // bits 8-15: batch order
	ptrValidBit   = 7     // bit 7: DWord2/3 pointer valid
	secOffShift   = 16    // bits 16-23: sector offset
	secCountShift = 24    // bits 24-31: sector count
	opMask        = 0b111 // 3-bit operation fields
)

// Wire layout constants for DWord 14: the placement-scheme hint.
const (
	schemeValidBit = 0 // bit 0: scheme hint present
	schemeShift    = 1 // bits 1-3: scheme
	// SchemeHintMax is the largest scheme the 3-bit hint field encodes.
	SchemeHintMax = opMask
)

// DWords is the raw reserved-field encoding: DWords 2, 3, 13 and 14 of
// the NVMe read command.
type DWords struct {
	DW2, DW3, DW13, DW14 uint32
}

// Encode packs the ParaBit fields into the reserved DWords.
func (c Command) Encode() DWords {
	var d DWords
	d.DW2 = uint32(c.Pointer)
	d.DW3 = uint32(c.Pointer >> 32)
	d.DW13 = uint32(c.OperandTag&1) |
		uint32(c.IntraOp&opMask)<<intraShift |
		uint32(c.ExtraOp&opMask)<<extraShift |
		uint32(c.BatchOrder)<<orderShift |
		uint32(c.SectorOffset)<<secOffShift |
		uint32(c.SectorCount)<<secCountShift
	if c.PointerValid {
		d.DW13 |= 1 << ptrValidBit
	}
	if c.SchemeHintValid {
		d.DW14 = 1<<schemeValidBit | uint32(c.SchemeHint&opMask)<<schemeShift
	}
	return d
}

// opFromWire reads a 3-bit field that, with the paper's "8 types" packing,
// cannot represent OpNone explicitly. Absence is signaled by context
// instead: ParseBatches marks the final batch HasNext=false, and every
// consumer ignores that batch's extra op.
func opFromWire(v uint32) OpCode { return OpCode(v & opMask) }

// Decode unpacks reserved DWords into a command with the given LBA.
func Decode(lba uint64, d DWords) Command {
	c := Command{
		LBA:          lba,
		OperandTag:   uint8(d.DW13 & 1),
		IntraOp:      opFromWire(d.DW13 >> intraShift),
		ExtraOp:      opFromWire(d.DW13 >> extraShift),
		BatchOrder:   uint8(d.DW13 >> orderShift),
		Pointer:      uint64(d.DW2) | uint64(d.DW3)<<32,
		PointerValid: d.DW13&(1<<ptrValidBit) != 0,
		SectorOffset: uint8(d.DW13 >> secOffShift),
		SectorCount:  uint8(d.DW13 >> secCountShift),
	}
	if d.DW14&(1<<schemeValidBit) != 0 {
		c.SchemeHint = uint8(d.DW14>>schemeShift) & opMask
		c.SchemeHintValid = true
	}
	return c
}

// Validation errors.
var (
	ErrBadFormula = errors.New("nvme: malformed bitwise formula")
	ErrBadCommand = errors.New("nvme: malformed parabit command")
)

// Operand names a logical byte range participating in a bitwise formula.
// Length and offset must be sector-aligned; operands longer than a page
// are split into page-sized sub-operations during encoding.
type Operand struct {
	LBA    uint64 // first logical page
	Offset int    // byte offset within the first page (sector aligned)
	Length int    // byte length (sector aligned)
}

// Validate checks alignment. Operands spanning several pages must be
// whole pages: the wire encoding chains page-sized sub-operations whose
// commands have nowhere to carry a per-page offset, so a multi-page
// operand with an offset or a partial tail page cannot be represented
// (it would silently parse back as whole pages).
func (o Operand) Validate(pageSize int) error {
	if o.Length <= 0 {
		return fmt.Errorf("%w: operand length %d", ErrBadCommand, o.Length)
	}
	sector := SectorFor(pageSize)
	if o.Offset%sector != 0 || o.Length%sector != 0 {
		return fmt.Errorf("%w: operand %+v not aligned to %d-byte sectors", ErrBadCommand, o, sector)
	}
	if o.Offset < 0 || o.Offset >= pageSize {
		return fmt.Errorf("%w: operand offset %d outside page", ErrBadCommand, o.Offset)
	}
	if o.Pages(pageSize) > 1 && (o.Offset != 0 || o.Length%pageSize != 0) {
		return fmt.Errorf("%w: multi-page operand %+v must cover whole pages", ErrBadCommand, o)
	}
	return nil
}

// Pages returns how many flash pages the operand spans.
func (o Operand) Pages(pageSize int) int {
	return (o.Offset + o.Length + pageSize - 1) / pageSize
}

// Term is one batch of a formula: two operands and the operation between
// them (the paper's "(M ? N)").
type Term struct {
	M, N Operand
	Op   latch.Op
}

// Formula is a chain of terms combined left-to-right by extra-batch
// operations: term[0] !0 term[1] !1 term[2] ... The paper's batch list is
// built from exactly this shape.
type Formula struct {
	Terms []Term
	// Combine[i] merges the running result with Terms[i+1]'s result;
	// len(Combine) == len(Terms)-1.
	Combine []latch.Op
	// Scheme is the placement-scheme hint stamped into every command's
	// DWord 14 when SchemeValid is set; the device side recovers it with
	// StreamScheme. The value is opaque to this package (the SSD layer's
	// scheme enumeration), bounded only by the 3-bit wire field.
	Scheme      uint8
	SchemeValid bool
}

// MaxTerms bounds a formula's term count: the wire's batch-order field
// is 8 bits, so a 257th term would wrap onto batch 0.
const MaxTerms = 256

// Validate checks the formula shape and operand alignment.
func (f Formula) Validate(pageSize int) error {
	if len(f.Terms) == 0 {
		return fmt.Errorf("%w: no terms", ErrBadFormula)
	}
	if len(f.Terms) > MaxTerms {
		return fmt.Errorf("%w: %d terms exceed the %d the batch-order field addresses",
			ErrBadFormula, len(f.Terms), MaxTerms)
	}
	if len(f.Combine) != len(f.Terms)-1 {
		return fmt.Errorf("%w: %d terms need %d combine ops, have %d",
			ErrBadFormula, len(f.Terms), len(f.Terms)-1, len(f.Combine))
	}
	if f.SchemeValid && f.Scheme > SchemeHintMax {
		return fmt.Errorf("%w: scheme hint %d does not fit the 3-bit DWord 14 field",
			ErrBadFormula, f.Scheme)
	}
	for i, t := range f.Terms {
		if err := t.M.Validate(pageSize); err != nil {
			return fmt.Errorf("term %d operand M: %w", i, err)
		}
		if err := t.N.Validate(pageSize); err != nil {
			return fmt.Errorf("term %d operand N: %w", i, err)
		}
		if t.M.Length != t.N.Length {
			return fmt.Errorf("%w: term %d operand lengths %d vs %d",
				ErrBadFormula, i, t.M.Length, t.N.Length)
		}
	}
	return nil
}
