package persist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"parabit/internal/binio"
	"parabit/internal/flash"
)

// Op identifies the layout a journaled write placed its pages with. The
// device owns the mapping from Op to its placement constraint, and live
// writes and replay both go through it; the journal only guarantees the
// shape (operand count) per Op.
type Op uint8

// Journaled operations.
const (
	// OpWrite is the scrambled host data path. The journal stores the
	// pre-scramble bytes; replay re-scrambles them.
	OpWrite Op = iota
	// OpWriteOperand is a plain striped operand write.
	OpWriteOperand
	// OpWritePair co-locates two operands in one wordline.
	OpWritePair
	// OpWriteLSBPair aligns two operands on LSB pages of one plane. No
	// longer written; older journals replay it as a two-page LSB group.
	OpWriteLSBPair
	// OpWriteLSBGroup aligns k operands on LSB pages of one plane.
	OpWriteLSBGroup
	// OpWriteMWSGroup colocates k ESP operands in one block.
	OpWriteMWSGroup
	// OpWriteOnPlane pins one operand to the plane index in Plane.
	OpWriteOnPlane
	// OpWriteTriple co-locates three operands in one TLC wordline.
	OpWriteTriple
	// OpReclaimInternal trimmed the controller's internal page pool.
	// Nothing writes it any more; old journals still hold it, and the
	// device replays it as a no-op.
	OpReclaimInternal
	numOps
)

var opNames = [...]string{
	"write", "operand", "pair", "lsb-pair", "lsb-group", "mws-group",
	"on-plane", "triple", "reclaim",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "unknown"
}

// Record is one journaled operation: the write kind, its sequence
// number, and the host-provided addresses and payloads needed to
// re-execute it during replay.
type Record struct {
	Op  Op
	Seq uint64
	// Plane is the target plane index for OpWriteOnPlane, 0 otherwise.
	Plane int64
	LPNs  []uint64
	Pages [][]byte
}

// Entry is one scanned journal record with its commit status. Only
// committed entries are replayed.
type Entry struct {
	Record    Record
	Committed bool
	// Refs names where each of the record's pages lies in its journal,
	// which a rotation keeps as a segment; OpenDir sets it on committed
	// entries.
	Refs []flash.PageRef
	// off is the offset of the entry's payload in the journal.
	off int64
}

// Framing and decode limits. A frame is u32 payload length, u32 IEEE
// CRC32 of the payload, then the payload.
const (
	frameHeader = 8
	// MaxRecord caps one frame's payload; larger length prefixes are
	// treated as garbage (end of valid journal).
	MaxRecord = 1 << 24
	// MaxGroupLPNs caps the operand count of one journaled group write.
	MaxGroupLPNs = 4096
	// maxPage caps one journaled page payload.
	maxPage = 1 << 20
)

// Payload type tags.
const (
	payloadIntent uint8 = 1
	payloadCommit uint8 = 2
	// payloadPages carries pages a rotation copied forward out of a
	// retiring segment: a page count, then the pages, laid out like an
	// intent's. Replay skips it; only snapshot references name its pages.
	payloadPages uint8 = 3
)

// ShapeOK reports whether the record's operand count is legal for its
// op. Deeper validation (page size, LPN range, geometry) is the
// device's job during replay.
func (r Record) ShapeOK() bool {
	switch r.Op {
	case OpWrite, OpWriteOperand, OpWriteOnPlane:
		return len(r.LPNs) == 1 && len(r.Pages) == 1
	case OpWritePair, OpWriteLSBPair:
		return len(r.LPNs) == 2 && len(r.Pages) == 2
	case OpWriteTriple:
		return len(r.LPNs) == 3 && len(r.Pages) == 3
	case OpWriteLSBGroup, OpWriteMWSGroup:
		return len(r.LPNs) >= 1 && len(r.LPNs) <= MaxGroupLPNs && len(r.LPNs) == len(r.Pages)
	case OpReclaimInternal:
		return len(r.LPNs) == 0 && len(r.Pages) == 0
	}
	return false
}

// appendIntent appends the framed intent record for r to dst.
func appendIntent(dst []byte, r Record) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, frameHeader)...)
	dst = append(dst, payloadIntent, uint8(r.Op))
	dst = binary.LittleEndian.AppendUint64(dst, r.Seq)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.Plane))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.LPNs)))
	for _, lpn := range r.LPNs {
		dst = binary.LittleEndian.AppendUint64(dst, lpn)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Pages)))
	for _, p := range r.Pages {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(p)))
		dst = append(dst, p...)
	}
	return sealFrame(dst, start)
}

// appendCommit appends the framed commit record for seq to dst.
func appendCommit(dst []byte, seq uint64) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, frameHeader)...)
	dst = append(dst, payloadCommit)
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	return sealFrame(dst, start)
}

// sealFrame fills in the header reserved at buf[start:] with the length
// and CRC of the payload that follows it to the end of buf.
func sealFrame(buf []byte, start int) []byte {
	payload := buf[start+frameHeader:]
	binary.LittleEndian.PutUint32(buf[start:start+4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:start+8], crc32.ChecksumIEEE(payload))
	return buf
}

// intentHeader is the size of an intent payload before its LPNs: type,
// op, sequence number, plane and LPN count.
const intentHeader = 1 + 1 + 8 + 8 + 4

// appendPageRefs appends to dst a reference for each page of the intent
// or page-carrying payload, which lies at offset base in the journal of
// epoch seg. A page whose position does not fit a flash.PageRef gets
// the zero reference, and is stored inline. ok is false when payload is
// neither, or its page table does not fit it.
func appendPageRefs(dst []flash.PageRef, seg uint64, base int64, payload []byte) (_ []flash.PageRef, ok bool) {
	var pos uint64 // where the page count lies
	switch {
	case len(payload) >= intentHeader && payload[0] == payloadIntent:
		nLPN := uint64(binary.LittleEndian.Uint32(payload[intentHeader-4:]))
		pos = uint64(intentHeader) + 8*nLPN
	case len(payload) > 0 && payload[0] == payloadPages:
		pos = 1
	default:
		return dst, false
	}
	if pos+4 > uint64(len(payload)) {
		return dst, false
	}
	nPages := binary.LittleEndian.Uint32(payload[pos:])
	pos += 4
	for i := uint32(0); i < nPages; i++ {
		if pos+4 > uint64(len(payload)) {
			return dst, false
		}
		n := uint64(binary.LittleEndian.Uint32(payload[pos:]))
		pos += 4
		if pos+n > uint64(len(payload)) {
			return dst, false
		}
		var ref flash.PageRef
		if off := uint64(base) + pos; seg <= math.MaxUint32 && off <= math.MaxUint32 {
			ref = flash.NewPageRef(uint32(seg), uint32(off))
		}
		dst = append(dst, ref)
		pos += n
	}
	return dst, true
}

// nextFrame returns the payload of the frame at the start of b and the
// frame's length, or ok false when b does not start with a whole frame
// that passes its checksum: the end of the valid journal.
func nextFrame(b []byte) (payload []byte, n int, ok bool) {
	if len(b) < frameHeader {
		return nil, 0, false
	}
	ln := binary.LittleEndian.Uint32(b[0:4])
	if ln > MaxRecord || int(ln) > len(b)-frameHeader {
		return nil, 0, false
	}
	payload = b[frameHeader : frameHeader+int(ln)]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[4:8]) {
		return nil, 0, false
	}
	return payload, frameHeader + int(ln), true
}

// decodePayload parses one CRC-verified payload into its type tag and,
// for intents, the record; a page-carrying payload is validated and
// skipped. Every length is bounds-checked and trailing
// garbage is rejected, so hostile bytes fail cleanly instead of
// panicking or over-allocating.
func decodePayload(payload []byte) (uint8, Record, error) {
	r := bytes.NewReader(payload)
	b := binio.NewReader(r, maxPage)
	typ := b.U8()
	var rec Record
	switch typ {
	case payloadCommit:
		rec.Seq = b.U64()
	case payloadPages:
		n := b.U32()
		for i := uint32(0); i < n && b.Err() == nil; i++ {
			b.Skip()
		}
	case payloadIntent:
		rec.Op = Op(b.U8())
		rec.Seq = b.U64()
		rec.Plane = b.I64()
		nLPN := b.U32()
		if b.Err() == nil && nLPN > MaxGroupLPNs {
			return 0, Record{}, fmt.Errorf("%w: %d lpns in one record", ErrCorrupt, nLPN)
		}
		for i := uint32(0); i < nLPN && b.Err() == nil; i++ {
			rec.LPNs = append(rec.LPNs, b.U64())
		}
		nPages := b.U32()
		if b.Err() == nil && nPages > MaxGroupLPNs {
			return 0, Record{}, fmt.Errorf("%w: %d pages in one record", ErrCorrupt, nPages)
		}
		for i := uint32(0); i < nPages && b.Err() == nil; i++ {
			rec.Pages = append(rec.Pages, b.Bytes())
		}
	default:
		return 0, Record{}, fmt.Errorf("%w: payload type %d", ErrCorrupt, typ)
	}
	if err := b.Err(); err != nil {
		return 0, Record{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if r.Len() != 0 {
		return 0, Record{}, fmt.Errorf("%w: %d trailing bytes in record", ErrCorrupt, r.Len())
	}
	if typ == payloadIntent && !rec.ShapeOK() {
		return 0, Record{}, fmt.Errorf("%w: %s record with %d lpns / %d pages",
			ErrCorrupt, rec.Op, len(rec.LPNs), len(rec.Pages))
	}
	return typ, rec, nil
}

// ScanJournal walks raw journal bytes frame by frame and returns the
// scanned entries in order plus the byte offset where valid frames end.
// Frames of pages a rotation copied forward are no entries and are
// skipped.
// An incomplete, over-long or checksum-failing frame ends the scan — the
// torn tail a crash mid-append leaves — and is reported through the
// offset, not as an error. A frame that passes its checksum but decodes
// to nonsense (unknown type, shape violation, commit without its
// intent, non-monotonic sequence) is ErrCorrupt: that journal was never
// written by this store and must be rejected, not silently truncated.
func ScanJournal(b []byte) ([]Entry, int64, error) {
	var entries []Entry
	off := 0
	lastSeq := uint64(0)
	pending := -1
	for {
		payload, n, ok := nextFrame(b[off:])
		if !ok {
			break
		}
		typ, rec, err := decodePayload(payload)
		if err != nil {
			return nil, int64(off), err
		}
		switch typ {
		case payloadIntent:
			if rec.Seq <= lastSeq {
				return nil, int64(off), fmt.Errorf("%w: sequence %d after %d", ErrCorrupt, rec.Seq, lastSeq)
			}
			lastSeq = rec.Seq
			entries = append(entries, Entry{Record: rec, off: int64(off + frameHeader)})
			pending = len(entries) - 1
		case payloadCommit:
			if pending < 0 || entries[pending].Record.Seq != rec.Seq {
				return nil, int64(off), fmt.Errorf("%w: commit %d without matching intent", ErrCorrupt, rec.Seq)
			}
			entries[pending].Committed = true
			pending = -1
		}
		off += n
	}
	return entries, int64(off), nil
}
