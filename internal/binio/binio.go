// Package binio provides small sticky-error binary encoders and decoders
// for the persistence layer's on-disk formats. Both sides are
// little-endian and length-checked: a Reader never allocates more than
// its configured limit for one field and never panics on truncated or
// hostile input — it parks the first error and returns zero values from
// then on, so decode call sites stay linear and check Err once.
package binio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// ErrTooLarge reports a length prefix beyond the reader's per-field cap.
var ErrTooLarge = errors.New("binio: length prefix exceeds limit")

// Writer encodes fixed-width values and length-prefixed byte slices into
// an io.Writer, remembering the first write error.
type Writer struct {
	w   io.Writer
	err error
	buf [8]byte
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Err returns the first write error, or nil.
func (b *Writer) Err() error { return b.err }

func (b *Writer) write(p []byte) {
	if b.err != nil {
		return
	}
	_, b.err = b.w.Write(p)
}

// U8 writes one byte.
func (b *Writer) U8(v uint8) {
	b.buf[0] = v
	b.write(b.buf[:1])
}

// U32 writes a little-endian uint32.
func (b *Writer) U32(v uint32) {
	binary.LittleEndian.PutUint32(b.buf[:4], v)
	b.write(b.buf[:4])
}

// U64 writes a little-endian uint64.
func (b *Writer) U64(v uint64) {
	binary.LittleEndian.PutUint64(b.buf[:8], v)
	b.write(b.buf[:8])
}

// I64 writes a little-endian int64.
func (b *Writer) I64(v int64) { b.U64(uint64(v)) }

// Raw writes p as is, without a length prefix.
func (b *Writer) Raw(p []byte) { b.write(p) }

// Bytes writes a u32 length prefix followed by the raw bytes.
func (b *Writer) Bytes(p []byte) {
	b.U32(uint32(len(p)))
	b.write(p)
}

// Reader decodes what Writer encodes. Limit caps any single
// length-prefixed field; truncation, short reads and oversized prefixes
// all park an error instead of panicking or allocating unboundedly.
type Reader struct {
	r     io.Reader
	err   error
	limit uint32
	buf   [8]byte
}

// NewReader wraps r; limit bounds each length-prefixed field.
func NewReader(r io.Reader, limit uint32) *Reader { return &Reader{r: r, limit: limit} }

// Err returns the first decode error, or nil.
func (b *Reader) Err() error { return b.err }

// Fail parks err (if the reader is still clean), so decoders can report
// semantic errors through the same sticky channel.
func (b *Reader) Fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

func (b *Reader) read(p []byte) bool {
	if b.err != nil {
		return false
	}
	if _, err := io.ReadFull(b.r, p); err != nil {
		b.err = fmt.Errorf("binio: short read: %w", err)
		return false
	}
	return true
}

// U8 reads one byte.
func (b *Reader) U8() uint8 {
	if !b.read(b.buf[:1]) {
		return 0
	}
	return b.buf[0]
}

// U32 reads a little-endian uint32.
func (b *Reader) U32() uint32 {
	if !b.read(b.buf[:4]) {
		return 0
	}
	return binary.LittleEndian.Uint32(b.buf[:4])
}

// U64 reads a little-endian uint64.
func (b *Reader) U64() uint64 {
	if !b.read(b.buf[:8]) {
		return 0
	}
	return binary.LittleEndian.Uint64(b.buf[:8])
}

// I64 reads a little-endian int64.
func (b *Reader) I64() int64 { return int64(b.U64()) }

// Raw fills p, reading exactly len(p) bytes without a length prefix.
func (b *Reader) Raw(p []byte) { b.read(p) }

// Bytes reads a u32 length prefix and that many bytes, bounded by the
// reader's limit.
func (b *Reader) Bytes() []byte {
	n := b.U32()
	if b.err != nil {
		return nil
	}
	if n > b.limit {
		b.Fail(fmt.Errorf("%w: %d > %d", ErrTooLarge, n, b.limit))
		return nil
	}
	p := make([]byte, n)
	if !b.read(p) {
		return nil
	}
	return p
}

// Skip reads a u32 length prefix and discards that many bytes, bounded
// by the reader's limit like Bytes, without allocating them.
func (b *Reader) Skip() {
	n := b.U32()
	if b.err != nil {
		return
	}
	if n > b.limit {
		b.Fail(fmt.Errorf("%w: %d > %d", ErrTooLarge, n, b.limit))
		return
	}
	if _, err := io.CopyN(io.Discard, b.r, int64(n)); err != nil {
		b.err = fmt.Errorf("binio: short read: %w", err)
	}
}
