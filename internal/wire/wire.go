// Package wire is the one binary codec under every durable byte the
// project writes: WAL frame bodies, dataset and classify-cache snapshots,
// and segment files all encode through Writer and decode through Reader,
// and every CRC in them is Checksum. It depends on the standard library
// only, so every storage package can sit on it.
//
// The encoding is varint-framed: unsigned varints, zig-zag signed varints,
// one-byte booleans, and length-prefixed strings and byte slices.
//
// Decoding operates on attacker-shaped bytes (a garbled file survives its
// CRC one time in 2^32), so no Reader path panics and every length is
// bounded against the remaining input before it can gate an allocation.
// The first malformed read latches ErrMalformed; later reads return zero
// values, so a decode loop can run unchecked and test Err once at the end
// (plus anywhere a value gates an allocation or an index).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// ErrMalformed reports input no Reader method can decode. Callers wrap it
// in their own format's refusal.
var ErrMalformed = errors.New("wire: malformed binary encoding")

// MaxBlob bounds a single Blob (or String) read. Regions that may be
// larger — a segment's entries, a snapshot's dataset section — are read
// with Section, which is bounded by the remaining input only.
const MaxBlob = 1 << 24

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the CRC-32C (Castagnoli) of b: the checksum of every WAL
// frame, snapshot file and segment file.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, crcTable) }

// UpdateChecksum extends crc, the Checksum of some bytes, with b: the
// Checksum of a payload written as several parts is the fold of
// UpdateChecksum over them, starting from 0.
func UpdateChecksum(crc uint32, b []byte) uint32 { return crc32.Update(crc, crcTable, b) }

// Writer appends primitives to a byte slice. The zero value is ready to
// use; Bytes returns the accumulated encoding. A String or Blob is read
// back by the Reader method of the same name up to MaxBlob bytes, and by
// Section past that.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer that appends to buf.
func NewWriter(buf []byte) Writer { return Writer{buf: buf} }

// Bytes returns the encoding.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the length of the encoding so far.
func (w *Writer) Len() int { return len(w.buf) }

// Byte appends one raw byte.
func (w *Writer) Byte(b byte) { w.buf = append(w.buf, b) }

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// Int appends a signed value (zig-zag varint).
func (w *Writer) Int(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	w.buf = append(w.buf, b)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Blob appends a length-prefixed byte slice.
func (w *Writer) Blob(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// Reader consumes primitives written by Writer.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps data for decoding.
func NewReader(data []byte) *Reader { return &Reader{buf: data} }

// Err returns the first decode error, if any.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.buf) - r.off }

// Offset returns how many bytes have been read, for a later Rewind.
func (r *Reader) Offset() int { return r.off }

// Rewind moves the cursor back to an earlier Offset, so a caller that
// validated a run of values can read it again.
func (r *Reader) Rewind(off int) {
	if off <= r.off {
		r.off = off
	}
}

// Fail latches an ErrMalformed naming what the caller found invalid at the
// current offset; a value can be well-formed for the codec and still be
// refused by the format built on it. Only the first failure is kept.
func (r *Reader) Fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at offset %d", ErrMalformed, what, r.off)
	}
}

// Finish returns Err, or a refusal when input remains unread: the check
// that ends the decoding of every whole payload.
func (r *Reader) Finish() error {
	if r.err == nil && r.Len() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, r.Len())
	}
	return r.err
}

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.Fail("byte")
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.Fail("uvarint")
		return 0
	}
	r.off += n
	return v
}

// Int reads a signed (zig-zag) varint.
func (r *Reader) Int() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.Fail("varint")
		return 0
	}
	r.off += n
	return v
}

// Bool reads a one-byte boolean; any byte but 0 or 1 is malformed.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if r.off >= len(r.buf) {
		r.Fail("bool")
		return false
	}
	b := r.buf[r.off]
	r.off++
	if b > 1 {
		r.Fail("bool value")
		return false
	}
	return b == 1
}

// String reads a length-prefixed string of at most MaxBlob bytes.
func (r *Reader) String() string {
	b := r.Blob()
	return string(b)
}

// Blob reads a length-prefixed byte slice of at most MaxBlob bytes,
// aliasing the input.
func (r *Reader) Blob() []byte { return r.take(MaxBlob, "blob length") }

// Section reads a length-prefixed byte slice bounded by the remaining
// input only, aliasing the input: the read for regions that may exceed
// MaxBlob.
func (r *Reader) Section() []byte { return r.take(uint64(r.Len()), "section length") }

// take reads a length prefix of at most limit and the bytes it covers.
func (r *Reader) take(limit uint64, what string) []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > limit || n > uint64(r.Len()) {
		r.Fail(what)
		return nil
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

// Count reads a length prefix that gates a loop of per-element decodes.
// Each element consumes at least one input byte, so any count beyond the
// remaining input is malformed — rejecting it here bounds allocations.
func (r *Reader) Count() int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(r.Len()) {
		r.Fail("count")
		return 0
	}
	return int(n)
}
