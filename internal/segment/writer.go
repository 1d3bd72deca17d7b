package segment

import (
	"fmt"
	"slices"

	"retrodns/internal/wire"
)

// Writer accumulates one segment's sorted entries and renders the framed
// file. Keys must arrive strictly ascending — the sparse anchor index and
// Get's scan-forward both depend on the order — and a violation latches
// ErrUnsortedKeys rather than producing a corrupt file.
//
// The entries are encoded once, into a buffer the writer keeps: Reset
// starts the next segment in the same buffers, so one writer serves every
// shard of a snapshot or a seal pass, and the rendered file is the entries
// between a small head and tail (render), appended to a caller's buffer
// (AppendTo, in place in a dataset snapshot) or written to disk as they
// stand (Store.Seal).
type Writer struct {
	shard   int
	gen     uint64
	common  []byte
	entries wire.Writer
	count   int
	lastKey string
	anchors []anchor
	// head and tail are render's scratch, kept with the entries buffer.
	head, tail wire.Writer
	err        error
}

type anchor struct {
	key string
	off uint64
}

// NewWriter starts a segment for the given shard and generation.
func NewWriter(shard int, gen uint64) *Writer {
	return &Writer{shard: shard, gen: gen}
}

// Reset starts a new, empty segment for shard and gen, keeping the
// buffers the previous one grew.
func (w *Writer) Reset(shard int, gen uint64) {
	*w = Writer{
		shard: shard, gen: gen,
		entries: wire.NewWriter(w.entries.Bytes()[:0]),
		anchors: w.anchors[:0],
		head:    w.head, tail: w.tail,
	}
}

// Grow is a size hint: it makes room for about n more bytes of entries, so
// a segment of known rough size is encoded without regrowing its buffer.
func (w *Writer) Grow(n int) {
	w.entries = wire.NewWriter(slices.Grow(w.entries.Bytes(), n))
}

// SetCommon attaches the caller's opaque shared blob (the scanner stores
// the shard's certificate table here). May be called before or after Add.
func (w *Writer) SetCommon(b []byte) { w.common = b }

// Add appends one key/value entry. Keys must be strictly ascending.
func (w *Writer) Add(key string, value []byte) error {
	if w.err != nil {
		return w.err
	}
	if w.count > 0 && key <= w.lastKey {
		w.err = fmt.Errorf("%w: %q after %q", ErrUnsortedKeys, key, w.lastKey)
		return w.err
	}
	if w.count%anchorEvery == 0 {
		w.anchors = append(w.anchors, anchor{key: key, off: uint64(w.entries.Len())})
	}
	w.entries.String(key)
	w.entries.Blob(value)
	w.lastKey = key
	w.count++
	return nil
}

// render is the one rendering of the segment's payload, as three parts
// whose concatenation it is: the header and common blob up to the entries
// region's length prefix, the entries region itself (the writer's buffer,
// not a copy), and the anchor index. The parts alias the writer until its
// next Reset.
func (w *Writer) render() (parts [3][]byte, err error) {
	if w.err != nil {
		return parts, w.err
	}
	w.head = wire.NewWriter(w.head.Bytes()[:0])
	w.head.Byte(formatVersion)
	w.head.Uvarint(uint64(w.shard))
	w.head.Uvarint(w.gen)
	w.head.Blob(w.common)
	w.head.Uvarint(uint64(w.count))
	w.head.Uvarint(uint64(w.entries.Len()))
	w.tail = wire.NewWriter(w.tail.Bytes()[:0])
	w.tail.Uvarint(uint64(len(w.anchors)))
	for _, a := range w.anchors {
		w.tail.String(a.key)
		w.tail.Uvarint(a.off)
	}
	return [3][]byte{w.head.Bytes(), w.entries.Bytes(), w.tail.Bytes()}, nil
}

// Size returns the length of the framed segment file: what AppendTo
// appends and Store.Seal writes.
func (w *Writer) Size() (int, error) {
	parts, err := w.render()
	n := len(fileMagic) + 4
	for _, p := range parts {
		n += len(p)
	}
	return n, err
}

// AppendTo appends the framed segment file — header, common blob, entries
// region and anchor index, CRC-framed under the segment magic — to dst,
// growing it at most once, and returns the extended slice.
func (w *Writer) AppendTo(dst []byte) ([]byte, error) {
	parts, err := w.render()
	if err != nil {
		return dst, err
	}
	return AppendFrame(dst, fileMagic, parts[:]...), nil
}

// Shard and Gen return the identity the writer was created with.
func (w *Writer) Shard() int  { return w.shard }
func (w *Writer) Gen() uint64 { return w.gen }
