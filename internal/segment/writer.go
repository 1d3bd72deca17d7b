package segment

import (
	"fmt"

	"retrodns/internal/wire"
)

// Writer accumulates one segment's sorted entries and renders the framed
// file bytes. Keys must arrive strictly ascending — the sparse anchor
// index and Get's scan-forward both depend on the order — and a violation
// latches ErrUnsortedKeys rather than producing a corrupt file.
type Writer struct {
	shard   int
	gen     uint64
	common  []byte
	entries wire.Writer
	count   int
	lastKey string
	anchors []anchor
	err     error
}

type anchor struct {
	key string
	off uint64
}

// NewWriter starts a segment for the given shard and generation.
func NewWriter(shard int, gen uint64) *Writer {
	return &Writer{shard: shard, gen: gen}
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

// Bytes assembles the framed segment file: header, common blob, entries
// region, anchor index, all CRC-framed under the segment magic.
func (w *Writer) Bytes() ([]byte, error) {
	if w.err != nil {
		return nil, w.err
	}
	p := wire.NewWriter(make([]byte, 0, 64+len(w.common)+w.entries.Len()+len(w.anchors)*24))
	p.Byte(formatVersion)
	p.Uvarint(uint64(w.shard))
	p.Uvarint(w.gen)
	p.Blob(w.common)
	p.Uvarint(uint64(w.count))
	p.Blob(w.entries.Bytes())
	p.Uvarint(uint64(len(w.anchors)))
	for _, a := range w.anchors {
		p.String(a.key)
		p.Uvarint(a.off)
	}
	return Frame(fileMagic, p.Bytes()), nil
}

// Shard and Gen return the identity the writer was created with.
func (w *Writer) Shard() int  { return w.shard }
func (w *Writer) Gen() uint64 { return w.gen }
